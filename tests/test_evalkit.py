"""Tests for edge features, logistic regression, k-fold, and audits."""

import json
import re
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sgembed import (
    EdgeFeatureMode,
    EmbeddingMatrix,
    Sign,
    SignedGraph,
    TrainConfig,
    balance_audit,
    edge_feature_matrix,
    fold_metrics,
    kfold_link_prediction,
    logreg_predict_proba,
    logreg_train,
    random_connected_graph,
    sparsity_sweep,
    stratified_edge_folds,
    synth_balanced,
)
from sgembed import evalkit
from oracles import (
    dealt_folds,
    hand_paper_micro_f1,
    hand_standard_micro_f1,
    log_loss,
    newton_logreg,
    per_fold_metrics,
    ridge_gradient,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402

P, N = Sign.POSITIVE, Sign.NEGATIVE

FAST_CFG = TrainConfig(
    embedding_dim=4,
    learning_rate=0.2,
    outer_epochs=1,
    d_epochs=1,
    g_epochs=1,
    samples_per_center=3,
    batch_size=8,
    seed=0,
)


def embedding_from(rows):
    return EmbeddingMatrix(values=np.asarray(rows, dtype=float))


def no_training(*args, **kwargs):
    raise AssertionError("train must not run")


def edge_row(emb, u, v, mode):
    """Feature vector of the single edge (u, v)."""
    return edge_feature_matrix(emb, [u], [v], mode)[0]


class TestEdgeFeatures:
    def setup_method(self):
        self.emb = embedding_from([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])

    def test_hadamard(self):
        assert edge_row(self.emb, 0, 1, EdgeFeatureMode.HADAMARD).tolist() == [
            3.0,
            8.0,
        ]

    def test_l1_of_identical_rows_is_zero(self):
        emb = embedding_from([[1.0, 2.0], [1.0, 2.0]])
        assert edge_row(emb, 0, 1, EdgeFeatureMode.L1).tolist() == [0.0, 0.0]

    def test_l2_is_squared_difference(self):
        assert edge_row(self.emb, 0, 1, EdgeFeatureMode.L2).tolist() == [
            4.0,
            4.0,
        ]

    def test_average(self):
        assert edge_row(self.emb, 0, 1, EdgeFeatureMode.AVERAGE).tolist() == [
            2.0,
            3.0,
        ]

    def test_concat_orders_by_node_id(self):
        emb = embedding_from([[1.0, 0.0], [0.0, 1.0]])
        forward = edge_row(emb, 0, 1, EdgeFeatureMode.CONCAT)
        backward = edge_row(emb, 1, 0, EdgeFeatureMode.CONCAT)
        assert forward.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert backward.tolist() == forward.tolist()

    def test_symmetry_of_all_modes(self):
        for mode in EdgeFeatureMode:
            a = edge_row(self.emb, 0, 2, mode)
            b = edge_row(self.emb, 2, 0, mode)
            assert np.array_equal(a, b), mode

    def test_dimensions(self):
        for mode in EdgeFeatureMode:
            dim = len(edge_row(self.emb, 0, 1, mode))
            assert dim == (4 if mode is EdgeFeatureMode.CONCAT else 2)

    def test_matrix_matches_scalar(self):
        # rows of a many-edge call equal one-edge calls and the formulas
        pairs = [(0, 1), (2, 0), (1, 2)]
        x, y = self.emb.values[[0, 0, 1]], self.emb.values[[1, 2, 2]]
        expected = {
            EdgeFeatureMode.L1: np.abs(x - y),
            EdgeFeatureMode.L2: (x - y) ** 2,
            EdgeFeatureMode.HADAMARD: x * y,
            EdgeFeatureMode.AVERAGE: (x + y) / 2.0,
            EdgeFeatureMode.CONCAT: np.concatenate([x, y], axis=1),
        }
        us, vs = zip(*pairs)
        for mode in EdgeFeatureMode:
            mat = edge_feature_matrix(self.emb, us, vs, mode)
            assert np.array_equal(mat, expected[mode])
            for row, (u, v) in zip(mat, pairs):
                assert np.array_equal(row, edge_row(self.emb, u, v, mode))

    def test_chunk_size_does_not_change_features(self, monkeypatch):
        rng = np.random.default_rng(8)
        emb = EmbeddingMatrix(values=rng.normal(size=(50, 3)))
        us = rng.integers(0, 50, size=400)
        vs = (us + rng.integers(1, 50, size=400)) % 50
        whole = {m: edge_feature_matrix(emb, us, vs, m) for m in EdgeFeatureMode}
        monkeypatch.setattr(evalkit, "CHUNK_BYTES", 8)  # one row per chunk
        for mode, expected in whole.items():
            rows = edge_feature_matrix(emb, us, vs, mode)
            assert rows.dtype == np.float64
            assert np.array_equal(rows, expected), mode

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            edge_row(self.emb, 1, 1, EdgeFeatureMode.L1)

    def test_mode_parsing(self):
        assert EdgeFeatureMode("hadamard") is EdgeFeatureMode.HADAMARD
        with pytest.raises(ValueError):
            EdgeFeatureMode("cosine")


class TestLogisticRegression:
    def test_separable_one_dimensional(self):
        x = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        [model] = logreg_train(x, y)
        assert model.weights[0] > 0
        pred = (logreg_predict_proba(model, x) >= 0.5).astype(int)
        assert np.array_equal(pred, y)

    def test_loss_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=(40, 3))
            y = (rng.random(40) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            [model] = logreg_train(x, y)
            initial = log_loss(x, y, np.zeros(3), 0.0)
            assert log_loss(x, y, model.weights, model.bias) <= initial + 1e-12

    def test_descent_matches_recomputed_loss(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
        [model] = logreg_train(x, y)
        prob = logreg_predict_proba(model, x)
        recomputed = float(
            np.mean(np.where(y == 1, -np.log(prob), -np.log1p(-prob)))
        )
        assert log_loss(x, y, model.weights, model.bias) == pytest.approx(
            recomputed
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            logreg_train(np.ones((3, 2)), np.array([1, 1, 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2))
        y = (rng.random(20) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        [a] = logreg_train(x, y)
        [b] = logreg_train(x, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


def edge_fixture(dim, mode, edges, k, seed):
    """Features of random edges over a random table, noisy linear labels,
    and a random fold per edge."""
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(values=rng.normal(size=(50, dim)))
    us = rng.integers(0, 50, size=edges)
    vs = (us + rng.integers(1, 50, size=edges)) % 50
    x = edge_feature_matrix(emb, us, vs, mode)
    score = x @ rng.normal(size=x.shape[1])
    labels = (score + rng.normal(size=edges) > 0).astype(int)
    fold_of = rng.integers(0, k, size=edges)
    return x, labels, fold_of


class TestKModelFit:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize(
        "dim, mode, edges",
        [(1, EdgeFeatureMode.HADAMARD, evalkit.CHUNK_BYTES // 8 + 1000),
         (8, EdgeFeatureMode.CONCAT, 5000)],
    )
    def test_each_column_matches_its_own_fit(self, dim, mode, edges, k):
        x, labels, fold_of = edge_fixture(dim, mode, edges, k, k)
        rows = evalkit.CHUNK_BYTES // (8 * x.shape[1])
        # several chunks of rows, the last one partial
        assert edges > rows and edges % rows
        mask = fold_of[:, None] != np.arange(k)[None, :]
        models = logreg_train(x, labels, mask)
        assert len(models) == k
        for f, model in enumerate(models):
            train = fold_of != f
            expected = newton_logreg(x[train], labels[train])
            np.testing.assert_allclose(
                model.weights, expected.weights, rtol=1e-9, atol=1e-12
            )
            assert model.bias == pytest.approx(expected.bias, rel=1e-9)

    def test_test_rows_do_not_reach_their_model(self):
        k = 3
        x, labels, fold_of = edge_fixture(4, EdgeFeatureMode.L1, 3000, k, 7)
        mask = fold_of[:, None] != np.arange(k)[None, :]
        before = logreg_train(x, labels, mask)
        changed = x.copy()
        changed[fold_of == 1] *= -3.0
        after = logreg_train(changed, labels, mask)
        assert np.array_equal(after[1].weights, before[1].weights)
        assert after[1].bias == before[1].bias
        assert not np.array_equal(after[0].weights, before[0].weights)

    def test_single_class_column_named(self):
        x = np.arange(6, dtype=float)[:, None]
        y = np.array([0, 1, 0, 1, 1, 1])
        mask = np.ones((6, 3), dtype=bool)
        mask[:4, 2] = False
        with pytest.raises(ValueError, match="column 2: .*both classes"):
            logreg_train(x, y, mask)

    def test_features_must_be_one_row_per_label(self):
        x, labels, _ = edge_fixture(2, EdgeFeatureMode.AVERAGE, 100, 2, 0)
        for features, y in [(x, labels[:-1]), (x[None], labels)]:
            with pytest.raises(ValueError, match="labels for features"):
                logreg_train(features, y)

    def test_chunk_size_does_not_change_models(self, monkeypatch):
        x, labels, fold_of = edge_fixture(4, EdgeFeatureMode.L2, 3000, 3, 9)
        mask = fold_of[:, None] != np.arange(3)[None, :]
        assert len(x) < evalkit.CHUNK_BYTES // (8 * 4)  # one chunk
        expected = logreg_train(x, labels, mask)
        monkeypatch.setattr(evalkit, "CHUNK_BYTES", 8)  # one row per chunk
        for model, other in zip(logreg_train(x, labels, mask), expected):
            np.testing.assert_allclose(
                model.weights, other.weights, rtol=1e-9, atol=1e-12
            )
            assert model.bias == pytest.approx(other.bias, rel=1e-9)


def random_fit(chunks, dim, k, seed):
    """``(m, dim)`` features that fill ``chunks`` chunks of rows at the
    default CHUNK_BYTES, the last one partial, noisy linear 0/1 labels,
    and a random fold mask of k columns (None for k=1)."""
    rng = np.random.default_rng(seed)
    rows = evalkit.CHUNK_BYTES // (8 * dim)
    m = chunks * rows - rows // 3
    x = rng.normal(size=(m, dim))
    labels = (x @ rng.normal(size=dim) + rng.normal(size=m) > 0).astype(int)
    if k == 1:
        return x, labels, None
    return x, labels, rng.integers(0, k, size=m)[:, None] != np.arange(k)


def wide_l2_fit():
    """Wide-ranged features, on which a fixed-step gradient descent
    oscillates: L2 features (up to about 50) of an N(0, 1)-plus-centroid
    table on a Bitcoin-OTC-shaped graph, with 5 random folds."""
    u, v, sign, community = inputs.bitcoin_like_graph(1500, 1)
    rng = np.random.default_rng(3)
    values = inputs.community_embedding(community, 50, 2)
    values += rng.normal(size=values.shape)
    x = edge_feature_matrix(
        EmbeddingMatrix(values=values), u, v, EdgeFeatureMode.L2
    )
    fold_of = rng.integers(0, 5, size=len(u))
    return x, (sign > 0).astype(int), fold_of[:, None] != np.arange(5)


def separable_fit(scale):
    """Criterion 8's separable clusters at -2 and 2, times ``scale``."""
    rng = np.random.default_rng(6)
    x = np.concatenate(
        [rng.normal(-2, 0.3, (30, 1)), rng.normal(2, 0.3, (30, 1))]
    )
    return scale * x, np.array([0] * 30 + [1] * 30), None


FITS = {
    "wide_l2": wide_l2_fit,
    "separable": lambda: separable_fit(1.0),
    "separable_features_near_1e4": lambda: separable_fit(5e3),
    "chunked_k5": lambda: random_fit(7, 6, 5, 4),
}
# Largest coordinate of a model's objective gradient a converged fit
# leaves; the fits above leave at most about 7e-15.
GRADIENT_BOUND = 1e-9


class TestNewtonFit:
    @pytest.mark.parametrize("fit", FITS)
    def test_gradient_vanishes_at_return(self, fit):
        x, labels, mask = FITS[fit]()
        models = logreg_train(x, labels, mask)
        for j, model in enumerate(models):
            rows = slice(None) if mask is None else mask[:, j]
            grad = ridge_gradient(x[rows], labels[rows], model)
            assert grad < GRADIENT_BOUND, f"column {j}: {grad:.2e}"

    def test_fit_past_the_cap_names_its_column(self, monkeypatch):
        monkeypatch.setattr(evalkit, "MAX_ITERATIONS", 1)
        x, labels, mask = random_fit(3, 4, 3, 1)
        with pytest.raises(
            ValueError, match="column 0: no convergence in 1 Newton"
        ):
            logreg_train(x, labels, mask)


def no_thread(*args, **kwargs):
    raise AssertionError("fit started a thread")


class InlinePool:
    """A ``ProcessPoolExecutor`` that runs its jobs in this process, so a
    test sees what a pool worker's fits do."""

    jobs = 0

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        InlinePool.jobs += len(jobs)
        return list(map(fn, jobs))


def assert_same_models(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestLogregTrain:
    """Fits in the worker processes of ``--threads N`` pools."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "chunks, k",
        [(7, 3),
         (2, 2),
         (5, 1)],  # one model, no mask
    )
    def test_models_bitwise_equal_at_any_worker_count(self, cpus, chunks, k):
        # strict folds and sweep cells fit in pool workers, and their
        # results must equal the sequential order's
        x, labels, mask = random_fit(chunks, 6, k, chunks * 10 + k)
        expected = logreg_train(x, labels, mask)
        with ProcessPoolExecutor(max_workers=cpus) as pool:
            fits = [
                pool.submit(logreg_train, x, labels, mask)
                for _ in range(cpus)
            ]
            got = [fit.result(timeout=120) for fit in fits]
        for models in got:
            assert_same_models(models, expected)
        for j, model in enumerate(expected):
            rows = slice(None) if mask is None else mask[:, j]
            oracle = newton_logreg(x[rows], labels[rows])
            np.testing.assert_allclose(
                model.weights, oracle.weights, rtol=1e-9, atol=1e-12
            )
            assert model.bias == pytest.approx(oracle.bias, rel=1e-9)

    def test_worker_error_reaches_the_caller(self):
        x, labels, mask = random_fit(4, 3, 2, 6)
        mask[:, 1] &= labels == 1  # column 1 trains on positives only
        with ProcessPoolExecutor(max_workers=2) as pool:
            fit = pool.submit(logreg_train, x, labels, mask)
            with pytest.raises(
                ValueError, match="column 1: .*both classes"
            ) as raised:
                fit.result(timeout=120)
        assert raised.value.column == 1

    @pytest.mark.parametrize("leakage", ["strict", "fast"])
    def test_fits_in_pool_jobs_start_no_thread(self, monkeypatch, leakage):
        # one-row chunks give every fit as many chunks as it has edges
        monkeypatch.setattr(evalkit, "CHUNK_BYTES", 8)
        monkeypatch.setattr(evalkit, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "jobs", 0)
        monkeypatch.setattr(threading, "Thread", no_thread)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=2)
        if leakage == "strict":
            kfold_link_prediction(
                g, 3, train_cfg=FAST_CFG, leakage_mode="strict", threads=2
            )
        else:
            sparsity_sweep(
                g, fractions=(0.2,), repeats=2, k_folds=3, train_cfg=FAST_CFG,
                leakage_mode="fast", threads=2,
            )
        assert InlinePool.jobs == (3 if leakage == "strict" else 2)


class TestFoldMetrics:
    def test_perfect_predictions_score_one(self):
        y = np.array([1, 0, 1, 1, 0])
        m = fold_metrics(y, y)
        assert m.paper_micro_f1 == 1.0
        assert m.standard_micro_f1 == 1.0

    def test_always_positive_on_imbalanced_split(self):
        y_true = np.array([1] * 90 + [0] * 10)
        y_pred = np.ones(100, dtype=int)
        m = fold_metrics(y_true, y_pred)
        assert m.recall_neg == 0.0
        assert m.recall_pos == 1.0
        assert m.precision_pos == pytest.approx(0.9)
        assert m.precision_neg == 0.0
        # hand arithmetic: P=(0.9+0)/2, R=(1+0)/2, F1=2PR/(P+R)
        expected = 2 * 0.45 * 0.5 / (0.45 + 0.5)
        assert m.paper_micro_f1 == pytest.approx(expected)
        assert m.standard_micro_f1 == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_hand_computation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        y_true = (rng.random(n) < 0.6).astype(int)
        y_pred = (rng.random(n) < 0.5).astype(int)
        m = fold_metrics(y_true, y_pred)
        assert m.paper_micro_f1 == pytest.approx(
            hand_paper_micro_f1(y_true, y_pred)
        )
        assert m.standard_micro_f1 == pytest.approx(
            hand_standard_micro_f1(y_true, y_pred)
        )

    def test_confusion_counts_sum_to_test_size(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 0, 1, 1])
        m = fold_metrics(y_true, y_pred)
        assert m.n_pp + m.n_pn + m.n_np + m.n_nn == 5


class TestStratifiedFolds:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_partition(self, seed):
        g = random_connected_graph(30, 80, seed)
        folds = stratified_edge_folds(g, 5, np.random.default_rng(seed))
        combined = np.concatenate(folds)
        assert sorted(combined.tolist()) == list(range(g.edge_count))

    def test_sign_ratio_within_one_edge(self):
        g = random_connected_graph(40, 160, 7)
        folds = stratified_edge_folds(g, 5, np.random.default_rng(0))
        signs = g.edge_sign
        pos_total = int((signs > 0).sum())
        for fold in folds:
            pos_fold = int((signs[fold] > 0).sum())
            # round-robin deal keeps counts within 1 of the exact share
            assert abs(pos_fold - pos_total * len(fold) / g.edge_count) <= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_list_dealing_oracle(self, seed):
        # same stream, same folds; seed 3 has one sign only
        g = random_connected_graph(30, 60, seed)
        if seed == 3:
            g = SignedGraph.from_edges(
                g.node_count, [(u, v, N) for u, v, _ in g.edges]
            )
        for k in (2, 5):
            folds = stratified_edge_folds(g, k, np.random.default_rng(seed))
            expected = dealt_folds(g, k, np.random.default_rng(seed))
            assert [f.tolist() for f in folds] == expected
            assert all(f.dtype == np.int64 for f in folds)

    def test_at_least_two_folds(self):
        g = random_connected_graph(10, 10, 0)
        with pytest.raises(ValueError):
            stratified_edge_folds(g, 1, np.random.default_rng(0))


class TestKfoldLinkPrediction:
    def test_precomputed_embeddings_skip_training(self):
        g = synth_balanced(2, 8, 0.9, 0.8, 0.0, seed=1)
        # ideal embeddings: same community aligned, cross anti-aligned
        values = np.array(
            [[1.0, 0.2]] * 8 + [[-1.0, -0.2]] * 8
        ) + np.random.default_rng(0).normal(0, 0.01, size=(16, 2))
        emb = EmbeddingMatrix(values=values)
        report = kfold_link_prediction(
            g,
            k_folds=3,
            feature_mode=EdgeFeatureMode.HADAMARD,
            train_cfg=FAST_CFG,
            embeddings=emb,
        )
        assert report.mean_paper_micro_f1 > 0.95
        assert len(report.folds) == 3

    @pytest.mark.parametrize("mode", list(EdgeFeatureMode))
    def test_precomputed_matches_per_fold_oracle(self, mode):
        g = random_connected_graph(60, 240, 5)
        emb = EmbeddingMatrix(
            values=np.random.default_rng(5).normal(size=(60, 3))
        )
        cfg = replace(FAST_CFG, seed=11)
        report = kfold_link_prediction(g, 5, mode, cfg, embeddings=emb)
        fold_ss = np.random.SeedSequence(cfg.seed).spawn(2 + 5)[0]
        folds = stratified_edge_folds(g, 5, np.random.default_rng(fold_ss))
        expected = per_fold_metrics(emb, g, folds, mode)
        assert [f.to_dict() for f in report.folds] == [
            f.to_dict() for f in expected
        ]

    def test_single_class_training_split_names_the_fold(self):
        # the one negative edge is dealt to fold 0, whose training split
        # then holds positives only
        edges = [(0, 1, P), (1, 2, P), (2, 3, P), (0, 2, P), (1, 3, N)]
        g = SignedGraph.from_edges(4, edges)
        emb = embedding_from([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="fold 0: .*single class"):
            kfold_link_prediction(g, 2, train_cfg=FAST_CFG, embeddings=emb)

    def test_fit_error_names_the_fold_not_the_column(self, monkeypatch):
        # a strict fold fits one table alone, as column 0 of its fit
        monkeypatch.setattr(evalkit, "MAX_ITERATIONS", 1)
        g = random_connected_graph(30, 80, 0)
        emb = EmbeddingMatrix(
            values=np.random.default_rng(0).normal(size=(30, 3))
        )
        fold_of = np.arange(g.edge_count) % 5
        with pytest.raises(ValueError, match="^fold 3: no convergence"):
            evalkit._evaluate_folds(
                emb, g, fold_of, [3], EdgeFeatureMode.HADAMARD
            )

    @pytest.mark.parametrize("leakage", ["strict", "fast", "precomputed"])
    def test_bad_use_embeddings_rejected_before_training(
        self, monkeypatch, leakage
    ):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        kwargs = {"leakage_mode": leakage}
        if leakage == "precomputed":
            kwargs = {"embeddings": embedding_from(np.ones((12, 2)))}
        with pytest.raises(ValueError, match="use_embeddings"):
            kfold_link_prediction(
                g, 3, train_cfg=FAST_CFG, use_embeddings="theta_g", **kwargs
            )

    @pytest.mark.parametrize("use, index", [("generator", 0), ("discriminator", 1)])
    def test_use_embeddings_selects_its_trained_table(
        self, monkeypatch, use, index
    ):
        g = random_connected_graph(30, 80, 1)
        rng = np.random.default_rng(1)
        tables = [embedding_from(rng.normal(size=(30, 3))) for _ in range(2)]
        monkeypatch.setattr(evalkit, "train", lambda *_: (*tables, None))
        got = kfold_link_prediction(
            g, 3, train_cfg=FAST_CFG, leakage_mode="fast", use_embeddings=use
        )
        scored = [
            kfold_link_prediction(g, 3, train_cfg=FAST_CFG, embeddings=t)
            for t in tables
        ]
        folds = [[f.to_dict() for f in r.folds] for r in (got, *scored)]
        assert folds[0] == folds[1 + index] != folds[2 - index]

    def test_fast_and_strict_modes_run(self):
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=2)
        for leakage in ("fast", "strict"):
            report = kfold_link_prediction(
                g,
                k_folds=3,
                feature_mode=EdgeFeatureMode.HADAMARD,
                train_cfg=FAST_CFG,
                leakage_mode=leakage,
            )
            assert len(report.folds) == 3
            assert report.leakage_mode == leakage

    def test_parallel_strict_folds_match_sequential(self):
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=2)
        kwargs = dict(
            k_folds=3,
            feature_mode=EdgeFeatureMode.HADAMARD,
            train_cfg=FAST_CFG,
            leakage_mode="strict",
        )
        seq = kfold_link_prediction(g, threads=1, **kwargs)
        par = kfold_link_prediction(g, threads=2, **kwargs)
        assert seq.to_json() == par.to_json()

    @pytest.mark.parametrize("rows", [2, 40])
    def test_table_must_have_one_row_per_node(self, monkeypatch, rows):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = random_connected_graph(20, 60, 3)
        emb = EmbeddingMatrix(values=np.zeros((rows, 2)))
        with pytest.raises(
            ValueError, match=f"table has {rows} rows for 20 nodes"
        ):
            kfold_link_prediction(g, 3, train_cfg=FAST_CFG, embeddings=emb)

    @pytest.mark.parametrize(
        "counts, message",
        [({"k_folds": 1}, "k_folds 1 must be at least 2"),
         ({"k_folds": -1}, "k_folds -1 must be at least 2"),
         ({"k_folds": -5}, "k_folds -5 must be at least 2"),
         ({"threads": 0}, "threads 0 must be at least 1"),
         ({"threads": -3}, "threads -3 must be at least 1")],
    )
    def test_bad_counts_rejected_before_any_work(
        self, monkeypatch, counts, message
    ):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        with pytest.raises(ValueError, match=message):
            kfold_link_prediction(
                g, train_cfg=FAST_CFG, **{"k_folds": 3, **counts}
            )

    def test_bad_leakage_mode_rejected(self):
        g = random_connected_graph(6, 8, 0)
        with pytest.raises(ValueError, match="leakage"):
            kfold_link_prediction(g, 3, train_cfg=FAST_CFG, leakage_mode="loose")

    def test_empty_fold_rejected(self):
        g = SignedGraph.from_edges(
            4,
            [
                (0, 1, P), (1, 2, P), (2, 3, P),
                (0, 2, N), (1, 3, N), (0, 3, N),
            ],
        )
        emb = embedding_from([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="empty"):
            kfold_link_prediction(
                g, k_folds=7, train_cfg=FAST_CFG, embeddings=emb
            )

    def test_report_serialization(self):
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        report = kfold_link_prediction(
            g, 3, EdgeFeatureMode.AVERAGE, FAST_CFG, "fast"
        )
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 2
        assert payload["feature_mode"] == "avg"
        assert len(payload["folds"]) == 3
        rows = report.csv_rows()
        assert rows[0].startswith("fold,")
        assert len(rows) == 4

    def test_deterministic_given_seed(self):
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=4)
        a = kfold_link_prediction(g, 3, EdgeFeatureMode.HADAMARD, FAST_CFG, "fast")
        b = kfold_link_prediction(g, 3, EdgeFeatureMode.HADAMARD, FAST_CFG, "fast")
        assert a.to_json() == b.to_json()


class TestBalanceAudit:
    def test_identical_embeddings_give_zero_distances(self):
        g = SignedGraph.from_edges(3, [(0, 1, P), (1, 2, N)])
        emb = embedding_from([[1.0, 1.0]] * 3)
        audit = balance_audit(emb, g, sample_fraction=1.0, seed=0)
        assert audit.aped == 0.0
        assert audit.aned == 0.0

    def test_hand_distances(self):
        # positive pair at distance 3, negative pair at distance 5
        g = SignedGraph.from_edges(4, [(0, 1, P), (2, 3, N)])
        emb = embedding_from([[0.0], [3.0], [0.0], [5.0]])
        audit = balance_audit(emb, g, sample_fraction=1.0, seed=0)
        assert audit.aped == pytest.approx(3.0)
        assert audit.aned == pytest.approx(5.0)
        assert audit.positive_sampled == audit.negative_sampled == 1

    def test_equal_sample_counts(self):
        g = random_connected_graph(20, 60, 3)
        emb = EmbeddingMatrix(values=np.random.default_rng(0).normal(size=(20, 4)))
        audit = balance_audit(emb, g, sample_fraction=0.4, seed=1)
        assert audit.positive_sampled == audit.negative_sampled
        assert audit.negative_sampled == int(0.4 * g.negative_edge_count)

    def test_invariant_under_node_relabeling(self):
        # with fraction 1 and equal class sizes the sample is exhaustive,
        # so any relabeling must produce identical means
        g = SignedGraph.from_edges(
            4, [(0, 1, P), (2, 3, P), (0, 2, N), (1, 3, N)]
        )
        rng = np.random.default_rng(5)
        emb = EmbeddingMatrix(values=rng.normal(size=(4, 3)))
        base = balance_audit(emb, g, sample_fraction=1.0, seed=0)
        perm = [2, 0, 3, 1]
        relabeled_edges = [
            (min(perm[u], perm[v]), max(perm[u], perm[v]), s)
            for u, v, s in g.edges
        ]
        g2 = SignedGraph.from_edges(4, relabeled_edges)
        values2 = np.empty_like(emb.values)
        for old, new in enumerate(perm):
            values2[new] = emb.values[old]
        audit2 = balance_audit(
            EmbeddingMatrix(values=values2), g2, sample_fraction=1.0, seed=9
        )
        assert audit2.aped == pytest.approx(base.aped)
        assert audit2.aned == pytest.approx(base.aned)

    def test_requires_both_signs(self):
        g = SignedGraph.from_edges(2, [(0, 1, P)])
        emb = embedding_from([[1.0], [2.0]])
        with pytest.raises(ValueError, match="negative"):
            balance_audit(emb, g, 0.4, 0)

    def test_zero_sample_rejected(self):
        g = SignedGraph.from_edges(3, [(0, 1, P), (1, 2, N)])
        emb = embedding_from([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="zero"):
            balance_audit(emb, g, sample_fraction=0.1, seed=0)


    @pytest.mark.parametrize("rows", [2, 40])
    def test_table_must_have_one_row_per_node(self, rows):
        g = random_connected_graph(20, 60, 3)
        emb = EmbeddingMatrix(values=np.zeros((rows, 2)))
        with pytest.raises(
            ValueError, match=f"table has {rows} rows for 20 nodes"
        ):
            balance_audit(emb, g, sample_fraction=0.4, seed=0)

    @pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        g = random_connected_graph(20, 60, 3)
        emb = EmbeddingMatrix(values=np.zeros((20, 2)))
        with pytest.raises(
            ValueError,
            match=re.escape(f"sample_fraction {fraction} must be in (0, 1]"),
        ):
            balance_audit(emb, g, sample_fraction=fraction, seed=0)


class TestSparsitySweep:
    def test_empty_fraction_list(self):
        g = random_connected_graph(8, 10, 0)
        report = sparsity_sweep(g, fractions=(), repeats=2, train_cfg=FAST_CFG)
        assert report.cells == []

    @pytest.mark.parametrize("fractions", [(0.2, 1.5), (0.4, -0.1)])
    def test_bad_fraction_rejected_before_any_cell(self, monkeypatch, fractions):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        with pytest.raises(ValueError, match=f"fraction {fractions[1]} "):
            sparsity_sweep(
                g, fractions=fractions, repeats=1, k_folds=3,
                train_cfg=FAST_CFG, leakage_mode="fast",
            )

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected_before_any_cell(
        self, monkeypatch, repeats
    ):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        with pytest.raises(ValueError, match=f"repeats {repeats} must be"):
            sparsity_sweep(
                g, fractions=(0.2,), repeats=repeats, k_folds=3,
                train_cfg=FAST_CFG, leakage_mode="fast",
            )

    @pytest.mark.parametrize(
        "counts, message",
        [({"k_folds": 1}, "k_folds 1 must be at least 2"),
         ({"k_folds": -5}, "k_folds -5 must be at least 2"),
         ({"threads": 0}, "threads 0 must be at least 1")],
    )
    def test_bad_counts_rejected_before_any_cell(
        self, monkeypatch, counts, message
    ):
        monkeypatch.setattr(evalkit, "train", no_training)
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=3)
        with pytest.raises(ValueError, match=message):
            sparsity_sweep(
                g, fractions=(0.2,), repeats=1, train_cfg=FAST_CFG,
                leakage_mode="fast", **{"k_folds": 3, **counts},
            )

    def test_small_sweep_shape_and_csv(self):
        g = synth_balanced(2, 8, 1.0, 0.9, 0.0, seed=5)
        report = sparsity_sweep(
            g,
            fractions=(0.2, 0.4),
            repeats=2,
            k_folds=3,
            train_cfg=FAST_CFG,
            leakage_mode="fast",
            seed=7,
        )
        assert [c.fraction for c in report.cells] == [0.2, 0.4]
        assert all(c.repeats == 2 for c in report.cells)
        rows = report.csv_rows()
        assert rows[0] == "fraction,repeat,paper_micro_f1,standard_micro_f1"
        assert len(rows) == 1 + 4

    def test_deterministic(self):
        g = synth_balanced(2, 8, 1.0, 0.9, 0.0, seed=5)
        kwargs = dict(
            fractions=(0.3,), repeats=2, k_folds=3,
            train_cfg=FAST_CFG, leakage_mode="fast", seed=1,
        )
        a = sparsity_sweep(g, **kwargs)
        b = sparsity_sweep(g, **kwargs)
        assert a.to_json() == b.to_json()

    def test_parallel_cells_match_sequential(self):
        g = synth_balanced(2, 6, 1.0, 0.9, 0.0, seed=6)
        kwargs = dict(
            fractions=(0.2, 0.4), repeats=2, k_folds=3,
            train_cfg=FAST_CFG, leakage_mode="fast", seed=2,
        )
        seq = sparsity_sweep(g, threads=1, **kwargs)
        par = sparsity_sweep(g, threads=2, **kwargs)
        assert seq.to_json() == par.to_json()

    def test_robustness_envelope_on_balanced_graph(self):
        # heavier removal must not beat light removal by more than 0.05
        g = synth_balanced(2, 20, 0.8, 0.6, 0.05, seed=9)
        cfg = TrainConfig(
            embedding_dim=12,
            learning_rate=0.3,
            outer_epochs=8,
            d_epochs=4,
            g_epochs=4,
            samples_per_center=8,
            batch_size=32,
            seed=4,
        )
        report = sparsity_sweep(
            g,
            fractions=(0.2, 0.8),
            repeats=3,
            k_folds=3,
            train_cfg=cfg,
            leakage_mode="fast",
            seed=17,
        )
        light, heavy = report.cells
        assert light.mean_paper_micro_f1 > 0.9  # pipeline actually learns
        assert heavy.mean_paper_micro_f1 <= light.mean_paper_micro_f1 + 0.05
