"""Tests for edge scoring, balanced true sampling, and ascent updates."""

import math

import numpy as np
import pytest

from sgembed import (
    DivergenceError,
    EmbeddingMatrix,
    Sign,
    SignedGraph,
    build_bfs_tree,
    edge_batch,
    generate_fakes,
    init_embeddings,
    random_connected_graph,
    sample_true_batch,
)
from sgembed.discriminator import batch_gradient, rewards, update
from sgembed.generator import sigmoid

from oracles import objective, scatter_rows

P, N = Sign.POSITIVE, Sign.NEGATIVE


def embedding_from(rows):
    return EmbeddingMatrix(values=np.asarray(rows, dtype=float))


def labeled(*edges):
    """Edge batch from (u, v, sign, is_true) tuples."""
    return edge_batch(*zip(*edges)) if edges else edge_batch([], [], [], [])


def score(emb, u, v, sign):
    """D's score of one edge: the objective of a one-edge true batch is
    log sigma(sign * d_u . d_v)."""
    return math.exp(objective(emb, labeled((u, v, sign, True))))


class TestScore:
    def test_zero_dot_is_half(self):
        emb = embedding_from([[1.0, 0.0], [0.0, 1.0]])
        assert score(emb, 0, 1, P) == pytest.approx(0.5)
        assert score(emb, 0, 1, N) == pytest.approx(0.5)

    def test_negative_sign_negative_dot(self):
        emb = embedding_from([[2.0], [-1.0]])  # dot = -2
        assert score(emb, 0, 1, N) == pytest.approx(0.8807970779778823)

    def test_antisymmetry_in_sign(self):
        emb = init_embeddings(10, 4, 0)
        for u, v in ((0, 1), (2, 7), (3, 9)):
            assert score(emb, u, v, P) + score(emb, u, v, N) == pytest.approx(1.0)

    def test_symmetry_in_arguments(self):
        emb = init_embeddings(10, 4, 1)
        for u, v in ((0, 1), (4, 8)):
            for s in (P, N):
                assert score(emb, u, v, s) == score(emb, v, u, s)

    def test_strictly_inside_unit_interval(self):
        # strict bounds hold over the float64-representable sigmoid range;
        # beyond |z| ~ 745 the tail underflows to exactly 0
        emb = embedding_from([[6.0], [6.0]])
        assert 0.0 < score(emb, 0, 1, N) < 1.0
        assert 0.0 < score(emb, 0, 1, P) < 1.0

    def test_same_endpoint_rejected(self):
        emb = init_embeddings(3, 2, 0)
        with pytest.raises(ValueError):
            score(emb, 1, 1, P)

    def test_score_many_matches_scalar(self):
        # sigma over a whole batch's z values equals each one-edge score
        emb = init_embeddings(8, 3, 2)
        batch = labeled((0, 3, 1, True), (1, 4, -1, True), (2, 5, 1, True))
        z = batch["sign"] * np.einsum(
            "ij,ij->i", emb.values[batch["u"]], emb.values[batch["v"]]
        )
        many = sigmoid(z)
        for i, (u, v, s, _) in enumerate(batch.tolist()):
            assert many[i] == pytest.approx(score(emb, u, v, Sign(s)))


class TestRewards:
    @pytest.mark.parametrize("clamp", [(-20.0, 0.0), (-0.7, -0.68)])
    def test_clamped_log_one_minus_score(self, clamp):
        # each walk's reward is log(1 - D) of its fake edge at the root
        g = random_connected_graph(12, 20, 3)
        tree = build_bfs_tree(g, 2)
        fakes = generate_fakes(
            init_embeddings(12, 3, 0), tree, 30, np.random.default_rng(1)
        )
        emb = init_embeddings(12, 3, 5)
        expected = [
            min(max(math.log(1.0 - score(emb, 2, t, Sign(s))), clamp[0]), clamp[1])
            for t, s in zip(fakes.targets.tolist(), fakes.signs.tolist())
        ]
        assert rewards(emb, fakes, clamp) == pytest.approx(expected, abs=1e-12)


class TestLabeledEdge:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            labeled((2, 2, P, True))
        with pytest.raises(ValueError):
            edge_batch(2, [1, 2], 1, False)

    def test_fields_and_broadcast(self):
        batch = edge_batch(3, np.array([1, 5]), np.array([1, -1]), False)
        assert len(batch) == 2
        assert batch.tolist() == [(3, 1, 1, False), (3, 5, -1, False)]
        assert batch["sign"].dtype == np.int8


class TestSampleTrueBatch:
    def test_positive_only_fallback(self):
        g = SignedGraph.from_edges(3, [(0, 1, P), (0, 2, P)])
        batch = sample_true_batch(g, 0, 50, np.random.default_rng(0))
        assert len(batch) == 50
        assert (batch["sign"] == 1).all()
        assert batch["true"].all()

    def test_balanced_draws_despite_imbalance(self):
        # 9 positive neighbors, 1 negative: fair coin gives 0.5 negative
        edges = [(0, i, P) for i in range(1, 10)] + [(0, 10, N)]
        g = SignedGraph.from_edges(11, edges)
        draws = 10_000
        batch = sample_true_batch(g, 0, draws, np.random.default_rng(1))
        frac_neg = int((batch["sign"] == -1).sum()) / draws
        sigma = math.sqrt(0.25 / draws)
        assert abs(frac_neg - 0.5) < 3 * sigma

    def test_with_replacement_duplicates_allowed(self):
        g = SignedGraph.from_edges(2, [(0, 1, P)])
        batch = sample_true_batch(g, 0, 25, np.random.default_rng(2))
        assert len(batch) == 25
        assert (batch["v"] == 1).all()

    def test_isolated_center_rejected(self):
        g = SignedGraph.from_edges(3, [(1, 2, P)])
        with pytest.raises(ValueError, match="isolated"):
            sample_true_batch(g, 0, 5, np.random.default_rng(0))

    def test_samples_are_real_neighbors_with_true_signs(self):
        g = SignedGraph.from_edges(4, [(0, 1, P), (0, 2, N), (0, 3, N)])
        batch = sample_true_batch(g, 0, 200, np.random.default_rng(3))
        lookup = {v: s for _, v, s in g.edges}
        for u, v, s, _ in batch.tolist():
            assert u == 0
            assert lookup[v] == s

    @pytest.mark.parametrize("center", [0, 5])
    def test_uniform_over_neighbors_within_each_sign(self, center):
        # node 0: 3 positive and 2 negative neighbors; node 5 (neighbor of
        # 0, 1 and 2) has positive neighbors only, so every draw falls back
        edges = [(0, 1, P), (0, 2, N), (0, 3, P), (0, 4, N), (0, 5, P),
                 (1, 5, P), (2, 5, P)]
        g = SignedGraph.from_edges(6, edges)
        draws = 200_000
        batch = sample_true_batch(g, center, draws, np.random.default_rng(4))
        lo, hi = g.indptr[center], g.indptr[center + 1]
        nbrs, signs = g.indices[lo:hi], g.signs[lo:hi]
        for sign in (1, -1):
            pool = nbrs[signs == sign]
            if not len(pool):
                assert not (batch["sign"] == sign).any()
                continue
            share = 0.5 if len(pool) < len(nbrs) else 1.0
            for v in pool.tolist():
                hits = int(((batch["v"] == v) & (batch["sign"] == sign)).sum())
                p = share / len(pool)
                z = abs(hits / draws - p) / math.sqrt(p * (1 - p) / draws)
                assert z <= 3.0, (v, sign, z)


class TestUpdate:
    def test_zero_learning_rate_is_noop(self):
        emb = init_embeddings(4, 3, 0)
        before = emb.values.copy()
        update(emb, labeled((0, 1, P, True)), 0.0)
        assert np.array_equal(emb.values, before)

    def test_repeated_true_positive_edge_converges(self):
        emb = init_embeddings(2, 4, 5)
        batch = labeled((0, 1, P, True))
        scores = [score(emb, 0, 1, P)]
        for _ in range(300):
            update(emb, batch, 0.5)
            scores.append(score(emb, 0, 1, P))
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        assert scores[-1] > 0.95

    def test_fake_only_batch_decreases_mean_fake_score(self):
        emb = init_embeddings(6, 4, 7)
        batch = labeled((0, 1, P, False), (2, 3, N, False), (4, 5, P, False))
        def mean_score():
            return np.mean(
                [score(emb, u, v, s) for u, v, s, _ in batch.tolist()]
            )
        before = mean_score()
        update(emb, batch, 0.2)
        assert mean_score() <= before

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        emb = init_embeddings(4, 3, seed)
        rng = np.random.default_rng(seed)
        batch = labeled(
            (0, 1, P, True),
            (0, 2, N, True),
            (1, 3, P, False),
            (2, 3, N, False),
            (1, 2, N, False),
        )
        rows, block, _ = batch_gradient(emb, batch)
        grad = scatter_rows(rows, block, emb.rows)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(emb.rows):
            for d in range(emb.dim):
                hi = EmbeddingMatrix(values=emb.values.copy())
                hi.values[i, d] += h
                lo = EmbeddingMatrix(values=emb.values.copy())
                lo.values[i, d] -= h
                fd[i, d] = (objective(hi, batch) - objective(lo, batch)) / (2 * h)
        denom = np.abs(fd).max()
        assert np.abs(grad - fd).max() / denom < 1e-6

    def test_ascent_increases_objective(self):
        emb = init_embeddings(5, 3, 1)
        batch = labeled((0, 1, P, True), (2, 3, N, False))
        before = objective(emb, batch)
        update(emb, batch, 0.1)
        assert objective(emb, batch) > before

    def test_empty_batch_rejected(self):
        emb = init_embeddings(3, 2, 0)
        with pytest.raises(ValueError):
            update(emb, labeled(), 0.1)

    def test_divergence_detected(self):
        emb = init_embeddings(3, 2, 0)
        emb.values[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            update(emb, labeled((0, 1, P, True)), 0.1)
