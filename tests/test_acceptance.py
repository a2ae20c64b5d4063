"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured figure.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criterion 7 needs the Bitcoin-OTC ratings file and is skipped with
instructions when the file is absent (see README, "Manual experiments").
"""

import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgembed import (
    EdgeFeatureMode,
    EdgeListSpec,
    EmbeddingMatrix,
    Sign,
    SignedGraph,
    TrainConfig,
    balance_audit,
    build_bfs_tree,
    fold_metrics,
    inject_sparsity,
    init_embeddings,
    kfold_link_prediction,
    load_edge_list,
    logreg_predict_proba,
    logreg_train,
    random_connected_graph,
    relevance_table,
    sample_walk,
    stratified_edge_folds,
    synth_balanced,
    train,
    tree_distribution,
)
from sgembed.cli import _write_report
from sgembed.discriminator import batch_gradient, edge_batch
from sgembed.generator import walk_logprob_gradient
from oracles import (
    enumerate_walks,
    expected_reward,
    hand_paper_micro_f1,
    hand_standard_micro_f1,
    naive_modified_softmax,
    objective,
    scatter_rows,
    single_walk_batches,
    walk_batch,
    walk_gradient,
    walk_probability,
)

P, N = Sign.POSITIVE, Sign.NEGATIVE


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def theorem_suite():
    """50 seeded random connected graphs (20-200 nodes) with random
    embeddings, scanned over every root; returns the worst deviations."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    max_norm_dev = 0.0
    max_mass_rise = -np.inf
    roots_checked = 0
    for i in range(50):
        n = int(rng.integers(20, 201))
        g = random_connected_graph(n, int(1.5 * n), int(rng.integers(2**31)))
        emb = init_embeddings(n, 8, int(rng.integers(2**31)))
        for root in range(n):
            tree = build_bfs_tree(g, root)
            table = relevance_table(emb, tree)
            _, p_pos, p_neg = tree_distribution(table, tree)
            max_norm_dev = max(
                max_norm_dev, abs(float(p_pos.sum() + p_neg.sum()) - 1.0)
            )
            mass = table.cum_pos + table.cum_neg
            rise = float((mass[1:] - mass[tree.parent_pos[1:]]).max())
            max_mass_rise = max(max_mass_rise, rise)
            roots_checked += 1
    elapsed = time.perf_counter() - t0
    return {
        "max_norm_dev": max_norm_dev,
        "max_mass_rise": max_mass_rise,
        "roots": roots_checked,
        "elapsed": elapsed,
    }


def test_criterion_1_normalization(theorem_suite):
    dev = theorem_suite["max_norm_dev"]
    ok = dev <= 1e-9 and theorem_suite["elapsed"] < 60.0
    report_line(
        1,
        ok,
        f"max |sum-1| = {dev:.3e} over {theorem_suite['roots']} roots, "
        f"{theorem_suite['elapsed']:.1f}s",
    )


def test_criterion_2_distance_decay(theorem_suite):
    t0 = time.perf_counter()
    rise = theorem_suite["max_mass_rise"]
    # uniform chain: identical per-hop distributions decay geometrically
    n = 12
    chain = SignedGraph.from_edges(
        n, [(i, i + 1, P) for i in range(n - 1)]
    )
    emb = EmbeddingMatrix(values=np.tile([0.4, -0.1, 0.2], (n, 1)))
    table = relevance_table(emb, build_bfs_tree(chain, 0))
    mass = table.cum_pos + table.cum_neg
    strict = all(mass[d] < mass[d - 1] for d in range(2, n))
    ratios = [mass[d] / mass[d - 1] for d in range(2, n)]
    geometric = max(abs(r - 0.5) for r in ratios) < 1e-12
    elapsed = time.perf_counter() - t0 + theorem_suite["elapsed"]
    ok = rise <= 1e-12 and strict and geometric and elapsed < 60.0
    report_line(
        2,
        ok,
        f"max mass rise = {rise:.3e}; chain strictly geometric "
        f"(ratio 0.5), {elapsed:.1f}s",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(7)
    max_dev = 0.0
    checked = 0
    graphs = []
    for n in range(2, 21):
        graphs.append(random_connected_graph(n, n, int(rng.integers(2**31))))
    graphs.append(
        SignedGraph.from_edges(9, [(i, i + 1, P) for i in range(8)])
    )
    for g in graphs:
        n = g.node_count
        emb = init_embeddings(n, 3, int(rng.integers(2**31)))
        roots = range(n) if n <= 10 else rng.choice(n, size=4, replace=False)
        for root in roots:
            tree = build_bfs_tree(g, int(root))
            nodes, p_pos, p_neg = tree_distribution(
                relevance_table(emb, tree), tree
            )
            for v, ours_pos, ours_neg in zip(nodes.tolist(), p_pos, p_neg):
                for s, ours in ((P, ours_pos), (N, ours_neg)):
                    naive = naive_modified_softmax(emb.values, tree, v, s)
                    max_dev = max(max_dev, abs(ours - naive))
                    checked += 1
    ok = max_dev < 1e-12
    report_line(3, ok, f"max |tree - oracle| = {max_dev:.3e} on {checked} values")


def test_criterion_4_sampler_fidelity():
    draws = 1_000_000
    worst_z = 0.0
    for graph_seed, emb_seed, nodes in ((4, 8, 6), (12, 3, 8)):
        g = random_connected_graph(nodes, nodes, graph_seed)
        emb = init_embeddings(nodes, 3, emb_seed)
        emb.values *= 3.0  # differentiate probabilities
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        rng = np.random.default_rng(99)
        batch = sample_walk(table, tree, rng, draws)
        nodes, p_pos, p_neg = tree_distribution(table, tree)
        softmax = {}
        for v, pp, pn in zip(nodes.tolist(), p_pos, p_neg):
            softmax[(v, P)], softmax[(v, N)] = pp, pn
        counts: dict = {}
        for v, sign in zip(batch.targets.tolist(), batch.signs.tolist()):
            key = (v, Sign(sign))
            counts[key] = counts.get(key, 0) + 1
        for v in tree.order.tolist():
            if v == tree.root:
                continue
            for s in (P, N):
                p = softmax[(v, s)]
                freq = counts.get((v, s), 0) / draws
                sigma = math.sqrt(p * (1 - p) / draws)
                if sigma > 0:
                    worst_z = max(worst_z, abs(freq - p) / sigma)
    ok = worst_z <= 3.0
    report_line(4, ok, f"worst multinomial z-score = {worst_z:.2f} over 2x10^6 walks")


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    # discriminator: closed-form batch gradient vs central differences
    emb = init_embeddings(4, 3, 17)
    batch = edge_batch(
        [0, 0, 1, 2], [1, 2, 3, 3], [P, N, P, N], [True, True, False, False]
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
    disc_rel = float(np.abs(grad - fd).max() / np.abs(fd).max())

    # generator: enumerate the exact policy gradient on a 5-node graph
    g = random_connected_graph(5, 4, 7)
    gen_emb = init_embeddings(5, 3, 7)
    tree = build_bfs_tree(g, 0)
    reward_rng = np.random.default_rng(5)
    rewards = {
        (v, s): float(reward_rng.uniform(-3.0, -0.1))
        for v in tree.order.tolist()
        if v != 0
        for s in (1, -1)
    }
    reward_fn = lambda v, s: rewards[(v, s)]

    table = relevance_table(gen_emb, tree)
    walks = enumerate_walks(tree)
    weights = np.array([
        walk_probability(gen_emb.values, tree, path, signs)
        * reward_fn(path[-1], math.prod(signs))
        for path, signs in walks
    ])
    exact = walk_gradient(gen_emb, walk_batch(tree, table, walks), weights)

    h = 1e-5
    fd_gen = np.zeros_like(exact)
    for i in range(gen_emb.rows):
        for d in range(gen_emb.dim):
            hi = gen_emb.values.copy()
            hi[i, d] += h
            lo = gen_emb.values.copy()
            lo[i, d] -= h
            fd_gen[i, d] = (
                expected_reward(hi, tree, reward_fn)
                - expected_reward(lo, tree, reward_fn)
            ) / (2 * h)
    gen_rel = float(np.abs(exact - fd_gen).max() / np.abs(fd_gen).max())

    # REINFORCE Monte Carlo mean vs the exact gradient, 10^6 samples, each
    # sample's gradient taken on its own
    rng = np.random.default_rng(13)
    n_draws = 1_000_000
    batch = sample_walk(table, tree, rng, n_draws)
    draw_rewards = np.array([
        rewards[key]
        for key in zip(batch.targets.tolist(), batch.signs.tolist())
    ])
    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    for i, walk in enumerate(single_walk_batches(batch)):
        rows, gs = walk_logprob_gradient(gen_emb, walk, draw_rewards[i : i + 1])
        total[rows] += gs
        total_sq[rows] += gs * gs
    mean = total / n_draws
    var = np.maximum(total_sq / n_draws - mean**2, 0.0)
    stderr = np.sqrt(var / n_draws)
    z = np.abs(mean - exact) / np.where(stderr > 0, stderr, np.inf)
    mc_worst_z = float(z.max())

    elapsed = time.perf_counter() - t0
    ok = (
        disc_rel < 1e-6
        and gen_rel < 1e-4
        and mc_worst_z <= 3.0
        and elapsed < 300.0
    )
    report_line(
        5,
        ok,
        f"disc FD rel = {disc_rel:.2e}; gen enumerated-vs-FD rel = "
        f"{gen_rel:.2e}; REINFORCE MC worst z = {mc_worst_z:.2f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_structural_balance_pipeline():
    t0 = time.perf_counter()
    g = synth_balanced(2, 50, 0.3, 0.2, 0.05, seed=11)
    cfg = TrainConfig(
        embedding_dim=16,
        learning_rate=0.3,
        outer_epochs=10,
        d_epochs=5,
        g_epochs=5,
        samples_per_center=10,
        batch_size=32,
        seed=5,
    )
    report = kfold_link_prediction(
        g,
        k_folds=5,
        feature_mode=EdgeFeatureMode.HADAMARD,
        train_cfg=cfg,
        leakage_mode="strict",
    )
    _, theta_d, _ = train(g, cfg)
    audit = balance_audit(theta_d, g, sample_fraction=0.4, seed=3)
    elapsed = time.perf_counter() - t0
    ok = (
        report.mean_paper_micro_f1 >= 0.90
        and audit.aped < audit.aned
        and elapsed < 600.0
    )
    report_line(
        6,
        ok,
        f"strict paper_micro_f1 = {report.mean_paper_micro_f1:.4f}; "
        f"APED = {audit.aped:.3f} < ANED = {audit.aned:.3f}; {elapsed:.0f}s",
    )


def _bitcoin_path():
    env = os.environ.get("SGEMBED_BITCOIN_OTC")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "soc-sign-bitcoinotc.csv"


def test_criterion_7_bitcoin_comparison():
    path = _bitcoin_path()
    if not path.exists():
        pytest.skip(
            "Bitcoin-OTC ratings file not found; download "
            "soc-sign-bitcoinotc.csv from SNAP and set SGEMBED_BITCOIN_OTC "
            "or place it under data/. Documented as a manual experiment."
        )
    g, report = load_edge_list(
        EdgeListSpec(path=path, delimiter=",", rating_threshold=1.0)
    )
    print(
        f"criterion 7: loaded bitcoin graph nodes={g.node_count} "
        f"(+{g.positive_edge_count}/-{g.negative_edge_count}); "
        f"reference counts 5877 (+18282/-3154)"
    )
    metrics = kfold_link_prediction(
        g,
        k_folds=5,
        feature_mode=EdgeFeatureMode.HADAMARD,
        train_cfg=TrainConfig(),
        leakage_mode="fast",
    )
    f1 = metrics.mean_paper_micro_f1
    in_band = abs(f1 - 0.86) <= 0.05
    print(
        f"criterion 7: {'PASS' if in_band else 'OUTSIDE BAND'} "
        f"(mean paper_micro_f1 = {f1:.4f}, reference value 0.86 +/- 0.05)"
    )
    if not in_band:
        # explicitly not a hard gate: GAN variance and protocol ambiguity
        warnings.warn(
            f"Bitcoin micro-F1 {f1:.4f} outside the 0.86 +/- 0.05 band"
        )


def test_criterion_8_evaluation_stack_oracles():
    rng = np.random.default_rng(6)
    # both micro-F1 variants vs hand computation, 20 random prediction sets
    for _ in range(20):
        n = int(rng.integers(5, 80))
        y_true = (rng.random(n) < 0.65).astype(int)
        y_pred = (rng.random(n) < 0.5).astype(int)
        m = fold_metrics(y_true, y_pred)
        assert m.paper_micro_f1 == pytest.approx(
            hand_paper_micro_f1(y_true, y_pred)
        )
        assert m.standard_micro_f1 == pytest.approx(
            hand_standard_micro_f1(y_true, y_pred)
        )
    # logistic regression reaches accuracy 1.0 on a separable fixture
    x = np.concatenate([rng.normal(-2, 0.3, (30, 1)), rng.normal(2, 0.3, (30, 1))])
    y = np.array([0] * 30 + [1] * 30)
    model = logreg_train(x, y)
    acc = float(
        np.mean((logreg_predict_proba(model, x) >= 0.5).astype(int) == y)
    )
    # sparsity removes exact counts
    g = random_connected_graph(40, 160, 3)
    exact = all(
        inject_sparsity(g, f, seed=9).edge_count
        == g.edge_count - round(f * g.edge_count)
        for f in (0.2, 0.4, 0.6, 0.8)
    )
    # fold partitions are exact
    fold_of = stratified_edge_folds(g, 5, np.random.default_rng(1))
    folds = [np.flatnonzero(fold_of == f) for f in range(5)]
    partition = sorted(np.concatenate(folds).tolist()) == list(
        range(g.edge_count)
    )
    ok = acc == 1.0 and exact and partition
    report_line(
        8,
        ok,
        f"20/20 micro-F1 oracles agree; logreg separable accuracy = {acc}; "
        f"sparsity counts exact; folds partition exactly",
    )


def test_criterion_9_determinism(tmp_path):
    g = synth_balanced(2, 10, 0.8, 0.7, 0.1, seed=21)
    cfg = TrainConfig(
        embedding_dim=6,
        learning_rate=0.2,
        outer_epochs=2,
        d_epochs=2,
        g_epochs=2,
        samples_per_center=5,
        batch_size=16,
        seed=31,
    )
    artifacts = []
    for run in ("a", "b"):
        ck = tmp_path / f"{run}.ckpt"
        theta_j, theta_d, _ = train(g, cfg, checkpoint_path=ck)
        emb_file = tmp_path / f"{run}.emb"
        theta_d.save(emb_file)
        metrics = kfold_link_prediction(
            g, 3, EdgeFeatureMode.HADAMARD, cfg, "fast"
        )
        _write_report(tmp_path / run, "metrics", metrics, meta={})
        artifacts.append(
            (
                theta_j.values.tobytes(),
                theta_d.values.tobytes(),
                emb_file.read_bytes(),
                (tmp_path / run / "metrics.json").read_bytes(),
                ck.read_bytes(),
            )
        )
    ok = artifacts[0] == artifacts[1]
    report_line(
        9,
        ok,
        "embeddings, embedding files, metrics JSON, and checkpoints are "
        "byte-identical across two seeded runs",
    )
