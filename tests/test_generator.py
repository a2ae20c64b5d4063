"""Tests for embeddings, fake generation, and the policy-gradient update."""

import math
import warnings

import numpy as np
import pytest

from sgembed import (
    EmbeddingMatrix,
    Sign,
    SignedGraph,
    build_bfs_tree,
    generate_fakes,
    init_embeddings,
    policy_gradient_update,
    random_connected_graph,
    relevance_table,
    touched_nodes,
    tree_distribution,
)
from sgembed.generator import sigmoid, walk_logprob_gradient
from oracles import (
    enumerate_walks,
    masked_sigmoid,
    expected_reward,
    naive_walk_logprob,
    root_path,
    walk_batch,
    walk_gradient,
    walk_probability,
)

P, N = Sign.POSITIVE, Sign.NEGATIVE


def fakes_at(g, emb, center, count, seed):
    """generate_fakes on center's BFS tree."""
    tree = build_bfs_tree(g, center)
    return generate_fakes(emb, tree, count, np.random.default_rng(seed))


def softmax_at(emb, tree, target, sign):
    """Tree-softmax value of (target, sign), read from tree_distribution."""
    nodes, p_pos, p_neg = tree_distribution(relevance_table(emb, tree), tree)
    (i,) = np.flatnonzero(nodes == target)
    return float((p_pos if sign == 1 else p_neg)[i])


class TestSigmoid:
    def test_equals_two_branch_form_bitwise(self):
        # 1.1M values across every scale, the underflow edge at +-745,
        # full saturation and the largest finite doubles
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [rng.normal(0.0, s, 275_000) for s in (1.0, 30.0, 300.0, 3e3)]
            + [[745.0, -745.0, 800.0, -800.0, 1e308, -1e308, 0.0, -0.0,
                np.inf, -np.inf]]
        )
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    def test_saturates_without_overflow(self):
        # the test configuration turns an overflow warning into an error
        z = np.array([-1e308, -800.0, 0.0, 800.0, 1e308])
        assert sigmoid(z).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


class TestInitEmbeddings:
    def test_shape_with_default_dimension(self):
        emb = init_embeddings(7, 50, seed=0)
        assert emb.values.shape == (7, 50)
        assert emb.dim == 50

    def test_same_seed_bitwise_identical(self):
        a = init_embeddings(20, 8, seed=42)
        b = init_embeddings(20, 8, seed=42)
        assert a.values.tobytes() == b.values.tobytes()

    def test_gaussian_statistics(self):
        emb = init_embeddings(1000, 1000, seed=1)
        # CLT bound: |mean| <= 4 * sigma / sqrt(1e6)
        assert abs(emb.values.mean()) <= 4 * 0.1 / 1000
        assert emb.values.std() == pytest.approx(0.1, rel=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 5, seed=0)


class TestEmbeddingIO:
    def test_round_trip_is_exact(self, tmp_path):
        emb = init_embeddings(13, 6, seed=3)
        emb.values[0, 0] = 1.0 / 3.0
        path = tmp_path / "e.emb"
        emb.save(path, comments=["provenance line"])
        back = EmbeddingMatrix.load(path)
        assert back.values.tobytes() == emb.values.tobytes()

    def test_load_validates_shape(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("2 2\n0 0.5 0.5\n")
        with pytest.raises(ValueError):
            EmbeddingMatrix.load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite_rows(self, tmp_path, bad):
        path = tmp_path / "bad.emb"
        path.write_text(f"# comment\n2 2\n0 0.5 0.5\n1 0.25 {bad}\n")
        with pytest.raises(ValueError, match=r"bad\.emb:4: non-finite"):
            EmbeddingMatrix.load(path)

    @pytest.mark.parametrize("bad_id", ["1.0", "1e0"])
    def test_load_rejects_non_integer_ids(self, tmp_path, bad_id):
        path = tmp_path / "bad.emb"
        path.write_text(f"2 2\n0 0.5 0.5\n{bad_id} 0.25 0.75\n")
        with pytest.raises(ValueError):
            EmbeddingMatrix.load(path)

    @pytest.mark.parametrize(
        "header", ["3", "3 two", "2 2 1", "-1 2", "2 0", "0 0"]
    )
    def test_load_names_a_bad_header_line(self, tmp_path, header):
        path = tmp_path / "bad.emb"
        path.write_text(f"# comment\n{header}\n0 0.5 0.5\n1 0.25 0.75\n")
        with pytest.raises(ValueError, match=r"bad\.emb:2: bad header"):
            EmbeddingMatrix.load(path)

    def test_load_names_a_repeated_row(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("2 2\n0 0.5 0.5\n0 0.25 0.75\n")
        with pytest.raises(ValueError, match=r"bad\.emb:3: repeated node row 0"):
            EmbeddingMatrix.load(path)

    def test_load_names_an_unparsable_coordinate(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("2 2\n0 0.5 0.5\n1 0.25 x\n")
        with pytest.raises(ValueError, match=r"bad\.emb:3: bad embedding line"):
            EmbeddingMatrix.load(path)

    def test_load_names_a_non_utf8_line(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"2 2\n0 0.5 0.5\n1 0.25 \xfe0.75\n")
        with pytest.raises(ValueError, match=r"bad\.emb:3: not UTF-8"):
            EmbeddingMatrix.load(path)

    def test_indented_comment_is_not_a_row(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_text("2 2\n  # x\n0 0.5 0.5\n1 0.25 0.75\n")
        back = EmbeddingMatrix.load(path)
        assert back.values.tolist() == [[0.5, 0.5], [0.25, 0.75]]

    def test_load_zero_rows_without_warning(self, tmp_path):
        path = tmp_path / "empty.emb"
        path.write_text("0 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EmbeddingMatrix.load(path).values.shape == (0, 3)

    def test_checksum_tracks_content(self):
        a = init_embeddings(5, 3, seed=0)
        b = a.copy()
        assert a.checksum() == b.checksum()
        b.values[0, 0] += 1.0
        assert a.checksum() != b.checksum()


class TestGenerateFakes:
    def test_count_and_fields(self):
        g = random_connected_graph(10, 14, 0)
        emb = init_embeddings(10, 4, 0)
        fakes = fakes_at(g, emb, 3, 20, 0)
        assert len(fakes) == 20
        assert fakes.tree.root == 3
        src, dst = (fakes.tree.order[x] for x in fakes.tree.directed_edges())
        for i, target in enumerate(fakes.targets.tolist()):
            hops = fakes.hops[fakes.hop_ptr[i] : fakes.hop_ptr[i + 1]]
            assert src[hops[0]] == 3
            assert dst[hops[-2]] == target == src[hops[-1]]

    def test_two_node_graph_always_other_node(self):
        g = SignedGraph.from_edges(2, [(0, 1, P)])
        emb = init_embeddings(2, 3, 1)
        fakes = fakes_at(g, emb, 0, 50, 1)
        assert (fakes.targets == 1).all()

    def test_isolated_center_rejected(self):
        g = SignedGraph.from_edges(3, [(1, 2, P)])
        emb = init_embeddings(3, 2, 0)
        with pytest.raises(ValueError, match="center 0 is isolated"):
            fakes_at(g, emb, 0, 5, 0)

    def test_frequencies_match_softmax(self):
        g = random_connected_graph(6, 7, 2)
        emb = init_embeddings(6, 3, 2)
        tree = build_bfs_tree(g, 0)
        fakes = fakes_at(g, emb, 0, 100_000, 5)
        counts: dict = {}
        for v, s in zip(fakes.targets.tolist(), fakes.signs.tolist()):
            counts[(v, Sign(s))] = counts.get((v, Sign(s)), 0) + 1
        for v in tree.order.tolist():
            if v == 0:
                continue
            for sign in (P, N):
                p = softmax_at(emb, tree, v, sign)
                freq = counts.get((v, sign), 0) / len(fakes)
                bound = 3 * math.sqrt(p * (1 - p) / len(fakes)) + 1e-4
                assert abs(freq - p) < bound


class TestWalkGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences_of_logprob(self, seed):
        g = random_connected_graph(7, 9, seed)
        emb = init_embeddings(7, 3, seed)
        fakes = fakes_at(g, emb, 0, 1, seed)
        grad = walk_gradient(emb, fakes, np.ones(1))

        h = 1e-6
        fd = np.zeros_like(grad)
        tree = fakes.tree
        walk_nodes = root_path(tree, int(fakes.targets[0]))
        step_signs = fakes.step_signs.tolist()
        for i in range(emb.rows):
            for d in range(emb.dim):
                for delta, slot in ((h, 0), (-h, 1)):
                    shifted = emb.values.copy()
                    shifted[i, d] += delta
                    lp = naive_walk_logprob(shifted, tree, walk_nodes, step_signs)
                    if slot == 0:
                        fd[i, d] = lp
                    else:
                        fd[i, d] = (fd[i, d] - lp) / (2 * h)
        scale = np.abs(fd).max()
        assert np.abs(grad - fd).max() <= 1e-6 * max(scale, 1.0)


def exact_policy_gradient(emb, tree, reward_fn):
    """Enumerated REINFORCE gradient: sum over walks of
    P(walk) * reward(outcome) * grad log P(walk)."""
    walks = enumerate_walks(tree)
    weights = [
        walk_probability(emb.values, tree, path, signs)
        * reward_fn(path[-1], math.prod(signs))
        for path, signs in walks
    ]
    batch = walk_batch(tree, relevance_table(emb, tree), walks)
    return walk_gradient(emb, batch, weights)


class TestPolicyGradientUpdate:
    def test_zero_learning_rate_is_noop(self):
        g = random_connected_graph(6, 8, 1)
        emb = init_embeddings(6, 3, 1)
        fakes = fakes_at(g, emb, 0, 5, 0)
        before = emb.values.copy()
        policy_gradient_update(emb, fakes, np.full(5, -1.0), 0.0)
        assert np.array_equal(emb.values, before)

    def test_non_finite_reward_rejected(self):
        g = random_connected_graph(5, 6, 2)
        emb = init_embeddings(5, 3, 2)
        fakes = fakes_at(g, emb, 0, 1, 0)
        with pytest.raises(ValueError, match="reward"):
            policy_gradient_update(emb, fakes, np.array([np.nan]), 0.1)

    def test_update_touches_only_walk_neighborhoods(self):
        g = random_connected_graph(20, 25, 3)
        emb = init_embeddings(20, 4, 3)
        fakes = fakes_at(g, emb, 5, 3, 1)
        touched = set()
        order = fakes.tree.order
        position = {v: i for i, v in enumerate(order.tolist())}
        for target in fakes.targets.tolist():
            walk = [position[v] for v in root_path(fakes.tree, target)]
            touched |= set(order[touched_nodes(fakes.tree, walk)].tolist())
        rows, _ = walk_logprob_gradient(emb, fakes, np.full(3, -2.0))
        assert sorted(rows.tolist()) == sorted(touched)
        before = emb.values.copy()
        policy_gradient_update(emb, fakes, np.full(3, -2.0), 0.5)
        changed = {
            int(i)
            for i in np.flatnonzero(np.any(emb.values != before, axis=1))
        }
        assert changed <= touched

    def test_enumerated_gradient_matches_finite_differences(self):
        # 5-node graph; dual-route check of d E[reward] / d theta
        g = random_connected_graph(5, 4, 7)
        emb = init_embeddings(5, 3, 7)
        tree = build_bfs_tree(g, 0)
        rng = np.random.default_rng(0)
        rewards = {
            (v, s): float(rng.uniform(-3, 0))
            for v in tree.order.tolist()
            if v != 0
            for s in (1, -1)
        }
        reward_fn = lambda v, s: rewards[(v, s)]

        analytic = exact_policy_gradient(emb, tree, reward_fn)

        h = 1e-5
        fd = np.zeros_like(analytic)
        for i in range(emb.rows):
            for d in range(emb.dim):
                hi = emb.values.copy()
                hi[i, d] += h
                lo = emb.values.copy()
                lo[i, d] -= h
                f_hi = expected_reward(hi, tree, reward_fn)
                f_lo = expected_reward(lo, tree, reward_fn)
                fd[i, d] = (f_hi - f_lo) / (2 * h)
        denom = np.abs(fd).max()
        assert np.abs(analytic - fd).max() / denom < 1e-4

    @staticmethod
    def _exact_update_batch(emb, tree, reward_fn):
        """Every enumerable walk in one batch, with rewards weighted so the
        batch mean of reward * grad log P equals the exact policy
        gradient."""
        walks = enumerate_walks(tree)
        rewards = [
            len(walks)
            * walk_probability(emb.values, tree, path, signs)
            * reward_fn(path[-1], math.prod(signs))
            for path, signs in walks
        ]
        batch = walk_batch(tree, relevance_table(emb, tree), walks)
        return batch, np.array(rewards)

    def test_strongly_negative_reward_raises_outcome_probability(self):
        # the generator seeks outcomes that fool the discriminator, i.e.
        # those with very negative log(1 - D); here E[reward] is
        # -20 * J(target), so descent must raise J(target)
        g = SignedGraph.from_edges(3, [(0, 1, P), (0, 2, N)])
        emb = init_embeddings(3, 4, 9)
        tree = build_bfs_tree(g, 0)
        target, sign = 1, P
        p_before = softmax_at(emb, tree, target, sign)

        reward_fn = lambda v, s: -20.0 if (v, Sign(s)) == (target, sign) else 0.0
        batch, rewards = self._exact_update_batch(emb, tree, reward_fn)
        policy_gradient_update(emb, batch, rewards, 0.1)

        p_after = softmax_at(emb, build_bfs_tree(g, 0), target, sign)
        assert p_after > p_before

    def test_zero_reward_amid_negative_lowers_outcome_probability(self):
        # E[reward] = -20 + 20 * J(target): descent lowers J(target)
        g = SignedGraph.from_edges(3, [(0, 1, P), (0, 2, N)])
        emb = init_embeddings(3, 4, 9)
        tree = build_bfs_tree(g, 0)
        target, sign = 1, P
        p_before = softmax_at(emb, tree, target, sign)

        reward_fn = lambda v, s: 0.0 if (v, Sign(s)) == (target, sign) else -20.0
        batch, rewards = self._exact_update_batch(emb, tree, reward_fn)
        policy_gradient_update(emb, batch, rewards, 0.1)

        p_after = softmax_at(emb, build_bfs_tree(g, 0), target, sign)
        assert p_after < p_before

    def test_divergence_detected(self):
        g = random_connected_graph(5, 6, 0)
        emb = init_embeddings(5, 3, 0)
        fakes = fakes_at(g, emb, 0, 2, 0)
        emb.values[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            (FloatingPointError, ValueError)
        ):
            policy_gradient_update(emb, fakes, np.full(2, -1.0), 0.1)
