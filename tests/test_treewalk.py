"""Tests for BFS trees, relevance probabilities, and the tree softmax."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest

from sgembed import (
    EmbeddingMatrix,
    Sign,
    SignedGraph,
    build_bfs_tree,
    init_embeddings,
    propagate,
    random_connected_graph,
    relevance_table,
    sample_walk,
    touched_nodes,
    tree_distribution,
)

from oracles import (
    batch_walks,
    enumerate_walks,
    naive_modified_softmax,
    node_indexed,
    queue_bfs,
    root_path,
    step_distribution,
    walk_hops,
    walk_probability,
)

P, N = Sign.POSITIVE, Sign.NEGATIVE


def path_graph(n):
    return SignedGraph.from_edges(
        n, [(i, i + 1, Sign.POSITIVE) for i in range(n - 1)]
    )


def two_components():
    """Two components, (0, 1, 2, 3) and (5, 6, 7), plus isolated 4 and 8."""
    return SignedGraph.from_edges(
        9, [(0, 1, P), (1, 2, N), (0, 3, P), (5, 6, N), (6, 7, P)]
    )


def embedding_from(rows):
    return EmbeddingMatrix(values=np.asarray(rows, dtype=float))


def softmax_at(table, tree, target, sign):
    """Tree-softmax value of (target, sign), read from tree_distribution."""
    nodes, p_pos, p_neg = tree_distribution(table, tree)
    (i,) = np.flatnonzero(nodes == target)
    return float((p_pos if sign == 1 else p_neg)[i])


def step_prob(table, tree, a, b, sign):
    """Single-hop relevance of tree neighbor b from a, read from the
    table's directed-edge arrays."""
    src, dst = (tree.order[x] for x in tree.directed_edges())
    (e,) = np.flatnonzero((src == a) & (dst == b))
    return float((table.pos if sign == 1 else table.neg)[e])


def tree_neighbors(tree, a):
    src, dst = (tree.order[x] for x in tree.directed_edges())
    return dst[src == a].tolist()


def cum_by_node(table, tree, node_count):
    """The table's (cum_pos, cum_neg) indexed by node id, 0 off the tree."""
    out = np.zeros((2, node_count))
    out[:, tree.order] = table.cum_pos, table.cum_neg
    return out


def covered(tree):
    return set(tree.order.tolist())


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    nxg.add_edges_from((u, v) for u, v, _ in g.edges)
    return nxg


class TestBfsTree:
    def test_path_graph_levels_and_parents(self):
        tree = build_bfs_tree(path_graph(3), 0)
        parent, level, _ = node_indexed(tree, 3)
        assert level[0] == 0
        assert level[1] == 1
        assert level[2] == 2
        assert parent[2] == 1
        assert parent[0] == -1

    def test_isolated_root(self):
        g = SignedGraph.from_edges(3, [(1, 2, P)])
        tree = build_bfs_tree(g, 0)
        assert covered(tree) == {0}
        assert tree.covered_count == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_levels_match_shortest_path_oracle(self, seed):
        g = random_connected_graph(20, 25, seed)
        dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        for root in range(0, 20, 5):
            tree = build_bfs_tree(g, root)
            _, level, _ = node_indexed(tree, g.node_count)
            for v in range(g.node_count):
                assert level[v] == dist[root][v]

    def test_children_parent_consistency(self):
        g = random_connected_graph(25, 30, 7)
        tree = build_bfs_tree(g, 3)
        parent, level, _ = node_indexed(tree, g.node_count)
        child_nodes = tree.order[1:]
        parent_nodes = parent[child_nodes]
        for v in tree.order.tolist():
            for c in child_nodes[parent_nodes == v].tolist():
                assert parent[c] == v
                assert level[c] == level[v] + 1

    def test_every_covered_non_root_has_one_parent(self):
        g = random_connected_graph(30, 45, 1)
        tree = build_bfs_tree(g, 0)
        parent, _, _ = node_indexed(tree, g.node_count)
        for v in tree.order.tolist():
            if v != tree.root:
                assert parent[v] >= 0

    def test_covered_restricted_to_component(self):
        g = SignedGraph.from_edges(5, [(0, 1, P), (2, 3, N), (3, 4, P)])
        tree = build_bfs_tree(g, 2)
        assert covered(tree) == {2, 3, 4}

    def test_max_depth_truncates(self):
        tree = build_bfs_tree(path_graph(6), 0, max_depth=2)
        assert covered(tree) == {0, 1, 2}
        assert tree.depth == 2

    def test_deterministic_ascending_exploration(self):
        g = SignedGraph.from_edges(4, [(0, 2, P), (0, 1, P), (1, 3, P), (2, 3, N)])
        tree = build_bfs_tree(g, 0)
        # node 3 reachable via 1 or 2; ascending order explores 1 first
        assert node_indexed(tree, 4)[0][3] == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_depth", [None, 1, 2, 3])
    def test_matches_queue_bfs_oracle(self, seed, max_depth):
        # several components plus isolated nodes: 3 random graphs side by
        # side, then 4 nodes with no edges
        rng = np.random.default_rng(seed)
        edges, offset = [], 0
        for size in rng.integers(1, 15, size=3).tolist():
            part = random_connected_graph(size, 2 * size, int(rng.integers(1000)))
            edges += [(u + offset, v + offset, s) for u, v, s in part.edges]
            offset += size
        n = offset + 4
        perm = rng.permutation(n)  # spread the components over the id range
        g = SignedGraph.from_edges(
            n, [(int(perm[u]), int(perm[v]), s) for u, v, s in edges]
        )
        for root in range(n):
            tree = build_bfs_tree(g, root, max_depth)
            parent, level, order = queue_bfs(g, root, max_depth)
            tree_parent, tree_level, _ = node_indexed(tree, n)
            assert tree_parent.tolist() == parent
            assert tree_level.tolist() == level
            assert tree.order.tolist() == order

    def test_arrays_are_covered_sized(self):
        # two components plus isolated nodes: order and parent_pos hold one
        # entry per covered node whatever the graph's size, edge one per
        # tree edge, and level_ptr one offset per level plus the end
        g = two_components()
        for root, max_depth in itertools.product(range(9), [None, 0, 1, 2]):
            tree = build_bfs_tree(g, root, max_depth)
            arrays = {
                k for k, a in vars(tree).items() if isinstance(a, np.ndarray)
            }
            assert arrays == {"order", "parent_pos", "edge", "level_ptr"}
            assert len(tree.order) == tree.covered_count
            assert len(tree.parent_pos) == tree.covered_count
            assert len(tree.edge) == tree.covered_count - 1
            _, level, _ = queue_bfs(g, root, max_depth)
            assert tree.depth == max(level)
            assert len(tree.level_ptr) == tree.depth + 2
            assert tree.level_ptr[-1] == tree.covered_count
            assert np.diff(tree.level_ptr).min() > 0

    @pytest.mark.parametrize(
        "g", [two_components(), random_connected_graph(40, 80, 7)]
    )
    def test_edge_ids_join_parent_and_child(self, g):
        # each CSR slot names the edge between its row node and its neighbor
        row = np.repeat(np.arange(g.node_count), np.diff(g.indptr))
        lo, hi = np.minimum(row, g.indices), np.maximum(row, g.indices)
        assert np.array_equal(g.edge_u[g.slot_edge], lo)
        assert np.array_equal(g.edge_v[g.slot_edge], hi)
        with pytest.raises(ValueError):
            g.slot_edge[0] = 0
        for root, max_depth in itertools.product(
            range(g.node_count), [None, 0, 1, 2]
        ):
            tree = build_bfs_tree(g, root, max_depth)
            for a in (tree.order, tree.parent_pos, tree.edge):
                assert a.dtype == np.int32
            parent, child = tree.order[tree.parent_pos[1:]], tree.order[1:]
            lo, hi = np.minimum(parent, child), np.maximum(parent, child)
            assert np.array_equal(g.edge_u[tree.edge], lo)
            assert np.array_equal(g.edge_v[tree.edge], hi)


class TestRelevance:
    def test_single_neighbor_zero_dot(self):
        g = path_graph(2)
        emb = embedding_from([[1.0, 0.0], [0.0, 1.0]])
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        assert step_prob(table, tree, 0, 1, P) == pytest.approx(0.5)
        assert step_prob(table, tree, 0, 1, N) == pytest.approx(0.5)

    def test_single_neighbor_log3_dot(self):
        g = path_graph(2)
        emb = embedding_from([[math.log(3.0)], [1.0]])
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        assert step_prob(table, tree, 0, 1, P) == pytest.approx(0.9)
        assert step_prob(table, tree, 0, 1, N) == pytest.approx(0.1)

    def test_two_orthogonal_neighbors_quarter_each(self):
        g = SignedGraph.from_edges(3, [(0, 1, P), (0, 2, N)])
        emb = embedding_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        for b in (1, 2):
            for s in (P, N):
                assert step_prob(table, tree, 0, b, s) == pytest.approx(0.25)

    def test_not_tree_adjacent_raises(self):
        tree = build_bfs_tree(path_graph(3), 0)
        table = relevance_table(init_embeddings(3, 2, 0), tree)
        # 0 and 2 are not tree-adjacent: no directed tree edge joins them
        src, dst = (tree.order[x] for x in tree.directed_edges())
        assert not ((src == 0) & (dst == 2)).any()
        assert tree_neighbors(tree, 0) == [1]

    @pytest.mark.parametrize("seed", range(3))
    def test_per_node_mass_sums_to_one(self, seed):
        g = random_connected_graph(15, 20, seed)
        emb = init_embeddings(15, 5, seed)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        for a in tree.order.tolist():
            total = sum(
                step_prob(table, tree, a, b, s)
                for b in tree_neighbors(tree, a)
                for s in (P, N)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_table_matches_pointwise_relevance(self):
        g = random_connected_graph(12, 15, 5)
        emb = init_embeddings(12, 4, 5)
        tree = build_bfs_tree(g, 2)
        table = relevance_table(emb, tree)
        for a in tree.order.tolist():
            oracle = step_distribution(emb.values, tree, a)
            for b in tree_neighbors(tree, a):
                for s in (P, N):
                    assert step_prob(table, tree, a, b, s) == pytest.approx(
                        oracle[(b, s.value)], abs=1e-12
                    )

    def test_overflow_guard_for_huge_dots(self):
        g = path_graph(2)
        emb = embedding_from([[900.0], [1.0]])
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        assert step_prob(table, tree, 0, 1, P) == pytest.approx(1.0)
        assert step_prob(table, tree, 0, 1, N) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(table.pos[: tree.covered_count - 1]).all()


def hand_table(tree, down):
    """Table with hand-set parent->child step probabilities.

    ``down`` maps edge index -> (p_pos, p_neg), the probabilities of the
    directed edge with the same id; up probabilities (ids T + e) are set
    to zero and filled only where a test needs them.
    """
    t = tree.covered_count - 1
    table_kwargs = dict(
        pos=np.zeros(2 * t),
        neg=np.zeros(2 * t),
        cum_pos=np.zeros(tree.covered_count),
        cum_neg=np.zeros(tree.covered_count),
    )
    from sgembed import RelevanceTable

    table = RelevanceTable(**table_kwargs)
    for e, (pp, pn) in down.items():
        table.pos[e] = pp
        table.neg[e] = pn
    return table


class TestPropagate:
    def test_depth_one_base_case(self):
        g = random_connected_graph(10, 12, 0)
        emb = init_embeddings(10, 3, 1)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        parent, _, edge_of_child = node_indexed(tree, 10)
        cum_pos, cum_neg = cum_by_node(table, tree, 10)
        for c in [v for v in tree.order.tolist() if parent[v] == 0]:
            e = int(edge_of_child[c])
            assert cum_pos[c] == pytest.approx(table.pos[e])
            assert cum_neg[c] == pytest.approx(table.neg[e])

    def test_hand_recursion_values(self):
        # chain 0-1-2; parent cum set by hop 0, then check hop 1 values
        tree = build_bfs_tree(path_graph(3), 0)
        _, _, edge_of_child = node_indexed(tree, 3)
        e01 = int(edge_of_child[1])
        e12 = int(edge_of_child[2])
        table = hand_table(tree, {e01: (0.6, 0.2), e12: (0.5, 0.3)})
        propagate(table, tree)
        cum_pos, cum_neg = cum_by_node(table, tree, 3)
        assert cum_pos[1] == pytest.approx(0.6)
        assert cum_neg[1] == pytest.approx(0.2)
        assert cum_pos[2] == pytest.approx(0.6 * 0.5 + 0.2 * 0.3)  # 0.36
        assert cum_neg[2] == pytest.approx(0.6 * 0.3 + 0.2 * 0.5)  # 0.28

    def test_all_positive_chain_keeps_full_mass(self):
        tree = build_bfs_tree(path_graph(5), 0)
        _, _, edge_of_child = node_indexed(tree, 5)
        down = {int(edge_of_child[c]): (1.0, 0.0) for c in range(1, 5)}
        table = hand_table(tree, down)
        propagate(table, tree)
        cum_pos, cum_neg = cum_by_node(table, tree, 5)
        assert np.allclose(cum_pos[1:], 1.0)
        assert np.allclose(cum_neg[1:], 0.0)

    def test_negative_hop_parity(self):
        # two negative hops compose to Positive, three to Negative
        tree = build_bfs_tree(path_graph(4), 0)
        _, _, edge_of_child = node_indexed(tree, 4)
        down = {int(edge_of_child[c]): (0.0, 1.0) for c in range(1, 4)}
        table = hand_table(tree, down)
        propagate(table, tree)
        cum_pos, cum_neg = cum_by_node(table, tree, 4)
        assert cum_neg[1] == pytest.approx(1.0)
        assert cum_pos[2] == pytest.approx(1.0)  # enemy of my enemy
        assert cum_neg[3] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_mass_decays_along_tree(self, seed):
        g = random_connected_graph(40, 60, seed)
        emb = init_embeddings(40, 6, seed + 100)
        tree = build_bfs_tree(g, seed)
        table = relevance_table(emb, tree)
        mass = cum_by_node(table, tree, 40).sum(axis=0)
        parent_of, _, _ = node_indexed(tree, 40)
        child_nodes = tree.order[1:]
        parent_nodes = parent_of[child_nodes]
        for e in range(len(child_nodes)):
            child, parent = child_nodes[e], parent_nodes[e]
            assert mass[child] <= mass[parent] + 1e-12

    def test_entries_are_probabilities(self):
        g = random_connected_graph(30, 50, 2)
        emb = init_embeddings(30, 4, 3)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        for arr in (table.pos, table.neg, table.cum_pos, table.cum_neg):
            assert (arr >= 0).all() and (arr <= 1).all()


class TestModifiedSoftmax:
    @pytest.mark.parametrize("seed", range(6))
    def test_normalization_over_tree(self, seed):
        n = 10 + 7 * seed
        g = random_connected_graph(n, 2 * n, seed)
        emb = init_embeddings(n, 5, seed)
        for root in (0, n // 2):
            tree = build_bfs_tree(g, root)
            table = relevance_table(emb, tree)
            total = sum(
                softmax_at(table, tree, v, s)
                for v in tree.order.tolist()
                if v != root
                for s in (P, N)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_depth_one_leaf_formula(self):
        g = SignedGraph.from_edges(3, [(0, 1, P), (0, 2, N)])
        emb = init_embeddings(3, 4, 11)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        _, _, edge_of_child = node_indexed(tree, 3)
        cum_pos, cum_neg = cum_by_node(table, tree, 3)
        up_pos, up_neg = table.pos[2:], table.neg[2:]  # T = 2 tree edges
        for leaf in (1, 2):
            e = int(edge_of_child[leaf])
            expected_pos = cum_pos[leaf] * up_pos[e] + cum_neg[leaf] * up_neg[e]
            assert softmax_at(table, tree, leaf, P) == pytest.approx(
                expected_pos
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_oracle_on_small_graphs(self, seed):
        n = 4 + seed * 3
        g = random_connected_graph(n, n, seed)
        emb = init_embeddings(n, 3, seed + 50)
        tree = build_bfs_tree(g, 1 % n)
        table = relevance_table(emb, tree)
        for v in tree.order.tolist():
            if v == tree.root:
                continue
            for s in (P, N):
                ours = softmax_at(table, tree, v, s)
                naive = naive_modified_softmax(emb.values, tree, v, s)
                assert abs(ours - naive) < 1e-12

    def test_root_and_uncovered_targets_rejected(self):
        g = SignedGraph.from_edges(4, [(0, 1, P), (2, 3, P)])
        emb = init_embeddings(4, 2, 0)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        # neither the root nor an uncovered node is an outcome
        nodes, _, _ = tree_distribution(table, tree)
        assert nodes.tolist() == [1]

    def test_tree_distribution_agrees_with_scalar_op(self):
        g = random_connected_graph(15, 25, 9)
        emb = init_embeddings(15, 4, 9)
        tree = build_bfs_tree(g, 4)
        table = relevance_table(emb, tree)
        nodes, p_pos, p_neg = tree_distribution(table, tree)
        for i, v in enumerate(nodes.tolist()):
            assert p_pos[i] == pytest.approx(softmax_at(table, tree, v, P))
            assert p_neg[i] == pytest.approx(softmax_at(table, tree, v, N))

    def test_degenerate_parity_chain(self):
        # per-hop distributions put probability 1 on a Negative step; the
        # softmax must put probability 1 on the parity sign
        tree = build_bfs_tree(path_graph(4), 0)
        _, _, edge_of_child = node_indexed(tree, 4)
        down = {int(edge_of_child[c]): (0.0, 1.0) for c in range(1, 4)}
        table = hand_table(tree, down)
        # back-steps (ids T + e, T = 3) also degenerate Negative
        table.pos[3:] = 0.0
        table.neg[3:] = 1.0
        propagate(table, tree)
        # depth 1: one hop + back-step = 2 negatives -> Positive
        assert softmax_at(table, tree, 1, P) == pytest.approx(1.0)
        # depth 2: 3 negatives -> Negative ("enemy of my enemy" + back-step)
        assert softmax_at(table, tree, 2, N) == pytest.approx(1.0)
        assert softmax_at(table, tree, 3, P) == pytest.approx(1.0)

    def test_normalization_on_disconnected_graph_covers_component(self):
        g = SignedGraph.from_edges(
            7, [(0, 1, P), (1, 2, N), (0, 3, P), (4, 5, N), (5, 6, P)]
        )
        emb = init_embeddings(7, 3, 2)
        tree = build_bfs_tree(g, 0)
        assert covered(tree) == {0, 1, 2, 3}
        _, p_pos, p_neg = tree_distribution(relevance_table(emb, tree), tree)
        assert p_pos.sum() + p_neg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_normalization_on_depth_capped_tree(self):
        g = random_connected_graph(25, 30, 6)
        emb = init_embeddings(25, 4, 6)
        tree = build_bfs_tree(g, 0, max_depth=2)
        assert tree.depth <= 2
        _, p_pos, p_neg = tree_distribution(relevance_table(emb, tree), tree)
        assert p_pos.sum() + p_neg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_chain_mass_halves_per_hop(self):
        n = 8
        g = path_graph(n)
        emb = EmbeddingMatrix(values=np.tile([0.3, -0.2], (n, 1)))
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        mass = cum_by_node(table, tree, n).sum(axis=0)
        assert mass[1] == pytest.approx(1.0)
        for depth in range(2, n):
            assert mass[depth] / mass[depth - 1] == pytest.approx(0.5)


def walk_counts(batch):
    """Draws per (hop id tuple, hop sign tuple)."""
    counts: dict = {}
    for key in batch_walks(batch):
        counts[key] = counts.get(key, 0) + 1
    return counts


def outcome_counts(batch):
    """Draws per emitted (node, Sign)."""
    counts: dict = {}
    for v, s in zip(batch.targets.tolist(), batch.signs.tolist()):
        counts[(v, Sign(s))] = counts.get((v, Sign(s)), 0) + 1
    return counts


class TestSampler:
    def test_two_node_walk_matches_softmax(self):
        g = path_graph(2)
        emb = embedding_from([[0.8], [1.1]])
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        p = step_prob(table, tree, 0, 1, P)
        expected_pos = p * p + (1 - p) * (1 - p)
        assert softmax_at(table, tree, 1, P) == pytest.approx(expected_pos)
        rng = np.random.default_rng(0)
        draws = 200_000
        batch = sample_walk(table, tree, rng, draws)
        assert (batch.targets == 1).all()
        hits_pos = int((batch.signs == 1).sum())
        sigma = math.sqrt(expected_pos * (1 - expected_pos) / draws)
        assert abs(hits_pos / draws - expected_pos) < 3 * sigma

    def test_star_uniform_embeddings(self):
        g = SignedGraph.from_edges(4, [(0, i, P) for i in (1, 2, 3)])
        emb = EmbeddingMatrix(values=np.tile([0.1, 0.2], (4, 1)))
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        rng = np.random.default_rng(1)
        draws = 100_000
        batch = sample_walk(table, tree, rng, draws)
        counts = {leaf: int((batch.targets == leaf).sum()) for leaf in (1, 2, 3)}
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        for leaf in (1, 2, 3):
            assert abs(counts[leaf] / draws - 1 / 3) < 3 * sigma

    def test_walk_structure(self):
        g = random_connected_graph(12, 16, 3)
        emb = init_embeddings(12, 4, 3)
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        rng = np.random.default_rng(2)
        batch = sample_walk(table, tree, rng, 200)
        assert len(batch) == 200
        assert batch.hop_ptr[0] == 0
        assert batch.hop_ptr[-1] == len(batch.hops) == len(batch.step_signs)
        for target, sign, (hops, signs) in zip(
            batch.targets.tolist(), batch.signs.tolist(), batch_walks(batch)
        ):
            assert list(hops) == walk_hops(tree, root_path(tree, target))
            assert set(signs) <= {1, -1}
            assert sign == math.prod(signs)

    def test_single_node_tree_rejected(self):
        emb = init_embeddings(1, 2, 0)
        lonely = build_bfs_tree(SignedGraph.from_edges(1, []), 0)
        lonely_table = relevance_table(emb, lonely)
        with pytest.raises(ValueError):
            sample_walk(lonely_table, lonely, np.random.default_rng(0), 1)

    @pytest.mark.parametrize("field", ["down_pos", "up_neg"])
    def test_nan_step_probability_raises(self, field):
        # every walk on this chain descends edge 0 or steps back along it
        tree = build_bfs_tree(path_graph(3), 0)
        table = relevance_table(init_embeddings(3, 2, 0), tree)
        # down edge 0 is directed edge 0, its up direction T + 0 = 2
        array, e = {"down_pos": (table.pos, 0), "up_neg": (table.neg, 2)}[field]
        array[e] = np.nan
        with pytest.raises(FloatingPointError):
            sample_walk(table, tree, np.random.default_rng(0), 5)

    def test_empirical_frequencies_match_softmax_small_graph(self):
        g = random_connected_graph(6, 6, 4)
        emb = init_embeddings(6, 3, 8)
        emb.values *= 4.0  # sharpen so probabilities are not all equal
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        rng = np.random.default_rng(3)
        draws = 100_000
        counts = outcome_counts(sample_walk(table, tree, rng, draws))
        for v in tree.order.tolist():
            if v == tree.root:
                continue
            for s in (P, N):
                p = softmax_at(table, tree, v, s)
                freq = counts.get((v, s), 0) / draws
                bound = 3 * math.sqrt(p * (1 - p) / draws) + 1e-4
                assert abs(freq - p) < bound

    @pytest.mark.parametrize(
        "graph_seed, emb_seed, nodes", [(4, 8, 6), (12, 3, 8)]
    )
    def test_hop_sign_sequences_match_walk_oracle(
        self, graph_seed, emb_seed, nodes
    ):
        # criterion 4 checks the (node, composed sign) marginal only; the
        # gradient consumes every hop sign, so check whole walks
        g = random_connected_graph(nodes, nodes, graph_seed)
        emb = init_embeddings(nodes, 3, emb_seed)
        emb.values *= 3.0
        tree = build_bfs_tree(g, 0)
        table = relevance_table(emb, tree)
        draws = 1_000_000
        counts = walk_counts(
            sample_walk(table, tree, np.random.default_rng(99), draws)
        )
        walks = enumerate_walks(tree)
        seen = 0
        worst_z = 0.0
        for path, signs in walks:
            key = (tuple(walk_hops(tree, path)), tuple(signs))
            p = walk_probability(emb.values, tree, path, signs)
            hits = counts.get(key, 0)
            seen += hits
            sigma = math.sqrt(p * (1 - p) / draws)
            worst_z = max(worst_z, abs(hits / draws - p) / sigma)
        assert seen == draws  # every draw is one of the enumerated walks
        assert worst_z <= 3.0, f"worst z {worst_z:.2f} over {len(walks)} walks"


class TestTouchedNodes:
    def test_walk_plus_tree_neighbors(self):
        # rooted at one end of a path, BFS position i holds node i
        tree = build_bfs_tree(path_graph(5), 0)
        assert tree.order.tolist() == [0, 1, 2, 3, 4]
        assert touched_nodes(tree, [0, 1, 2]).tolist() == [0, 1, 2, 3]

    def test_update_cost_scales_like_degree_times_log_n(self):
        # gentle monotone-fit sanity check, not an exact constant
        rng = np.random.default_rng(0)
        ratios = []
        for n in (50, 100, 200, 400):
            nxg = nx.barabasi_albert_graph(n, 3, seed=1)
            edges = [
                (u, v, P if rng.random() < 0.8 else N) for u, v in nxg.edges()
            ]
            g = SignedGraph.from_edges(n, edges)
            emb = init_embeddings(n, 4, 5)
            avg_degree = 2 * g.edge_count / n
            sizes = []
            for root in rng.choice(n, size=15, replace=False):
                tree = build_bfs_tree(g, int(root))
                table = relevance_table(emb, tree)
                batch = sample_walk(table, tree, rng, 20)
                position = {v: i for i, v in enumerate(tree.order.tolist())}
                for target in batch.targets.tolist():
                    walk_nodes = root_path(tree, target)
                    walk = [position[v] for v in walk_nodes]
                    sizes.append(len(touched_nodes(tree, walk)))
            ratios.append(np.mean(sizes) / (avg_degree * math.log(n)))
        # normalized cost stays bounded as n grows 8x
        assert max(ratios) / min(ratios) < 3.0
        assert max(ratios) < 5.0
