"""Tests for the signed-graph data model and ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgembed import (
    EdgeListError,
    EdgeListSpec,
    Sign,
    SignedGraph,
    inject_sparsity,
    load_edge_list,
    random_connected_graph,
    save_edge_list,
    synth_balanced,
    top_degree_subgraph,
)

from oracles import (
    flip,
    loop_random_connected_graph,
    sign_from_number,
    unbalanced_triangles,
)


def csr(g):
    return g.indptr.tolist(), g.indices.tolist(), g.signs.tolist()


def set_oracle(node_count, edges):
    """from_edges by plain Python sets: the canonical edge list and each
    node's sorted (neighbor, sign) list, or the ValueError message prefix
    of the first bad edge."""
    seen = set()
    canonical = []
    nbrs = [[] for _ in range(node_count)]
    for u, v, s in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            return f"edge ({u},{v}) outside"
        if u == v:
            return f"self-loop at node {u}"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"duplicate edge for pair {pair}"
        seen.add(pair)
        canonical.append((*pair, s))
        nbrs[u].append((v, s))
        nbrs[v].append((u, s))
    return canonical, [sorted(x) for x in nbrs]


class TestSign:
    def test_two_variants_with_numeric_projection(self):
        assert len(Sign) == 2
        assert Sign.POSITIVE.value == 1
        assert Sign.NEGATIVE.value == -1

    def test_flip_is_an_involution(self):
        for s in Sign:
            assert flip(flip(s)) is s
        assert flip(Sign.POSITIVE) is Sign.NEGATIVE

    def test_from_number(self):
        assert sign_from_number(3.5) is Sign.POSITIVE
        assert sign_from_number(-1) is Sign.NEGATIVE
        with pytest.raises(ValueError):
            sign_from_number(0)


class TestSignedGraph:
    def test_construction_and_counts(self):
        g = SignedGraph.from_edges(
            3, [(0, 1, Sign.POSITIVE), (2, 1, Sign.NEGATIVE)]
        )
        assert g.node_count == 3
        assert g.positive_edge_count == 1
        assert g.negative_edge_count == 1
        assert g.positive_edge_count + g.negative_edge_count == g.edge_count
        # canonical orientation u < v
        assert g.edges[1] == (1, 2, Sign.NEGATIVE)

    def test_rejects_self_loops_duplicates_and_range(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 0, Sign.POSITIVE)])
        with pytest.raises(ValueError):
            SignedGraph.from_edges(
                2, [(0, 1, Sign.POSITIVE), (1, 0, Sign.NEGATIVE)]
            )
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 5, Sign.POSITIVE)])

    def test_adjacency_symmetry_exhaustive(self):
        for seed in range(5):
            g = random_connected_graph(30, 60, seed)
            p, idx, sg = csr(g)
            for u in range(g.node_count):
                for v, s in zip(idx[p[u] : p[u + 1]], sg[p[u] : p[u + 1]]):
                    back = zip(idx[p[v] : p[v + 1]], sg[p[v] : p[v + 1]])
                    assert (u, s) in list(back)
            assert len(idx) == 2 * g.edge_count

    def test_adjacency_sorted_by_neighbor(self):
        g = random_connected_graph(25, 40, 3)
        p, idx, _ = csr(g)
        for u in range(g.node_count):
            ids = idx[p[u] : p[u + 1]]
            assert ids == sorted(ids)
            assert g.degree(u) == p[u + 1] - p[u]
        assert np.array_equal(
            np.diff(g.indptr), [g.degree(u) for u in range(g.node_count)]
        )

    def test_arrays_are_read_only_and_in_input_order(self):
        g = SignedGraph.from_edges(4, [(3, 1, Sign.NEGATIVE), (0, 2, Sign.POSITIVE)])
        assert g.edge_u.tolist() == [1, 0]
        assert g.edge_v.tolist() == [3, 2]
        assert g.edge_sign.tolist() == [-1, 1]
        assert g.edge_sign.dtype == np.int8 and g.signs.dtype == np.int8
        for a in (g.edge_u, g.edge_v, g.edge_sign, g.indptr, g.indices, g.signs):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_counts_above_int32_are_rejected(self):
        with pytest.raises(ValueError, match="node_count 2147483648 outside"):
            SignedGraph.from_edges(2**31, [])
        # a zero-stride view: 2^31 rows without their memory
        edges = np.broadcast_to(np.array([0, 1, 1]), (2**31, 3))
        with pytest.raises(ValueError, match="2147483648 edges exceed"):
            SignedGraph.from_edges(2, edges)

    def test_array_input_matches_tuple_input(self):
        triples = [(0, 3, Sign.POSITIVE), (2, 1, Sign.NEGATIVE), (1, 3, Sign.POSITIVE)]
        a = SignedGraph.from_edges(4, triples)
        b = SignedGraph.from_edges(4, np.array([[0, 3, 1], [2, 1, -1], [1, 3, 1]]))
        assert a.edges == b.edges
        assert csr(a) == csr(b)
        assert SignedGraph.from_edges(4, a.edge_triples()).edges == a.edges

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 1), (2, 2, 1), (0, 9, 1)], "self-loop at node 2"),
            ([(0, 1, 1), (0, 9, 1), (2, 2, 1)], r"edge \(0,9\) outside"),
            ([(0, 1, 1), (1, 0, -1), (3, 3, 1)], r"duplicate edge for pair \(0, 1\)"),
            ([(0, 1, 1), (1, 2, 0)], r"edge \(1,2\) has sign 0"),
        ],
    )
    def test_errors_name_the_first_offending_edge(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SignedGraph.from_edges(4, edges)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(-1, n), st.integers(-1, n), st.sampled_from(Sign)
                    ),
                    max_size=20,
                ),
            )
        )
    )
    def test_from_edges_agrees_with_set_oracle(self, case):
        node_count, edges = case
        expected = set_oracle(node_count, edges)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                SignedGraph.from_edges(node_count, edges)
            assert str(exc.value).startswith(expected)
            return
        canonical, nbrs = expected
        g = SignedGraph.from_edges(node_count, edges)
        assert g.edges == tuple(canonical)
        p, idx, sg = csr(g)
        assert len(p) == node_count + 1
        for u in range(node_count):
            assert list(zip(idx[p[u] : p[u + 1]], sg[p[u] : p[u + 1]])) == nbrs[u]


class TestLoadEdgeList:
    def test_basic_two_lines(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 1\n1 2 -1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert g.node_count == 3
        assert g.positive_edge_count == 1
        assert g.negative_edge_count == 1
        assert report.edges_kept == 2

    def test_conflicting_duplicate_dropped(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 1\n1 0 -1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert g.node_count == 2
        assert g.edge_count == 0
        assert report.conflicting_pairs == 1
        assert report.tie_dropped_pairs == 1
        assert report.duplicate_lines == 1

    def test_majority_wins_on_duplicates(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 1\n1 0 -1\n0 1 1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert g.edges == ((0, 1, Sign.POSITIVE),)
        assert report.conflicting_pairs == 1

    def test_rating_threshold_mode(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("10,20,4\n10,30,-2\n20,30,1\n")
        g, _ = load_edge_list(
            EdgeListSpec(path=p, delimiter=",", rating_threshold=1.0)
        )
        assert g.node_count == 3
        assert g.positive_edge_count == 2
        assert g.negative_edge_count == 1

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected_before_reading(
        self, tmp_path, threshold
    ):
        # the file is never opened: it does not exist
        spec = EdgeListSpec(path=tmp_path / "missing.csv", rating_threshold=threshold)
        with pytest.raises(
            EdgeListError, match=f"rating threshold {threshold} is not finite"
        ):
            load_edge_list(spec)

    def test_empty_delimiter_rejected_before_reading(self, tmp_path):
        spec = EdgeListSpec(path=tmp_path / "missing.csv", delimiter="")
        with pytest.raises(EdgeListError, match="delimiter must not be empty"):
            load_edge_list(spec)

    def test_first_appearance_remap(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("7 3 1\n3 9 -1\n")
        g, _ = load_edge_list(EdgeListSpec(path=p))
        # 7 -> 0, 3 -> 1, 9 -> 2
        assert g.edges == ((0, 1, Sign.POSITIVE), (1, 2, Sign.NEGATIVE))

    def test_self_loops_dropped_with_report(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 0 1\n0 1 1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert report.self_loops_dropped == 1
        assert g.edge_count == 1

    def test_zero_sign_dropped_in_explicit_mode(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 0\n0 1 1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert report.zero_sign_dropped == 1
        assert g.edge_count == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 1\nnot a line\n")
        with pytest.raises(EdgeListError, match=":2"):
            load_edge_list(EdgeListSpec(path=p))

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n")
        with pytest.raises(EdgeListError, match="3 columns"):
            load_edge_list(EdgeListSpec(path=p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(EdgeListError, match="cannot read"):
            load_edge_list(EdgeListSpec(path=tmp_path / "nope.edges"))

    def test_empty_after_cleaning(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# only comments\n\n")
        with pytest.raises(EdgeListError, match="empty"):
            load_edge_list(EdgeListSpec(path=p))

    @pytest.mark.parametrize(
        "text, threshold",
        [
            ("0 1 1\n1 2 nan\n", None),  # sign column
            ("0 1 1\n1 2 -inf\n", None),
            ("0 1 4\n1 2 nan\n", 1.0),  # rating column under a threshold
        ],
    )
    def test_non_finite_value_reports_line(self, tmp_path, text, threshold):
        p = tmp_path / "g.edges"
        p.write_text(text)
        with pytest.raises(EdgeListError, match=r"g\.edges:2: non-finite"):
            load_edge_list(EdgeListSpec(path=p, rating_threshold=threshold))

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# header\n0 1 1\n")
        g, _ = load_edge_list(EdgeListSpec(path=p))
        assert g.edge_count == 1

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_bytes(b"0 1 1\n1 2 \xff\n")
        with pytest.raises(EdgeListError, match=r"g\.edges:2: not UTF-8"):
            load_edge_list(EdgeListSpec(path=p))

    @pytest.mark.parametrize("count", ["-3", "x", ""])
    def test_bad_node_count_directive_names_its_line(self, tmp_path, count):
        p = tmp_path / "g.edges"
        p.write_text(f"# comment\n#%nodes {count}\n0 1 1\n")
        with pytest.raises(
            EdgeListError, match=r"g\.edges:2: bad node-count directive"
        ):
            load_edge_list(EdgeListSpec(path=p))

    def test_node_count_directive_above_int32_names_its_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(f"# comment\n#%nodes {2**31}\n0 1 1\n")
        with pytest.raises(
            EdgeListError,
            match=r"g\.edges:2: bad node-count directive, expected 0 to 2147483647",
        ):
            load_edge_list(EdgeListSpec(path=p))


    def test_directive_after_edge_lines_keeps_every_id(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("5 7 1\n#%nodes 10\n0 1 -1\n")
        g, report = load_edge_list(EdgeListSpec(path=p))
        assert g.node_count == report.nodes == 10
        assert g.edges == ((5, 7, Sign.POSITIVE), (0, 1, Sign.NEGATIVE))

    def test_second_directive_names_its_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("#%nodes 4\n0 1 1\n#%nodes 4\n")
        with pytest.raises(
            EdgeListError, match=r"g\.edges:3: second node-count directive"
        ):
            load_edge_list(EdgeListSpec(path=p))

    @pytest.mark.parametrize("node", [3, -1, 2**70])
    def test_id_outside_declared_range_names_its_line(self, tmp_path, node):
        p = tmp_path / "g.edges"
        p.write_text(f"#%nodes 3\n0 1 1\n1 {node} -1\n")
        with pytest.raises(
            EdgeListError,
            match=rf"g\.edges:3: node id {node} outside \[0,3\) declared by",
        ):
            load_edge_list(EdgeListSpec(path=p))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_save_load_identity(self, tmp_path, seed):
        g = random_connected_graph(20, 30, seed)
        p = tmp_path / "g.edges"
        save_edge_list(g, p, comments=["round trip"])
        g2, _ = load_edge_list(EdgeListSpec(path=p))
        assert g2.node_count == g.node_count
        assert g2.edges == g.edges
        assert csr(g2) == csr(g)

    def test_isolated_nodes_survive(self, tmp_path):
        g = SignedGraph.from_edges(5, [(1, 3, Sign.NEGATIVE)])
        p = tmp_path / "g.edges"
        save_edge_list(g, p)
        g2, _ = load_edge_list(EdgeListSpec(path=p))
        assert g2.node_count == 5
        assert g2.edges == g.edges


class TestTopDegreeSubgraph:
    def test_full_selection_is_identity(self):
        g = random_connected_graph(15, 20, 0)
        sub = top_degree_subgraph(g, g.node_count)
        assert sub.edges == g.edges
        assert csr(sub) == csr(g)

    def test_star_graph_selection(self):
        edges = [(0, leaf, Sign.POSITIVE) for leaf in range(1, 6)]
        g = SignedGraph.from_edges(6, edges)
        sub = top_degree_subgraph(g, 3)
        # center kept, ties among leaves broken toward low ids
        assert sub.node_count == 3
        assert sub.edge_count == 2
        assert sub.edges == (
            (0, 1, Sign.POSITIVE),
            (0, 2, Sign.POSITIVE),
        )

    def test_rejects_bad_n(self):
        g = random_connected_graph(5, 3, 1)
        with pytest.raises(ValueError):
            top_degree_subgraph(g, 0)
        with pytest.raises(ValueError):
            top_degree_subgraph(g, 6)


class TestInjectSparsity:
    def test_zero_fraction_identity(self):
        g = random_connected_graph(20, 30, 2)
        g2 = inject_sparsity(g, 0.0, seed=5)
        assert g2.edges == g.edges

    def test_exact_removal_count(self):
        g = random_connected_graph(40, 150, 3)
        e = g.edge_count
        for fraction in (0.2, 0.4, 0.6, 0.8):
            g2 = inject_sparsity(g, fraction, seed=11)
            assert g2.edge_count == e - round(fraction * e)
            assert g2.node_count == g.node_count

    def test_hundred_edge_example(self):
        # build a graph with exactly 100 edges
        edges = []
        k = 0
        for u in range(30):
            for v in range(u + 1, 30):
                if k < 100:
                    edges.append((u, v, Sign.POSITIVE))
                    k += 1
        g = SignedGraph.from_edges(30, edges)
        assert inject_sparsity(g, 0.2, seed=0).edge_count == 80

    def test_deterministic_per_seed(self):
        g = random_connected_graph(25, 80, 4)
        a = inject_sparsity(g, 0.5, seed=9)
        b = inject_sparsity(g, 0.5, seed=9)
        assert a.edges == b.edges
        c = inject_sparsity(g, 0.5, seed=10)
        assert c.edges != a.edges

    def test_removed_edges_are_a_subset(self):
        g = random_connected_graph(25, 80, 4)
        g2 = inject_sparsity(g, 0.3, seed=1)
        assert set(g2.edges) <= set(g.edges)


class TestSynthBalanced:
    def test_single_community_all_positive(self):
        g = synth_balanced(1, 10, 0.8, 0.0, 0.0, seed=0)
        assert g.negative_edge_count == 0

    def test_complete_two_community_counts(self):
        g = synth_balanced(2, 3, 1.0, 1.0, 0.0, seed=0)
        assert g.positive_edge_count == 6  # 2 * C(3,2)
        assert g.negative_edge_count == 9  # 3 * 3

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("communities", (1, 2))
    def test_noiseless_graphs_are_balanced(self, communities, seed):
        # balance holds for up to two factions; three communities would
        # create all-negative triangles
        g = synth_balanced(communities, 10, 0.7, 0.4, 0.0, seed=seed)
        assert unbalanced_triangles(g) == 0

    def test_three_communities_only_weakly_balanced(self):
        g = synth_balanced(3, 6, 1.0, 1.0, 0.0, seed=0)
        assert unbalanced_triangles(g) == 6 * 6 * 6

    def test_noise_flips_signs(self):
        g = synth_balanced(2, 10, 1.0, 1.0, 1.0, seed=0)
        # noise=1 flips everything: intra negative, inter positive
        assert g.positive_edge_count == 100
        assert g.negative_edge_count == 90

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            synth_balanced(2, 3, 1.5, 0.5, 0.0, seed=0)


class TestRandomConnectedGraph:
    @pytest.mark.parametrize("n, extra", [(1, 3), (2, 0), (12, 5), (40, 200)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_one_draw_at_a_time_oracle(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert g.edges == tuple(loop_random_connected_graph(n, extra, seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_connectivity(self, seed):
        g = random_connected_graph(30, 10, seed)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == g.node_count
