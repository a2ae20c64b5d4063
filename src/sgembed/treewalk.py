"""BFS trees and the balance-aware tree softmax.

For a root node r, every covered node n has a unique tree path
r -> ... -> n. Three layers of probabilities are built on that path:

* single-hop sign-specific relevance: at node a, a softmax over a's tree
  neighbors and both signs, p(b, s | a) proportional to exp(s * g_a.g_b);
* cumulative root-to-node values, composed hop by hop with the structural
  balance rule (like signs compose to Positive, unlike to Negative);
* the tree softmax over (node, sign) outcomes, which multiplies the
  cumulative value by a final "step back to the parent" relevance term and
  sums to exactly 1 over the covered nodes and both signs.

A signed random walk samples from the same distribution: it descends the
tree one relevance-weighted hop at a time and stops the first time it
steps back to the node it just came from, emitting the node it stepped
back from together with the balance-composed product of every drawn step
sign, including the final back-step. Since such a walk only descends and
then steps back once, its node path is the root-to-target tree path, and
walks are drawn in closed form from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sgraph import SignedGraph


@dataclass
class BfsTree:
    """Shortest-path tree of the root's connected component.

    ``order`` and ``parent_pos`` are indexed by BFS position: ``order[i]``
    is the i-th covered node in discovery order (``order[0]`` is the root)
    and ``parent_pos[i]`` the position of its parent (-1 at the root).
    Positions level_ptr[l]:level_ptr[l + 1] hold the nodes at depth l, for
    l = 0 .. depth. Tree edge e joins position e + 1 to its parent, along
    graph edge ``edge[e]``. ``order``, ``parent_pos`` and ``edge`` are
    int32.
    """

    order: np.ndarray
    parent_pos: np.ndarray
    edge: np.ndarray
    level_ptr: np.ndarray

    @property
    def root(self) -> int:
        return int(self.order[0])

    @property
    def covered_count(self) -> int:
        return len(self.order)

    @property
    def depth(self) -> int:
        return len(self.level_ptr) - 2

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, destination) positions of every directed tree edge.

        Id e < T steps down tree edge e (parent -> child); id T + e steps
        back up it (child -> parent).
        """
        child = np.arange(1, len(self.order))
        parent = self.parent_pos[1:]
        return np.concatenate([parent, child]), np.concatenate([child, parent])


def build_bfs_tree(g: SignedGraph, root: int) -> BfsTree:
    """BFS tree with deterministic ascending-id neighbor exploration.

    Covers the root's connected component. Expands one level at a time
    over the CSR: the next level is the unvisited nodes of the level's
    concatenated neighbor lists, each at its first occurrence and with the
    node that found it as parent, which is the tree a FIFO queue would
    build.
    """
    if not 0 <= root < g.node_count:
        raise ValueError(f"root {root} outside [0,{g.node_count})")
    # position of each node's first occurrence in its discovery level's
    # list, the unset maximum while undiscovered; a node is discovered in
    # one level only, so this is never reset
    unset = np.iinfo(np.int64).max
    first_at = np.full(g.node_count, unset)
    first_at[root] = 0
    frontier = np.array([root])
    levels, parents, base = [frontier], [np.array([-1])], 0
    edges = [np.empty(0, np.int32)]  # the root has no tree edge
    while len(frontier):
        start = g.indptr[frontier]
        sizes = g.indptr[frontier + 1] - start
        ends = np.cumsum(sizes)
        # slot k of node i's neighbor list sits at start[i] + k
        slots = np.arange(ends[-1]) + np.repeat(start - ends + sizes, sizes)
        found = g.indices[slots]
        new = np.flatnonzero(first_at[found] == unset)
        position = np.arange(len(new))
        np.minimum.at(first_at, found[new], position)
        # the level list's entries that first found a node
        first = new[first_at[found[new]] == position]
        # the BFS position of the frontier node that owns each of them
        parents.append(base + np.searchsorted(ends, first, side="right"))
        base += len(frontier)
        frontier = found[first]
        levels.append(frontier)
        edges.append(g.slot_edge[slots[first]])
    return BfsTree(
        order=np.concatenate(levels, dtype=np.int32),
        parent_pos=np.concatenate(parents, dtype=np.int32),
        edge=np.concatenate(edges),
        # the search stops at the first empty level
        level_ptr=np.cumsum([0, *(len(x) for x in levels[:-1])]),
    )


@dataclass
class RelevanceTable:
    """Per-directed-edge step probabilities plus cumulative root mass.

    ``pos``/``neg`` hold the probability of stepping along each directed
    tree edge (ids as in ``BfsTree.directed_edges``) with a Positive /
    Negative sign. ``cum_pos``/``cum_neg`` hold, per BFS position, the
    balance-composed probability of reaching that node from the root with
    Positive / Negative composed sign (the root carries the identity
    (1, 0)).
    """

    pos: np.ndarray
    neg: np.ndarray
    cum_pos: np.ndarray
    cum_neg: np.ndarray


def relevance_table(
    emb, tree: BfsTree, edge_dots: np.ndarray | None = None
) -> RelevanceTable:
    """Build and propagate the full relevance table for one tree.

    The tree's dot products come from the 2·T gathered rows of ``emb``,
    or, when ``edge_dots`` holds ``emb``'s dot across every graph edge in
    edge order, from T entries of it looked up by ``tree.edge``.
    """
    c = tree.covered_count
    # take gathers faster than fancy indexing, above all through int32 ids
    if edge_dots is None:
        rows = emb.values.take(tree.order, axis=0)
        parents = rows.take(tree.parent_pos[1:], axis=0)
        dots = np.einsum("ij,ij->i", parents, rows[1:])
    else:
        dots = edge_dots.take(tree.edge)
    src, _ = tree.directed_edges()
    dots = np.concatenate([dots, dots])  # per directed edge
    # per-node shift keeps exp arguments <= 0 even for |dot| > 700
    shift = np.zeros(c)
    np.maximum.at(shift, src, np.abs(dots))
    pos, neg = np.exp(dots - shift[src]), np.exp(-dots - shift[src])
    denom = np.bincount(src, pos + neg, c)[src]
    table = RelevanceTable(pos / denom, neg / denom, *np.zeros((2, c)))
    return propagate(table, tree)


def propagate(table: RelevanceTable, tree: BfsTree) -> RelevanceTable:
    """Fill cumulative root-to-node mass top-down (in place).

    Children of the root inherit their single hop; deeper nodes compose
    with the balance rule: the Positive cumulative value sums the
    same-sign products, the Negative one the cross-sign products.
    """
    table.cum_pos[0] = 1.0
    table.cum_neg[0] = 0.0
    # the edge into position i is edge i - 1
    bounds = tree.level_ptr[1:].tolist()
    # numpy's per-level gathers run about twice as fast on int64 indices
    parent = tree.parent_pos.astype(np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        p = parent[lo:hi]
        cp, cn = table.cum_pos[p], table.cum_neg[p]
        dp, dn = table.pos[lo - 1 : hi - 1], table.neg[lo - 1 : hi - 1]
        table.cum_pos[lo:hi] = cp * dp + cn * dn
        table.cum_neg[lo:hi] = cp * dn + cn * dp
    return table


def tree_distribution(table: RelevanceTable, tree: BfsTree):
    """All (node, sign) tree-softmax values at once.

    Returns (nodes, p_positive, p_negative) arrays aligned with the tree's
    non-root covered nodes in BFS order, so entry e belongs to tree edge
    e. The two probability arrays sum to 1 together.
    """
    t = tree.covered_count - 1
    cp, cn = table.cum_pos[1:], table.cum_neg[1:]
    up, un = table.pos[t:], table.neg[t:]
    return tree.order[1:], cp * up + cn * un, cp * un + cn * up


@dataclass
class WalkBatch:
    """Signed walks from one tree root, drawn from one relevance table.

    Walk i emits ``targets[i]`` with balance-composed sign ``signs[i]``
    and owns the hops hop_ptr[i]:hop_ptr[i+1] of the flat hop arrays:
    ``hops`` holds directed tree edge ids (see ``BfsTree.directed_edges``)
    and ``step_signs`` the drawn sign of each hop. A walk's hops run from
    the root down to its target, then the terminating back-step.
    """

    tree: BfsTree
    table: RelevanceTable
    targets: np.ndarray
    signs: np.ndarray
    hops: np.ndarray
    step_signs: np.ndarray
    hop_ptr: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def sample_walk(
    table: RelevanceTable, tree: BfsTree, rng: np.random.Generator, count: int
) -> WalkBatch:
    """Draw ``count`` signed walks; requires a tree covering two nodes.

    A walk's probability is the product of its hops' step probabilities,
    which factors into its node path (the target's tree-softmax mass over
    both signs) times an independent sign draw per hop. Targets come from
    one inverse-CDF search over that mass, hop signs from one uniform draw
    per hop.
    """
    if tree.covered_count < 2:
        raise ValueError("tree must cover at least two nodes")
    _, p_pos, p_neg = tree_distribution(table, tree)
    cum = np.cumsum(p_pos + p_neg)
    edge = np.searchsorted(cum, rng.random(count) * cum[-1], side="right")
    edge = np.minimum(edge, len(cum) - 1)
    target = edge + 1  # tree edge e enters BFS position e + 1
    hop_ptr = np.zeros(count + 1, dtype=np.int64)
    # a walk to depth l takes l hops down and one back
    hops_per_walk = np.searchsorted(tree.level_ptr, target, side="right")
    np.cumsum(hops_per_walk, out=hop_ptr[1:])
    hops = np.empty(hop_ptr[-1], dtype=np.int64)
    back = hop_ptr[1:] - 1
    hops[back] = edge + len(cum)
    # fill each path bottom-up, one tree level per pass, until the root
    cur, at = target, back - 1
    while len(cur):
        hops[at] = cur - 1
        cur = tree.parent_pos[cur]
        keep = cur > 0
        cur, at = cur[keep], at[keep] - 1
    pos, neg = table.pos[hops], table.neg[hops]
    if not np.isfinite(cum[-1] + pos.sum() + neg.sum()):
        raise FloatingPointError(
            f"non-finite step probabilities in the tree of {tree.root}"
        )
    step_signs = np.where(rng.random(len(hops)) * (pos + neg) < pos, 1, -1)
    step_signs = step_signs.astype(np.int8)
    return WalkBatch(
        tree=tree,
        table=table,
        targets=tree.order[target],
        signs=np.multiply.reduceat(step_signs, hop_ptr[:-1]),
        hops=hops,
        step_signs=step_signs,
        hop_ptr=hop_ptr,
    )


def touched_nodes(tree: BfsTree, positions) -> np.ndarray:
    """Sorted BFS positions whose embeddings a gradient from ``positions``
    touches: the positions themselves plus every tree neighbor of one."""
    visited = np.zeros(tree.covered_count, dtype=bool)
    visited[positions] = True
    parent = tree.parent_pos[1:]
    touched = visited.copy()
    touched[1:] |= visited[parent]
    touched[parent[visited[1:]]] = True
    return np.flatnonzero(touched)
