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
    """Shortest-path tree rooted at ``root``.

    Tree edges are indexed 0..T-1 in discovery order; edge e joins
    child_nodes[e] to parent_nodes[e]. ``order`` lists covered nodes in BFS
    discovery order (order[0] == root).
    """

    root: int
    parent: np.ndarray
    level: np.ndarray
    order: np.ndarray
    child_nodes: np.ndarray
    parent_nodes: np.ndarray
    edge_of_child: np.ndarray

    @property
    def covered_count(self) -> int:
        return len(self.order)

    @property
    def depth(self) -> int:
        return int(self.level[self.order].max())

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, destination) of every directed tree edge.

        Id e < T steps down tree edge e (parent -> child); id T + e steps
        back up it (child -> parent).
        """
        return (
            np.concatenate([self.parent_nodes, self.child_nodes]),
            np.concatenate([self.child_nodes, self.parent_nodes]),
        )


def build_bfs_tree(
    g: SignedGraph, root: int, max_depth: int | None = None
) -> BfsTree:
    """BFS tree with deterministic ascending-id neighbor exploration.

    Covers the root's connected component, or its truncation when
    ``max_depth`` is given. Expands one level at a time over the CSR: the
    next level is the unvisited nodes of the level's concatenated neighbor
    lists, each at its first occurrence and with the node that found it as
    parent, which is the tree a FIFO queue would build.
    """
    if not 0 <= root < g.node_count:
        raise ValueError(f"root {root} outside [0,{g.node_count})")
    n = g.node_count
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    # position of each node's first occurrence in its discovery level's
    # list; a node is discovered in one level only, so this is never reset
    first_at = np.full(n, np.iinfo(np.int64).max)
    frontier = np.array([root], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while len(frontier) and (max_depth is None or depth < max_depth):
        start = g.indptr[frontier]
        sizes = g.indptr[frontier + 1] - start
        # slot k of node i's neighbor list sits at start[i] + k
        offsets = np.repeat(start - np.cumsum(sizes) + sizes, sizes)
        found = g.indices[np.arange(sizes.sum()) + offsets]
        by = np.repeat(frontier, sizes)
        new = level[found] < 0
        found, by = found[new], by[new]
        position = np.arange(len(found))
        np.minimum.at(first_at, found, position)
        first = np.flatnonzero(first_at[found] == position)
        frontier = found[first]
        depth += 1
        level[frontier] = depth
        parent[frontier] = by[first]
        levels.append(frontier)

    order = np.concatenate(levels)
    child_nodes = order[1:].copy()
    edge_of_child = np.full(n, -1, dtype=np.int64)
    edge_of_child[child_nodes] = np.arange(len(child_nodes))
    return BfsTree(
        root=root,
        parent=parent,
        level=level,
        order=order,
        child_nodes=child_nodes,
        parent_nodes=parent[child_nodes],
        edge_of_child=edge_of_child,
    )


@dataclass
class RelevanceTable:
    """Per-tree-edge step probabilities plus cumulative root-to-node mass.

    down_* arrays hold the parent->child step probabilities per tree edge,
    up_* the child->parent direction. cum_pos/cum_neg hold the
    balance-composed probability of reaching each node from the root with
    Positive / Negative composed sign (root itself carries the identity
    (1, 0)).
    """

    down_pos: np.ndarray
    down_neg: np.ndarray
    up_pos: np.ndarray
    up_neg: np.ndarray
    cum_pos: np.ndarray
    cum_neg: np.ndarray

    def directed(self) -> tuple[np.ndarray, np.ndarray]:
        """(p_pos, p_neg) per directed tree edge id, see
        ``BfsTree.directed_edges``."""
        return (
            np.concatenate([self.down_pos, self.up_pos]),
            np.concatenate([self.down_neg, self.up_neg]),
        )


def relevance_table(emb, tree: BfsTree) -> RelevanceTable:
    """Build and propagate the full relevance table for one tree."""
    values, t, n = emb.values, len(tree.child_nodes), len(emb.values)
    dots = np.einsum(
        "ij,ij->i", values[tree.parent_nodes], values[tree.child_nodes]
    )
    src, _ = tree.directed_edges()
    dots = np.concatenate([dots, dots])  # per directed edge
    # per-node shift keeps exp arguments <= 0 even for |dot| > 700
    shift = np.zeros(n)
    np.maximum.at(shift, src, np.abs(dots))
    pos, neg = np.exp(dots - shift[src]), np.exp(-dots - shift[src])
    denom = np.bincount(src, pos + neg, n)[src]
    pos, neg = pos / denom, neg / denom
    table = RelevanceTable(pos[:t], neg[:t], pos[t:], neg[t:], *np.zeros((2, n)))
    return propagate(table, tree)


def propagate(table: RelevanceTable, tree: BfsTree) -> RelevanceTable:
    """Fill cumulative root-to-node mass top-down (in place).

    Children of the root inherit their single hop; deeper nodes compose
    with the balance rule: the Positive cumulative value sums the
    same-sign products, the Negative one the cross-sign products.
    """
    table.cum_pos[tree.root] = 1.0
    table.cum_neg[tree.root] = 0.0
    if len(tree.child_nodes) == 0:
        return table
    # child_nodes is in BFS order, so each level is one contiguous slice
    levels = tree.level[tree.child_nodes]
    bounds = np.searchsorted(levels, np.arange(1, levels[-1] + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        c, p = tree.child_nodes[lo:hi], tree.parent_nodes[lo:hi]
        cp, cn = table.cum_pos[p], table.cum_neg[p]
        dp, dn = table.down_pos[lo:hi], table.down_neg[lo:hi]
        table.cum_pos[c] = cp * dp + cn * dn
        table.cum_neg[c] = cp * dn + cn * dp
    return table


def tree_distribution(table: RelevanceTable, tree: BfsTree):
    """All (node, sign) tree-softmax values at once.

    Returns (nodes, p_positive, p_negative) arrays aligned with the tree's
    non-root covered nodes. The two probability arrays sum to 1 together.
    """
    c = tree.child_nodes
    cp, cn = table.cum_pos[c], table.cum_neg[c]
    up, un = table.up_pos, table.up_neg
    return c, cp * up + cn * un, cp * un + cn * up


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
    targets = tree.child_nodes[edge]
    hop_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(tree.level[targets] + 1, out=hop_ptr[1:])
    hops = np.empty(hop_ptr[-1], dtype=np.int64)
    back = hop_ptr[1:] - 1
    hops[back] = edge + len(cum)
    # fill each path bottom-up, one tree level per pass
    cur, at = edge, back - 1
    while len(cur):
        hops[at] = cur
        cur = tree.edge_of_child[tree.parent_nodes[cur]]
        keep = cur >= 0
        cur, at = cur[keep], at[keep] - 1
    pos, neg = table.directed()
    pos, neg = pos[hops], neg[hops]
    if not np.isfinite(cum[-1] + pos.sum() + neg.sum()):
        raise FloatingPointError(
            f"non-finite step probabilities in the tree of {tree.root}"
        )
    step_signs = np.where(rng.random(len(hops)) * (pos + neg) < pos, 1, -1)
    step_signs = step_signs.astype(np.int8)
    return WalkBatch(
        tree=tree,
        table=table,
        targets=targets,
        signs=np.multiply.reduceat(step_signs, hop_ptr[:-1]),
        hops=hops,
        step_signs=step_signs,
        hop_ptr=hop_ptr,
    )


def touched_nodes(tree: BfsTree, nodes) -> np.ndarray:
    """Sorted nodes whose embeddings a gradient from ``nodes`` touches.

    The nodes themselves plus every tree neighbor of one of them.
    """
    visited = np.zeros(len(tree.level), dtype=bool)
    visited[nodes] = True
    c, p = tree.child_nodes, tree.parent_nodes
    return np.union1d(nodes, np.concatenate([c[visited[p]], p[visited[c]]]))
