"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed. The generators produce
numpy arrays only; the workloads turn them into files with sgembed's
writers, and the program under test sees nothing but those files.
"""

from __future__ import annotations

import numpy as np

# Bitcoin-OTC (SNAP soc-sign-bitcoinotc, ratings >= 1 counted positive) has
# about 5.9k nodes, 21.4k edges (E/n ~ 3.6), 15% negative edges and a
# heavy-tailed degree distribution; these constants reproduce that shape.
EDGES_PER_NODE = 3.6
NEGATIVE_SHARE = 0.15
SIGN_NOISE = 0.05
COMMUNITIES = 8
PARETO_SHAPE = 1.3


def _weighted_pick(rng, members: np.ndarray, weights: np.ndarray, size: int):
    cum = np.cumsum(weights[members])
    return members[np.searchsorted(cum, rng.random(size) * cum[-1], side="right")]


def bitcoin_like_graph(n: int, seed: int):
    """Connected signed graph shaped like Bitcoin-OTC, with hidden communities.

    Node weights follow a Pareto law, so degrees are heavy-tailed. Each
    community is joined by a weight-preferential random tree and the
    communities are chained together, which makes the graph connected; the
    remaining edges are drawn with weight-proportional endpoints, mostly
    inside the first endpoint's community. An edge is positive inside a
    community and negative across, then flips with probability SIGN_NOISE.

    Returns (u, v, sign, community): int64 endpoint arrays with u < v, an
    int8 array of +1/-1, and the hidden community of every node.
    """
    if n < 2 * COMMUNITIES:
        raise ValueError(f"n must be at least {2 * COMMUNITIES}")
    rng = np.random.default_rng(seed)
    weights = np.minimum(1.0 + rng.pareto(PARETO_SHAPE, n), n / 8.0)
    community = rng.integers(COMMUNITIES, size=n)
    members = [np.flatnonzero(community == c) for c in range(COMMUNITIES)]
    if any(len(m) < 2 for m in members):
        raise ValueError("a community drew fewer than two nodes")

    tree_u, tree_v = [], []
    for m in members:
        order = rng.permutation(m)
        cum = np.cumsum(weights[order])
        # node i attaches to an earlier node chosen by weight
        r = rng.random(len(order) - 1) * cum[:-1]
        tree_u.append(order[1:])
        tree_v.append(order[np.searchsorted(cum, r, side="right")])
    heads = np.asarray([rng.choice(m) for m in members])
    tree_u.append(heads[1:])
    tree_v.append(heads[:-1])
    u = np.concatenate(tree_u)
    v = np.concatenate(tree_v)

    # Share of extra edges kept inside a community, chosen so that the
    # negative share over all edges lands near NEGATIVE_SHARE.
    target = int(round(EDGES_PER_NODE * n))
    extra = target - len(u)
    cross = (NEGATIVE_SHARE - SIGN_NOISE) / (1.0 - 2.0 * SIGN_NOISE)
    # (0.8: duplicate draws are likelier inside a community and are dropped)
    p_intra = 1.0 - 0.8 * cross * target / extra / (1.0 - 1.0 / COMMUNITIES)
    all_nodes = np.arange(n)
    codes = np.minimum(u, v) * n + np.maximum(u, v)
    _, first = np.unique(codes, return_index=True)
    codes = codes[np.sort(first)]
    while len(codes) < target:
        k = 2 * (target - len(codes)) + 64
        a = _weighted_pick(rng, all_nodes, weights, k)
        b = _weighted_pick(rng, all_nodes, weights, k)
        intra = rng.random(k) < p_intra
        for c, m in enumerate(members):
            sel = intra & (community[a] == c)
            b[sel] = _weighted_pick(rng, m, weights, int(sel.sum()))
        keep = a != b
        cand = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
        merged = np.concatenate([codes, cand])
        _, first = np.unique(merged, return_index=True)
        codes = merged[np.sort(first)][:target]
    u, v = codes // n, codes % n
    sign = np.where(community[u] == community[v], 1, -1).astype(np.int8)
    sign[rng.random(len(sign)) < SIGN_NOISE] *= -1
    return u, v, sign, community


def community_embedding(community: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """|V| x dim table: each node's community centroid plus Gaussian noise.

    Nodes of one community get nearby rows, so a classifier on edge
    features has a real signal to learn from.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.normal(0.0, 0.5, size=(int(community.max()) + 1, dim))
    return centroids[community] + rng.normal(0.0, 0.35, size=(len(community), dim))
