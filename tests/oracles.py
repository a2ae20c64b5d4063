"""Independent oracle implementations used by the test suite.

Everything here is deliberately written with plain Python loops and
math.exp rather than the package's vectorized code paths, so agreement is
a real cross-check and not a tautology.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import deque

import numpy as np

from sgembed import LoadReport, Sign, SignedGraph, WalkBatch
from sgembed.evalkit import (
    MAX_ITERATIONS,
    RIDGE,
    STEP_TOLERANCE,
    LogisticModel,
    edge_feature_matrix,
    fold_metrics,
    logreg_predict_proba,
)
from sgembed.generator import DivergenceError, sigmoid, walk_logprob_gradient
from sgembed.sgraph import text_lines
from sgembed.treewalk import relevance_table


def flip(sign):
    """The opposite Sign."""
    return Sign(-sign.value)


def sign_from_number(x):
    """The Sign of a nonzero number."""
    if x > 0:
        return Sign.POSITIVE
    if x < 0:
        return Sign.NEGATIVE
    raise ValueError("sign value must be nonzero")


def config_to_file(cfg, path):
    """Write ``cfg`` as the key=value lines ``TrainConfig.from_file``
    reads: none for None, comma-separated floats for a tuple."""

    def text(value):
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ",".join(repr(float(x)) for x in value)
        return str(value)

    with open(path, "wt", encoding="utf-8") as fh:
        for f in dataclasses.fields(cfg):
            fh.write(f"{f.name}={text(getattr(cfg, f.name))}\n")


def dict_load_edge_list(spec):
    """``load_edge_list`` for a well-formed file without a ``#%nodes``
    directive, one line at a time: ids remapped in first-appearance order
    through a dict, and a dict of per-pair sign counts."""
    remap: dict[int, int] = {}
    # unordered pair -> [positive occurrences, negative occurrences]
    counts: dict[tuple[int, int], list[int]] = {}
    report = LoadReport(str(spec.path), *[0] * 10)
    for _, line in text_lines(spec.path):
        parts = line.split(spec.delimiter)
        report.lines_parsed += 1
        u = remap.setdefault(int(parts[0]), len(remap))
        v = remap.setdefault(int(parts[1]), len(remap))
        value = float(parts[2])
        if u == v:
            report.self_loops_dropped += 1
            continue
        if spec.rating_threshold is not None:
            positive = value >= spec.rating_threshold
        elif value == 0:
            report.zero_sign_dropped += 1
            continue
        else:
            positive = value > 0
        pair = (u, v) if u < v else (v, u)
        report.duplicate_lines += pair in counts
        counts.setdefault(pair, [0, 0])[0 if positive else 1] += 1
    edges = []
    for pair, (n_pos, n_neg) in counts.items():
        report.conflicting_pairs += n_pos > 0 and n_neg > 0
        report.tie_dropped_pairs += n_pos == n_neg
        if n_pos != n_neg:
            edges.append((*pair, 1 if n_pos > n_neg else -1))
    graph = SignedGraph.from_edges(len(remap), edges)
    report.nodes = graph.node_count
    report.edges_kept = graph.edge_count
    report.positive_edges = graph.positive_edge_count
    report.negative_edges = graph.negative_edge_count
    return graph, report


def queue_bfs(g, root, max_depth=None):
    """(parent, level, order) of a FIFO-queue BFS that scans each node's
    neighbors in ascending id, one Python step per node."""
    adjacency = [[] for _ in range(g.node_count)]
    for u, v, _ in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [-1] * g.node_count
    level = [-1] * g.node_count
    level[root] = 0
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if max_depth is not None and level[u] >= max_depth:
            continue
        for w in sorted(adjacency[u]):
            if level[w] < 0:
                level[w] = level[u] + 1
                parent[w] = u
                order.append(w)
                queue.append(w)
    return parent, level, order


def node_indexed(tree, node_count):
    """A compact tree's node-indexed (parent, level, edge_of_child) arrays:
    parent and level by node id, with -1 at the root's parent and at
    uncovered nodes, and the id of the tree edge entering each non-root
    covered node (edge e enters order[e + 1])."""
    parent = [-1] * node_count
    level = [-1] * node_count
    edge_of_child = [-1] * node_count
    order = tree.order.tolist()
    depth = np.searchsorted(tree.level_ptr, np.arange(len(order)), "right") - 1
    for i, v in enumerate(order):
        level[v] = int(depth[i])
        if i:
            parent[v] = order[int(tree.parent_pos[i])]
            edge_of_child[v] = i - 1
    return np.array(parent), np.array(level), np.array(edge_of_child)


def step_distribution(values, tree, node):
    """Single-hop relevance at ``node`` over (tree neighbor, sign) pairs."""
    parent, _, _ = node_indexed(tree, len(values))
    nbrs = [v for v in tree.order.tolist() if parent[v] == node]
    if parent[node] >= 0:
        nbrs.append(int(parent[node]))
    weights = {}
    denom = 0.0
    for b in nbrs:
        dot = sum(values[node][d] * values[b][d] for d in range(len(values[node])))
        for s in (1, -1):
            w = math.exp(s * dot)
            weights[(b, s)] = w
            denom += w
    return {k: w / denom for k, w in weights.items()}


def root_path(tree, target):
    """Unique tree path from the root to ``target``."""
    parent, _, _ = node_indexed(tree, max(int(tree.order.max()), target) + 1)
    path = [target]
    while path[-1] != tree.root:
        parent_node = int(parent[path[-1]])
        if parent_node < 0:
            raise ValueError(f"{target} unreachable from root")
        path.append(parent_node)
    return list(reversed(path))


def naive_modified_softmax(values, tree, target, sign):
    """Brute-force tree softmax: enumerate every sign assignment of the
    path hops plus the back-step and sum the products whose total parity
    matches ``sign``."""
    path = root_path(tree, target)
    hops = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    hops.append((path[-1], path[-2]))  # terminating back-step
    dists = [step_distribution(values, tree, a) for a, _ in hops]
    want = sign.value if isinstance(sign, Sign) else sign
    total = 0.0
    for signs in itertools.product((1, -1), repeat=len(hops)):
        parity = 1
        for s in signs:
            parity *= s
        if parity != want:
            continue
        prob = 1.0
        for (a, b), dist, s in zip(hops, dists, signs):
            prob *= dist[(b, s)]
        total += prob
    return total


def naive_walk_logprob(values, tree, walk_nodes, step_signs):
    """Log-probability of a recorded walk, recomputed from scratch."""
    steps = [
        (walk_nodes[i], walk_nodes[i + 1]) for i in range(len(walk_nodes) - 1)
    ]
    steps.append((walk_nodes[-1], walk_nodes[-2]))
    logp = 0.0
    for (a, b), s in zip(steps, step_signs):
        logp += math.log(step_distribution(values, tree, a)[(b, s)])
    return logp


def enumerate_walks(tree):
    """All possible walks as (nodes, sign tuple) pairs.

    A walk descends along a root-to-node tree path and ends with one
    back-step, so walks are exactly (non-root covered node, sign sequence
    over len(path) hops plus the back-step).
    """
    walks = []
    for target in tree.order.tolist():
        if target == tree.root:
            continue
        path = root_path(tree, target)
        n_steps = len(path)  # len(path)-1 descents + 1 back-step
        for signs in itertools.product((1, -1), repeat=n_steps):
            walks.append((path, signs))
    return walks


def walk_probability(values, tree, path, signs):
    """Probability of one enumerated walk."""
    hops = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    hops.append((path[-1], path[-2]))
    prob = 1.0
    for (a, b), s in zip(hops, signs):
        prob *= step_distribution(values, tree, a)[(b, s)]
    return prob


def walk_hops(tree, path):
    """Directed tree edge ids of the walk along ``path``: one per descent,
    then the back-step (ids as in ``BfsTree.directed_edges``)."""
    _, _, edge_of_child = node_indexed(tree, int(tree.order.max()) + 1)
    edges = [int(edge_of_child[v]) for v in path[1:]]
    return edges + [edges[-1] + tree.covered_count - 1]


def walk_batch(tree, table, walks):
    """One WalkBatch holding the given (path, signs) walks, in order."""
    hops, step_signs, hop_ptr = [], [], [0]
    for path, signs in walks:
        hops += walk_hops(tree, path)
        step_signs += list(signs)
        hop_ptr.append(len(hops))
    return WalkBatch(
        tree=tree,
        table=table,
        targets=np.array([path[-1] for path, _ in walks], dtype=np.int64),
        signs=np.array([math.prod(s) for _, s in walks], dtype=np.int8),
        hops=np.array(hops, dtype=np.int64),
        step_signs=np.array(step_signs, dtype=np.int8),
        hop_ptr=np.array(hop_ptr, dtype=np.int64),
    )


def batch_walks(batch):
    """Each walk of ``batch`` as a (hop id tuple, sign tuple) pair."""
    hops, signs = batch.hops.tolist(), batch.step_signs.tolist()
    ptr = batch.hop_ptr.tolist()
    return [
        (tuple(hops[a:b]), tuple(signs[a:b])) for a, b in zip(ptr, ptr[1:])
    ]


def single_walk_batches(batch):
    """Yield each walk of ``batch`` as a batch of its own."""
    ptr = batch.hop_ptr.tolist()
    for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
        yield dataclasses.replace(
            batch,
            targets=batch.targets[i : i + 1],
            signs=batch.signs[i : i + 1],
            hops=batch.hops[a:b],
            step_signs=batch.step_signs[a:b],
            hop_ptr=np.array([0, b - a]),
        )


def expected_reward(values, tree, reward_fn):
    """E[reward] over the (node, sign) outcome distribution, via the naive
    softmax; reward_fn maps (node, sign_int) to a float."""
    total = 0.0
    for target in tree.order.tolist():
        if target == tree.root:
            continue
        for s in (1, -1):
            total += (
                naive_modified_softmax(values, tree, target, Sign(s))
                * reward_fn(target, s)
            )
    return total


def dealt_folds(g, k_folds, rng):
    """Stratified folds by list dealing: each sign's edge indices (in edge
    order) are shuffled, then dealt round-robin; folds come back sorted."""
    folds = [[] for _ in range(k_folds)]
    for want in (Sign.POSITIVE, Sign.NEGATIVE):
        idx = [i for i, (_, _, s) in enumerate(g.edges) if s is want]
        if not idx:
            continue
        shuffled = rng.permutation(np.array(idx, dtype=np.int64)).tolist()
        for f in range(k_folds):
            folds[f].extend(shuffled[f::k_folds])
    return [sorted(f) for f in folds]


def hand_confusion(y_true, y_pred):
    """Plain-loop confusion counts: (n_pp, n_pn, n_np, n_nn)."""
    n_pp = n_pn = n_np = n_nn = 0
    for t, p in zip(y_true, y_pred):
        if t and p:
            n_pp += 1
        elif t and not p:
            n_pn += 1
        elif not t and p:
            n_np += 1
        else:
            n_nn += 1
    return n_pp, n_pn, n_np, n_nn


def hand_paper_micro_f1(y_true, y_pred):
    n_pp, n_pn, n_np, n_nn = hand_confusion(y_true, y_pred)
    prec_pos = n_pp / (n_pp + n_np) if (n_pp + n_np) else 0.0
    prec_neg = n_nn / (n_nn + n_pn) if (n_nn + n_pn) else 0.0
    rec_pos = n_pp / (n_pp + n_pn) if (n_pp + n_pn) else 0.0
    rec_neg = n_nn / (n_nn + n_np) if (n_nn + n_np) else 0.0
    p = (prec_pos + prec_neg) / 2.0
    r = (rec_pos + rec_neg) / 2.0
    return 2.0 * p * r / (p + r) if (p + r) else 0.0


def hand_standard_micro_f1(y_true, y_pred):
    n_pp, n_pn, n_np, n_nn = hand_confusion(y_true, y_pred)
    total = n_pp + n_pn + n_np + n_nn
    return (n_pp + n_nn) / total if total else 0.0


def loop_random_connected_graph(n, extra_edges, seed):
    """(u, v, sign) triples of ``random_connected_graph``, drawing one
    value at a time: a random spanning tree, extra random pairs, then a
    sign per distinct pair in sorted order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(i)])
        pairs.add((min(u, v), max(u, v)))
    for _ in range(extra_edges):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return [(u, v, 1 if rng.random() < 0.5 else -1) for u, v in sorted(pairs)]


def unbalanced_triangles(g):
    """Count triangles with an odd number of negative edges, brute force."""
    sign = {}
    for u, v, s in g.edges:
        sign[(u, v)] = s.value
        sign[(v, u)] = s.value
    count = 0
    n = g.node_count
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in sign:
                continue
            for c in range(b + 1, n):
                if (a, c) in sign and (b, c) in sign:
                    if sign[(a, b)] * sign[(a, c)] * sign[(b, c)] < 0:
                        count += 1
    return count


def gathered_relevance_table(emb, tree, edge_dots=None):
    """``relevance_table`` with the tree's dots taken over its 2·T rows of
    ``emb``, gathered by fancy indexing, whether or not ``edge_dots`` is
    given: how every table's dots were computed before D phases read one
    dot per graph edge."""
    values = emb.values
    dots = np.zeros(tree.edge.max(initial=-1) + 1)
    dots[tree.edge] = np.einsum(
        "ij,ij->i",
        values[tree.order[tree.parent_pos[1:]]],
        values[tree.order[1:]],
    )
    return relevance_table(emb, tree, dots)


# Dense updates: the full-table gradient steps the trainer took before its
# updates were restricted to the rows a batch touches. Each allocates an
# n x k gradient and checks the whole table.


def scatter_rows(rows, block, node_count):
    """Dense gradient: ``block``'s row r at row rows[r], zeros elsewhere."""
    dense = np.zeros((node_count, block.shape[1]))
    dense[rows] = block
    return dense


def walk_gradient(emb, batch, rewards):
    """``walk_logprob_gradient`` over the rows the batch touches,
    scattered to a dense table."""
    rows, block = walk_logprob_gradient(emb, batch, np.asarray(rewards, dtype=float))
    return scatter_rows(rows, block, emb.rows)


def dense_walk_logprob_gradient(emb, batch, rewards, out):
    """``walk_logprob_gradient`` into a full table ``out`` with
    ``np.add.at``."""
    values = emb.values
    src, dst = batch.tree.directed_edges()
    pos, neg = batch.table.pos, batch.table.neg
    weight = np.repeat(rewards, np.diff(batch.hop_ptr))
    hop_src = src[batch.hops]
    leaving = np.bincount(hop_src, weights=weight, minlength=len(batch.tree.order))
    nbr = np.flatnonzero(leaving[src])
    x = batch.tree.order[np.concatenate([hop_src, src[nbr]])]
    y = batch.tree.order[np.concatenate([dst[batch.hops], dst[nbr]])]
    coef = np.concatenate(
        [weight * batch.step_signs, -leaving[src[nbr]] * (pos[nbr] - neg[nbr])]
    )[:, None]
    np.add.at(out, x, coef * values[y])
    np.add.at(out, y, coef * values[x])


def masked_sigmoid(z):
    """The logistic function in two masked branches: 1 / (1 + exp(-z)) on
    z >= 0 and exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def objective(emb, batch):
    """Mean batch objective of ``discriminator.batch_gradient``: log
    sigma(z) on true edges, log(1 - sigma(z)) on fake ones, with
    z = sign * d_u . d_v."""
    z = batch["sign"] * np.einsum(
        "ij,ij->i", emb.values[batch["u"]], emb.values[batch["v"]]
    )
    terms = np.where(
        batch["true"], -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
    )
    return float(terms.mean())


def dense_batch_gradient(emb, batch):
    """Full-table gradient of ``objective``."""
    us, vs, signs = batch["u"], batch["v"], batch["sign"]
    z = signs * np.einsum("ij,ij->i", emb.values[us], emb.values[vs])
    s = sigmoid(z)
    coef = np.where(batch["true"], 1.0 - s, -s) * signs / len(batch)
    grad = np.zeros_like(emb.values)
    np.add.at(grad, us, coef[:, None] * emb.values[vs])
    np.add.at(grad, vs, coef[:, None] * emb.values[us])
    return grad


def dense_update(emb, batch, learning_rate):
    """``discriminator.update`` through a full-table gradient."""
    if not len(batch):
        raise ValueError("batch must be nonempty")
    value = objective(emb, batch)
    grad = dense_batch_gradient(emb, batch)
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite discriminator gradient")
    emb.values += learning_rate * grad
    if not np.isfinite(emb.values).all():
        raise DivergenceError("discriminator update left non-finite embeddings")
    return value, float(np.linalg.norm(grad))


def dense_policy_gradient_update(emb, batch, rewards, learning_rate):
    """``generator.policy_gradient_update`` through a full-table gradient."""
    rewards = np.asarray(rewards, dtype=float)
    bad = ~np.isfinite(rewards)
    if bad.any():
        node = int(batch.targets[bad][0])
        raise ValueError(f"non-finite reward on sample for node {node}")
    grad = np.zeros_like(emb.values)
    dense_walk_logprob_gradient(emb, batch, rewards, grad)
    grad /= len(batch)
    emb.values -= learning_rate * grad
    if not np.isfinite(emb.values).all():
        raise DivergenceError("generator update left non-finite embeddings")
    return float(np.linalg.norm(grad))


def log_loss(features, labels, weights, bias):
    """Mean log-loss of a logistic model: log(1+exp(-z)) on positives and
    log(1+exp(z)) on negatives."""
    z = features @ weights + bias
    return float(np.mean(np.logaddexp(0.0, np.where(labels == 1, -z, z))))


def newton_logreg(features, labels):
    """One logistic model fit on its rows alone by Newton's method on
    ``logreg_train``'s objective (mean log-loss plus RIDGE / 2 times the
    squared weights and bias), over a dense copy of the features with a
    ones column and one full Hessian per iteration."""
    x = np.hstack([features, np.ones((len(features), 1))])
    y = np.asarray(labels, dtype=float)
    theta = np.zeros(x.shape[1])
    for _ in range(MAX_ITERATIONS):
        prob = 1.0 / (1.0 + np.exp(-np.clip(x @ theta, -500, 500)))
        grad = x.T @ (prob - y) / len(y) + RIDGE * theta
        hess = x.T @ (x * (prob * (1.0 - prob))[:, None]) / len(y)
        step = np.linalg.solve(hess + RIDGE * np.eye(len(theta)), grad)
        theta -= step
        if np.abs(step).max() < STEP_TOLERANCE:
            return LogisticModel(weights=theta[:-1], bias=float(theta[-1]))
    raise AssertionError("oracle fit did not converge")


def ridge_gradient(features, labels, model):
    """Largest coordinate of the gradient of ``logreg_train``'s objective
    at ``model``, over the given rows."""
    y = np.asarray(labels, dtype=float)
    err = logreg_predict_proba(model, features) - y
    grad_w = features.T @ err / len(y) + RIDGE * model.weights
    grad_b = err.mean() + RIDGE * model.bias
    return max(float(np.abs(grad_w).max()), abs(grad_b))


def per_fold_metrics(table, g, fold_of, feature_mode):
    """k-fold confusion counts with one classifier fit per fold of the
    fold labels ``fold_of`` on that fold's own train and test feature
    copies."""
    labels = (g.edge_sign > 0).astype(int)
    results = []
    for f in range(fold_of.max() + 1):
        test_idx = np.flatnonzero(fold_of == f)
        train_idx = np.setdiff1d(np.arange(g.edge_count), test_idx)
        feats_train = edge_feature_matrix(
            table, g.edge_u[train_idx], g.edge_v[train_idx], feature_mode
        )
        feats_test = edge_feature_matrix(
            table, g.edge_u[test_idx], g.edge_v[test_idx], feature_mode
        )
        model = newton_logreg(feats_train, labels[train_idx])
        y_pred = logreg_predict_proba(model, feats_test) >= 0.5
        results.append(fold_metrics(labels[test_idx], y_pred))
    return results
