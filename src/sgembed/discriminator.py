"""Discriminator side: sigmoid edge scoring and ascent on labeled batches.

A batch of labeled edges is one structured array of ``EDGE_DTYPE``: per
edge its endpoints ``u`` and ``v``, its int8 ``sign`` (+1/-1) and whether
it is ``true`` (drawn from the graph) or generated. The score of a signed
edge is sigma(sign * d_u . d_v); the objective to ascend is the mean of
log(score) over true edges and log(1 - score) over generated ones, and
the generator's reward for a generated edge is its clamped log(1 - score).
"""

from __future__ import annotations

import numpy as np

from .generator import EmbeddingMatrix, pair_gradient, sigmoid, step_rows
from .sgraph import SignedGraph

EDGE_DTYPE = np.dtype(
    [("u", np.int64), ("v", np.int64), ("sign", np.int8), ("true", np.bool_)]
)


def edge_batch(u, v, sign, true) -> np.ndarray:
    """``EDGE_DTYPE`` batch from per-field arrays, scalars broadcast; raises
    ValueError when an edge's endpoints coincide."""
    batch = np.empty(np.broadcast(u, v, sign, true).shape, dtype=EDGE_DTYPE)
    batch["u"], batch["v"], batch["sign"], batch["true"] = u, v, sign, true
    if (batch["u"] == batch["v"]).any():
        raise ValueError("labeled edge endpoints must differ")
    return batch


def sample_true_batch(
    g: SignedGraph, center: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` true edges at ``center`` with balanced signs.

    Each draw flips a fair sign coin, then picks uniformly (with
    replacement) among the center's neighbors of that sign, falling back
    to the other sign when none exist. This gives negative edges the same
    per-draw probability mass as positive ones despite their scarcity.
    The coins are one uniform draw and the picks one integer draw.
    """
    lo, hi = g.indptr[center], g.indptr[center + 1]
    if lo == hi:
        raise ValueError(f"center {center} is isolated")
    nbrs, signs = g.indices[lo:hi], g.signs[lo:hi]
    pos, neg = nbrs[signs > 0], nbrs[signs < 0]
    positive = rng.random(count) < 0.5
    if not len(pos) or not len(neg):
        positive[:] = len(pos) > 0
    pick = rng.integers(0, np.where(positive, len(pos), len(neg)))
    pools = np.concatenate([pos, neg])
    nbr = pools[pick + np.where(positive, 0, len(pos))]
    return edge_batch(center, nbr, np.where(positive, 1, -1), True)


def batch_gradient(emb: EmbeddingMatrix, batch: np.ndarray) -> tuple:
    """Mean batch objective and its closed-form gradient as ``(rows, grad,
    objective)``: grad[i] is row rows[i]'s, and every other row's gradient
    is zero. The objective averages log sigma(z) over true edges and
    log(1 - sigma(z)) over fake ones, with z = sign * d_u . d_v."""
    us, vs, signs, true = batch["u"], batch["v"], batch["sign"], batch["true"]
    rows, slot = np.unique(np.concatenate([us, vs]), return_inverse=True)
    iu, iv = np.split(slot, 2)
    values = emb.values[rows]
    z = signs * np.einsum("ij,ij->i", values[iu], values[iv])
    s = sigmoid(z)
    coef = np.where(true, 1.0 - s, -s) * signs / len(batch)
    terms = np.where(true, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    return rows, pair_gradient(values, iu, iv, coef), float(terms.mean())


def rewards(emb: EmbeddingMatrix, fakes, clamp) -> np.ndarray:
    """log(1 - D) of each fake edge (root, target, sign) of the WalkBatch
    ``fakes``, clamped to the ``clamp`` interval: the generator's reward."""
    center = emb.values[fakes.tree.root]
    z = fakes.signs * (emb.values[fakes.targets] @ center)
    return np.clip(-np.logaddexp(0.0, z), clamp[0], clamp[1])


def update(
    emb: EmbeddingMatrix, batch: np.ndarray, learning_rate: float
) -> tuple[float, float]:
    """One gradient-ascent step on the mean batch objective, returned with
    the gradient's norm as ``(objective, gradient_norm)``; only the batch's
    endpoint rows are read, written and checked for finiteness."""
    if not len(batch):
        raise ValueError("batch must be nonempty")
    rows, grad, value = batch_gradient(emb, batch)
    step_rows(emb, rows, learning_rate * grad, "discriminator")
    return value, float(np.linalg.norm(grad))
