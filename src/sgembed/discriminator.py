"""Discriminator side: sigmoid edge scoring and ascent on labeled batches.

A batch of labeled edges is one structured array of ``EDGE_DTYPE``: per
edge its endpoints ``u`` and ``v``, its int8 ``sign`` (+1/-1) and whether
it is ``true`` (drawn from the graph) or generated. The score of a signed
edge is sigma(sign * d_u . d_v); the objective to ascend is the mean of
log(score) over true edges and log(1 - score) over generated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import DivergenceError, EmbeddingMatrix
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    s = _sigmoid(z)
    coef = np.where(true, 1.0 - s, -s) * signs / len(batch)
    # one scatter of u's terms, then v's, over flat (row, column) slots,
    # which np.add.at runs on its fast 1-D path
    partner = np.concatenate([iv, iu])
    pieces = np.concatenate([coef, coef])[:, None] * values[partner]
    slots = slot[:, None] * emb.dim + np.arange(emb.dim)
    grad = np.zeros_like(values)
    np.add.at(grad.reshape(-1), slots.ravel(), pieces.ravel())
    terms = np.where(true, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    return rows, grad, float(terms.mean())


@dataclass
class DiscriminatorUpdateReport:
    objective: float
    gradient_norm: float
    batch_size: int


def update(
    emb: EmbeddingMatrix, batch: np.ndarray, learning_rate: float
) -> DiscriminatorUpdateReport:
    """One gradient-ascent step on the mean batch objective; only the
    batch's endpoint rows are read, written and checked for finiteness."""
    if not len(batch):
        raise ValueError("batch must be nonempty")
    rows, grad, value = batch_gradient(emb, batch)
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite discriminator gradient")
    emb.values[rows] += learning_rate * grad
    if not np.isfinite(emb.values[rows]).all():
        raise DivergenceError("discriminator update left non-finite embeddings")
    return DiscriminatorUpdateReport(
        objective=value,
        gradient_norm=float(np.linalg.norm(grad)),
        batch_size=len(batch),
    )
