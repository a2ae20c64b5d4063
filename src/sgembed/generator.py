"""Generator side of the adversarial trainer.

Owns one embedding table, produces fake signed edges by walking BFS trees,
and descends the expected-reward objective with a REINFORCE estimator: each
sampled walk contributes the gradient of its full log-probability (every
drawn step, including the terminating back-step) scaled by the sample's
reward.
"""

from __future__ import annotations

import hashlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .treewalk import (
    BfsTree,
    WalkBatch,
    relevance_table,
    sample_walk,
    touched_nodes,
)


class DivergenceError(RuntimeError):
    """Raised when an update would leave non-finite embeddings."""


@dataclass
class EmbeddingMatrix:
    """Dense |V| x k real embedding table; row i embeds node i."""

    values: np.ndarray

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "EmbeddingMatrix":
        return EmbeddingMatrix(values=self.values.copy())

    def checksum(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(np.ascontiguousarray(self.values).tobytes())
        h.update(repr(self.values.shape).encode())
        return h.hexdigest()

    def save(self, path: str | Path, comments=()) -> None:
        """Text export: optional '#' comments, "rows dim" header, then one
        line per node with the id and 17-significant-digit coordinates."""
        with open(path, "wt", encoding="utf-8") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(f"{self.rows} {self.dim}\n")
            for i in range(self.rows):
                coords = " ".join(f"{x:.17g}" for x in self.values[i])
                fh.write(f"{i} {coords}\n")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingMatrix":
        """Read the ``save`` format. Raises ValueError, with the path and
        line number, on a malformed line or a non-finite coordinate."""
        with open(path, "rt", encoding="utf-8") as fh:
            lines = [
                (lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1)
                if ln.strip() and not ln.startswith("#")
            ]
        if not lines:
            raise ValueError(f"{path}: empty embedding file")
        lineno, header = lines[0]
        fields = header.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise ValueError(
                f"{path}:{lineno}: bad header {header!r}, expected 'rows dim'"
            )
        rows, dim = (int(x) for x in fields)
        if len(lines) - 1 != rows:
            raise ValueError(
                f"{path}: header declares {rows} rows, found {len(lines) - 1}"
            )
        # the save format (ids 0, 1, ... in order) in one C parse, to the
        # same doubles as float(); anything else goes line by line below
        body = [ln for _, ln in lines[1:]]
        if rows and all(ln.split(None, 1)[0] == str(i) for i, ln in enumerate(body)):
            with suppress(ValueError):
                table = np.loadtxt(body, ndmin=2, comments=None)
                if table.shape == (rows, dim + 1) and np.isfinite(table).all():
                    return cls(values=table[:, 1:])
        values = np.zeros((rows, dim))
        seen = np.zeros(rows, dtype=bool)
        for lineno, ln in lines[1:]:
            parts = ln.split()
            try:
                i, coords = int(parts[0]), [float(x) for x in parts[1:]]
            except ValueError:
                i = -1
            if not 0 <= i < rows or len(parts) != dim + 1:
                raise ValueError(f"{path}:{lineno}: bad embedding line {ln!r}")
            if seen[i]:
                raise ValueError(f"{path}:{lineno}: repeated node row {i}")
            values[i] = coords
            if not np.isfinite(values[i]).all():
                raise ValueError(f"{path}:{lineno}: non-finite coordinate")
            seen[i] = True
        if not seen.all():
            raise ValueError(f"{path}: missing node rows")
        return cls(values=values)


def init_embeddings(node_count: int, dim: int, seed) -> EmbeddingMatrix:
    """Gaussian(0, 0.1) initialization, deterministic per seed."""
    if node_count <= 0 or dim <= 0:
        raise ValueError("node_count and dim must be positive")
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(values=rng.normal(0.0, 0.1, size=(node_count, dim)))


def generate_fakes(
    emb: EmbeddingMatrix, tree: BfsTree, count: int, rng: np.random.Generator
) -> WalkBatch:
    """Draw ``count`` fake signed neighbors of the tree's root as one batch.

    Builds the relevance table once and samples every walk from it. Raises
    ValueError when the tree covers only its root (an isolated center).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if tree.covered_count < 2:
        raise ValueError(f"center {tree.root} is isolated")
    return sample_walk(relevance_table(emb, tree), tree, rng, count)


def pair_gradient(values: np.ndarray, a, b, coef) -> np.ndarray:
    """Gradient of sum_i coef[i] * values[a[i]] . values[b[i]] with respect
    to ``values``: row a[i] takes coef[i] * values[b[i]] and row b[i] takes
    coef[i] * values[a[i]]. The a-side terms and then the b-side terms go
    in one scatter over flat (row, column) slots, which ``np.add.at`` runs
    on its fast 1-D path."""
    dim = values.shape[1]
    slots = np.concatenate([a, b])[:, None] * dim + np.arange(dim)
    terms = np.concatenate([coef, coef])[:, None] * values[np.concatenate([b, a])]
    grad = np.zeros_like(values)
    np.add.at(grad.reshape(-1), slots.ravel(), terms.ravel())
    return grad


def step_rows(emb: EmbeddingMatrix, rows, step: np.ndarray, who: str) -> None:
    """Add ``step`` to the distinct ``rows`` of ``emb``; raises
    DivergenceError if any of those rows is then not finite."""
    emb.values[rows] += step
    if not np.isfinite(emb.values[rows]).all():
        raise DivergenceError(f"{who} update left non-finite embeddings")


def walk_logprob_gradient(
    emb: EmbeddingMatrix,
    batch: WalkBatch,
    rewards: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """sum_i rewards[i] * d log P(walk i) / d theta as ``(rows, grad)``:
    grad[r] is node rows[r]'s, for the nodes at the BFS positions
    ``touched_nodes`` names, and every other row's gradient is zero.

    A walk's log-probability is the sum of per-hop softmax
    log-probabilities; each hop at node a toward (b, t) contributes
        d/d g_a = t*g_b - sum_j q_j g_j,   q_j = p_pos_j - p_neg_j
        d/d g_b += t*g_a
        d/d g_j -= q_j * g_a   for every tree neighbor j of a,
    with the step probabilities read from the batch's table, which must
    have been built from ``emb``. Every term pairs two tree positions, so
    hop terms and neighbor terms (weighted by the reward leaving each
    position) go into one ``pair_gradient``.
    """
    tree, table = batch.tree, batch.table
    src, dst = tree.directed_edges()
    weight = np.repeat(rewards, np.diff(batch.hop_ptr))
    hop_src = src[batch.hops]
    leaving = np.bincount(hop_src, weights=weight, minlength=tree.covered_count)
    nbr = np.flatnonzero(leaving[src])
    x = np.concatenate([hop_src, src[nbr]])
    y = np.concatenate([dst[batch.hops], dst[nbr]])
    q = table.pos[nbr] - table.neg[nbr]
    coef = np.concatenate([weight * batch.step_signs, -leaving[src[nbr]] * q])
    touched = touched_nodes(tree, hop_src)
    rows = tree.order[touched]
    a, b = np.searchsorted(touched, x), np.searchsorted(touched, y)
    return rows, pair_gradient(emb.values[rows], a, b, coef)


def policy_gradient_update(
    emb: EmbeddingMatrix,
    batch: WalkBatch,
    rewards: np.ndarray,
    learning_rate: float,
) -> float:
    """One REINFORCE descent step over a batch of rewarded walks; returns
    the gradient's norm.

    Descends the mean of reward * grad log P(walk); ``rewards`` holds one
    finite value per walk (the trainer's clamped log(1 - D)). Only the
    rows the walks touch are read, written and checked for finiteness.
    """
    rewards = np.asarray(rewards, dtype=float)
    bad = ~np.isfinite(rewards)
    if bad.any():
        node = int(batch.targets[bad][0])
        raise ValueError(f"non-finite reward on sample for node {node}")
    rows, grad = walk_logprob_gradient(emb, batch, rewards)
    grad /= len(batch)
    step_rows(emb, rows, -learning_rate * grad, "generator")
    return float(np.linalg.norm(grad))
