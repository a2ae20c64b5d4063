"""Downstream evaluation: link-sign prediction and embedding-space audits.

Edges become feature vectors, a from-scratch logistic regression predicts
the sign, and results are reported as stratified k-fold micro-F1. Two
micro-F1 variants are always computed: ``paper_micro_f1`` is the harmonic
mean of the sign-averaged precision and sign-averaged recall (the variant
used for headline comparisons); ``standard_micro_f1`` micro-averages the
per-class counts. The balance audit compares mean embedding distances
across positively and negatively connected pairs (APED vs ANED).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .generator import EmbeddingMatrix
from .sgraph import SignedGraph, inject_sparsity
from .trainer import TrainConfig, train

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2


class EdgeFeatureMode(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    HADAMARD = "hadamard"
    AVERAGE = "avg"
    CONCAT = "concat"

    @classmethod
    def from_string(cls, text: str) -> "EdgeFeatureMode":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown feature mode {text!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


def edge_feature_matrix(
    emb: EmbeddingMatrix, us, vs, mode: EdgeFeatureMode
) -> np.ndarray:
    """One feature row per edge (us[i], vs[i]); every mode is symmetric in
    the endpoints, and Concat puts the lower node id first."""
    us, vs = np.asarray(us), np.asarray(vs)
    if (us == vs).any():
        raise ValueError("endpoints must differ")
    x, y = emb.values[np.minimum(us, vs)], emb.values[np.maximum(us, vs)]
    if mode is EdgeFeatureMode.L1:
        return np.abs(x - y)
    if mode is EdgeFeatureMode.L2:
        return (x - y) ** 2
    if mode is EdgeFeatureMode.HADAMARD:
        return x * y
    if mode is EdgeFeatureMode.AVERAGE:
        return (x + y) / 2.0
    return np.concatenate([x, y], axis=1)


# Bytes of float64 features per block of the classifier's feature array:
# a block and its slice of the forward buffer stay in a 2 MiB L2 cache.
BLOCK_BYTES = 256 * 1024


def edge_feature_blocks(
    emb: EmbeddingMatrix, us, vs, mode: EdgeFeatureMode
) -> np.ndarray:
    """``edge_feature_matrix`` of every edge, written block by block into one
    zero-padded ``(blocks, rows, width)`` array of about BLOCK_BYTES per
    block; row i of the flattened array is edge i."""
    width = emb.dim * (2 if mode is EdgeFeatureMode.CONCAT else 1)
    rows = max(1, BLOCK_BYTES // (8 * width))
    blocks = np.zeros((-(-len(us) // rows), rows, width))
    flat = blocks.reshape(-1, width)
    for start in range(0, len(us), rows):
        stop = min(start + rows, len(us))
        flat[start:stop] = edge_feature_matrix(
            emb, us[start:stop], vs[start:stop], mode
        )
    return blocks


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float


# Fewest feature blocks per worker thread of one ``logreg_train`` fit: below
# this a thread's barrier wait per step costs more than its share saves.
MIN_BLOCKS_PER_WORKER = 4
# Processes of the pool this process works in (1 outside a pool): a pool
# worker's fits use only its share of the CPUs, so that pool workers and
# the fits' threads together run no more threads than there are CPUs.
_pool_workers = 1


def _set_pool_workers(count: int) -> None:
    """Process-pool initializer: record the pool's size in each worker."""
    global _pool_workers
    _pool_workers = count


def _process_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_set_pool_workers,
        initargs=(workers,),
    )


def _cpu_count() -> int:
    """CPUs one ``logreg_train`` fit may use: those this process may run
    on, shared among the workers of its pool."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _pool_workers)


def logreg_train(
    features: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    iterations: int = 500,
    learning_rate: float = 0.1,
) -> list[LogisticModel]:
    """Batch gradient descent on mean log-loss from zero init, one model per
    column of ``mask``.

    ``features`` is ``(m, d)``, or ``(blocks, rows, d)`` as from
    ``edge_feature_blocks``, whose flattened row i is example i and whose
    rows past ``len(labels)`` are padding. ``labels`` are 0/1 with 1 the
    positive sign. Column j of the 0/1 ``mask`` ``(len(labels), k)``
    selects the rows model j trains on; without a mask one model trains on
    every row. All k models descend in one loop over the features, each
    equal to a fit on its own rows up to last-bit rounding. Deterministic
    (nothing is sampled). Raises ValueError when a column's rows hold only
    one class.

    Each step's forward and backward passes run over disjoint runs of
    blocks, one per worker: ``min(cpus, blocks // MIN_BLOCKS_PER_WORKER)``
    workers, the calling thread and threads that meet it at a barrier once
    per step, where the last to arrive applies the update. One worker runs
    inline and starts no thread. Every block's products are the same BLAS
    calls at any worker count and the update sums them in block order, so
    the models are bitwise the same however many workers run.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 2:
        x = x[None]
    blocks, rows, dim = x.shape
    m = len(labels)
    if not m <= blocks * rows < m + rows:
        raise ValueError(f"{m} labels for {blocks} blocks of {rows} rows")
    keep = np.zeros((blocks * rows, 1 if mask is None else mask.shape[1]))
    keep[:m] = 1.0 if mask is None else mask
    k = keep.shape[1]
    target = np.zeros(blocks * rows)
    target[:m] = labels
    count = keep.sum(axis=0)
    positives = target @ keep
    single = np.flatnonzero((positives == 0) | (positives == count))
    if len(single):
        raise ValueError(
            f"column {single[0]}: training data must contain both classes"
        )
    keep = keep.reshape(blocks, rows, k)
    target = target.reshape(blocks, rows, 1)
    ones = np.ones(blocks * rows)
    x_t = x.transpose(0, 2, 1)
    weights = np.zeros((dim, k))
    bias = np.zeros(k)
    z = np.empty((blocks, rows, k))
    part = np.empty((blocks, dim, k))

    def forward_backward(lo, hi):
        zs = z[lo:hi]
        np.matmul(x[lo:hi], weights, out=zs)
        zs += bias
        # zs becomes each model's error, sigmoid(zs) - label, on its rows
        np.clip(zs, -500, 500, out=zs)
        np.negative(zs, out=zs)
        np.exp(zs, out=zs)
        zs += 1.0
        np.reciprocal(zs, out=zs)
        zs -= target[lo:hi]
        zs *= keep[lo:hi]
        np.matmul(x_t[lo:hi], zs, out=part[lo:hi])

    def update():
        weights[...] -= learning_rate * part.sum(axis=0) / count
        bias[...] -= learning_rate * (ones @ z.reshape(-1, k)) / count

    workers = max(1, min(_cpu_count(), blocks // MIN_BLOCKS_PER_WORKER))
    cuts = [blocks * w // workers for w in range(workers + 1)]
    # block run i of cuts is worker i's; the last worker to reach the
    # barrier applies the step's update before any worker goes on
    barrier = threading.Barrier(workers, action=update)
    errors = []

    def work(lo, hi):
        try:
            for _ in range(iterations):
                forward_backward(lo, hi)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    # daemon: a worker stranded by a fault must not keep the process alive
    threads = [
        threading.Thread(target=work, args=cuts[w : w + 2], daemon=True)
        for w in range(1, workers)
    ]
    for t in threads:
        t.start()
    try:
        for _ in range(iterations):
            forward_backward(cuts[0], cuts[1])
            barrier.wait()
    except threading.BrokenBarrierError:
        raise errors[0] from None
    finally:
        barrier.abort()
        for t in threads:
            t.join()
    return [
        LogisticModel(weights=weights[:, j].copy(), bias=float(bias[j]))
        for j in range(k)
    ]


def logreg_predict_proba(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    z = features @ model.weights + model.bias
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


@dataclass
class FoldMetrics:
    """Per-fold confusion counts and derived rates.

    Counts are n_<true><pred> with p for the Positive sign and n for the
    Negative sign; precision/recall of an empty denominator is 0.
    """

    n_pp: int
    n_pn: int
    n_np: int
    n_nn: int

    @staticmethod
    def _ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    @property
    def precision_pos(self) -> float:
        return self._ratio(self.n_pp, self.n_pp + self.n_np)

    @property
    def precision_neg(self) -> float:
        return self._ratio(self.n_nn, self.n_nn + self.n_pn)

    @property
    def recall_pos(self) -> float:
        return self._ratio(self.n_pp, self.n_pp + self.n_pn)

    @property
    def recall_neg(self) -> float:
        return self._ratio(self.n_nn, self.n_nn + self.n_np)

    @property
    def paper_micro_f1(self) -> float:
        p = (self.precision_pos + self.precision_neg) / 2.0
        r = (self.recall_pos + self.recall_neg) / 2.0
        return 2.0 * p * r / (p + r) if p + r else 0.0

    @property
    def standard_micro_f1(self) -> float:
        correct = self.n_pp + self.n_nn
        total = self.n_pp + self.n_pn + self.n_np + self.n_nn
        return self._ratio(correct, total)

    def to_dict(self) -> dict:
        return {
            "n_pp": self.n_pp,
            "n_pn": self.n_pn,
            "n_np": self.n_np,
            "n_nn": self.n_nn,
            "precision_pos": self.precision_pos,
            "precision_neg": self.precision_neg,
            "recall_pos": self.recall_pos,
            "recall_neg": self.recall_neg,
            "paper_micro_f1": self.paper_micro_f1,
            "standard_micro_f1": self.standard_micro_f1,
        }


def fold_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> FoldMetrics:
    """Confusion counts from 0/1 label arrays (1 = Positive sign)."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have equal length")
    return FoldMetrics(
        n_pp=int(np.sum(y_true & y_pred)),
        n_pn=int(np.sum(y_true & ~y_pred)),
        n_np=int(np.sum(~y_true & y_pred)),
        n_nn=int(np.sum(~y_true & ~y_pred)),
    )


@dataclass
class MetricsReport:
    feature_mode: EdgeFeatureMode
    leakage_mode: str
    folds: list[FoldMetrics]

    @property
    def mean_paper_micro_f1(self) -> float:
        return float(np.mean([f.paper_micro_f1 for f in self.folds]))

    @property
    def std_paper_micro_f1(self) -> float:
        return float(np.std([f.paper_micro_f1 for f in self.folds]))

    @property
    def mean_standard_micro_f1(self) -> float:
        return float(np.mean([f.standard_micro_f1 for f in self.folds]))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "feature_mode": self.feature_mode.value,
            "leakage_mode": self.leakage_mode,
            "folds": [f.to_dict() for f in self.folds],
            "mean_paper_micro_f1": self.mean_paper_micro_f1,
            "std_paper_micro_f1": self.std_paper_micro_f1,
            "mean_standard_micro_f1": self.mean_standard_micro_f1,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list[str]:
        header = (
            "fold,n_pp,n_pn,n_np,n_nn,precision_pos,precision_neg,"
            "recall_pos,recall_neg,paper_micro_f1,standard_micro_f1"
        )
        rows = [header]
        for i, f in enumerate(self.folds):
            rows.append(
                f"{i},{f.n_pp},{f.n_pn},{f.n_np},{f.n_nn},"
                f"{f.precision_pos:.6f},{f.precision_neg:.6f},"
                f"{f.recall_pos:.6f},{f.recall_neg:.6f},"
                f"{f.paper_micro_f1:.6f},{f.standard_micro_f1:.6f}"
            )
        return rows


def stratified_edge_folds(
    g: SignedGraph, k_folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Partition edge indices into k folds, stratified by sign.

    Each sign's indices are shuffled and dealt round-robin, keeping
    per-fold sign ratios within one edge of the global ratio.
    """
    if k_folds < 2:
        raise ValueError("k_folds must be at least 2")
    pos, neg = np.flatnonzero(g.edge_sign > 0), np.flatnonzero(g.edge_sign < 0)
    fold_of = np.empty(g.edge_count, dtype=np.int64)
    for idx in (pos, neg):
        if len(idx):
            fold_of[rng.permutation(idx)] = np.arange(len(idx)) % k_folds
    return [np.flatnonzero(fold_of == f) for f in range(k_folds)]


def _select_table(theta_j, theta_d, use_embeddings: str) -> EmbeddingMatrix:
    if use_embeddings == "generator":
        return theta_j
    if use_embeddings == "discriminator":
        return theta_d
    raise ValueError("use_embeddings must be 'generator' or 'discriminator'")


def _evaluate_folds(table, g, fold_of, fold_ids, feature_mode):
    """Train one classifier per fold in ``fold_ids`` on the edges outside
    that fold, all in one fit over every edge's features from the given
    embedding table, and score each on its own fold's edges."""
    blocks = edge_feature_blocks(table, g.edge_u, g.edge_v, feature_mode)
    labels = g.edge_sign > 0
    train_mask = fold_of[:, None] != np.asarray(fold_ids)[None, :]
    models = logreg_train(blocks, labels, train_mask)
    flat = blocks.reshape(-1, blocks.shape[-1])
    results = []
    for f, model in zip(fold_ids, models):
        test = np.flatnonzero(fold_of == f)
        y_pred = logreg_predict_proba(model, flat[test]) >= 0.5
        results.append(fold_metrics(labels[test], y_pred))
    return results


def _strict_fold_job(args) -> FoldMetrics:
    """Retrain embeddings without fold f's edges, then evaluate fold f."""
    g, fold_of, f, cfg, feature_mode, use_embeddings = args
    sub = SignedGraph.from_edges(g.node_count, g.edge_triples()[fold_of != f])
    theta_j, theta_d, _ = train(sub, cfg)
    table = _select_table(theta_j, theta_d, use_embeddings)
    return _evaluate_folds(table, g, fold_of, [f], feature_mode)[0]


def kfold_link_prediction(
    g: SignedGraph,
    k_folds: int = 5,
    feature_mode: EdgeFeatureMode = EdgeFeatureMode.HADAMARD,
    train_cfg: TrainConfig | None = None,
    leakage_mode: str = "strict",
    embeddings: EmbeddingMatrix | None = None,
    use_embeddings: str = "discriminator",
    threads: int = 1,
) -> MetricsReport:
    """Stratified k-fold link-sign prediction.

    leakage_mode "strict" retrains embeddings per fold on the graph minus
    the held-out edges; "fast" trains once on the full graph. A
    pre-trained ``embeddings`` table skips training entirely; leakage is
    then whatever produced the table, and the report's leakage_mode reads
    "precomputed". A table shared by all folds fits their k classifiers
    in one ``logreg_train`` call. Fold shuffling and per-fold
    training seeds all derive from train_cfg.seed. Strict-mode folds are
    independent pipelines, so ``threads`` > 1 runs them in parallel with
    results identical to the sequential order.
    """
    if leakage_mode not in ("strict", "fast"):
        raise ValueError("leakage_mode must be 'strict' or 'fast'")
    if train_cfg is None:
        train_cfg = TrainConfig()
    seed_root = np.random.SeedSequence(train_cfg.seed)
    fold_ss, fast_ss, *fold_train_ss = seed_root.spawn(2 + k_folds)
    folds = stratified_edge_folds(
        g, k_folds, np.random.default_rng(fold_ss)
    )

    table = embeddings
    if table is None and leakage_mode == "fast":
        cfg = replace(train_cfg, seed=int(fast_ss.generate_state(1)[0]))
        theta_j, theta_d, _ = train(g, cfg)
        table = _select_table(theta_j, theta_d, use_embeddings)

    positive = g.edge_sign > 0
    fold_of = np.empty(g.edge_count, dtype=np.int64)
    for f, test_idx in enumerate(folds):
        if len(test_idx) == 0:
            raise ValueError(f"fold {f} is empty; reduce k_folds")
        train_pos = np.delete(positive, test_idx)
        if train_pos.all() or not train_pos.any():
            raise ValueError(f"fold {f}: training split has a single class")
        fold_of[test_idx] = f

    if table is not None:
        results = _evaluate_folds(
            table, g, fold_of, range(k_folds), feature_mode
        )
    else:
        jobs = [
            (
                g, fold_of, f,
                replace(
                    train_cfg,
                    seed=int(fold_train_ss[f].generate_state(1)[0]),
                ),
                feature_mode, use_embeddings,
            )
            for f in range(k_folds)
        ]
        if threads > 1:
            with _process_pool(threads) as pool:
                results = list(pool.map(_strict_fold_job, jobs))
        else:
            results = [_strict_fold_job(job) for job in jobs]
    return MetricsReport(
        feature_mode=feature_mode,
        leakage_mode="precomputed" if embeddings is not None else leakage_mode,
        folds=results,
    )


@dataclass
class BalanceAudit:
    aped: float
    aned: float
    positive_sampled: int
    negative_sampled: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "aped": self.aped,
            "aned": self.aned,
            "positive_sampled": self.positive_sampled,
            "negative_sampled": self.negative_sampled,
            "balanced": self.aped < self.aned,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def balance_audit(
    emb: EmbeddingMatrix,
    g: SignedGraph,
    sample_fraction: float = 0.4,
    seed: int = 0,
) -> BalanceAudit:
    """Mean endpoint embedding distance per sign class.

    Samples floor(fraction * |negative edges|) negative edges and an equal
    number of positive edges without replacement; APED (positive) below
    ANED (negative) indicates extended structural balance.
    """
    pos = np.flatnonzero(g.edge_sign > 0)
    neg = np.flatnonzero(g.edge_sign < 0)
    if not len(neg):
        raise ValueError("graph has no negative edges")
    if not len(pos):
        raise ValueError("graph has no positive edges")
    k = int(sample_fraction * len(neg))
    if k == 0:
        raise ValueError("sample_fraction selects zero edges")
    if k > len(pos):
        raise ValueError(
            f"cannot sample {k} positive edges; only {len(pos)} exist"
        )
    rng = np.random.default_rng(seed)
    neg_pick = rng.choice(len(neg), size=k, replace=False)
    pos_pick = rng.choice(len(pos), size=k, replace=False)

    def mean_distance(edges):
        gap = emb.values[g.edge_u[edges]] - emb.values[g.edge_v[edges]]
        return float(np.linalg.norm(gap, axis=1).mean())

    return BalanceAudit(
        aped=mean_distance(pos[pos_pick]),
        aned=mean_distance(neg[neg_pick]),
        positive_sampled=k,
        negative_sampled=k,
    )


@dataclass
class SparsityCell:
    fraction: float
    repeats: int
    mean_paper_micro_f1: float
    std_paper_micro_f1: float
    mean_standard_micro_f1: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepReport:
    cells: list[SparsityCell]
    reports: list[list[MetricsReport]]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list[str]:
        rows = [
            "fraction,repeat,paper_micro_f1,standard_micro_f1",
        ]
        for cell, reps in zip(self.cells, self.reports):
            for r, rep in enumerate(reps):
                rows.append(
                    f"{cell.fraction},{r},{rep.mean_paper_micro_f1:.6f},"
                    f"{rep.mean_standard_micro_f1:.6f}"
                )
        return rows


def _sweep_job(args) -> MetricsReport:
    g, fraction, graph_seed, cfg, k_folds, feature_mode, leakage_mode = args
    sparse = inject_sparsity(g, fraction, graph_seed)
    return kfold_link_prediction(
        sparse,
        k_folds=k_folds,
        feature_mode=feature_mode,
        train_cfg=cfg,
        leakage_mode=leakage_mode,
    )


def sparsity_sweep(
    g: SignedGraph,
    fractions=(0.2, 0.4, 0.6, 0.8),
    repeats: int = 5,
    k_folds: int = 5,
    feature_mode: EdgeFeatureMode = EdgeFeatureMode.HADAMARD,
    train_cfg: TrainConfig | None = None,
    leakage_mode: str = "strict",
    seed: int = 0,
    threads: int = 1,
) -> SweepReport:
    """Robustness sweep: repeated sparse graphs per removal fraction.

    Each (fraction, repeat) cell draws an independently seeded sparse
    graph and runs the full train + predict pipeline; results aggregate to
    mean and standard deviation per fraction. Cells are independent, so
    ``threads`` > 1 parallelizes them without changing the results.
    """
    if train_cfg is None:
        train_cfg = TrainConfig()
    fractions = list(fractions)
    if not fractions:
        return SweepReport(cells=[], reports=[])
    children = np.random.SeedSequence(seed).spawn(len(fractions) * repeats)
    jobs = []
    for i, fraction in enumerate(fractions):
        for r in range(repeats):
            child = children[i * repeats + r]
            graph_seed, train_seed = (
                int(x) for x in child.generate_state(2)
            )
            cfg = replace(train_cfg, seed=train_seed)
            jobs.append(
                (g, fraction, graph_seed, cfg, k_folds, feature_mode, leakage_mode)
            )
    if threads > 1:
        with _process_pool(threads) as pool:
            flat = list(pool.map(_sweep_job, jobs))
    else:
        flat = [_sweep_job(job) for job in jobs]

    cells, reports = [], []
    for i, fraction in enumerate(fractions):
        reps = flat[i * repeats : (i + 1) * repeats]
        scores = [r.mean_paper_micro_f1 for r in reps]
        cells.append(
            SparsityCell(
                fraction=fraction,
                repeats=repeats,
                mean_paper_micro_f1=float(np.mean(scores)),
                std_paper_micro_f1=float(np.std(scores)),
                mean_standard_micro_f1=float(
                    np.mean([r.mean_standard_micro_f1 for r in reps])
                ),
            )
        )
        reports.append(reps)
    return SweepReport(cells=cells, reports=reports)
