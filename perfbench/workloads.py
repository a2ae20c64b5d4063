"""The three benchmark workloads.

Each workload makes its inputs from the run seed (``setup``), runs one
closed-loop operation through sgembed's public functions (``op``) and
checks that operation's outputs (``check``). Calls go through module
attributes (``trainer.train``, not ``from ... import train``) so that the
tracer's hooks see them.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from sgembed import cli, evalkit, sgraph, trainer, treewalk
from sgembed.generator import EmbeddingMatrix
from sgembed.sgraph import EdgeListSpec, Sign, SignedGraph

import inputs

HADAMARD = evalkit.EdgeFeatureMode.HADAMARD
FEATURE_MODES = [m.value for m in evalkit.EdgeFeatureMode]
TREE_SUM_TOL = 1e-9
# criterion 6 of the acceptance suite: its F1 floor and its configuration.
# The floor is applied here to a transductive F1 (see BalancePipeline).
F1_FLOOR = 0.90
CRITERION6 = trainer.TrainConfig(
    embedding_dim=16, learning_rate=0.3, outer_epochs=10, d_epochs=5,
    g_epochs=5, samples_per_center=10, batch_size=32,
)


def _graph_from_arrays(n, u, v, sign) -> SignedGraph:
    signs = [Sign.POSITIVE if s > 0 else Sign.NEGATIVE for s in sign.tolist()]
    return SignedGraph.from_edges(n, zip(u.tolist(), v.tolist(), signs))


def _load(path: Path) -> SignedGraph:
    g, _ = sgraph.load_edge_list(EdgeListSpec(path=path))
    return g


def input_stats(g: SignedGraph, seed: int, roots: int = 3) -> dict:
    """Nodes, edges, negative share, max degree, mean BFS depth of a few roots."""
    rng = np.random.default_rng(seed)
    candidates = [v for v in range(g.node_count) if g.degree(v) > 0]
    picked = rng.choice(candidates, size=min(roots, len(candidates)), replace=False)
    depths = [treewalk.build_bfs_tree(g, int(r)).depth for r in picked]
    return {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "negative_share": g.negative_edge_count / g.edge_count,
        "max_degree": max(g.degree(v) for v in range(g.node_count)),
        "mean_bfs_depth": float(np.mean(depths)),
    }


def _check_tables(g, walk_table, tables: dict, seed: int, roots: int = 3) -> list:
    """Finite tables, and an exactly normalized tree softmax on sampled trees
    under ``walk_table``, the table the generator walks with."""
    checks = [
        (f"{name}_finite", bool(np.isfinite(t.values).all()), "")
        for name, t in tables.items()
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for root in rng.choice(g.node_count, size=roots, replace=False):
        tree = treewalk.build_bfs_tree(g, int(root))
        if tree.covered_count < 2:
            continue
        table = treewalk.relevance_table(walk_table, tree)
        _, p_pos, p_neg = treewalk.tree_distribution(table, tree)
        worst = max(worst, abs(float(p_pos.sum() + p_neg.sum()) - 1.0))
    checks.append(
        ("tree_distribution_sums_to_1", worst <= TREE_SUM_TOL,
         f"max |sum - 1| = {worst:.3e}")
    )
    return checks


def _center_visits(g: SignedGraph, cfg) -> int:
    """Centers one ``train`` call visits: every non-isolated node, once per
    discriminator and generator pass."""
    active = sum(1 for x in range(g.node_count) if g.degree(x) > 0)
    return cfg.outer_epochs * (cfg.d_epochs + cfg.g_epochs) * active


def _check_folds(name: str, folds, edges: int) -> tuple:
    """Every edge is tested in exactly one fold."""
    total = sum(f["n_pp"] + f["n_pn"] + f["n_np"] + f["n_nn"] for f in folds)
    return (f"{name}_fold_counts", total == edges, f"{total} of {edges}")


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work
        ss = np.random.SeedSequence(seed)
        self.graph_seed, self.train_seed, self.eval_seed, self.check_seed = (
            int(x) for x in ss.generate_state(4)
        )
        self.g: SignedGraph | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, span) -> tuple[dict, dict]:
        """One operation; returns its end-to-end figures and raw outputs."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        raise NotImplementedError


class ScaleTrain(Workload):
    """One reference-hyperparameter D+G pass on a Bitcoin-OTC-shaped graph,
    a checkpoint and a resume, then a precomputed-table predict and audit."""

    name = "scale-train"

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work)
        self.n = 60 if tiny else 1000
        self.cfg = trainer.TrainConfig(
            outer_epochs=1, d_epochs=1, g_epochs=1, seed=self.train_seed
        )

    def setup(self):
        u, v, s, _ = inputs.bitcoin_like_graph(self.n, self.graph_seed)
        path = self.work / "graph.edges"
        sgraph.save_edge_list(_graph_from_arrays(self.n, u, v, s), path)
        self.g = _load(path)

    def op(self, span):
        g, cfg = self.g, self.cfg
        ckpt = self.work / "checkpoint.bin"
        t0 = time.perf_counter()
        theta_j, theta_d, report = trainer.train(g, cfg, checkpoint_path=ckpt)
        t1 = time.perf_counter()
        state = trainer.resume(ckpt)
        t2 = time.perf_counter()
        pred = evalkit.kfold_link_prediction(
            g, 5, HADAMARD, cfg, embeddings=theta_d
        )
        t3 = time.perf_counter()
        audit = evalkit.balance_audit(theta_d, g, 0.4, seed=self.eval_seed)
        values = {
            "train_s": t1 - t0,
            "centers_per_s": _center_visits(g, cfg) / (t1 - t0),
            "predict_s": t3 - t2,
            "paper_micro_f1": pred.mean_paper_micro_f1,
            "aped_over_aned": audit.aped / audit.aned,
        }
        outputs = {
            "theta_j": theta_j, "theta_d": theta_d, "report": report,
            "state": state, "pred": pred,
            "fingerprint": report.theta_j_checksum + report.theta_d_checksum,
        }
        return values, outputs

    def check(self, out):
        rep, state = out["report"], out["state"]
        roundtrip = (
            state.theta_j.checksum() == rep.theta_j_checksum
            and state.theta_d.checksum() == rep.theta_d_checksum
            and state.epochs_done == self.cfg.outer_epochs
        )
        return [
            *_check_tables(
                self.g, out["theta_j"],
                {"theta_j": out["theta_j"], "theta_d": out["theta_d"]},
                self.check_seed,
            ),
            ("checkpoint_resume_checksums", roundtrip, ""),
            _check_folds(
                "predict", [f.to_dict() for f in out["pred"].folds],
                self.g.edge_count,
            ),
        ]


class BalancePipeline(Workload):
    """Criterion 6's graph and configuration: a strict-leakage 5-fold
    predict, then a full train, a predict on its θ_d table and an audit,
    which carry the quality anchor.

    The anchor's F1 is transductive: θ_d is trained on the whole graph, the
    edges each fold tests included, so it measures how well training fits
    the graph, not criterion 6's strict (per-fold retrained) F1."""

    name = "balance-pipeline"

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work)
        self.size = 20 if tiny else 50
        self.cfg = replace(CRITERION6, seed=self.train_seed)
        if tiny:
            self.cfg = replace(self.cfg, outer_epochs=4)
        # Criterion 6's strict predict retrains each fold for 10 outer
        # epochs (about 56 s); one outer epoch keeps it near 6 s, so that
        # the whole operation fits in a run.
        self.strict_cfg = replace(self.cfg, outer_epochs=1)

    def setup(self):
        g = sgraph.synth_balanced(2, self.size, 0.3, 0.2, 0.05, self.graph_seed)
        path = self.work / "graph.edges"
        sgraph.save_edge_list(g, path)
        self.g = _load(path)

    def op(self, span):
        g, cfg = self.g, self.cfg
        t0 = time.perf_counter()
        strict = evalkit.kfold_link_prediction(
            g, 5, HADAMARD, self.strict_cfg, "strict"
        )
        t1 = time.perf_counter()
        theta_j, theta_d, report = trainer.train(g, cfg)
        t2 = time.perf_counter()
        pred = evalkit.kfold_link_prediction(
            g, 5, HADAMARD, cfg, embeddings=theta_d
        )
        t3 = time.perf_counter()
        audit = evalkit.balance_audit(theta_d, g, 0.4, seed=self.eval_seed)
        values = {
            "train_s": t2 - t1,
            "centers_per_s": _center_visits(g, cfg) / (t2 - t1),
            "predict_s": (t1 - t0) + (t3 - t2),
            "strict_paper_micro_f1": strict.mean_paper_micro_f1,
            "paper_micro_f1": pred.mean_paper_micro_f1,
            "aped_over_aned": audit.aped / audit.aned,
        }
        strict_folds = [f.to_dict() for f in strict.folds]
        outputs = {
            "theta_j": theta_j, "theta_d": theta_d, "audit": audit,
            "strict_folds": strict_folds,
            "folds": [f.to_dict() for f in pred.folds],
            "f1": pred.mean_paper_micro_f1,
            "fingerprint": json.dumps(strict_folds)
            + report.theta_j_checksum + report.theta_d_checksum,
        }
        return values, outputs

    def check(self, out):
        f1, audit = out["f1"], out["audit"]
        return [
            *_check_tables(
                self.g, out["theta_j"],
                {"theta_j": out["theta_j"], "theta_d": out["theta_d"]},
                self.check_seed,
            ),
            _check_folds("strict", out["strict_folds"], self.g.edge_count),
            _check_folds("predict", out["folds"], self.g.edge_count),
            ("transductive_paper_micro_f1_floor", f1 >= F1_FLOOR,
             f"{f1:.4f} >= {F1_FLOOR}"),
            ("aped_below_aned", audit.aped < audit.aned,
             f"{audit.aped:.4f} < {audit.aned:.4f}"),
        ]


class EvalPrecomputed(Workload):
    """``sgembed predict --emb`` in every feature mode, then ``audit``, on a
    Bitcoin-OTC-sized graph with a community-derived embedding table."""

    name = "eval-precomputed"

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work)
        self.n = 200 if tiny else 5900
        self.graph_path = work / "graph.edges"
        self.emb_path = work / "table.emb"
        self.emb: EmbeddingMatrix | None = None

    def setup(self):
        u, v, s, community = inputs.bitcoin_like_graph(self.n, self.graph_seed)
        table = inputs.community_embedding(community, 50, self.train_seed)
        sgraph.save_edge_list(_graph_from_arrays(self.n, u, v, s), self.graph_path)
        EmbeddingMatrix(values=table).save(self.emb_path)
        self.g = _load(self.graph_path)
        self.emb = EmbeddingMatrix.load(self.emb_path)

    def _cli(self, span, command: str, *argv: str) -> int:
        # the CLI's one-line summaries are not benchmark output
        with span(f"cli.{command}"), redirect_stdout(io.StringIO()):
            return cli.main([
                command, "--graph", str(self.graph_path),
                "--emb", str(self.emb_path), "--seed", str(self.eval_seed),
                *argv,
            ])

    def op(self, span):
        codes = {}
        predict_s = 0.0
        for mode in FEATURE_MODES:
            t = time.perf_counter()
            codes[mode] = self._cli(
                span, "predict", "--feature", mode, "--folds", "5",
                "--output-dir", str(self.work / f"predict-{mode}"),
            )
            predict_s += time.perf_counter() - t
        codes["audit"] = self._cli(
            span, "audit", "--output-dir", str(self.work / "audit")
        )
        metrics = {
            mode: json.loads(
                (self.work / f"predict-{mode}" / "metrics.json").read_text()
            )
            for mode in FEATURE_MODES
            if codes[mode] == 0
        }
        audit = (
            json.loads((self.work / "audit" / "audit.json").read_text())
            if codes["audit"] == 0 else {"aped": float("nan"), "aned": 1.0}
        )
        hadamard = metrics.get(HADAMARD.value, {})
        values = {
            "predict_s": predict_s,
            "paper_micro_f1": hadamard.get("mean_paper_micro_f1", float("nan")),
            "aped_over_aned": audit["aped"] / audit["aned"],
        }
        for mode, m in metrics.items():
            values[f"paper_micro_f1.{mode}"] = m["mean_paper_micro_f1"]
        outputs = {
            "codes": codes, "metrics": metrics,
            "fingerprint": json.dumps(
                {k: m["folds"] for k, m in sorted(metrics.items())},
                sort_keys=True,
            ),
        }
        return values, outputs

    def check(self, out):
        checks = [
            (f"cli_{cmd}_exit_0", code == 0, f"exit {code}")
            for cmd, code in out["codes"].items()
        ]
        checks += _check_tables(
            self.g, self.emb, {"table": self.emb}, self.check_seed
        )
        checks += [
            _check_folds(mode, m["folds"], self.g.edge_count)
            for mode, m in out["metrics"].items()
        ]
        return checks


WORKLOADS = {w.name: w for w in (ScaleTrain, BalancePipeline, EvalPrecomputed)}
