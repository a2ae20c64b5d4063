"""Command-line driver.

Subcommands: train, predict, sweep, audit, check-theorems, synth, convert.
Every command echoes its effective configuration, stamps outputs with a
tool version, config hash, and input checksum, and never mutates its
inputs. All randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, evalkit, sgraph, trainer, treewalk
from .generator import EmbeddingMatrix, init_embeddings
from .sgraph import EdgeListSpec, SignedGraph

logger = logging.getLogger(__name__)


def _file_checksum(path: str | Path) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _meta(config: dict, inputs: dict[str, str]) -> dict:
    return {
        "tool": f"sgembed {__version__}",
        "config_hash": _config_hash(config),
        "effective_config": config,
        "input_checksums": inputs,
    }


def _load_graph(args) -> tuple[SignedGraph, str]:
    spec = EdgeListSpec(
        path=args.graph,
        delimiter=args.delimiter,
        rating_threshold=args.threshold,
    )
    graph, _ = sgraph.load_edge_list(spec)
    return graph, _file_checksum(args.graph)


def _train_config(args) -> trainer.TrainConfig:
    cfg = (
        trainer.TrainConfig.from_file(args.config)
        if args.config
        else trainer.TrainConfig()
    )
    overrides = {}
    for kv in args.set or []:
        key, sep, value = kv.partition("=")
        if not sep:
            raise ValueError(f"--set {kv!r}: expected KEY=VALUE")
        overrides[key] = value
    cfg = cfg.merged(overrides)
    if args.seed is not None:
        cfg = cfg.merged({"seed": str(args.seed)})
    return cfg


def _write_report(out: Path, name: str, report, meta: dict, csv_rows=None):
    """Write ``report.to_dict()`` with ``meta`` under "meta" to
    ``out/<name>.json`` and any ``csv_rows`` to ``out/<name>.csv``,
    creating ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    payload = {**report.to_dict(), "meta": meta}
    text = json.dumps(payload, indent=2, sort_keys=True)
    (out / f"{name}.json").write_text(text + "\n")
    if csv_rows is not None:
        (out / f"{name}.csv").write_text("\n".join(csv_rows) + "\n")


def _cmd_train(args) -> int:
    g, checksum = _load_graph(args)
    cfg = _train_config(args)
    out = Path(args.output_dir)
    # the checkpoint is written into it during training
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg.to_dict(), {str(args.graph): checksum})
    logger.info("effective config: %s", json.dumps(cfg.to_dict(), sort_keys=True))
    theta_j, theta_d, report = trainer.train(
        g, cfg, checkpoint_path=out / "checkpoint.bin"
    )
    comments = [
        meta["tool"],
        f"config_hash={meta['config_hash']}",
        f"input={args.graph} checksum={checksum}",
    ]
    theta_j.save(out / "theta_j.emb", comments=comments)
    theta_d.save(out / "theta_d.emb", comments=comments)
    _write_report(out, "train_report", report, meta)
    print(
        f"trained {g.node_count} nodes: theta_j {report.theta_j_checksum} "
        f"theta_d {report.theta_d_checksum}"
    )
    return 0


def _cmd_predict(args) -> int:
    g, checksum = _load_graph(args)
    cfg = _train_config(args)
    feature = evalkit.EdgeFeatureMode(args.feature)
    inputs = {str(args.graph): checksum}
    embeddings = None
    if args.emb:
        embeddings = EmbeddingMatrix.load(args.emb)
        inputs[str(args.emb)] = _file_checksum(args.emb)
    config = {
        "train": cfg.to_dict(),
        "feature": feature.value,
        "leakage": args.leakage,
        "folds": args.folds,
        "use_embeddings": args.use,
        "precomputed_embeddings": bool(args.emb),
    }
    logger.info("effective config: %s", json.dumps(config, sort_keys=True))
    report = evalkit.kfold_link_prediction(
        g,
        k_folds=args.folds,
        feature_mode=feature,
        train_cfg=cfg,
        leakage_mode=args.leakage,
        embeddings=embeddings,
        use_embeddings=args.use,
        threads=args.threads,
    )
    _write_report(
        Path(args.output_dir), "metrics", report, _meta(config, inputs),
        report.csv_rows(),
    )
    print(
        f"mean paper_micro_f1={report.mean_paper_micro_f1:.4f} "
        f"standard_micro_f1={report.mean_standard_micro_f1:.4f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    g, checksum = _load_graph(args)
    cfg = _train_config(args)
    feature = evalkit.EdgeFeatureMode(args.feature)
    fractions = [float(x) for x in args.fractions.split(",") if x]
    config = {
        "train": cfg.to_dict(),
        "feature": feature.value,
        "leakage": args.leakage,
        "folds": args.folds,
        "fractions": fractions,
        "repeats": args.repeats,
        "seed": args.seed if args.seed is not None else cfg.seed,
    }
    logger.info("effective config: %s", json.dumps(config, sort_keys=True))
    report = evalkit.sparsity_sweep(
        g,
        fractions=fractions,
        repeats=args.repeats,
        k_folds=args.folds,
        feature_mode=feature,
        train_cfg=cfg,
        leakage_mode=args.leakage,
        seed=config["seed"],
        threads=args.threads,
    )
    _write_report(
        Path(args.output_dir), "sweep", report,
        _meta(config, {str(args.graph): checksum}), report.csv_rows(),
    )
    for cell in report.cells:
        print(
            f"fraction={cell.fraction}: paper_micro_f1="
            f"{cell.mean_paper_micro_f1:.4f} +/- {cell.std_paper_micro_f1:.4f}"
        )
    return 0


def _cmd_audit(args) -> int:
    g, checksum = _load_graph(args)
    emb = EmbeddingMatrix.load(args.emb)
    config = {"fraction": args.fraction, "seed": args.seed or 0}
    audit = evalkit.balance_audit(
        emb, g, sample_fraction=args.fraction, seed=config["seed"]
    )
    inputs = {str(args.graph): checksum, str(args.emb): _file_checksum(args.emb)}
    _write_report(Path(args.output_dir), "audit", audit, _meta(config, inputs))
    print(f"APED={audit.aped:.4f} ANED={audit.aned:.4f}")
    return 0


def _cmd_synth(args) -> int:
    g = sgraph.synth_balanced(
        args.communities, args.size, args.p_intra, args.p_inter,
        args.noise, args.seed or 0,
    )
    config = {
        "communities": args.communities,
        "size": args.size,
        "p_intra": args.p_intra,
        "p_inter": args.p_inter,
        "noise": args.noise,
        "seed": args.seed or 0,
    }
    sgraph.save_edge_list(
        g,
        args.output,
        comments=[
            f"sgembed {__version__} synth",
            f"config_hash={_config_hash(config)}",
        ],
    )
    print(
        f"wrote {args.output}: {g.node_count} nodes, "
        f"{g.positive_edge_count}+/{g.negative_edge_count}- edges"
    )
    return 0


def _cmd_convert(args) -> int:
    spec = EdgeListSpec(
        path=args.input,
        delimiter=args.delimiter,
        rating_threshold=args.threshold,
    )
    g, report = sgraph.load_edge_list(spec)
    sgraph.save_edge_list(
        g,
        args.output,
        comments=[
            f"sgembed {__version__} convert",
            f"input={args.input} checksum={_file_checksum(args.input)}",
        ],
    )
    print(
        f"wrote {args.output}: {g.node_count} nodes, {g.edge_count} edges "
        f"({report.tie_dropped_pairs} ties dropped)"
    )
    return 0


def _cmd_check_theorems(args) -> int:
    seed_root = np.random.SeedSequence(args.seed or 0)
    if args.graph:
        g, _ = _load_graph(args)
        graphs = [g]
    else:
        graphs = [
            sgraph.random_connected_graph(
                args.nodes, args.extra_edges, int(ss.generate_state(1)[0])
            )
            for ss in seed_root.spawn(args.graphs)
        ]
    emb_rng = np.random.default_rng(seed_root.spawn(1)[0])
    max_norm_dev = 0.0
    max_decay_violation = 0.0
    trees = 0
    for g in graphs:
        emb = init_embeddings(
            g.node_count, args.dim, int(emb_rng.integers(2**32))
        )
        for root in range(g.node_count):
            tree = treewalk.build_bfs_tree(g, root)
            if tree.covered_count < 2:
                continue
            trees += 1
            table = treewalk.relevance_table(emb, tree)
            _, p_pos, p_neg = treewalk.tree_distribution(table, tree)
            max_norm_dev = max(
                max_norm_dev, abs(float(p_pos.sum() + p_neg.sum()) - 1.0)
            )
            mass = table.cum_pos + table.cum_neg
            rise = float((mass[1:] - mass[tree.parent_pos[1:]]).max())
            max_decay_violation = max(max_decay_violation, rise)
    print(f"checked {trees} trees on {len(graphs)} graphs")
    if not trees:
        print("no tree covers two nodes: nothing to check [FAIL]")
        return 1
    norm_ok = max_norm_dev <= args.tolerance
    decay_ok = max_decay_violation <= 1e-12
    print(
        f"normalization: max |sum - 1| = {max_norm_dev:.3e} "
        f"[{'PASS' if norm_ok else 'FAIL'}]"
    )
    print(
        f"distance decay: max mass increase along tree edges = "
        f"{max_decay_violation:.3e} [{'PASS' if decay_ok else 'FAIL'}]"
    )
    return 0 if (norm_ok and decay_ok) else 1


def _count(low: int):
    """An argparse type for integers of at least ``low``; argparse names
    the flag in its error."""

    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return count


def _add_graph_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--graph", required=required, help="signed edge-list file")
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="treat column 3 as a rating; >= threshold is positive",
    )
    p.add_argument(
        "--delimiter", default=None, help="column delimiter (default whitespace)"
    )


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config value (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None)


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--feature",
        choices=[m.value for m in evalkit.EdgeFeatureMode],
        default="hadamard",
    )
    p.add_argument("--leakage", choices=("strict", "fast"), default="strict")
    p.add_argument("--folds", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgembed",
        description="Signed-network embeddings via adversarial tree walks",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train both embedding tables")
    _add_graph_args(p)
    _add_train_args(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="k-fold link-sign prediction")
    _add_graph_args(p)
    _add_train_args(p)
    p.add_argument("--emb", default=None, help="pre-trained embedding file")
    p.add_argument(
        "--use",
        choices=("discriminator", "generator"),
        default="discriminator",
        help="which trained table feeds the classifier",
    )
    _add_eval_args(p)
    p.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for strict-leakage folds (1: none)",
    )
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep", help="sparsity robustness sweep")
    _add_graph_args(p)
    _add_train_args(p)
    p.add_argument("--fractions", default="0.2,0.4,0.6,0.8")
    p.add_argument("--repeats", type=int, default=5)
    _add_eval_args(p)
    p.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for sweep cells (1: none)",
    )
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("audit", help="APED/ANED balance audit")
    _add_graph_args(p)
    p.add_argument("--emb", required=True)
    p.add_argument("--fraction", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "check-theorems",
        help="normalization and decay property suites (on --graph, or on "
        "random graphs when it is absent)",
    )
    _add_graph_args(p, required=False)
    p.add_argument("--graphs", type=_count(0), default=10)
    p.add_argument("--nodes", type=_count(1), default=100)
    p.add_argument("--extra-edges", type=_count(0), default=150)
    p.add_argument("--dim", type=_count(1), default=8)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_check_theorems)

    p = sub.add_parser("synth", help="write a planted-partition signed graph")
    p.add_argument("--communities", type=int, default=2)
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--p-intra", type=float, default=0.3)
    p.add_argument("--p-inter", type=float, default=0.2)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("convert", help="ratings file to signed edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--delimiter", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:
        logger.error("%s (%s): %s", args.command, type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
