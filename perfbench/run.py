"""sgembed benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scale-train --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; sgembed is imported from ./src.
The run sets up its inputs in slices of repeated set-ups, then runs the
workload's operation closed-loop, with one more set-up slice after each,
and stops after the operation that ends nearest to ``--seconds``.
``setup_s`` is the median over the slices, the operation figures are
means over the operations. The run checks every operation's outputs and prints the
metrics named in BENCHMARK.json: the end-to-end ones with ``--trace 0``, the
per-layer ones, measured through tracing hooks, with ``--trace 1``. The
last line of standard output is one JSON object; the same result, with
input statistics and every figure measured, goes to
``.perfbench/results/<label>/``. Exit status: 0 when every operation and
check passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# The workloads are single-threaded; keep BLAS from spreading a run over
# the cores as well. This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# units of the figures printed beside BENCHMARK.json's metrics
PRINTED_UNITS = {"predict_s": "s", "train_s": "s", "centers_per_s": "1/s",
                 "failed_frac": "ratio", "strict_paper_micro_f1": "ratio"}

# A set-up can take 10 ms, while the machine's speed shifts from one
# second to the next. So set-up repeats in slices of at least this long;
# a slice's time over its set-ups is one sample, and setup_s is the median
# of the samples: FIRST_SLICES before the first operation, one after each.
SETUP_SLICE_SECONDS = 0.5
FIRST_SLICES = 3

# per-layer figures measured over a set-up rather than over an operation
SETUP_LAYERS = (
    "sgraph.from_edges_s", "sgraph.save_edge_list_s", "sgraph.load_edge_list_s",
    "generator.emb_save_s", "generator.emb_load_s",
)


def _import_program():
    """Import sgembed and the workloads from this checkout, or fail."""
    src = ROOT / "src"
    if not (src / "sgembed" / "__init__.py").is_file():
        raise RuntimeError(f"no sgembed sources under {src}")
    sys.path.insert(0, str(src))
    import sgembed

    if Path(sgembed.__file__).resolve().parent != src / "sgembed":
        raise RuntimeError(f"imported sgembed from {sgembed.__file__}")
    import tracing
    import workloads

    return workloads, tracing


def _median(rows: list[dict], key: str):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return statistics.median(vals) if vals else None


def _mean(rows: list[dict], key: str):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return statistics.fmean(vals) if vals else None


def _layer_metrics(tracer, op_walls: list[float]) -> dict:
    ops = tracer.phase_metrics("op")
    for m in ops:
        train = m.get("trainer.train_s", 0.0)
        m["trainer.centers_per_s"] = (
            m.get("generator.generate_fakes_calls", 0.0) / train if train else 0.0
        )
    setups = tracer.phase_metrics("setup")
    keys = {k for m in ops for k in m}
    out = {k: _mean(ops, k) for k in sorted(keys)}
    for k in SETUP_LAYERS:
        out[f"setup.{k}"] = _median(setups, k)
    # set-up time outside sgembed's calls: the benchmark's own generator
    out["setup.generate_s"] = _median(setups, "bench.setup_self_s")
    out["trace.wall_s"] = statistics.fmean(op_walls)
    return out


def run(args) -> int:
    try:
        workloads, tracing = _import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (RuntimeError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # sgembed's INFO lines (one per loaded file, per epoch) are not results
    logging.getLogger("sgembed").setLevel(logging.WARNING)

    work = OUT / f"work-{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    phase = tracer.phase if tracer else (lambda kind: nullcontext())
    span = tracer.span if tracer else (lambda name: nullcontext())
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.tiny)

    attempted = failed = 0
    checks: list[tuple] = []
    ops: list[dict] = []
    setup_times: list[float] = []
    setup_samples: list[float] = []
    stats: dict = {}

    def set_up_slice():
        spent, count = 0.0, 0
        while spent < SETUP_SLICE_SECONDS:
            t0 = time.perf_counter()
            with phase("setup"):
                wl.setup()
            setup_times.append(time.perf_counter() - t0)
            spent += setup_times[-1]
            count += 1
        setup_samples.append(spent / count)

    def tally(new_checks, where):
        nonlocal attempted, failed
        for name, ok, detail in new_checks:
            attempted += 1
            failed += not ok
            if not ok:
                print(f"CHECK FAILED {where} {name}: {detail}", file=sys.stderr)

    try:
        for _ in range(FIRST_SLICES):
            set_up_slice()
        stats = workloads.input_stats(wl.g, wl.check_seed)
        print(f"inputs {args.workload} seed={args.seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in stats.items()))

        # A set-up slice after every operation spreads the set-up samples
        # over the run, like the operations themselves.
        measured = 0.0
        fingerprint = None
        while True:
            attempted += 1
            t0 = time.perf_counter()
            with phase("op"):
                values, outputs = wl.op(span)
            wall = time.perf_counter() - t0
            measured += wall
            values["wall_s"] = wall
            ops.append(values)
            if fingerprint is None:
                fingerprint = outputs["fingerprint"]
            checks = wl.check(outputs) + [
                ("deterministic_across_ops",
                 outputs["fingerprint"] == fingerprint, "")
            ]
            tally(checks, f"op {len(ops)}")
            print(f"op {len(ops)}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()))
            set_up_slice()
            # Another operation, if it takes as long as this one, must end
            # nearer to --seconds than stopping now: the measured time stays
            # near --seconds, however few operations fit in it.
            if measured + wall / 2 > args.seconds:
                break
    except Exception:
        traceback.print_exc()
        failed += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "setup_s": (statistics.median(setup_samples) if setup_samples
                    else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if ops:
        for key in ops[0]:
            e2e[key] = _mean(ops, key)
    layers = _layer_metrics(tracer, [o["wall_s"] for o in ops]) if (
        tracer and ops) else {}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | PRINTED_UNITS
    if tracer:
        print("traced run: its times include the tracing overhead")
    for name, value in e2e.items():
        if value is not None:
            unit = units.get(name, "ratio" if name.startswith("paper_micro_f1") else "")
            print(f"{name:>24} = {value:.6g} {unit}".rstrip())
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    if tracer:
        missing = [m["name"] for m in spec["per_layer"] if layers.get(m["name"]) is None]
        if tracer.missing or missing:
            print("missing hooks: " + ", ".join(tracer.missing)
                  + "; unmeasured metrics: " + ", ".join(missing))
        wall = layers.get("trace.wall_s") or 0.0
        for layer in tracing.LAYERS:
            v = layers.get(f"{layer}.self_s") or 0.0
            print(f"layer {layer:>13}: self {v:9.4f} s  "
                  f"{100 * v / wall if wall else 0:5.1f}% of op wall")

    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    source = layers if tracer else e2e
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["missing"] = True
    result = {
        "correct": failed == 0 and bool(ops),
        "attempted": max(attempted, 1),
        "failed": failed if ops else max(failed, 1),
        "metrics": metrics,
    }

    out_dir = OUT / "results" / args.label
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}"
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "tiny": args.tiny, "inputs": stats,
        "setup_times": setup_times, "setup_samples": setup_samples,
        "ops": ops, "end_to_end": e2e,
        "per_layer": layers,
        "checks": [list(c) for c in checks], "result": result,
    }, indent=1, sort_keys=True))
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.json.gz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="latest",
                   help="results subdirectory under .perfbench/results")
    p.add_argument("--tiny", action="store_true",
                   help="shrink the inputs to a few dozen nodes (smoke check)")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
