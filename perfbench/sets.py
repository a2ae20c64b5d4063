"""Run and compare sets of benchmark runs.

    python3 perfbench/sets.py run --label base --seeds 1-10
    python3 perfbench/sets.py compare base            # one set: spreads
    python3 perfbench/sets.py run --label pr --seeds 1-10 PARENT CHANGE
    python3 perfbench/sets.py compare pr/a pr/b       # two sets: verdicts

``run`` calls run.py once per workload of BENCHMARK.json and seed, for
its ``run_seconds`` each. Given no checkout it runs this one and leaves
the results in ``.perfbench/results/<label>/``. Given two checkout
directories, side a and side b (one directory alone is both sides: the
same code twice), it runs each seed on both sides back to back,
alternating which side goes first, so that the pairs ``compare`` forms ran
next to each other; the results go to ``<label>/a`` and ``<label>/b``
here. Each side runs its own checkout's ``perfbench/run.py``.

``compare`` takes labels or result directories. For one set it prints,
per workload and end-to-end metric, the median, the quartiles and their
distance as a share of the median, against the metric's bound. For two
sets A and B it adds B's change against A, the share of seed-matched
pairs that B wins (ties count for neither side), and a verdict:
``regression`` when B's median is worse than A's by more than the bound;
``unresolved`` when A's own spread exceeds the bound and not every run of
B beats every run of A; ``gain`` when B wins at least nine tenths of the
pairs and the medians differ by more than A's quartile distance;
otherwise ``same``. Where a set holds traced runs, the tracing overhead
(traced minus untraced ``wall_s`` medians) is printed too. The
exit status is 1 when any verdict is a regression.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run_one(checkout: Path, label: str, name: str, seed: int, seconds: int,
             trace: int) -> int:
    """One run.py run in ``checkout``; its result files end up in
    ``.perfbench/results/<label>/`` of this checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--label", label]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    made = checkout / ".perfbench" / "results" / label
    if made.resolve() != (RESULTS / label).resolve():
        (RESULTS / label).mkdir(parents=True, exist_ok=True)
        for f in made.glob(f"{name}-seed{seed}-trace{trace}*"):
            shutil.move(str(f), RESULTS / label / f.name)
    last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{label} {name} seed={seed} exit={proc.returncode} {last[0][:90]}",
          flush=True)
    return proc.returncode


def cmd_run(args) -> int:
    spec = _spec()
    if len(args.checkouts) > 2:
        raise SystemExit("run takes at most two checkouts")
    sides = [(args.label, ROOT)]
    if args.checkouts:
        dirs = [Path(c).resolve() for c in args.checkouts]
        sides = [(f"{args.label}/a", dirs[0]), (f"{args.label}/b", dirs[-1])]
    worst = 0
    for w in spec["workloads"]:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for label, checkout in order:
                code = _run_one(checkout, label, w["name"], seed,
                                spec["run_seconds"], args.trace)
                worst = max(worst, code)
    return worst


def _load(where: str) -> dict:
    """{(workload, trace): {seed: metrics}} from one set's result files."""
    path = Path(where)
    if not path.is_dir():
        path = RESULTS / where
    runs: dict = {}
    for f in sorted(path.glob("*.json")):
        rec = json.loads(f.read_text())
        if not rec["result"]["correct"]:
            print(f"note: {f.name} failed its checks", file=sys.stderr)
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    if not runs:
        raise SystemExit(f"no results in {path}")
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _describe(values: list[float]) -> tuple[str, float]:
    q1, med, q3 = _quartiles(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]", spread


def _verdict(a: dict, b: dict, metric: dict) -> tuple[str, str]:
    lower = metric["better"] == "lower"
    va, vb = list(a.values()), list(b.values())
    qa1, ma, qa3 = _quartiles(va)
    mb = statistics.median(vb)
    worse = (mb - ma) / abs(ma) if lower else (ma - mb) / abs(ma)
    pairs = [(a[s], b[s]) for s in a.keys() & b.keys()]
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    rate = wins / len(pairs) if pairs else float("nan")
    b_beats_all = (max(vb) < min(va)) if lower else (min(vb) > max(va))
    if worse > metric["bound"]:
        verdict = "regression"
    elif (qa3 - qa1) / abs(ma) > metric["bound"] and not b_beats_all:
        verdict = "unresolved"
    elif rate >= 0.9 and abs(mb - ma) > qa3 - qa1:
        verdict = "gain"
    else:
        verdict = "same"
    return verdict, f"{-worse:+8.2%}  wins {wins}/{len(pairs)}"


def cmd_compare(args) -> int:
    spec = _spec()
    sets = [_load(s) for s in args.sets]
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        if not all((name, False) in s for s in sets):
            print(f"{name}: no untraced runs in every set")
            continue
        print(f"\n{name}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cols = []
            for s in sets:
                vals = [m[key] for m in s[(name, False)].values()
                        if m.get(key) is not None]
                desc, spread = _describe(vals)
                flag = "ok" if spread <= bound else "WIDE"
                cols.append(f"{desc} spread {spread:6.1%} {flag}")
            line = f"  {key:>15} (bound {bound:.0%}): " + " | ".join(cols)
            if len(sets) == 2:
                a, b = (
                    {seed: m[key] for seed, m in s[(name, False)].items()
                     if m.get(key) is not None}
                    for s in sets
                )
                verdict, detail = _verdict(a, b, metric)
                regressions += verdict == "regression"
                line += f" | {detail}  {verdict}"
            print(line)
        for label, s in zip(args.sets, sets):
            if (name, True) in s:
                traced = statistics.median(
                    m["trace.wall_s"] for m in s[(name, True)].values()
                )
                plain = statistics.median(
                    m["wall_s"] for m in s[(name, False)].values()
                )
                print(f"  tracing overhead in {label}: {traced - plain:+.3f} s "
                      f"({(traced - plain) / plain:+.1%} of wall_s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run workloads over a range of seeds")
    r.add_argument("--label", required=True)
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("checkouts", nargs="*",
                   help="side a and side b checkouts (one: the same twice)")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="summarize one set or compare two")
    c.add_argument("sets", nargs="+", help="one or two labels or directories")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args(argv)
    if args.command == "compare" and len(args.sets) > 2:
        p.error("compare takes one or two sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
