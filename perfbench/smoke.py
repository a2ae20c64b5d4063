"""Smoke check of the benchmark harness at a tiny input size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--tiny`` for one operation,
untraced and traced, and checks that each run exits 0 and that its last
output line is the result object with exactly the metrics BENCHMARK.json
names, each a number. Takes about 30 seconds. Exit status 1 on any
failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--tiny", "--label", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                errors.append(f"{where}: metric names differ from BENCHMARK.json")
            errors += [
                f"{where}: {k} is not a number"
                for k, v in result["metrics"].items()
                if not isinstance(v["value"], (int, float))
            ]
            print(f"{where}: ok, {result['attempted']} attempted")
    for e in errors:
        print("SMOKE FAILED:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
