"""The benchmark's tracer hooks sgembed names; each must still exist.

perfbench/tracing.py replaces every (owner, attribute) in its HOOKS list at
the name callers look it up by. A hooked name that disappears leaves its
per-layer metric empty, so its absence fails here instead of in a
benchmark run. A smoke run of every workload, through perfbench/smoke.py,
likewise fails here when a change breaks a workload's checks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, *_ in tracing.HOOKS]
)
def test_hooked_name_exists(owner, attr):
    assert attr in vars(tracing._resolve(owner)), f"{owner}.{attr} is gone"


def test_workload_tree_reads_run_in_process():
    # the workloads read tree and table attributes outside any hook; a
    # renamed one fails here rather than in a benchmark run
    import workloads
    from sgembed import build_bfs_tree, init_embeddings, random_connected_graph

    g = random_connected_graph(12, 18, 0)
    emb = init_embeddings(12, 4, 0)
    assert workloads.input_stats(g, seed=0)["mean_bfs_depth"] > 0
    checks = workloads._check_tables(g, emb, {"theta": emb}, seed=0)
    assert [ok for _, ok, _ in checks] == [True, True]
    assert tracing._tree_mb(build_bfs_tree(g, 0)) > 0


def test_smoke_run_of_every_workload_passes():
    # every workload at its tiny size, untraced and traced, with its
    # correctness checks: a src/ change that breaks one fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
