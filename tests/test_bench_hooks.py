"""The benchmark's tracer hooks sgembed names; each must still exist.

perfbench/tracing.py replaces every (owner, attribute) in its HOOKS list at
the name callers look it up by. A hooked name that disappears leaves its
per-layer metric empty, so its absence fails here instead of in a
benchmark run.
"""

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
