"""Span tracing around the calls into each sgembed module.

A hook replaces a function at the name its caller looks it up by, for
example ``sgembed.generator.sample_walk``, which is the name
``generate_fakes`` resolves at call time. Nothing in sgembed changes: the
wrappers live here and are removed again by ``Tracer.uninstall``.

Spans (name, start, end, parent) and counters are kept in memory and
written out once, at the end of the run. A layer is an sgembed module; the
span name's prefix before the first dot names it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _tree_mb(tree) -> float:
    return sum(
        a.nbytes for a in vars(tree).values() if isinstance(a, np.ndarray)
    ) / 2**20


# (owner, attribute, span name, counter fed from the call, how to feed it)
# The counters turn a call's arguments or result into work done.
HOOKS = [
    ("sgembed.trainer", "train", "trainer.train", None),
    # strict-leakage folds call train under evalkit's own name for it
    ("sgembed.evalkit", "train", "trainer.train", None),
    ("sgembed.trainer", "checkpoint", "trainer.checkpoint", None),
    ("sgembed.trainer", "resume", "trainer.resume", None),
    ("sgembed.trainer", "build_bfs_tree", "treewalk.build_bfs_tree",
     ("treewalk.tree_cache_mb", lambda args, result: _tree_mb(result))),
    ("sgembed.generator", "relevance_table", "treewalk.relevance_table", None),
    ("sgembed.generator", "sample_walk", "treewalk.sample_walk",
     ("treewalk.walk_steps", lambda args, result: len(result.step_signs))),
    ("sgembed.generator", "touched_nodes", "treewalk.touched_nodes", None),
    ("sgembed.generator", "generate_fakes", "generator.generate_fakes", None),
    ("sgembed.generator", "policy_gradient_update",
     "generator.policy_gradient_update", None),
    ("sgembed.generator", "walk_logprob_gradient",
     "generator.walk_logprob_gradient", None),
    ("sgembed.generator:EmbeddingMatrix", "save", "generator.emb_save", None),
    ("sgembed.generator:EmbeddingMatrix", "load", "generator.emb_load", None),
    ("sgembed.discriminator", "sample_true_batch",
     "discriminator.sample_true_batch", None),
    ("sgembed.discriminator", "update", "discriminator.update",
     ("discriminator.edges_scored", lambda args, result: len(args[1]))),
    ("sgembed.evalkit", "kfold_link_prediction", "evalkit.kfold", None),
    ("sgembed.evalkit", "stratified_edge_folds",
     "evalkit.stratified_edge_folds", None),
    ("sgembed.evalkit", "edge_feature_matrix", "evalkit.edge_feature_matrix",
     None),
    ("sgembed.evalkit", "logreg_train", "evalkit.logreg_train", None),
    ("sgembed.evalkit", "balance_audit", "evalkit.balance_audit", None),
    ("sgembed.sgraph", "load_edge_list", "sgraph.load_edge_list", None),
    ("sgembed.sgraph", "save_edge_list", "sgraph.save_edge_list", None),
    ("sgembed.sgraph:SignedGraph", "from_edges", "sgraph.from_edges", None),
]

LAYERS = ("sgraph", "treewalk", "generator", "discriminator", "trainer",
          "evalkit", "cli")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters while a phase is open.

    Calls made outside an open phase (set-up bookkeeping, correctness
    checks) run through the hooks but are not recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, start ns, end ns, parent span index
        self.spans: list[tuple[int, int, int, int]] = []
        self.counters: list[dict[str, float]] = []
        self.phases: list[tuple[str, int]] = []
        self.missing: list[str] = []
        # span names and counters a phase reports even when never hit
        self._zero: set[str] = {"cli.predict", "cli.audit"}
        self._zero_counters: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, counter in HOOKS:
            try:
                target = _resolve(owner)
            except (ImportError, AttributeError):
                target = None
            if target is None or attr not in vars(target):
                self.missing.append(f"{owner}.{attr}")
                continue
            original = vars(target)[attr]
            self._restore.append((target, attr, original))
            self._zero.add(name)
            if counter is not None:
                self._zero_counters.add(counter[0])
            setattr(target, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, original, name: str, counter):
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        name_id = self._name_id(name)
        tracer = self

        # _record's logic, inlined: some hooks fire ~10^5 times per operation
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name_id, start, end, parent)
            if counter is not None:
                key, amount = counter
                tracer.counters[-1][key] += amount(args, result)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- phases and spans ----------------------------------------------

    @contextmanager
    def _record(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self._name_id(name), start, end, parent)

    @contextmanager
    def phase(self, kind: str):
        """Open a root span ("bench.setup" or "bench.op") for one phase."""
        self.phases.append((kind, len(self.spans)))
        self.counters.append(defaultdict(float))
        with self._record(f"bench.{kind}"):
            yield

    @contextmanager
    def span(self, name: str):
        """A span recorded from the benchmark's own code, e.g. a CLI call."""
        if not self._stack:
            yield
            return
        with self._record(name):
            yield

    # -- aggregation ---------------------------------------------------

    def phase_metrics(self, kind: str) -> list[dict[str, float]]:
        """Per-layer figures for every phase of ``kind``, one dict each.

        For each span name: ``<name>_calls``, ``<name>_s`` (inclusive) and
        ``<name>_self_s`` (minus the time its child spans cover); per
        layer: ``<layer>.self_s``; plus the phase's counters.
        """
        out = []
        bounds = [i for _, i in self.phases] + [len(self.spans)]
        for p, (k, lo) in enumerate(self.phases):
            if k != kind:
                continue
            spans = self.spans[lo:bounds[p + 1]]
            child_ns = np.zeros(len(spans))
            for name_id, start, end, parent in spans[1:]:
                child_ns[parent - lo] += end - start
            m: dict[str, float] = defaultdict(float)
            for name in self._zero:
                for suffix in ("_calls", "_s", "_self_s"):
                    m[name + suffix] = 0.0
            for key in self._zero_counters:
                m[key] = 0.0
            for (name_id, start, end, _), kids in zip(spans, child_ns):
                name = self.names[name_id]
                self_s = (end - start - kids) / 1e9
                m[f"{name}_calls"] += 1
                m[f"{name}_s"] += (end - start) / 1e9
                m[f"{name}_self_s"] += self_s
                m[f"{name.split('.')[0]}.self_s"] += self_s
            for layer in LAYERS:
                m[f"{layer}.self_s"] += 0.0
            m["trace.spans"] = float(len(spans))
            m.update(self.counters[p])
            out.append(dict(m))
        return out

    def write(self, path: Path) -> None:
        """Write every span as [name, start_ns, end_ns, parent_index], gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "phases": self.phases,
                    "missing_hooks": self.missing,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
