"""Properties of the command line on hostile input.

Every subcommand is driven with ``hypothesis`` over its numeric flags, its
config keys and tiny corrupted input files. Each case must end in exit 0,
or in a non-zero exit with one message that names a flag it was given,
a config key, or the ``path:line`` at fault; never in a traceback or a
bare numpy error. Inputs stay tiny (at most 12 nodes, a 1/1/1 dim-4
config, at most two worker processes) so that no case allocates much.
"""

import contextlib
import dataclasses
import io
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgembed import EmbeddingMatrix, TrainConfig, save_edge_list, synth_balanced
from sgembed.cli import main
from test_file_properties import corrupt

# 12 nodes with both signs; the tables and configs below are this graph's
GRAPH = synth_balanced(2, 6, 0.9, 0.8, 0.05, seed=4)
CONFIG = (
    "embedding_dim=4\nlearning_rate=0.2\nouter_epochs=1\nd_epochs=1\n"
    "g_epochs=1\nsamples_per_center=3\nbatch_size=8\n"
)
KEYS = [f.name for f in dataclasses.fields(TrainConfig)]

# each command's numeric flags, at the small values the base command line
# gives them; a drawn value replaces the base one
FLAGS = {
    "train": {"--seed": "1", "--threshold": None},
    "predict": {
        "--seed": "1", "--threshold": None, "--folds": "2", "--threads": "1",
    },
    "sweep": {
        "--seed": "1", "--threshold": None, "--fractions": "0.2",
        "--repeats": "1", "--folds": "2", "--threads": "1",
    },
    "audit": {"--seed": "1", "--threshold": None, "--fraction": "0.5"},
    "check-theorems": {
        "--seed": "1", "--threshold": None, "--graphs": "1", "--nodes": "6",
        "--extra-edges": "4", "--dim": "2", "--tolerance": "1e-9",
    },
    "synth": {
        "--seed": "1", "--communities": "2", "--size": "3",
        "--p-intra": "0.5", "--p-inter": "0.5", "--noise": "0.1",
    },
    "convert": {"--threshold": None},
}
# the names under which the library's messages speak of a flag's value
ALIASES = {"--folds": "k_folds", "--fraction": "sample_fraction",
           "--fractions": "fraction"}

NUMBERS = st.one_of(
    st.integers(-2, 3).map(str),
    st.sampled_from([
        "0", "0.5", "-0.5", "0.99", "1.5", "1e3", "-1e-3", "nan", "inf",
        "-inf", "x", "", "0.2,0.5", ",", "1,", " 2",
    ]),
)
THREADS = st.integers(-2, 2).map(str) | st.sampled_from(["x", "1.5", ""])
# malformed config values; valid extremes are not drawn (a learning rate
# of 1e3 can leave the fold classifier without convergence)
BAD_VALUES = st.sampled_from(
    ["x", "", "nan", "inf", "-inf", "-1", "0", "1,2,3", "=1", "1,0"]
)


def run(argv):
    """main's exit code and what it reported: argparse's stderr, the
    error it logged, and stdout."""
    records = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("sgembed")
    logger.addHandler(handler)
    err, out = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        logger.removeHandler(handler)
    return code, err.getvalue(), [r.getMessage() for r in records], out.getvalue()


def names_its_fault(message, argv):
    """Whether ``message`` names a flag of ``argv``, the parameter a
    numeric flag sets, a config key or a ``path:line``."""
    flags = {a.split("=")[0] for a in argv if a.startswith("--")}
    if any(f in message for f in flags) or re.search(r"\S:\d+: ", message):
        return True
    words = {ALIASES.get(f, f[2:].replace("-", "_"))
             for f in flags & set(FLAGS[argv[0]])}
    if flags & {"--set", "--config"}:
        words |= set(KEYS)
    return any(re.search(rf"\b{w}\b", message) for w in words)


def check(argv):
    code, err, errors, out = run(argv)
    if code == 0:
        return
    if code == 2:  # argparse
        assert re.search(r"argument --[a-z-]+: ", err), (argv, err)
        return
    if argv[0] == "check-theorems" and not errors:
        assert code == 1 and "[FAIL]" in out, (argv, out)  # its verdict
        return
    assert code == 1 and len(errors) == 1, (argv, code, err, errors)
    assert names_its_fault(errors[0], argv), (argv, errors[0])


def write_inputs(d: Path):
    paths = {"graph": d / "graph.edges", "emb": d / "table.emb",
             "config": d / "config.txt"}
    save_edge_list(GRAPH, paths["graph"], ["a", "b"])
    table = np.linspace(-1, 1, 4 * GRAPH.node_count).reshape(-1, 4)
    EmbeddingMatrix(values=table).save(paths["emb"], ["a"])
    paths["config"].write_text(CONFIG)
    return paths


def base_argv(command, paths, d):
    """``command`` on the test inputs in ``d``, without its numeric
    flags."""
    out = d / "out"
    files = {
        "train": ["--graph", paths["graph"], "--config", paths["config"],
                  "--output-dir", out],
        "predict": ["--graph", paths["graph"], "--config", paths["config"],
                    "--output-dir", out],
        "sweep": ["--graph", paths["graph"], "--config", paths["config"],
                  "--leakage", "fast", "--output-dir", out],
        "audit": ["--graph", paths["graph"], "--emb", paths["emb"],
                  "--output-dir", out],
        "check-theorems": [],
        "synth": ["--output", d / "synth.edges"],
        "convert": ["--input", paths["graph"], "--output", d / "c.edges"],
    }[command]
    return [command, *map(str, files)]


@settings(max_examples=500, deadline=None)
@given(command=st.sampled_from(sorted(FLAGS)), data=st.data())
def test_numeric_flags_run_or_name_themselves(command, data):
    drawn = data.draw(
        st.dictionaries(
            st.sampled_from(sorted(FLAGS[command])),
            NUMBERS, max_size=3,
        ),
        label="flags",
    )
    if "--threads" in drawn:
        drawn["--threads"] = data.draw(THREADS, label="threads")
    flags = {**FLAGS[command], **drawn}
    with tempfile.TemporaryDirectory() as d:
        paths = write_inputs(Path(d))
        argv = base_argv(command, paths, Path(d))
        argv += [f"{k}={v}" for k, v in flags.items() if v is not None]
        check(argv)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["train", "predict", "sweep"]),
    in_file=st.booleans(),
    bad=st.dictionaries(st.sampled_from(KEYS), BAD_VALUES, min_size=1,
                        max_size=3),
)
def test_bad_config_values_name_their_key(command, in_file, bad):
    with tempfile.TemporaryDirectory() as d:
        paths = write_inputs(Path(d))
        argv = base_argv(command, paths, Path(d))
        argv += [f"{k}={v}" for k, v in FLAGS[command].items() if v]
        if in_file:
            with open(paths["config"], "a", encoding="utf-8") as fh:
                fh.writelines(f"{k}={v}\n" for k, v in bad.items())
        else:
            argv += [a for k, v in bad.items() for a in ("--set", f"{k}={v}")]
        check(argv)


# the commands that read each input file, with the flag that makes them
# read it when their base command line does not
READERS = {
    "graph": {"train": [], "predict": [], "sweep": [], "audit": [],
              "convert": [], "check-theorems": ["--graph"]},
    "emb": {"audit": [], "predict": ["--emb"]},
    "config": {"train": [], "predict": [], "sweep": []},
}


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(sorted(READERS)),
    kind=st.sampled_from(["not utf-8", "missing column", "nan", "bad token"]),
    data=st.data(),
)
def test_corrupted_input_files_name_their_line(target, kind, data):
    command = data.draw(st.sampled_from(sorted(READERS[target])), label="command")
    with tempfile.TemporaryDirectory() as d:
        paths = write_inputs(Path(d))
        path = paths[target]
        lines = path.read_bytes().splitlines()
        lineno = data.draw(st.integers(1, len(lines)), label="line")
        lines[lineno - 1] = corrupt(lines[lineno - 1], kind, data)
        path.write_bytes(b"\n".join(lines) + b"\n")
        argv = base_argv(command, paths, Path(d))
        argv += [f"{flag}={path}" for flag in READERS[target][command]]
        argv += [f"{k}={v}" for k, v in FLAGS[command].items() if v]
        check(argv)
