"""Properties of the text tables and the checkpoint format.

Each example writes its file into a fresh ``tempfile`` directory, since
``@given`` tests cannot take pytest's function-scoped ``tmp_path``.
"""

import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgembed import (
    CheckpointError,
    EdgeListSpec,
    EmbeddingMatrix,
    SignedGraph,
    TrainConfig,
    load_edge_list,
    random_connected_graph,
    resume,
    save_edge_list,
    train,
)

from oracles import dict_load_edge_list

# ±0, the extreme normal and subnormal magnitudes, and whatever else
# hypothesis draws
EXTREMES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1 / 3]
)
COORDS = EXTREMES | st.floats(allow_nan=False, allow_infinity=False)


TABLES = arrays(
    np.float64, st.tuples(st.integers(0, 6), st.integers(1, 4)), elements=COORDS
)


@st.composite
def graphs(draw, min_edges=0):
    """A signed graph on 1-10 nodes; some nodes are usually isolated."""
    n = draw(st.integers(2 if min_edges else 1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges,
                 max_size=12)
        if pairs else st.just([])
    )
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(chosen),
                          max_size=len(chosen)))
    return SignedGraph.from_edges(
        n, [(u, v, s) for (u, v), s in zip(chosen, signs)]
    )


def graph_bytes(g):
    """The node count and each array's dtype and bytes."""
    return g.node_count, [
        (a.dtype, a.tobytes())
        for a in (g.edge_u, g.edge_v, g.edge_sign, g.indptr, g.indices,
                  g.signs, g.slot_edge)
    ]


@settings(max_examples=150, deadline=None)
@given(values=TABLES, data=st.data())
def test_embedding_table_round_trips_byte_identical(values, data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "e.emb"
        EmbeddingMatrix(values=values).save(path, comments=["provenance"])
        text = path.read_bytes()
        back = EmbeddingMatrix.load(path)
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()
        back.save(path, comments=["provenance"])
        assert path.read_bytes() == text

        # the same rows in any order load to the same table
        lines = text.splitlines(keepends=True)
        head, body = lines[:2], lines[2:]
        order = data.draw(st.permutations(range(len(body))), label="order")
        path.write_bytes(b"".join(head + [body[i] for i in order]))
        shuffled = EmbeddingMatrix.load(path)
        assert shuffled.values.tobytes() == values.tobytes()
        shuffled.save(path, comments=["provenance"])
        assert path.read_bytes() == text


@settings(max_examples=150, deadline=None)
@given(g=graphs())
def test_edge_list_round_trips_to_the_same_graph(g):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.edges"
        save_edge_list(g, path, comments=["round trip"])
        back, _ = load_edge_list(EdgeListSpec(path=path))
    assert graph_bytes(back) == graph_bytes(g)


# small ids that collide often, negative ones, and one beyond 64 bits
IDS = st.integers(-2, 5) | st.just(2**70)
# signs, zeros and ratings on both sides of the thresholds below
VALUES = st.sampled_from(["1", "-1", "0", "2.5", "-0.5", "1.0"])


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(IDS, IDS, VALUES), min_size=1, max_size=12),
    threshold=st.sampled_from([None, 0.0, 1.0]),
)
def test_messy_edge_list_loads_as_the_dict_oracle_does(lines, threshold):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.edges"
        path.write_text("".join(f"{u} {v} {x}\n" for u, v, x in lines))
        spec = EdgeListSpec(path=path, rating_threshold=threshold)
        g, report = load_edge_list(spec)
        want_g, want_report = dict_load_edge_list(spec)
    assert graph_bytes(g) == graph_bytes(want_g)
    assert dataclasses.asdict(report) == dataclasses.asdict(want_report)


def corrupt(line: bytes, kind: str, data) -> bytes:
    """``line`` with one fault of ``kind``; the result is neither blank
    nor a comment."""
    tokens = line.split()
    if kind == "not utf-8":
        at = data.draw(st.integers(0, len(line)), label="at")
        return line[:at] + b"\xff" + line[at:]
    if kind == "missing column":
        return b" ".join(tokens[:-1])
    i = data.draw(st.integers(0, len(tokens) - 1), label="token")
    tokens[i] = b"nan" if kind == "nan" else b"x?"
    return b" ".join(tokens)


def load_table(path, fmt):
    if fmt == "edge list":
        load_edge_list(EdgeListSpec(path=path))
    else:
        EmbeddingMatrix.load(path)


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(["edge list", "embedding table"]),
    kind=st.sampled_from(["not utf-8", "missing column", "nan", "bad token"]),
    data=st.data(),
)
def test_a_corrupted_body_line_is_named(fmt, kind, data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.txt"
        if fmt == "edge list":
            save_edge_list(data.draw(graphs(min_edges=1)), path, ["a", "b"])
        else:
            values = data.draw(TABLES.filter(len))
            EmbeddingMatrix(values=values).save(path, ["a", "b"])
        lines = path.read_bytes().splitlines()
        # the body follows two comments and the header or directive line
        lineno = data.draw(st.integers(4, len(lines)), label="line")
        lines[lineno - 1] = corrupt(lines[lineno - 1], kind, data)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError) as exc:
            load_table(path, fmt)
    assert str(exc.value).startswith(f"{path}:{lineno}: "), str(exc.value)


@functools.cache
def checkpoint_blob() -> bytes:
    cfg = TrainConfig(embedding_dim=3, outer_epochs=1, d_epochs=1, g_epochs=1,
                      samples_per_center=2, batch_size=4, seed=1)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.ckpt"
        train(random_connected_graph(5, 6, 0), cfg, checkpoint_path=path)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_checkpoint_raises_checkpoint_error(data):
    blob = checkpoint_blob()
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.ckpt"
        path.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError):
            resume(path)
