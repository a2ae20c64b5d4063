"""Signed-graph data model: ingestion, subsampling, sparsity injection, synthesis.

Graphs are undirected, unweighted apart from the edge sign, with dense
integer node ids. A graph is arrays only: its edges in input order
(``edge_u < edge_v`` and an int8 ``edge_sign`` of +1/-1) and a CSR of
each node's neighbors in ascending id with their signs and edge ids.
``Sign`` and the ``edges`` tuples are views for callers at the API edge;
the package itself reads the arrays. All values are immutable after
construction and safe to share across threads for reading.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Directive comment understood by the loader so that graphs with isolated
# or trailing nodes survive a save/load round trip.
_NODE_COUNT_DIRECTIVE = "#%nodes"

# node ids, edge ids and BFS tree positions are stored as int32
MAX_COUNT = int(np.iinfo(np.int32).max)


class EdgeListError(ValueError):
    """Raised for unreadable, malformed, or empty edge-list inputs."""


class Sign(enum.IntEnum):
    """Edge polarity. The enum value is the numeric projection (+1 / -1),
    so a Sign converts to the int8 sign the edge arrays hold."""

    POSITIVE = 1
    NEGATIVE = -1


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Undirected signed graph over dense node ids [0, node_count).

    Edge i joins ``edge_u[i] < edge_v[i]`` with sign ``edge_sign[i]``, in
    the order the edges were given. Node a's neighbors, in ascending id,
    are ``indices[indptr[a]:indptr[a + 1]]``, and the same slice of
    ``signs`` and of ``slot_edge`` (int32) holds their edge signs and edge
    ids; every edge appears once from each end. All arrays are
    read-only.
    """

    node_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_sign: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    signs: np.ndarray
    slot_edge: np.ndarray

    @classmethod
    def from_edges(
        cls, node_count: int, edges: Iterable[tuple[int, int, int]] | np.ndarray
    ) -> "SignedGraph":
        """Build from (u, v, sign) triples: an iterable of tuples whose sign
        is a Sign or +1/-1, or an (E, 3) integer array of the same rows.

        Raises ValueError for a node count outside [0, ``MAX_COUNT``], for
        more than ``MAX_COUNT`` edges, and naming the first edge that lies
        outside the node range, is a self-loop, has a sign other than
        +1/-1, or repeats an unordered pair.
        """
        if not 0 <= node_count <= MAX_COUNT:
            raise ValueError(f"node_count {node_count} outside [0,{MAX_COUNT}]")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        u, v, sign = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
        if len(u) > MAX_COUNT:
            raise ValueError(f"{len(u)} edges exceed the limit of {MAX_COUNT}")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        outside = (lo < 0) | (hi >= node_count)
        loop = u == v
        bad_sign = np.abs(sign) != 1
        _, first = np.unique(lo * node_count + hi, return_index=True)
        repeat = np.ones(len(u), dtype=bool)
        repeat[first] = False
        bad = np.flatnonzero(outside | loop | bad_sign | repeat)
        if len(bad):
            i = bad[0]
            edge = f"edge ({u[i]},{v[i]})"
            if outside[i]:
                raise ValueError(f"{edge} outside [0,{node_count})")
            if loop[i]:
                raise ValueError(f"self-loop at node {u[i]}")
            if bad_sign[i]:
                raise ValueError(f"{edge} has sign {sign[i]}, not +1/-1")
            raise ValueError(f"duplicate edge for pair ({lo[i]}, {hi[i]})")
        src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        by_node = np.lexsort((dst, src))
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
        arrays = {
            "edge_u": lo,
            "edge_v": hi,
            "edge_sign": sign.astype(np.int8),
            "indptr": indptr,
            "indices": dst[by_node],
            "signs": np.concatenate([sign, sign])[by_node].astype(np.int8),
            # entries k and E + k of (src, dst) are both edge k
            "slot_edge": (by_node % len(u)).astype(np.int32),
        }
        for a in arrays.values():
            a.flags.writeable = False
        return cls(node_count=node_count, **arrays)

    @property
    def edge_count(self) -> int:
        return len(self.edge_u)

    @property
    def positive_edge_count(self) -> int:
        return int(np.count_nonzero(self.edge_sign > 0))

    @property
    def negative_edge_count(self) -> int:
        return self.edge_count - self.positive_edge_count

    @property
    def edges(self) -> tuple[tuple[int, int, Sign], ...]:
        """(u, v, Sign) per edge with u < v, in edge order."""
        return tuple((u, v, Sign(s)) for u, v, s in self.edge_triples().tolist())

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def edge_triples(self) -> np.ndarray:
        """(E, 3) int64 rows (u, v, sign) in edge order, as ``from_edges``
        takes them."""
        return np.column_stack([self.edge_u, self.edge_v, self.edge_sign])

    def fingerprint(self) -> str:
        """Node count plus a blake2b digest of the CSR, which fixes the
        graph independently of the order its edges were given in."""
        h = hashlib.blake2b(digest_size=8)
        for a in (self.indptr, self.indices, self.signs):
            h.update(a.astype("<i8").tobytes())
        return f"{self.node_count}:{h.hexdigest()}"


@dataclass(frozen=True)
class EdgeListSpec:
    """How to read a signed edge-list file.

    ``rating_threshold`` switches the third column's interpretation: when
    None the column is an explicit sign (positive number -> Positive sign,
    negative -> Negative, zero dropped); otherwise the column is a rating
    and rating >= threshold maps to Positive, below to Negative.
    ``delimiter`` None splits on any whitespace.
    """

    path: str | Path
    delimiter: str | None = None
    rating_threshold: float | None = None


@dataclass
class LoadReport:
    """Cleaning counters from one edge-list ingestion."""

    path: str
    lines_parsed: int
    nodes: int
    edges_kept: int
    positive_edges: int
    negative_edges: int
    self_loops_dropped: int
    duplicate_lines: int
    conflicting_pairs: int
    tie_dropped_pairs: int
    zero_sign_dropped: int


def text_lines(path: str | Path, error=ValueError, keep: str | None = None):
    """Yield (line number, stripped line) for each line of the UTF-8 text
    file at ``path`` that is neither blank nor a comment. A comment is a
    line whose first non-blank character is ``#``; one that starts with
    ``keep`` is yielded too. Lines end at any of the universal newlines.

    A byte sequence that is not UTF-8 raises ``error`` naming its
    ``path:line``; OSError passes through.
    """
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and (line[0] != "#" or (keep and line.startswith(keep))):
                    yield lineno, line
    except UnicodeDecodeError:
        # the text layer decodes in chunks, so locate the byte in the file
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the lines before the bad byte, plus the one holding it
            lineno = len((data[: exc.start] + b"?").splitlines())
            raise error(
                f"{path}:{lineno}: not UTF-8 (byte {data[exc.start]:#04x})"
            ) from None
        raise


def load_edge_list(spec: EdgeListSpec) -> tuple[SignedGraph, LoadReport]:
    """Read a signed edge list, returning the cleaned graph and its report.

    Without a ``#%nodes N`` directive, node ids of any size are remapped
    to dense integers in first-appearance order (u before v on each
    line). With one, wherever it sits, ids keep their values and must lie
    in [0, N). Self-loops are dropped, and so are zero values when there
    is no ``rating_threshold``. Repeated unordered pairs resolve by sign
    majority, exact ties dropped; kept pairs come in first-appearance
    order. Raises EdgeListError naming the ``path:line`` of a malformed
    line, a non-UTF-8 byte, a non-finite value, a bad or second directive,
    or an id outside [0, N); and for an unreadable file, an empty
    ``delimiter``, a non-finite ``rating_threshold``, or no node at all.
    """
    path = Path(spec.path)
    if spec.delimiter == "":
        raise EdgeListError("delimiter must not be empty")
    threshold = spec.rating_threshold
    if threshold is not None and not math.isfinite(threshold):
        raise EdgeListError(f"rating threshold {threshold} is not finite")
    ids: list[int] = []  # u, v of each edge line
    values: list[float] = []
    linenos: list[int] = []
    declared: int | None = None
    lines = text_lines(path, EdgeListError, keep=_NODE_COUNT_DIRECTIVE)
    try:
        for lineno, line in lines:
            if line[0] == "#":  # a directive: text_lines drops other comments
                if declared is not None:
                    raise EdgeListError(
                        f"{path}:{lineno}: second node-count directive"
                    )
                try:
                    declared = int(line.split()[1])
                except (IndexError, ValueError):
                    declared = -1  # fails below, as a negative count
                if not 0 <= declared <= MAX_COUNT:
                    raise EdgeListError(
                        f"{path}:{lineno}: bad node-count directive, expected "
                        f"0 to {MAX_COUNT} nodes"
                    )
                continue
            parts = line.split(spec.delimiter)
            if len(parts) < 3:
                raise EdgeListError(
                    f"{path}:{lineno}: expected 3 columns, got {len(parts)}"
                )
            try:
                u, v, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise EdgeListError(
                    f"{path}:{lineno}: cannot parse (int, int, number) "
                    f"from {line!r}"
                ) from None
            if not math.isfinite(value):
                raise EdgeListError(
                    f"{path}:{lineno}: non-finite value {parts[2]!r}"
                )
            ids += (u, v)
            values.append(value)
            linenos.append(lineno)
    except OSError as exc:
        raise EdgeListError(f"cannot read {path}: {exc}") from exc

    if declared is None:
        remap: dict[int, int] = {}
        ids = [remap.setdefault(i, len(remap)) for i in ids]
        node_count = len(remap)
    else:
        for k, i in enumerate(ids):
            if not 0 <= i < declared:
                raise EdgeListError(
                    f"{path}:{linenos[k // 2]}: node id {i} outside "
                    f"[0,{declared}) declared by {_NODE_COUNT_DIRECTIVE}"
                )
        node_count = declared
    if node_count == 0:
        raise EdgeListError(f"{path}: empty graph after cleaning")

    u, v = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    value = np.array(values)
    loop = u == v
    zero = ~loop & (value == 0) & (threshold is None)
    keep = ~(loop | zero)
    # kept values are non-zero when there is no threshold
    vote = np.where(value >= (threshold or 0.0), 1, -1)[keep]
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    _, first, pair, count = np.unique(
        lo * node_count + hi, return_index=True, return_inverse=True,
        return_counts=True,
    )
    net = np.bincount(pair, vote, len(first)).astype(np.int64)
    # one row per pair, in first-appearance order
    rows = np.column_stack([lo[first], hi[first], np.sign(net)])[np.argsort(first)]
    graph = SignedGraph.from_edges(node_count, rows[rows[:, 2] != 0])
    report = LoadReport(
        path=str(path),
        lines_parsed=len(values),
        nodes=node_count,
        edges_kept=graph.edge_count,
        positive_edges=graph.positive_edge_count,
        negative_edges=graph.negative_edge_count,
        self_loops_dropped=int(np.count_nonzero(loop)),
        duplicate_lines=len(lo) - len(first),
        conflicting_pairs=int(np.count_nonzero(np.abs(net) < count)),
        tie_dropped_pairs=int(np.count_nonzero(net == 0)),
        zero_sign_dropped=int(np.count_nonzero(zero)),
    )
    logger.info("loaded %s", report)
    return graph, report


def save_edge_list(
    g: SignedGraph, path: str | Path, comments: Sequence[str] = ()
) -> None:
    """Write the canonical whitespace-delimited "u v sign" format.

    A ``#%nodes`` directive records the node count so reloading restores
    graphs with isolated nodes exactly.
    """
    lines = [f"# {line}" for line in comments]
    with open(path, "wt", encoding="utf-8") as fh:
        np.savetxt(
            fh, g.edge_triples(), fmt="%d", comments="",
            header="\n".join([*lines, f"{_NODE_COUNT_DIRECTIVE} {g.node_count}"]),
        )


def top_degree_subgraph(g: SignedGraph, n: int) -> SignedGraph:
    """Induced subgraph on the n nodes of highest total degree.

    Degree ties break toward the lower original id; the selected nodes are
    remapped to 0..n-1 preserving their original relative order.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n > g.node_count:
        raise ValueError(f"n={n} exceeds node count {g.node_count}")
    by_degree = np.argsort(-np.diff(g.indptr), kind="stable")
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[np.sort(by_degree[:n])] = np.arange(n)
    u, v = remap[g.edge_u], remap[g.edge_v]
    keep = (u >= 0) & (v >= 0)
    return SignedGraph.from_edges(n, np.column_stack([u, v, g.edge_sign])[keep])


def inject_sparsity(g: SignedGraph, fraction: float, seed: int) -> SignedGraph:
    """Remove exactly round(fraction * |E|) edges uniformly at random.

    The node set is unchanged; output is deterministic for a fixed seed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    k = round(fraction * g.edge_count)
    keep = np.ones(g.edge_count, dtype=bool)
    if k:
        rng = np.random.default_rng(seed)
        keep[rng.choice(g.edge_count, size=k, replace=False)] = False
    return SignedGraph.from_edges(g.node_count, g.edge_triples()[keep])


def random_connected_graph(n: int, extra_edges: int, seed: int) -> SignedGraph:
    """Random connected signed graph: a random spanning tree plus up to
    ``extra_edges`` additional random pairs, all with random signs."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    # node perm[i] hangs off a uniformly drawn earlier node of perm
    tree = np.column_stack([perm[1:], perm[rng.integers(np.arange(1, n))]])
    extra = rng.integers(n, size=(extra_edges, 2))
    pairs = np.concatenate([tree, extra[extra[:, 0] != extra[:, 1]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    signs = np.where(rng.random(len(pairs)) < 0.5, 1, -1)
    return SignedGraph.from_edges(n, np.column_stack([pairs, signs]))


def synth_balanced(
    communities: int,
    size: int,
    p_intra: float,
    p_inter: float,
    noise: float,
    seed: int,
) -> SignedGraph:
    """Planted-partition signed graph.

    Intra-community pairs connect with probability p_intra and sign
    Positive, inter-community pairs with probability p_inter and sign
    Negative; each edge's sign then flips independently with probability
    ``noise``. With noise=0 and at most two communities every cycle has an
    even number of negative edges (a perfectly balanced graph); with more
    communities the construction is only weakly balanced, since triangles
    spanning three communities carry three negative edges.
    """
    if communities <= 0 or size <= 0:
        raise ValueError("communities and size must be positive")
    for name, p in (("p_intra", p_intra), ("p_inter", p_inter), ("noise", noise)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    n = communities * size
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i // size) == (j // size)
            p_edge = p_intra if same else p_inter
            if rng.random() >= p_edge:
                continue
            sign = 1 if same else -1
            if noise > 0 and rng.random() < noise:
                sign = -sign
            edges.append((i, j, sign))
    return SignedGraph.from_edges(n, edges)
