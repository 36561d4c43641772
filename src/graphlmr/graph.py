"""Undirected graph container, Laplacian assembly, and edge-list I/O.

Vertices are always the contiguous integers ``0 .. n_vertices - 1``.  Graphs
are simple (no self-loops, no parallel edges) and unweighted; that is all the
rest of the package needs.  A graph is two CSR arrays (row offsets and sorted
neighbor lists), and every function here works on them with numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "EdgeListError",
    "load_edge_list",
    "parse_edge_list",
    "build_laplacian",
    "is_connected",
]


_MAX_VERTICES = 2**31 - 1


class EdgeListError(ValueError):
    """Malformed or out-of-range edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices ``0 .. n_vertices - 1``.

    Stored as compressed sparse rows: ``indices[indptr[v]:indptr[v + 1]]``
    are the neighbors of ``v`` in ascending order, so each edge appears once
    from each end.  Build graphs with :meth:`from_edges`, which validates.
    ``edges`` (each undirected edge once as ``(u, v)`` with ``u < v``, sorted
    lexicographically) and ``adjacency`` (the sorted tuple of neighbors of
    each vertex) are derived on first access.  Instances are immutable, equal
    and hashable by vertex count and edge set, and safe to share.
    """

    n_vertices: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):
            arr = np.array(getattr(self, name), dtype=np.intp)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.indptr.shape != (self.n_vertices + 1,) or self.indptr[-1] != len(
            self.indices
        ):
            raise ValueError("indptr must hold n_vertices + 1 offsets into indices")

    @staticmethod
    def from_edges(
        n_vertices: int, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "Graph":
        """Build a graph, validating and canonicalizing the edge list.

        ``edges`` is an iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer
        array.  An endpoint outside ``0 .. n_vertices - 1``, a self-loop and
        a duplicate edge (in either orientation) each raise ``ValueError``,
        which names the first offending edge in input order.
        """
        n = int(n_vertices)
        if n < 0:
            raise ValueError("n_vertices must be nonnegative")
        if n > _MAX_VERTICES:
            # edge keys min * n + max must fit in int64
            raise ValueError(f"{n} vertices exceed the supported {_MAX_VERTICES}")
        key = _edge_keys(n, edges)
        # both orientations of each edge, sorted by (row, neighbor)
        width = max(n, 1)
        lo, hi = np.divmod(key, width)
        both = np.concatenate([key, hi * n + lo])
        rows, nbrs = np.divmod(np.sort(both), width)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return Graph(n_vertices=n, indptr=indptr, indices=nbrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.indptr.tobytes(), self.indices.tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        rows = np.repeat(np.arange(self.n_vertices), self.degrees())
        upper = self.indices > rows
        return tuple(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ptr, ptr[1:]))

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as a fresh int array."""
        return np.diff(self.indptr).astype(np.int64)

    def induced_union(self, set_ids: np.ndarray, members: np.ndarray) -> "Graph":
        """The subgraphs induced by several vertex sets, as one graph.

        ``members`` are distinct vertices sorted by ``set_ids`` and then by
        vertex; vertex ``j`` of the result is ``members[j]``, and it keeps
        the edges to members of its own set.
        """
        n, m = self.n_vertices, len(members)
        key = set_ids * n + members  # ascending
        owner, nbrs = self.neighbors_of(members)
        want = set_ids[owner] * n + nbrs
        pos = np.minimum(np.searchsorted(key, want), m - 1)
        inside = key[pos] == want
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner[inside], minlength=m), out=indptr[1:])
        return Graph(n_vertices=m, indptr=indptr, indices=pos[inside])

    def neighbors_of(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every neighbor of every vertex in ``vertices``, as flat arrays.

        Returns ``(owner, neighbor)``: ``neighbor[j]`` is adjacent to
        ``vertices[owner[j]]``; owners ascend and each owner's neighbors
        ascend.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        owner = np.repeat(np.arange(len(counts)), counts)
        pos = np.arange(len(owner))
        pos += (starts - (np.cumsum(counts) - counts))[owner]
        return owner, self.indices[pos]


def _edge_keys(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Sorted ``min * n + max`` keys of the edges.

    Raises ``ValueError`` for the first offending edge in input order: one
    out of range, a self-loop or a repeat of an earlier edge.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = _vertex_ids(edges, n)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
    out = lo < 0
    loop = ~out & (lo == hi)
    valid = np.flatnonzero(~out & ~loop)
    key = lo[valid] * n + hi[valid]
    sorted_key = np.sort(key)
    repeat = np.zeros(key.size, dtype=bool)
    repeat[1:] = sorted_key[1:] == sorted_key[:-1]
    flagged = out | loop
    if repeat.any():
        # sorted stably, an edge equal to its predecessor repeats an earlier one
        order = np.argsort(key, kind="stable")
        flagged[valid[order[repeat]]] = True
    if flagged.any():
        i = int(np.argmax(flagged))
        u, v = (int(x) for x in edges[i])
        if out[i]:
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if loop[i]:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    return sorted_key


def _vertex_ids(values: Sequence | np.ndarray, n: int) -> np.ndarray:
    """``values``, an array or nested sequence of ints, as an int64 array in
    which every id outside ``0 .. n - 1`` reads -1, ids no int64 holds too.

    Raises ``TypeError`` for an id that is not an integer (a float, a
    string, ...), unless ``values`` holds no id at all."""
    ids = np.asarray(values)
    if ids.size and ids.dtype.kind not in "iu":
        # numpy reads Python ints beyond int64 as objects or floats; kept
        # as Python ints, they compare exactly
        ids = np.asarray(values, dtype=object)
        for x in ids.flat:
            operator.index(x)
    return np.where((ids >= 0) & (ids < n), ids, -1).astype(np.int64, copy=False)


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of every line of a text file format that is
    neither blank nor a comment, a line whose first field starts with ``#``."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield line_no, fields


def _int64_pairs(text: str | bytes) -> np.ndarray | None:
    """The data lines of :func:`_records` as the rows of an ``(m, 2)`` int64
    array, from one pass over the bytes of ``text`` (a str, or the bytes of
    an ASCII text); ``None`` unless every line break is ``\n`` or ``\r\n``,
    the only other whitespace is space and tab, and every data line is two
    tokens ``-?[0-9]{1,18}``."""
    raw = text
    if isinstance(text, str):
        # str.splitlines also breaks at \v \f \x1c-\x1e, which are control
        # bytes as checked below, and at these three
        if not text.isascii() and any(c in text for c in "\x85\u2028\u2029"):
            return None
        raw = text.encode("utf-8", "surrogatepass")
    b = np.frombuffer(raw, dtype=np.uint8)
    ctrl = np.flatnonzero(b < 32)
    kind = b[ctrl]
    if not ((kind == 10) | (kind == 9) | (kind == 13)).all() or (
        b[np.minimum(ctrl[kind == 13] + 1, len(b) - 1)] != 10
    ).any():
        return None
    # token j is b[starts[j]:ends[j]]; line i holds tokens bounds[i]:bounds[i + 1]
    pad = np.concatenate(([False], b > 32, [False]))
    edge = np.flatnonzero(pad[1:] != pad[:-1])
    starts, ends = edge[::2], edge[1::2]
    m = len(starts)
    if not m:  # fromstring reads blank text as one 0
        return np.empty((0, 2), dtype=np.int64)
    bounds = np.concatenate(([0], np.searchsorted(starts, ctrl[kind == 10]), [m]))
    count = np.diff(bounds)
    head = b[starts]
    comment = (count > 0) & (head[np.minimum(bounds[:-1], m - 1)] == 35)  # "#"
    data = np.repeat(~comment, count)
    # a byte neither whitespace nor digit is a comment's or a leading "-"
    odd = np.flatnonzero(pad[1:-1] & ((b - np.uint8(48)) > 9))
    tok = np.searchsorted(starts, odd, side="right") - 1
    sign = (odd == starts[tok]) & (b[odd] == 45) & (ends[tok] - odd > 1)
    if not (
        ((count == 2) | (count == 0) | comment).all()
        and (sign | ~data[tok]).all()
        and (ends - starts - (head == 45) <= 18)[data].all()
    ):
        return None
    if comment.any():
        # cut each comment line from its first token to the next line's, so
        # that text of comments alone becomes empty, not blank
        at = np.flatnonzero(comment)
        cut = np.append(starts, len(b))
        lo = [starts[0], *cut[bounds[at + 1]].tolist()]
        hi = [*cut[bounds[at]].tolist(), len(b)]
        raw = b"".join(raw[a:z] for a, z in zip(lo, hi))
    return np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 2)


def _leading_int_rows(rows: list[list[str]]) -> np.ndarray:
    """The rows before the first one that is not two integers, as an
    ``(r, 2)`` object array of Python ints (which may exceed int64)."""
    values = []
    for f in rows:
        try:
            a, b = (int(x) for x in f)
        except ValueError:
            break
        values.append((a, b))
    return np.array(values, dtype=object).reshape(-1, 2)


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse edge-list text, or its UTF-8 bytes, into a :class:`Graph`.

    Format: one 0-based ``u v`` pair per line, whitespace separated; blank
    lines and lines starting with ``#`` are ignored.  The vertex count is the
    largest index plus 1.  There is no count header: a first line ``N M``
    reads as one more edge.  A self-loop or a duplicate edge is an error.
    Errors name the line of the first bad data line, as a line-by-line read
    would.  Line breaks are those of ``str.splitlines``.  ASCII bytes go to
    the one-pass reader undecoded; other bytes are decoded first, strictly.
    """
    if isinstance(text, bytes) and not text.isascii():
        text = text.decode("utf-8")

    def records() -> Iterator[tuple[int, list[str]]]:
        return _records(text if isinstance(text, str) else text.decode("ascii"))

    values = _int64_pairs(text)
    rows = None
    if values is None:  # find the first malformed line, reading line by line
        rows = [fields for _, fields in records()]
        values = _leading_int_rows(rows)

    def line_no(row: int) -> int:
        return next(islice(records(), row, None))[0]

    negative = np.flatnonzero(np.minimum(*values.T) < 0)
    if negative.size:
        row = int(negative[0])
        a, b = values[row]
        raise EdgeListError(f"negative vertex index in ({a}, {b})", line_no(row))
    if rows is not None and len(values) < len(rows):
        fields = rows[len(values)]
        if len(fields) != 2:
            raise EdgeListError(
                f"expected two integers, got {len(fields)} fields",
                line_no(len(values)),
            )
        raise EdgeListError(
            f"non-integer field in {fields!r}", line_no(len(values))
        )
    n = int(values.max()) + 1 if len(values) else 0
    try:
        return Graph.from_edges(n, values)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from None


def load_edge_list(path: str | Path) -> Graph:
    """Read an edge-list file (UTF-8); see :func:`parse_edge_list`, which
    takes its bytes."""
    return parse_edge_list(Path(path).read_bytes())


def build_laplacian(graph: Graph) -> np.ndarray:
    """Dense unnormalized Laplacian ``L = D - A`` as float64.

    Rows/columns follow vertex order, so ``L[u, v] == -1`` exactly for each
    edge and ``L[v, v]`` is the degree of ``v``.
    """
    n = graph.n_vertices
    degrees = graph.degrees()
    lap = np.zeros((n, n), dtype=np.float64)
    lap[np.repeat(np.arange(n), degrees), graph.indices] = -1.0
    lap.flat[:: n + 1] = degrees
    return lap


def is_connected(graph: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (empty graph counts)."""
    n = graph.n_vertices
    if n <= 1:
        return True
    ptr, nbrs = graph.indptr.tolist(), graph.indices.tolist()
    seen = [False] * n
    seen[0] = True
    stack, reached = [0], 1
    while stack:
        u = stack.pop()
        for w in nbrs[ptr[u]:ptr[u + 1]]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == n
