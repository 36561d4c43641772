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
from pathlib import Path
from typing import Iterable, Sequence

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
    """Malformed or out-of-range edge-list or partition text."""

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
    key = np.sort(lo * n + hi)
    if lo.size and (lo.min() < 0 or (lo == hi).any() or (key[1:] == key[:-1]).any()):
        i = _bad_edge(n, pairs)
        u, v = (int(x) for x in edges[i])
        if lo[i] < 0:
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    return key


def _bad_edge(n: int, pairs: np.ndarray) -> int:
    """Row of the first edge in ``pairs`` (an ``(m, 2)`` int64 array in which
    ids outside ``0 .. n - 1`` read -1) that is out of range, a self-loop or
    a repeat of an earlier edge; 0 if there is none."""
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
    key = lo * n + hi
    # sorted stably, an edge equal to its predecessor repeats an earlier one
    order = np.argsort(key, kind="stable")
    flagged = (lo < 0) | (lo == hi)
    flagged[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    return int(np.argmax(flagged))


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


def _int_lines(text: str | bytes, pairs: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a text file format of integer lines, with the line grammar of
    :func:`parse_edge_list`, in one pass over its bytes; with ``pairs``
    every data line is two nonnegative integers.

    Returns ``(values, count, record)``: the fields of the data lines in
    file order as int64, and each line's field count and whether it is a
    data line.  Raises :class:`EdgeListError` naming the first bad line.
    """
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if isinstance(text, bytes) and not text.isascii():
        text.decode("utf-8")  # bytes that are not UTF-8 raise, even in a comment
    b = np.frombuffer(raw, dtype=np.uint8)
    ctrl = np.flatnonzero(b < 32)
    kind = b[ctrl]
    end = kind == 10  # a \r ends its line unless a \n follows
    cr = np.flatnonzero(kind == 13)
    end[cr] = b[np.minimum(ctrl[cr] + 1, len(b) - 1)] != 10
    breaks = ctrl[end]
    # token j is b[starts[j]:ends[j]]; line i holds tokens bounds[i]:bounds[i + 1]
    pad = np.concatenate(([False], b > 32, [False]))
    edge = np.flatnonzero(pad[1:] != pad[:-1])
    starts, ends = edge[::2], edge[1::2]
    m = len(starts)
    bounds = np.concatenate(([0], np.searchsorted(starts, breaks), [m]))
    count = np.diff(bounds)
    head = b[starts]
    # a data line has fields, and its first does not start with "#"
    first = head[np.minimum(bounds[:-1], m - 1)] if m else 0
    record = (count > 0) & (first != 35)
    data = np.repeat(record, count)
    # a byte neither whitespace nor digit is a comment's or a leading "-"
    odd = np.flatnonzero(pad[1:-1] & ((b - np.uint8(48)) > 9))
    tok = np.searchsorted(starts, odd, side="right") - 1
    sign = (odd == starts[tok]) & (b[odd] == 45) & (ends[tok] - odd > 1)
    stray = ~((kind == 9) | (kind == 10) | (kind == 13))
    wrong = record & (count != 2) & pairs
    long = (ends - starts - (head == 45) > 18) & data
    if stray.any() or wrong.any() or not (sign | ~data[tok]).all() or long.any():
        # the first bad line: the lines before it must read, and are read
        # first, so that an earlier negative index is reported first
        long[tok[~sign]] = True
        at = [np.searchsorted(breaks, ctrl[stray]), np.flatnonzero(wrong),
              np.searchsorted(bounds, np.flatnonzero(long & data), "right") - 1]
        line = min(int(a.min()) for a in at if a.size)
        _int_lines(raw[:breaks[line - 1] + 1 if line else 0], pairs)
        if line in at[0]:
            c = b[ctrl[stray][at[0] == line][0]]
            raise EdgeListError(f"control character {chr(c)!r}", line + 1)
        if line in at[1]:
            raise EdgeListError(
                f"expected two integers, got {count[line]} fields", line + 1)
        lo, hi = bounds[line], bounds[line + 1]
        fields = [raw[s:e].decode("utf-8", "surrogatepass")
                  for s, e in zip(starts[lo:hi], ends[lo:hi])]
        raise EdgeListError(f"non-integer field in {fields!r}", line + 1)
    # cut each comment line from its first token to the next line's, so that
    # text of comments alone becomes empty, not blank (which reads as one 0)
    at = np.flatnonzero(~record & (count > 0))
    cut = np.append(starts, len(b))
    lo = [cut[0], *cut[bounds[at + 1]].tolist()]
    hi = [*cut[bounds[at]].tolist(), len(b)]
    values = np.fromstring(b"".join(raw[a:z] for a, z in zip(lo, hi)),
                           dtype=np.int64, sep=" ")
    if pairs and (values < 0).any():
        row = int(np.argmax(values < 0)) // 2
        line = int(np.flatnonzero(record)[row]) + 1
        u, v = values[2 * row:2 * row + 2]
        raise EdgeListError(f"negative vertex index in ({u}, {v})", line)
    return values, count, record


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse edge-list text, or its UTF-8 bytes, into a :class:`Graph`.

    Format: one 0-based ``u v`` pair per line.  Lines end at ``\\n``,
    ``\\r\\n`` or ``\\r``, and fields are split by space and tab.  Blank
    lines, and comments (lines whose first field starts with ``#``), are
    skipped but counted.  Every field of every other line, a data line,
    matches ``-?[0-9]{1,18}``.  Any other control byte is an error, as is a
    byte beyond ASCII outside a comment; bytes that are not UTF-8 raise
    ``UnicodeDecodeError``.  The vertex count is the largest index plus 1.
    There is no count header: a first line ``N M`` reads as one more edge.
    A self-loop or a duplicate edge is an error.  Errors name the first bad
    line in file order; a self-loop or duplicate, found once every line
    reads, names its own line.
    """
    values, _, record = _int_lines(text, pairs=True)
    edges = values.reshape(-1, 2)
    n = int(values.max()) + 1 if values.size else 0
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:  # too many vertices: the largest index's line
        row = np.argmax(values) // 2 if n > _MAX_VERTICES else _bad_edge(n, edges)
        raise EdgeListError(str(exc), int(np.flatnonzero(record)[row]) + 1) from None


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
