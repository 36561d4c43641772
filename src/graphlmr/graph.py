"""Undirected graph container, Laplacian assembly, and edge-list I/O.

Vertices are always the contiguous integers ``0 .. n_vertices - 1``.  Graphs
are simple (no self-loops, no parallel edges) and unweighted; that is all the
rest of the package needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "EdgeListError",
    "load_edge_list",
    "parse_edge_list",
    "build_laplacian",
    "bfs_distance",
    "induced_subgraph",
    "is_connected",
]


class EdgeListError(ValueError):
    """Malformed or out-of-range edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n_vertices - 1``.

    ``edges`` stores each undirected edge exactly once as ``(u, v)`` with
    ``u < v``, sorted lexicographically; ``adjacency[v]`` is the sorted tuple
    of neighbors of ``v``.  Instances are immutable, hashable-by-equality on
    their edge set, and safe to share.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(
        n_vertices: int,
        edges: Iterable[tuple[int, int]],
        dedup: bool = False,
    ) -> "Graph":
        """Build a graph, validating and canonicalizing the edge list.

        Self-loops and duplicate edges (in either orientation) raise
        ``ValueError`` unless ``dedup`` is true, in which case self-loops are
        dropped and duplicates collapsed.
        """
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        seen: set[tuple[int, int]] = set()
        canonical: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {n_vertices} vertices"
                )
            if u == v:
                if dedup:
                    continue
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                if dedup:
                    continue
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        adj: list[list[int]] = [[] for _ in range(n_vertices)]
        for u, v in canonical:
            adj[u].append(v)
            adj[v].append(u)
        return Graph(
            n_vertices=n_vertices,
            edges=tuple(canonical),
            adjacency=tuple(tuple(sorted(a)) for a in adj),
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int array."""
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]


def parse_edge_list(
    text: str,
    index_base: int = 0,
    dedup: bool = False,
    header: bool = False,
) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Format: one ``u v`` pair per line, whitespace separated; blank lines and
    lines starting with ``#`` are ignored.  With ``header=True`` the first
    data line is read as ``N M`` (vertex and edge counts) and ``M`` is checked
    against the number of edges actually read.  Without a header the vertex
    count is inferred as ``max index + 1`` (after ``index_base`` shifting).
    ``index_base=1`` converts 1-based input to the internal 0-based indexing.
    """
    if index_base not in (0, 1):
        raise EdgeListError(f"index_base must be 0 or 1, got {index_base}")
    pairs: list[tuple[int, int]] = []
    declared: tuple[int, int] | None = None
    expect_header = header
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(
                f"expected two integers, got {len(fields)} fields", line_no
            )
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"non-integer field in {fields!r}", line_no) from None
        if expect_header:
            if a < 0 or b < 0:
                raise EdgeListError("negative count in N M header", line_no)
            declared = (a, b)
            expect_header = False
            continue
        u, v = a - index_base, b - index_base
        if u < 0 or v < 0:
            raise EdgeListError(
                f"vertex index below base {index_base} in ({a}, {b})", line_no
            )
        pairs.append((u, v))
    if expect_header:
        raise EdgeListError("header requested but no data lines present")
    if declared is not None:
        n = declared[0]
    else:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    try:
        g = Graph.from_edges(n, pairs, dedup=dedup)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from None
    if declared is not None and g.n_edges != declared[1]:
        raise EdgeListError(
            f"header declares {declared[1]} edges but {g.n_edges} were read"
        )
    return g


def load_edge_list(
    path: str | Path,
    index_base: int = 0,
    dedup: bool = False,
    header: bool = False,
) -> Graph:
    """Read an edge-list file (UTF-8); see :func:`parse_edge_list`."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_edge_list(text, index_base=index_base, dedup=dedup, header=header)


def build_laplacian(graph: Graph) -> np.ndarray:
    """Dense unnormalized Laplacian ``L = D - A`` as float64.

    Rows/columns follow vertex order, so ``L[u, v] == -1`` exactly for each
    edge and ``L[v, v]`` is the degree of ``v``.
    """
    n = graph.n_vertices
    lap = np.zeros((n, n), dtype=np.float64)
    for u, v in graph.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] = -1.0
        lap[v, u] = -1.0
    return lap


def bfs_distance(graph: Graph, source: int, target: int) -> int | None:
    """Hop distance between two vertices, or ``None`` if unreachable."""
    n = graph.n_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError(f"vertex out of range for {n} vertices")
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                if w == target:
                    return dist[w]
                queue.append(w)
    return None


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> tuple[Graph, bool]:
    """Subgraph induced by ``vertices``, plus whether it is connected.

    The subgraph is reindexed to ``0 .. len(vertices) - 1`` following the
    sorted order of the (deduplicated) input vertices.
    """
    vs = sorted(set(int(v) for v in vertices))
    if not vs:
        raise ValueError("vertex set must be nonempty")
    n = graph.n_vertices
    if vs[0] < 0 or vs[-1] >= n:
        raise ValueError(f"vertex out of range for {n} vertices")
    local = {v: i for i, v in enumerate(vs)}
    edges = [
        (i, local[w])
        for i, u in enumerate(vs)
        for w in graph.adjacency[u]
        if w > u and w in local
    ]
    sub = Graph.from_edges(len(vs), edges)
    return sub, is_connected(sub)


def is_connected(graph: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (empty graph counts)."""
    n = graph.n_vertices
    if n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n
