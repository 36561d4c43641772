"""Partitioning a graph into small connected local sets.

A local-set partition splits the vertex set into disjoint, connected groups;
reconstruction quality is controlled by the per-set score sqrt(|N| * D)
(size times hop diameter), so the partitioner keeps sets small and compact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, induced_subgraph

__all__ = [
    "Partition",
    "PartitionMetrics",
    "greedy_partition",
    "validate_partition",
    "partition_metrics",
    "suggest_nmax",
    "format_partition",
    "parse_partition",
    "write_partition",
    "read_partition",
]


@dataclass(frozen=True)
class Partition:
    """A collection of vertex sets, optionally with one center per set.

    Construction only enforces structure (nonempty sets, matching center
    count); semantic requirements against a particular graph (disjointness,
    coverage, connectivity, center membership) are checked by
    :func:`validate_partition`, which reports violations as data.
    """

    sets: tuple[tuple[int, ...], ...]
    centers: tuple[int, ...] | None = None

    def __post_init__(self):
        sets = tuple(tuple(int(v) for v in s) for s in self.sets)
        if any(len(s) == 0 for s in sets):
            raise ValueError("every set must be nonempty")
        object.__setattr__(self, "sets", sets)
        if self.centers is not None:
            centers = tuple(int(c) for c in self.centers)
            if len(centers) != len(sets):
                raise ValueError(
                    f"{len(centers)} centers for {len(sets)} sets"
                )
            object.__setattr__(self, "centers", centers)

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def sizes(self) -> np.ndarray:
        return self._flat[3]

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        sizes = np.array([len(s) for s in self.sets], dtype=np.intp)
        verts = np.fromiter(
            (v for s in self.sets for v in s), dtype=np.intp, count=int(sizes.sum())
        )
        ids = np.repeat(np.arange(len(self.sets), dtype=np.intp), sizes)
        starts = np.cumsum(sizes) - sizes
        for arr in (verts, ids, starts, sizes):
            arr.flags.writeable = False
        return verts, ids, starts, sizes

    def member_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (vertices, set_ids) arrays for vectorized gather/scatter."""
        return self._flat[:2]

    def set_starts(self) -> np.ndarray:
        """Position of each set's first member in :meth:`member_arrays`."""
        return self._flat[2]

    def sum_by_set(self, values: np.ndarray) -> np.ndarray:
        """Sum rows aligned with :meth:`member_arrays` over each set (axis 0)."""
        return np.add.reduceat(values, self._flat[2], axis=0)

    def with_centers(self, centers: Sequence[int]) -> "Partition":
        return Partition(sets=self.sets, centers=tuple(int(c) for c in centers))


def greedy_partition(graph: Graph, n_max: int) -> Partition:
    """Partition every vertex into connected sets of at most ``n_max``.

    Repeatedly seeds a new set at the minimum-degree vertex of the remaining
    graph, then grows it by absorbing the minimum-degree frontier neighbor
    until the set reaches ``n_max`` or has no remaining neighbor; the set's
    vertices and their incident edges then leave the remaining graph.
    Degrees are measured in the remaining graph as of the round's start, and
    all ties break toward the lowest vertex index, so the result is
    deterministic.  Runs in roughly O(N * (N/n_max)) on the small graphs this
    package targets.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = graph.n_vertices
    sets: list[tuple[int, ...]] = []
    if n == 0:
        return Partition(sets=())
    # work[v] = degree of v in the remaining graph, frozen during a round;
    # removed vertices get a sentinel larger than any degree.
    sentinel = np.iinfo(np.int64).max
    work = graph.degrees()
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining:
        seed = int(np.argmin(work))  # argmin takes the first (lowest index) min
        members = [seed]
        in_set = {seed}
        frontier = {w for w in graph.adjacency[seed] if alive[w]}
        while len(members) < n_max and frontier:
            pick = min(frontier, key=lambda v: (work[v], v))
            members.append(pick)
            in_set.add(pick)
            frontier.discard(pick)
            frontier.update(
                w for w in graph.adjacency[pick] if alive[w] and w not in in_set
            )
        for v in members:
            alive[v] = False
            work[v] = sentinel
        for v in members:
            for w in graph.adjacency[v]:
                if alive[w]:
                    work[w] -= 1
        sets.append(tuple(members))
        remaining -= len(members)
    return Partition(sets=tuple(sets))


def validate_partition(graph: Graph, partition: Partition) -> list[str]:
    """Check a partition against a graph; returns violation messages.

    Violations (an empty list means valid): vertex index out of range, a
    vertex appearing in more than one set, vertices not covered by any set,
    a disconnected set, and a declared center outside its own set.
    """
    n = graph.n_vertices
    violations: list[str] = []
    seen: dict[int, int] = {}
    for i, s in enumerate(partition.sets):
        if len(set(s)) != len(s):
            violations.append(f"set {i}: repeated vertex within the set")
        for v in sorted(set(s)):
            if not 0 <= v < n:
                violations.append(f"set {i}: vertex {v} out of range [0, {n})")
            elif v in seen:
                violations.append(
                    f"vertex {v} appears in sets {seen[v]} and {i}"
                )
            else:
                seen[v] = i
    missing = n - len(seen)
    if missing > 0:
        violations.append(f"{missing} vertices not covered by any set")
    for i, s in enumerate(partition.sets):
        if any(not 0 <= v < n for v in s):
            continue
        _, connected = induced_subgraph(graph, s)
        if not connected:
            violations.append(f"set {i}: induced subgraph is disconnected")
    if partition.centers is not None:
        for i, (c, s) in enumerate(zip(partition.centers, partition.sets)):
            if c not in s:
                violations.append(f"set {i}: center {c} is not a member")
    return violations


@dataclass(frozen=True)
class PartitionMetrics:
    """Per-set geometry and the worst-case scores derived from it.

    ``c_max = max_i sqrt(|N_i| * D_i)`` with ``D_i`` the hop diameter of the
    induced subgraph (0 for singletons).  When centers are present,
    ``radii[i]`` is the eccentricity of the center inside its set,
    ``max_subtree[i]`` is the largest branch size K(u) of the breadth-first
    tree rooted at the center (0 for singletons), and
    ``q_max = max_i sqrt(K_i * R_i)``; otherwise those fields are ``None``.
    """

    sizes: tuple[int, ...]
    diameters: tuple[int, ...]
    c_max: float
    radii: tuple[int, ...] | None = None
    max_subtree: tuple[int, ...] | None = None
    q_max: float | None = None


def _bfs_levels(adj: Sequence[tuple[int, ...]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def partition_metrics(graph: Graph, partition: Partition) -> PartitionMetrics:
    """Compute per-set diameters (and center radii/subtree sizes) plus scores.

    Raises ``ValueError`` when the partition is not valid for the graph.
    """
    violations = validate_partition(graph, partition)
    if violations:
        raise ValueError(f"invalid partition: {violations[0]}")
    sizes: list[int] = []
    diameters: list[int] = []
    radii: list[int] | None = [] if partition.centers is not None else None
    subtree: list[int] | None = [] if partition.centers is not None else None
    for i, s in enumerate(partition.sets):
        sub, _ = induced_subgraph(graph, s)
        order = sorted(s)
        all_dists = [_bfs_levels(sub.adjacency, v) for v in range(sub.n_vertices)]
        diameter = max(max(d.values()) for d in all_dists)
        sizes.append(len(s))
        diameters.append(diameter)
        if partition.centers is not None:
            c_local = order.index(partition.centers[i])
            dist = all_dists[c_local]
            radii.append(max(dist.values()))
            subtree.append(_max_branch(sub.adjacency, c_local))
    c_max = max(
        math.sqrt(n * d) for n, d in zip(sizes, diameters)
    ) if sizes else 0.0
    if partition.centers is None:
        return PartitionMetrics(
            sizes=tuple(sizes), diameters=tuple(diameters), c_max=c_max
        )
    q_max = max(
        math.sqrt(k * r) for k, r in zip(subtree, radii)
    ) if sizes else 0.0
    return PartitionMetrics(
        sizes=tuple(sizes),
        diameters=tuple(diameters),
        c_max=c_max,
        radii=tuple(radii),
        max_subtree=tuple(subtree),
        q_max=q_max,
    )


def _max_branch(adj: Sequence[tuple[int, ...]], root: int) -> int:
    """Largest subtree size among the root's children in a BFS tree.

    The tree follows first discovery with neighbors scanned in ascending
    order, which makes the value deterministic.  A root with no children
    (singleton set) scores 0.
    """
    parent = {root: None}
    queue = deque([root])
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    count = {v: 1 for v in order}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            count[p] += count[v]
    children = [v for v in order if parent[v] == root]
    return max((count[c] for c in children), default=0)


def suggest_nmax(omega: float) -> int:
    """Largest sensible set size for a band cutoff: round(1 / (2 sqrt(omega))).

    Balances the sqrt(|N| D) score against the band so the contraction factor
    stays near 1/2; never suggests less than 1.  Requires ``omega > 0``.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return max(1, math.floor(1.0 / (2.0 * math.sqrt(omega)) + 0.5))


def format_partition(partition: Partition) -> str:
    """Serialize: one set per line, members space-separated, optional
    trailing ``center=<v>`` token."""
    lines = []
    for i, s in enumerate(partition.sets):
        parts = [str(v) for v in s]
        if partition.centers is not None:
            parts.append(f"center={partition.centers[i]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition`; ``#`` comments and blanks ignored."""
    sets: list[tuple[int, ...]] = []
    centers: list[int | None] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        members: list[int] = []
        center: int | None = None
        for tok in line.split():
            if tok.startswith("center="):
                if center is not None:
                    raise ValueError(f"line {line_no}: multiple center tokens")
                try:
                    center = int(tok[len("center="):])
                except ValueError:
                    raise ValueError(
                        f"line {line_no}: bad center token {tok!r}"
                    ) from None
            else:
                try:
                    members.append(int(tok))
                except ValueError:
                    raise ValueError(
                        f"line {line_no}: non-integer vertex {tok!r}"
                    ) from None
        if not members:
            raise ValueError(f"line {line_no}: empty set")
        sets.append(tuple(members))
        centers.append(center)
    have_centers = [c is not None for c in centers]
    if any(have_centers) and not all(have_centers):
        raise ValueError("either every set or no set may declare a center")
    return Partition(
        sets=tuple(sets),
        centers=tuple(centers) if sets and all(have_centers) else None,
    )


def write_partition(partition: Partition, path: str | Path) -> None:
    Path(path).write_text(format_partition(partition), encoding="utf-8")


def read_partition(path: str | Path) -> Partition:
    return parse_partition(Path(path).read_text(encoding="utf-8"))
