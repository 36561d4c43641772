"""Partitioning a graph into small connected local sets.

A local-set partition splits the vertex set into disjoint, connected groups;
reconstruction quality is controlled by the per-set score sqrt(|N| * D)
(size times hop diameter), so the partitioner keeps sets small and compact.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import Graph, _int_lines

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


@dataclass(frozen=True, init=False, eq=False)
class Partition:
    """Nonempty vertex sets.

    Stored as CSR arrays, as :class:`Graph` is: set ``i`` is
    ``vertices[indptr[i]:indptr[i + 1]]``, in the order given, both arrays
    read-only int64; ``sets`` is derived on first access.  Two partitions
    are equal when their sets are.  Construction only enforces structure
    (integer ids that an int64 holds, nonempty sets); semantic requirements
    against a graph are checked by :func:`validate_partition`, which
    reports them as data.
    """

    vertices: np.ndarray = field(init=False)
    indptr: np.ndarray = field(init=False)

    def __init__(self, sets: Sequence[Sequence[int]]):
        sets = tuple(sets)  # walked twice: an iterator would run out
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        vertices = _int64_ids(list(chain.from_iterable(sets)))
        if not sizes.all():
            raise ValueError("every set must be nonempty")
        object.__setattr__(self, "vertices", vertices)
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        object.__setattr__(self, "indptr", _read_only(indptr))

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        ptr, flat = self.indptr.tolist(), self.vertices.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))

    def _key(self) -> tuple[bytes, bytes]:
        return self.indptr.tobytes(), self.vertices.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_sets(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        return _read_only(np.diff(self.indptr))

    def member_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (vertices, set_ids) arrays for vectorized gather/scatter."""
        ids = np.repeat(np.arange(self.n_sets, dtype=np.int64), self.sizes())
        return self.vertices, _read_only(ids)

    def set_starts(self) -> np.ndarray:
        """Position of each set's first member in :meth:`member_arrays`."""
        return self.indptr[:-1]

    def sum_by_set(self, values: np.ndarray) -> np.ndarray:
        """Sum rows aligned with :meth:`member_arrays` over each set (axis 0)."""
        return np.add.reduceat(values, self.indptr[:-1], axis=0)

    def check_range(self, n: int, what: str) -> None:
        """Raise ``ValueError`` unless every member is a vertex of the
        ``n``-vertex ``what`` (a signal, noise model or basis)."""
        if self.vertices.size and self.vertices.min() < 0:
            raise ValueError(f"partition holds negative vertex {self.vertices.min()}")
        if self.vertices.size and self.vertices.max() >= n:
            raise ValueError(f"{what} shorter than the partition's vertex range")

    def gather(self, values: np.ndarray, what: str) -> np.ndarray:
        """``values[v]`` for every member ``v``, in :meth:`member_arrays`
        order, once :meth:`check_range` has passed for ``len(values)``."""
        if np.ndim(values) == 0:
            raise ValueError(f"{what} must have a vertex axis, got shape ()")
        self.check_range(len(values), what)
        return values[self.vertices]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _int64_ids(values: list) -> np.ndarray:
    """Integer vertex ids as a read-only int64 array; ValueError past int64."""
    try:
        ids = map(operator.index, values)
        return _read_only(np.fromiter(ids, dtype=np.int64, count=len(values)))
    except OverflowError:
        ids = map(operator.index, values)
        big = next(v for v in ids if not -(2**63) <= v < 2**63)
        raise ValueError(
            f"partition holds vertex {big}, beyond any vertex index") from None


def greedy_partition(graph: Graph, n_max: int) -> Partition:
    """Partition every vertex into connected sets of at most ``n_max``.

    Repeatedly seeds a new set at the minimum-degree vertex of the remaining
    graph, then grows it by absorbing the minimum-degree frontier neighbor
    until the set reaches ``n_max`` or has no remaining neighbor; the set's
    vertices and their incident edges then leave the remaining graph.
    Degrees are measured in the remaining graph as of the round's start, and
    all ties break toward the lowest vertex index, so the result is
    deterministic.  Each member's neighbors are walked once, counting the
    set's edges into every remaining vertex they touch, and each touched
    vertex gets one heap push per round for its lowered degree, so the whole
    run costs O((N + E) log N).
    """
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = graph.n_vertices
    ptr, flat = graph.indptr.tolist(), graph.indices.tolist()
    nbrs = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
    # rank[v] = (degree of v in the remaining graph) * n + v orders vertices
    # by degree, then index, and names v (v = rank % n); it changes only
    # between rounds, and only downward.  The heap holds every rank a vertex
    # has had; an older rank is larger, so it surfaces only after the vertex
    # has left, and entries of removed vertices are skipped.
    rank = (graph.degrees() * n + np.arange(n)).tolist()
    heap = rank.copy()
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    alive = [True] * n
    is_alive = alive.__getitem__
    # hits[w]: edges from the growing set to w; nonzero only for the
    # round's touched vertices, and zeroed again when the round ends
    hits = [0] * n
    sets: list[list[int]] = []
    remaining = n
    while remaining:
        seed = pop(heap) % n
        if not alive[seed]:
            continue
        alive[seed] = False
        members, touched = [seed], []
        # ranks of the set's alive neighbors; fixed within the round, so
        # each enters once, on its first hit, and leaves when absorbed
        frontier: list[int] = []
        v, size = seed, 1
        while True:
            for w in filter(is_alive, nbrs[v]):
                if hits[w]:
                    hits[w] += 1
                else:
                    hits[w] = 1
                    touched.append(w)
                    push(frontier, rank[w])
            if size == n_max or not frontier:
                break
            v = pop(frontier) % n
            alive[v] = False
            members.append(v)
            size += 1
        for w in touched:
            if alive[w]:
                rank[w] -= hits[w] * n
                push(heap, rank[w])
            hits[w] = 0
        sets.append(members)
        remaining -= size
    return Partition(sets)


@dataclass(frozen=True)
class _Reach:
    """Hop distances inside each checked set, from every member to every member.

    Set ``i`` has ``size[i]`` distinct members (0 for a set that was not
    checked), and their distances form the ``size[i] x size[i]`` row-major
    block of ``dist`` at ``block[i]``, members in ascending vertex order, -1
    where the set's induced subgraph has no path.
    """

    size: np.ndarray
    block: np.ndarray
    dist: np.ndarray


def _set_reach(graph: Graph, set_ids: np.ndarray, members: np.ndarray,
               n_sets: int) -> _Reach:
    """Breadth-first search from every member of every set at once.

    ``members`` are distinct in-range vertices sorted by ``set_ids`` and then
    by vertex.  The search walks the sets' induced subgraphs, all in one
    graph, and a frontier of (source, vertex) pairs advances one level per
    step for all sources.  Work is O(sum |N_i| (|N_i| + e_i)) and memory
    O(sum |N_i|^2).
    """
    union = graph.induced_union(set_ids, members)
    size = np.bincount(set_ids, minlength=n_sets)
    start = np.cumsum(size) - size
    block = np.cumsum(size * size) - size * size
    # dist[row[r] + q]: hop distance from source r to target q (positions in
    # the union, whose vertices are the members in the given order)
    source = target = np.arange(len(members))
    row = block[set_ids] + (source - start[set_ids]) * size[set_ids] - start[set_ids]
    dist = np.full(int((size * size).sum()), -1, dtype=np.int32)
    dist[row + target] = 0
    level = 0
    while source.size:
        level += 1
        step, target = union.neighbors_of(target)
        source = source[step]
        pair = row[source] + target
        fresh = np.flatnonzero(dist[pair] < 0)
        # each newly reached pair continues once, from its first discovery
        pair, first = np.unique(pair[fresh], return_index=True)
        dist[pair] = level
        keep = fresh[first]
        source, target = source[keep], target[keep]
    return _Reach(size=size, block=block, dist=dist)


def _check_partition(graph: Graph, partition: Partition) -> tuple[list[str], _Reach]:
    """Violations of :func:`validate_partition` plus the reach they came from."""
    n, n_sets = graph.n_vertices, partition.n_sets
    members, ids = partition.member_arrays()
    # an out-of-range vertex gets code n + (where its first copy sits among
    # the sorted out-of-range vertices): equal ones share a code, in order
    out = (members < 0) | (members >= n)
    outside = np.sort(members[out])
    code = np.where(out, n + np.searchsorted(outside, members), members)
    width = max(n + len(outside), 1)
    # the distinct (set, code) pairs, sorted by set and then code
    key = np.sort(ids * width + code)
    distinct = np.ones(len(key), dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    s, v = np.divmod(key[distinct], width)
    repeated = np.bincount(s, minlength=n_sets) != partition.sizes()
    out = v >= n
    # sets holding an out-of-range vertex are reported, not searched
    bad = np.bincount(s[out], minlength=n_sets) > 0
    # each event sorts by (set, 0) for a repeat, (set, 1, vertex) otherwise
    events = [((i, 1, x), f"set {i}: vertex {x} out of range [0, {n})")
              for i, x in zip(s[out].tolist(), outside[v[out] - n].tolist())]
    s, v = s[~out], v[~out]
    # first[x] = lowest set holding vertex x (n_sets when none does)
    first = np.full(n, n_sets, dtype=np.int64)
    np.minimum.at(first, v, s)
    overlap = np.flatnonzero(first[v] != s)
    events += [((i, 1, x), f"vertex {x} appears in sets {first[x]} and {i}")
               for i, x in zip(s[overlap].tolist(), v[overlap].tolist())]
    events += [((i, 0), f"set {i}: repeated vertex within the set")
               for i in np.flatnonzero(repeated).tolist()]
    violations = [msg for _, msg in sorted(events)]
    missing = int(np.count_nonzero(first == n_sets))
    if missing > 0:
        violations.append(f"{missing} vertices not covered by any set")
    checked = ~bad[s]
    reach = _set_reach(graph, s[checked], v[checked], n_sets)
    sets = np.flatnonzero(reach.size)
    if sets.size:
        connected = np.minimum.reduceat(reach.dist, reach.block[sets]) >= 0
        violations += [f"set {i}: induced subgraph is disconnected"
                       for i in sets[~connected].tolist()]
    return violations, reach


def validate_partition(graph: Graph, partition: Partition) -> list[str]:
    """Check a partition against a graph; returns violation messages.

    Violations (an empty list means valid): vertex index out of range, a
    vertex appearing in more than one set, a vertex repeated within a set,
    vertices not covered by any set, and a disconnected set.
    """
    return _check_partition(graph, partition)[0]


@dataclass(frozen=True)
class PartitionMetrics:
    """Per-set geometry and the worst-case score derived from it.

    ``c_max = max_i sqrt(|N_i| * D_i)`` with ``D_i`` the hop diameter of the
    induced subgraph (0 for singletons).
    """

    sizes: tuple[int, ...]
    diameters: tuple[int, ...]
    c_max: float


def partition_metrics(graph: Graph, partition: Partition) -> PartitionMetrics:
    """Compute per-set sizes and diameters plus the ``c_max`` score.

    Raises ``ValueError`` when the partition is not valid for the graph.
    """
    violations, reach = _check_partition(graph, partition)
    if violations:
        raise ValueError(f"invalid partition: {violations[0]}")
    sizes = partition.sizes().tolist()
    diameters = np.maximum.reduceat(reach.dist, reach.block).tolist() if sizes else []
    c_max = max((math.sqrt(n * d) for n, d in zip(sizes, diameters)), default=0.0)
    return PartitionMetrics(sizes=tuple(sizes), diameters=tuple(diameters), c_max=c_max)


def suggest_nmax(omega: float) -> int:
    """Largest sensible set size for a band cutoff: round(1 / (2 sqrt(omega))).

    Balances the sqrt(|N| D) score against the band so the contraction factor
    stays near 1/2; never suggests less than 1.  Requires ``omega > 0``.
    """
    if not omega > 0:  # NaN fails too
        raise ValueError("omega must be positive")
    return max(1, math.floor(1.0 / (2.0 * math.sqrt(omega)) + 0.5))


def format_partition(partition: Partition) -> str:
    """Serialize: one set per line, members space-separated."""
    return "\n".join([" ".join([str(v) for v in s]) for s in partition.sets]) + "\n"


def parse_partition(text: str | bytes) -> Partition:
    """Inverse of :func:`format_partition`, from text or its UTF-8 bytes:
    each data line is one set.  Lines are read, and bad ones reported, as
    :func:`graphlmr.parse_edge_list` reads them, but a set may hold any
    number of members, negative ones too."""
    values, count, record = _int_lines(text)
    ends = np.cumsum(count[record]).tolist()
    flat = values.tolist()
    return Partition([flat[a:z] for a, z in zip([0, *ends], ends)])


def write_partition(partition: Partition, path: str | Path) -> None:
    Path(path).write_text(format_partition(partition), encoding="utf-8")


def read_partition(path: str | Path) -> Partition:
    return parse_partition(Path(path).read_bytes())
