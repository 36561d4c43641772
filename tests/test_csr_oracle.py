"""The CSR graph core and the one-pass partition checks against the loop code
they replaced.

The ``_loop_*`` functions below are the per-edge, per-line and per-set
implementations the package used before graphs were stored as CSR arrays.
They are kept here, unchanged apart from their names, the tuple-based
graph they return and the format options the package no longer has, as
oracles: the vectorized code must build the same
graphs, raise the same messages and report the same partition metrics.
``_loop_parse_edge_list`` reads the edge-list grammar of the one byte-level
reader line by line, with regular expressions.
"""

from __future__ import annotations

import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import EdgeListError, Graph, Partition

# ---------------------------------------------------------------------------
# Oracles: the loop implementations


def _loop_from_edges(n_vertices, edges):
    """Returns ``(n_vertices, edges, adjacency)`` tuples or raises."""
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
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
    canonical.sort()
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for u, v in canonical:
        adj[u].append(v)
        adj[v].append(u)
    return n_vertices, tuple(canonical), tuple(tuple(sorted(a)) for a in adj)


def _loop_parse_edge_list(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    pairs: list[tuple[int, int]] = []
    lines: list[int] = []
    for line_no, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        stray = re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f]", line)
        if stray:
            raise EdgeListError(f"control character {stray.group()!r}", line_no)
        fields = [f for f in re.split(r"[ \t]", line) if f]
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise EdgeListError(
                f"expected two integers, got {len(fields)} fields", line_no
            )
        if not all(re.fullmatch(r"-?[0-9]{1,18}", f) for f in fields):
            raise EdgeListError(f"non-integer field in {fields!r}", line_no)
        a, b = int(fields[0]), int(fields[1])
        if a < 0 or b < 0:
            raise EdgeListError(f"negative vertex index in ({a}, {b})", line_no)
        pairs.append((a, b))
        lines.append(line_no)
    seen: set[tuple[int, int]] = set()
    for (u, v), line_no in zip(pairs, lines):
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", line_no)
        if (min(u, v), max(u, v)) in seen:
            raise EdgeListError(f"duplicate edge {(min(u, v), max(u, v))}", line_no)
        seen.add((min(u, v), max(u, v)))
    return _loop_from_edges(1 + max((max(e) for e in pairs), default=-1), pairs)


def _loop_induced(adjacency, vertices):
    vs = sorted(set(int(v) for v in vertices))
    local = {v: i for i, v in enumerate(vs)}
    edges = [
        (i, local[w])
        for i, u in enumerate(vs)
        for w in adjacency[u]
        if w > u and w in local
    ]
    _, _, sub = _loop_from_edges(len(vs), edges)
    return sub, len(_bfs_levels(sub, 0)) == len(vs)


def _bfs_levels(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _loop_validate(graph, partition):
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
        _, connected = _loop_induced(graph.adjacency, s)
        if not connected:
            violations.append(f"set {i}: induced subgraph is disconnected")
    if partition.centers is not None:
        for i, (c, s) in enumerate(zip(partition.centers, partition.sets)):
            if c not in s:
                violations.append(f"set {i}: center {c} is not a member")
    return violations


def _loop_max_branch(adj, root):
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


def _loop_metrics(graph, partition):
    violations = _loop_validate(graph, partition)
    if violations:
        raise ValueError(f"invalid partition: {violations[0]}")
    sizes, diameters, radii, subtree = [], [], [], []
    for i, s in enumerate(partition.sets):
        sub, _ = _loop_induced(graph.adjacency, s)
        order = sorted(s)
        all_dists = [_bfs_levels(sub, v) for v in range(len(sub))]
        sizes.append(len(s))
        diameters.append(max(max(d.values()) for d in all_dists))
        if partition.centers is not None:
            c_local = order.index(partition.centers[i])
            radii.append(max(all_dists[c_local].values()))
            subtree.append(_loop_max_branch(sub, c_local))
    c_max = max(
        math.sqrt(n * d) for n, d in zip(sizes, diameters)
    ) if sizes else 0.0
    if partition.centers is None:
        return glm.PartitionMetrics(
            sizes=tuple(sizes), diameters=tuple(diameters), c_max=c_max
        )
    q_max = max(
        math.sqrt(k * r) for k, r in zip(subtree, radii)
    ) if sizes else 0.0
    return glm.PartitionMetrics(
        sizes=tuple(sizes), diameters=tuple(diameters), c_max=c_max,
        radii=tuple(radii), max_subtree=tuple(subtree), q_max=q_max,
    )


def _loop_greedy(graph, n_max):
    n = graph.n_vertices
    sets = []
    if n == 0:
        return Partition(sets=())
    sentinel = np.iinfo(np.int64).max
    work = np.array([len(a) for a in graph.adjacency], dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining:
        seed = int(np.argmin(work))
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


def _loop_rgg_edges(n, radius, rng, max_tries=64):
    """Edges of the first connected draw, from the full n x n distance table."""
    for _ in range(max_tries):
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        iu, ju = np.triu_indices(n, k=1)
        close = dist2[iu, ju] <= radius * radius
        edges = list(zip(iu[close].tolist(), ju[close].tolist()))
        _, canonical, adj = _loop_from_edges(n, edges)
        if len(_bfs_levels(adj, 0)) == n:
            return canonical
    return None


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _graph_tuple(g: Graph):
    return g.n_vertices, g.edges, g.adjacency


# ---------------------------------------------------------------------------
# Graph construction and edge-list parsing

_small = st.integers(min_value=-2, max_value=9)


@given(
    n=st.integers(min_value=0, max_value=9),
    edges=st.lists(st.tuples(_small, _small), max_size=24),
    simple=st.booleans(),
    as_array=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_from_edges_matches_loop(n, edges, simple, as_array):
    if simple:  # no self-loops or repeats: a graph, unless out of range
        edges = sorted({(min(e), max(e)) for e in edges if e[0] != e[1]})
    given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    new = _outcome(Graph.from_edges, n, given_edges)
    old = _outcome(_loop_from_edges, n, edges)
    if new[0] == "ok":
        new = "ok", _graph_tuple(new[1])
    assert new == old


def test_from_edges_first_offender_in_input_order():
    # a duplicate before a self-loop before an out-of-range edge
    edges = [(0, 1), (2, 3), (1, 0), (4, 4), (0, 9)]
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph.from_edges(5, edges)
    with pytest.raises(ValueError, match=r"^self-loop at vertex 4$"):
        Graph.from_edges(5, edges[3:])
    # the repeat, not the edge it repeats, is the offender
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph.from_edges(5, [(0, 1), (2, 2), (1, 0)])
    huge = [(0, 1), (1, 1), (0, 10**20)]
    assert _outcome(Graph.from_edges, 3, huge) == _outcome(_loop_from_edges, 3, huge)


def test_graph_stores_only_csr_arrays():
    g = Graph.from_edges(4, [(2, 1), (3, 0), (0, 1)])
    assert set(vars(g)) == {"n_vertices", "indptr", "indices"}
    assert g.indptr.tolist() == [0, 2, 4, 5, 6]
    assert g.indices.tolist() == [1, 3, 0, 2, 1, 0]
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    assert hash(g) == hash(Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)]))
    assert g != Graph.from_edges(5, [(0, 1), (1, 2), (0, 3)])
    with pytest.raises(ValueError, match="indptr"):
        Graph(n_vertices=3, indptr=[0, 1], indices=[0])


_token = st.one_of(
    st.integers(min_value=-2, max_value=8).map(str),
    st.sampled_from(["+3", "007", "1_0", "\u0663", "a", "1.5", "0x1", "-0",
                     "#", "#5", str(10**20), "-", "--1", "1-2", "1-",
                     # 19 digits, a sign with 18, and 18 digits
                     "0000000000000000007", "-000000000000000001",
                     "999999999999999999"]),
)
_space = st.sampled_from([" ", "  ", "\t", " \t", "\u3000"])  # \u3000 is no space here
# control bytes, and characters that str.splitlines reads as line breaks
_odd = st.sampled_from(["\r", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f",
                        "\x85", "\u2028", "\u2029"])


@st.composite
def _edge_list_text(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(
            ["pair"] * 6 + ["fields", "comment", "blank", "odd"]))
        if kind == "odd":
            # an odd character inside a comment or a data line
            a, b, c = draw(_token), draw(_token), draw(_odd)
            lines.append(draw(st.sampled_from(
                [f"# {a}{c}{b}", f"#{c}{a} {b}", f"{a}{c}{b}", f"{a} {b}{c}"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# note", "  # 1 2", "#0 1"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            count = 2 if kind == "pair" else draw(st.sampled_from([1, 3, 4]))
            tokens = draw(st.lists(_token, min_size=count, max_size=count))
            sep = draw(_space)
            lines.append(draw(_space.map(lambda s: s if s != "  " else ""))
                         + sep.join(tokens))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(text=_edge_list_text())
@settings(max_examples=300, deadline=None)
def test_parse_edge_list_matches_loop(text):
    new = _outcome(glm.parse_edge_list, text)
    assert _outcome(glm.parse_edge_list, text.encode("utf-8")) == new
    if "vertices exceed the supported" in str(new[1]):
        # an 18-digit index makes the vertex count: the loop code would
        # allocate that many adjacency lists, so it cannot serve as the
        # oracle here
        assert "999999999999999999" in text
        return
    old = _outcome(_loop_parse_edge_list, text)
    if new[0] == "ok":
        new = "ok", _graph_tuple(new[1])
    assert new == old


@pytest.mark.parametrize("text, line", [
    ("0 1\n# c\n\n2 1\n1 0\n", 5),  # a duplicate names its line
    ("0 1\n1 x\n0 -1\n", 2),  # the first bad line wins
    ("0 -1\n0 1\n1 2 3\n", 1),  # a negative index, then too many fields
    ("0 1\n1 2 3 4\n", 2),  # four fields are not two edges
    ("0 1\n2\n1 2 3\n", 2),  # nor are one and three
    ("0 1\n2 99999999999999999999\n3 x\n", 2),  # 20 digits are no field
    ("4 2\n0 1\r\n\r\n2 3\n", None),  # a count line reads as one more edge
    ("0 1\n1 2 # trailing comment\n", 2),
    ("0 1\n1 1\n1 0\n", 2),  # a self-loop is reported before the duplicate
    ("0 1\n2 3\n3 2\n2 2\n", 3),  # and a duplicate before a later self-loop
    ("-3 1\n0 1\n", 1),  # a negative index on the first line
    ("# only a comment\n", None),  # no edge at all
    ("", None),
    # a 1-based file, or a leading count line, reads as 0-based edges
    ("1 2\n2 3\n", None),
    ("1 2\n0 1\n1 2 3\n", 3),
    ("3 2\n0 1\n1 2\n", None),
    ("3 1\n0 1 2\n", 2),
    # valid text: the header scripts/fetch_minnesota.py writes, no final
    # newline, a sign and 18 digits, non-ASCII text in a comment, and
    # comment, blank and tab-indented lines with CRLF ends
    ("# minnesota road network, largest connected component (0-based)\n"
     "0 1\n1 2\n", None),
    ("0 1\n1 2", None),
    ("-000000000000000000 1\n1 2\n", None),
    ("# \u00e9t\u00e9\n0 1\n1 2\n", None),
    ("# c\n0 1\n\n  # 3 4\n1 2\n", None),
    ("0 1\r\n\t1  2\r\n", None),
    # fields outside -?[0-9]{1,18}
    ("- 1\n", 1),
    ("0 1\n--1 2\n", 2),
    ("1-2 3\n", 1),
    ("0 1-\n", 1),
    ("0 1\n+3 1\n", 2),
    ("1_0 2\n", 1),
    ("0 \u0663\n", 1),  # an Arabic-Indic digit
    ("0 1\n0\u30002\n", 2),  # an ideographic space is no separator
    ("0000000000000000007 1\n", 1),  # 19 digits
    ("0 9999999999999999999\n1 x\n", 1),  # 19 digits, then a bad line
    # a lone \r ends a line; other control bytes are errors, even in a
    # comment; \x85, \u2028 and \u2029 end no line
    ("0\r1\n", 1),
    ("# c\r0 1\n", None),
    ("0 1\r\r\n1 2\r", None),
    ("0\x0b1\n", 1),
    ("0 1\n# c\x0b0 1\n1 2\n", 2),
    ("0\x0c1\n", 1),
    ("# c\x0c0 1\n", 1),
    ("0\x1c1\n", 1),
    ("0 1\n1 2\n# a\x1c1 2\n", 3),
    ("0 1\n2\x003\n", 2),
    ("0 -1\n\x1f\n", 1),  # an earlier negative index still wins
    ("0\x851 2\n", 1),
    ("# a\x851 2 3\n0 1\n", None),
    ("0\u20281 2\n", 1),
    ("# note\u20281 2\n0 1\n", None),
    ("0 1\n# \u2029 note\n1 0\u2029\n", 3),
])
def test_parse_edge_list_examples_match_loop(text, line):
    new = _outcome(glm.parse_edge_list, text)
    assert _outcome(glm.parse_edge_list, text.encode("utf-8")) == new
    old = _outcome(_loop_parse_edge_list, text)
    if new[0] == "ok":
        new = "ok", _graph_tuple(new[1])
    assert new == old
    assert (new[0] == "ok") == (line is None)
    if line is not None:
        assert new[1].startswith(f"line {line}: ")


# ---------------------------------------------------------------------------
# Partition validation and metrics


@st.composite
def _graph_and_partition(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    graph = Graph.from_edges(n, {(min(e), max(e)) for e in edges if e[0] != e[1]})
    if draw(st.booleans()) and n:
        # a valid-looking cover: shuffled vertices cut into pieces
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
        bounds = [0, *[c for c in cuts if c < n], n]
        sets = [tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    else:
        # 2**62 and -2**62 fit an int64 but are far out of range, as given
        member = st.one_of(st.integers(min_value=-2, max_value=n + 1),
                           st.sampled_from([2**62, -2**62]))
        sets = draw(st.lists(st.lists(member, min_size=1, max_size=5).map(tuple),
                             max_size=5))
    centers = None
    if sets and draw(st.booleans()):
        centers = tuple(draw(st.sampled_from(s)) if draw(st.integers(0, 4)) else
                        draw(st.one_of(st.integers(min_value=-1, max_value=n),
                                       st.just(2**62))) for s in sets)
    return graph, Partition(sets=tuple(sets), centers=centers)


@given(_graph_and_partition())
@example((glm.path_graph(3), Partition(sets=((0, 0, 1), (2,)))))
@example((glm.path_graph(4), Partition(sets=((0, 1), (1, 2**62, -3, 2, 3, 3)))))
@example((glm.path_graph(4), Partition(sets=((0, 1, 2**63 - 1), (2**62, 2, 3, -2**62)),
                                       centers=(2**62, 2))))
@settings(max_examples=400, deadline=None)
def test_validate_and_metrics_match_per_set_bfs(case):
    graph, partition = case
    assert glm.validate_partition(graph, partition) == _loop_validate(graph, partition)
    assert _outcome(glm.partition_metrics, graph, partition) == _outcome(
        _loop_metrics, graph, partition)


@st.composite
def _centred_partition(draw):
    """A valid partition of a relabelled grid of up to 40 vertices, with some
    edges dropped, and a center per set.

    Grids hold many shortest paths of equal length, so large sets reach
    vertices three or more hops from the center along several branches:
    the ties a center search that loses discovery order gets wrong.
    """
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=40 // rows))
    n = rows * cols
    label = draw(st.permutations(range(n)))
    grid = glm.grid_graph(rows, cols).edges
    keep = draw(st.lists(st.integers(0, 9), min_size=len(grid), max_size=len(grid)))
    graph = Graph.from_edges(
        n, [(label[u], label[v]) for (u, v), k in zip(grid, keep) if k])
    part = glm.greedy_partition(graph, draw(st.integers(min_value=1, max_value=n)))
    return graph, part.with_centers([draw(st.sampled_from(s)) for s in part.sets])


@given(_centred_partition())
@settings(max_examples=400, deadline=None)
def test_centred_metrics_match_per_set_bfs_on_larger_graphs(case):
    graph, partition = case
    assert glm.partition_metrics(graph, partition) == _loop_metrics(graph, partition)


def test_metrics_match_per_set_bfs_on_greedy_partitions():
    graph = glm.grid_graph(20, 20)
    rgg = glm.random_geometric_graph(150, 0.15, np.random.default_rng(3))
    for g, n_max in ((graph, 8), (graph, 3), (rgg, 6), (glm.path_graph(40), 40)):
        part = glm.greedy_partition(g, n_max)
        assert glm.partition_metrics(g, part) == _loop_metrics(g, part)
        centered = part.with_centers([s[len(s) // 2] for s in part.sets])
        assert glm.partition_metrics(g, centered) == _loop_metrics(g, centered)


def test_partition_checks_build_no_subgraph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-set subgraph built")

    graph = glm.grid_graph(6, 6)
    part = glm.greedy_partition(graph, 4)
    monkeypatch.setattr(Graph, "from_edges", forbidden)
    monkeypatch.setattr(Graph, "edges", property(forbidden))
    monkeypatch.setattr(Graph, "adjacency", property(forbidden))
    calls, graphs = [], []
    real_check, real_init = glm.localsets._check_partition, Graph.__post_init__
    monkeypatch.setattr(glm.localsets, "_check_partition",
                        lambda *a: calls.append(1) or real_check(*a))
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self: graphs.append(1) or real_init(self))
    glm.partition_metrics(graph, part.with_centers([s[0] for s in part.sets]))
    assert len(calls) == 1  # validated once, and the reach reused
    assert len(graphs) == 1  # one graph holds every set's induced subgraph


# ---------------------------------------------------------------------------
# Greedy partitioning and geometric graphs


def _assert_greedy_matches_loop(g, n_max):
    """The greedy partition equals the oracle's, built by the constructor,
    in every view: sets, hash, and the read-only flat arrays."""
    got, want = glm.greedy_partition(g, n_max), _loop_greedy(g, n_max)
    assert got == want and hash(got) == hash(want)
    assert got.centers is None
    assert all(type(v) is int for s in got.sets for v in s)
    views = (*got.member_arrays(), got.set_starts(), got.sizes())
    expected = (*want.member_arrays(), want.set_starts(), want.sizes())
    for view, arr in zip(views, expected):
        assert view.dtype == arr.dtype and np.array_equal(view, arr)
        assert not view.flags.writeable


@pytest.mark.parametrize("rows, cols, n_max", [
    (1, 1, 1), (1, 7, 2), (5, 5, 1), (6, 9, 4), (20, 20, 8), (13, 7, 100),
])
def test_greedy_matches_loop_on_grids(rows, cols, n_max):
    _assert_greedy_matches_loop(glm.grid_graph(rows, cols), n_max)


def _permuted_grid(rows, cols, seed):
    rng = np.random.default_rng(seed)
    edges = rng.permutation(rows * cols)[np.array(glm.grid_graph(rows, cols).edges)]
    return Graph.from_edges(rows * cols, edges[rng.permutation(len(edges))])


@pytest.mark.parametrize("graph, n_max", [
    # the partition benchmark's shape, and the rgg300 runs' graphs and sizes
    (lambda: _permuted_grid(50, 50, 7), 8),
    (lambda: glm.random_geometric_graph(300, 0.09, np.random.default_rng(1)), 3),
    (lambda: glm.random_geometric_graph(300, 0.09, np.random.default_rng(1)), 8),
    # dense: frontier vertices border several members of the growing set
    (lambda: glm.random_geometric_graph(80, 0.6, np.random.default_rng(2)), 6),
], ids=["grid50x50-permuted", "rgg300-nmax3", "rgg300-nmax8", "dense-rgg80"])
def test_greedy_matches_loop_on_larger_graphs(graph, n_max):
    _assert_greedy_matches_loop(graph(), n_max)


@given(
    n=st.integers(min_value=0, max_value=30),
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
    n_max=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_greedy_matches_loop_on_random_graphs(n, pairs, n_max):
    g = Graph.from_edges(
        n, {(min(e), max(e)) for e in pairs if e[0] != e[1] and max(e) < n})
    _assert_greedy_matches_loop(g, n_max)


def test_random_geometric_graph_matches_distance_table(monkeypatch):
    monkeypatch.setattr(glm.generators, "_MAX_TRIES", 4)
    connected = 0
    for seed in range(240):
        n = 20 + (seed * 37) % 140
        # radii around the connectivity threshold, so some draws are retried
        radius = (1.6, 2.2, 3.0, 30.0)[seed % 4] * math.sqrt(math.log(n) / n) / 2
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        old = _loop_rgg_edges(n, radius, old_rng, max_tries=4)
        try:
            new = glm.random_geometric_graph(n, radius, new_rng).edges
        except ValueError:
            new = None
        assert new == old, seed
        assert new_rng.random() == old_rng.random()  # same draws consumed
        connected += new is not None
    assert connected >= 200
