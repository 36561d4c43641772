import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import EdgeListError, Graph


def test_from_edges_canonicalizes():
    g = Graph.from_edges(4, [(2, 1), (3, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
    assert g.n_edges == 3
    assert g.degrees()[1] == 2
    assert g.adjacency[1] == (0, 2)
    assert list(g.degrees()) == [2, 2, 1, 1]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    # ids that are not integers are neither truncated nor parsed
    for edges in ([(0, 1.5), (1, 2)], np.array([[0, 1.9], [1, 2]]),
                  [("0", "1")], np.array([[0, 1.0]], dtype=object)):
        with pytest.raises(TypeError):
            Graph.from_edges(3, edges)
    # an empty input of any dtype holds no id to reject
    assert Graph.from_edges(3, np.zeros((0, 2))).n_edges == 0


def test_from_edges_rejects_too_many_vertices_and_non_pairs():
    too_many = glm.graph._MAX_VERTICES + 1
    with pytest.raises(ValueError, match=f"{too_many} vertices exceed"):
        Graph.from_edges(too_many, [])
    for edges in ([(0, 1, 2)], [0, 1], np.zeros((2, 2, 2), dtype=int)):
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) pairs"):
            Graph.from_edges(3, edges)


def test_vertex_ids_mark_every_outside_id():
    ids = glm.graph._vertex_ids([[0, 10**20], [-(10**20), 2], [3, -1]], 3)
    assert ids.dtype == np.int64
    assert ids.tolist() == [[0, -1], [-1, 2], [-1, -1]]
    # numpy reads this mix of Python ints as float64; the ids stay exact
    assert glm.graph._vertex_ids([-1, 2**63, 1], 3).tolist() == [-1, -1, 1]
    given = np.array([5, 1, -7])
    assert glm.graph._vertex_ids(given, 3).tolist() == [-1, 1, -1]
    assert given.tolist() == [5, 1, -7]  # the caller's array is left alone


def test_generators_reject_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n must be positive"):
        glm.path_graph(0)
    for rows, cols in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="rows and cols must be positive"):
            glm.grid_graph(rows, cols)
    with pytest.raises(ValueError, match="n must be positive"):
        glm.random_geometric_graph(0, 0.5, rng)
    for radius in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="radius must be positive"):
            glm.random_geometric_graph(5, radius, rng)
    # counts must be integers, not floats that happen to pass "< 1"
    for make in (lambda: glm.path_graph(2.5), lambda: glm.grid_graph(3, 2.5),
                 lambda: glm.grid_graph(2.0, 3),
                 lambda: glm.random_geometric_graph(10.5, 0.5, rng)):
        with pytest.raises(TypeError):
            make()
    assert glm.path_graph(np.int64(3)) == glm.path_graph(3)


def test_parse_edge_list_basic():
    text = "# comment\n\n0 1\n1 2\n"
    g = glm.parse_edge_list(text)
    assert g.n_vertices == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_edge_list_malformed():
    with pytest.raises(EdgeListError, match="line 1"):
        glm.parse_edge_list("0 1 2\n")
    with pytest.raises(EdgeListError, match="non-integer"):
        glm.parse_edge_list("a b\n")
    with pytest.raises(EdgeListError, match=r"^line 3: duplicate edge \(0, 1\)$") as exc:
        glm.parse_edge_list("0 1\n1 2\n1 0\n")
    assert exc.value.line_no == 3
    with pytest.raises(EdgeListError, match=r"^line 4: self-loop at vertex 2$") as exc:
        glm.parse_edge_list("0 1\n# c\r\n1 2\r2 2\n")
    assert exc.value.line_no == 4
    # too many vertices: the first line holding the largest index
    with pytest.raises(EdgeListError, match=r"^line 2: 1000000000000000000 vertices "
                       r"exceed the supported 2147483647$") as exc:
        glm.parse_edge_list("0 1\n1 999999999999999999\n")
    assert exc.value.line_no == 2
    with pytest.raises(EdgeListError, match=r"^line 3: 2147483648 vertices") as exc:
        glm.parse_edge_list("# c\n0 1\r\n3 2147483647\n2147483647 1\n")
    assert exc.value.line_no == 3


def test_parse_edge_list_empty_text():
    assert glm.parse_edge_list("").n_vertices == 0


def test_file_formats_share_the_line_rule():
    # blank lines and lines whose first field starts with "#" are skipped
    # but counted; a "#" after data is data
    skipped = "\n   \n# a comment\n  #indented\n\t#\n"
    assert glm.parse_edge_list(skipped + "0 1\n") == Graph.from_edges(2, [(0, 1)])
    partition = glm.localsets.parse_partition(skipped + "0 1\n")
    assert partition == glm.Partition(sets=((0, 1),))
    with pytest.raises(EdgeListError, match="line 6: expected two integers"):
        glm.parse_edge_list(skipped + "0 1 # note\n")
    with pytest.raises(EdgeListError, match=r"^line 6: non-integer field in "
                       r"\['0', '1', '#', 'note'\]$"):
        glm.localsets.parse_partition(skipped + "0 1 # note\n")


@pytest.mark.parametrize("bad", ["0 x", "0 1.5", "+3 1", "0 \u0663",
                                 "0 " + "1" * 19, "0\x0b1", "# \x0c", "\x1f"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_both_formats_name_the_same_bad_line(bad, ending):
    lines = ["# header", "0 1", "", "  # 3 4", "1 2", bad, "2 3"]
    text = ending.join(lines) + ending
    with pytest.raises(EdgeListError) as edge_list:
        glm.parse_edge_list(text)
    with pytest.raises(EdgeListError) as partition:
        glm.localsets.parse_partition(text.encode("utf-8"))
    assert edge_list.value.line_no == partition.value.line_no == 6
    assert str(edge_list.value) == str(partition.value)


@st.composite
def _written_edges(draw):
    # a graph, its edges in any order and orientation, and an optional header
    g = draw(graphs(max_n=12))
    edges = draw(st.permutations(g.edges))
    flip = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    lines = [f"{v} {u}" if f else f"{u} {v}" for (u, v), f in zip(edges, flip)]
    return g, draw(st.sampled_from([[], ["# a header"]])) + lines


_ending = st.sampled_from(["\n", "\r\n", "\r"])
_id = st.integers(min_value=-(10**18) + 1, max_value=10**18 - 1)


@given(case=_written_edges(), ending=_ending)
@settings(max_examples=100, deadline=None)
def test_written_edges_read_back(case, ending):
    g, lines = case
    text = ending.join(lines) + ending
    # vertices past the largest endpoint are isolated, so not in the file
    n = max((v for e in g.edges for v in e), default=-1) + 1
    expected = Graph.from_edges(n, g.edges)
    assert glm.parse_edge_list(text) == expected
    assert glm.parse_edge_list(text.encode("ascii")) == expected


@given(sets=st.lists(st.lists(_id, min_size=1, max_size=6), max_size=8),
       ending=_ending)
@settings(max_examples=100, deadline=None)
def test_formatted_partitions_read_back(sets, ending):
    p = glm.Partition(sets=sets)
    text = glm.localsets.format_partition(p).replace("\n", ending)
    assert glm.localsets.parse_partition(text) == p
    assert glm.localsets.parse_partition(text.encode("ascii")) == p


def test_load_edge_list_roundtrip(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# toy\n0 1\n1 2\n2 0\n", encoding="utf-8")
    g = glm.load_edge_list(path)
    assert g.n_vertices == 3 and g.n_edges == 3


def test_load_edge_list_reads_text_line_breaks(tmp_path):
    path = tmp_path / "g.edges"
    # a lone \r breaks a line, as in text, and error line numbers count it
    path.write_bytes(b"# toy\r0 1\r1 2\r")
    assert glm.load_edge_list(path) == Graph.from_edges(3, [(0, 1), (1, 2)])
    path.write_bytes(b"0 1\r\r\n1 x\r")
    with pytest.raises(EdgeListError, match="line 3: non-integer field"):
        glm.load_edge_list(path)


def test_load_edge_list_decodes_utf8_strictly(tmp_path):
    path = tmp_path / "g.edges"
    # a byte-order mark is not whitespace: it makes the first field bad
    path.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n")
    with pytest.raises(EdgeListError, match="line 1: non-integer field"):
        glm.load_edge_list(path)
    path.write_bytes("# caf\u00e9\n0 1\n".encode("utf-8"))
    assert glm.load_edge_list(path) == Graph.from_edges(2, [(0, 1)])
    assert glm.parse_edge_list(path.read_bytes()) == Graph.from_edges(2, [(0, 1)])
    # invalid UTF-8 is an error even inside a comment
    path.write_bytes(b"# \xff\n0 1\n")
    with pytest.raises(UnicodeDecodeError):
        glm.load_edge_list(path)


def test_build_laplacian_p3():
    g = glm.path_graph(3)
    lap = glm.build_laplacian(g)
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(lap, expected)


def test_laplacian_rows_sum_to_zero():
    g = glm.grid_graph(4, 5)
    lap = glm.build_laplacian(g)
    assert np.allclose(lap.sum(axis=1), 0.0, rtol=0, atol=1e-15)
    assert np.array_equal(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() > -1e-10


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


@given(
    g=graphs(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_laplacian_quadratic_form(g, seed):
    # f' L f equals the sum of squared edge differences
    f = np.random.default_rng(seed).standard_normal(g.n_vertices)
    quad = float(f @ glm.build_laplacian(g) @ f)
    direct = sum((f[u] - f[v]) ** 2 for u, v in g.edges)
    assert quad == pytest.approx(direct, rel=1e-9, abs=1e-9)


def _induced(graph, vertices):
    """The subgraph induced by ``vertices``, as one set of ``induced_union``."""
    vs = np.unique(vertices)
    return graph.induced_union(np.zeros_like(vs), vs)


def test_induced_union_reindexes():
    g = glm.grid_graph(2, 3)  # vertices 0..5
    sub = _induced(g, [4, 1, 0])
    # sorted order 0,1,4 -> local 0,1,2; edges (0,1) and (1,4)
    assert sub.n_vertices == 3
    assert sub.edges == ((0, 1), (1, 2))
    assert glm.is_connected(sub)


def test_induced_union_disconnected():
    apart = _induced(glm.path_graph(3), [0, 2])
    assert apart.n_vertices == 2
    assert apart.n_edges == 0 and not glm.is_connected(apart)


def test_induced_union_keeps_sets_apart():
    # sets {0, 1} and {2, 3} of a path: the edge (1, 2) joins two sets
    union = glm.path_graph(4).induced_union(np.array([0, 0, 1, 1]), np.arange(4))
    assert union.edges == ((0, 1), (2, 3))
    # members sorted by set id, then vertex: vertex j of the union is members[j]
    union = glm.grid_graph(2, 2).induced_union(np.array([0, 0, 1, 1]),
                                               np.array([0, 3, 1, 2]))
    assert union.edges == ()


def test_induced_union_full_set_is_identity():
    g = glm.grid_graph(3, 3)
    assert _induced(g, range(9)) == g


@st.composite
def _graph_and_vertices(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    # unsorted, with repeats
    chosen = draw(st.lists(vertex, min_size=1, max_size=2 * n))
    edges = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
    return Graph.from_edges(n, edges), chosen


@given(_graph_and_vertices())
@settings(max_examples=80, deadline=None)
def test_induced_subgraph_matches_edge_scan(case):
    g, chosen = case
    sub = _induced(g, chosen)
    connected = glm.is_connected(sub)
    local = {v: i for i, v in enumerate(sorted(set(chosen)))}
    edges = [(local[u], local[v]) for u, v in g.edges if u in local and v in local]
    assert sub == Graph.from_edges(len(local), edges)
    reached, grew = {0}, True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    assert connected == (len(reached) == len(local))


def test_is_connected_reaches_every_hop():
    # vertices several hops from vertex 0 are reached; another component is not
    assert glm.is_connected(glm.path_graph(5))
    assert glm.is_connected(glm.grid_graph(3, 3))
    assert not glm.is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert not glm.is_connected(Graph.from_edges(4, [(0, 1), (1, 2)]))  # vertex 3 alone


def test_is_connected():
    assert glm.is_connected(glm.path_graph(6))
    assert glm.is_connected(Graph.from_edges(0, []))
    assert glm.is_connected(Graph.from_edges(1, []))
    assert not glm.is_connected(Graph.from_edges(3, [(0, 1)]))
    assert not glm.is_connected(Graph.from_edges(3, [(1, 2)]))  # vertex 0 alone
    assert not glm.is_connected(Graph.from_edges(2, []))
    # the walk from vertex 0 goes through a star, a cycle and a long path
    assert glm.is_connected(Graph.from_edges(6, [(5, v) for v in range(5)]))
    assert glm.is_connected(Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]))
    assert glm.is_connected(glm.path_graph(100_000))
