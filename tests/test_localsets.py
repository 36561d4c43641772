import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import EdgeListError, Graph, Partition


def test_greedy_p4_pairs():
    p = glm.greedy_partition(glm.path_graph(4), 2)
    assert p.sets == ((0, 1), (2, 3))


def test_greedy_star():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = glm.greedy_partition(star, 2)
    # leaf 1 seeds first (lowest index among min degree), absorbs the hub;
    # the remaining leaves are isolated and become singletons
    assert p.sets == ((1, 0), (2,), (3,))


def test_greedy_cycle():
    c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    p = glm.greedy_partition(c6, 3)
    assert p.sets == ((0, 1, 2), (3, 4, 5))


def test_greedy_extremes():
    g = glm.grid_graph(3, 3)
    singletons = glm.greedy_partition(g, 1)
    assert singletons.n_sets == 9 and all(len(s) == 1 for s in singletons.sets)
    whole = glm.greedy_partition(g, 100)
    assert whole.n_sets == 1 and sorted(whole.sets[0]) == list(range(9))
    with pytest.raises(ValueError):
        glm.greedy_partition(g, 0)
    # a fractional limit used to admit sets one larger than it
    with pytest.raises(TypeError):
        glm.greedy_partition(glm.grid_graph(6, 6), 2.5)


def test_greedy_deterministic(grid20):
    graph, _ = grid20
    assert glm.greedy_partition(graph, 4).sets == glm.greedy_partition(graph, 4).sets


@st.composite
def connected_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    extras = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    mask = draw(st.lists(st.booleans(), min_size=len(extras), max_size=len(extras)))
    edges.update(e for e, keep in zip(extras, mask) if keep)
    return Graph.from_edges(n, sorted(edges))


@given(g=connected_graphs(), n_max=st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_greedy_always_valid(g, n_max):
    p = glm.greedy_partition(g, n_max)
    assert glm.validate_partition(g, p) == []
    assert max(len(s) for s in p.sets) <= n_max


def test_validate_reports_overlap_as_data():
    g = glm.path_graph(4)
    p = Partition(sets=((0, 1), (1, 2, 3)))
    violations = glm.validate_partition(g, p)
    assert violations == ["vertex 1 appears in sets 0 and 1"]


def test_validate_reports_coverage_and_range():
    g = glm.path_graph(4)
    assert glm.validate_partition(g, Partition(sets=((0, 1),))) == [
        "2 vertices not covered by any set"
    ]
    out = glm.validate_partition(g, Partition(sets=((0, 1, 2, 9),)))
    assert any("out of range" in v for v in out)


def test_validate_reports_disconnected_set():
    g = glm.path_graph(3)
    out = glm.validate_partition(g, Partition(sets=((0, 2), (1,))))
    assert out == ["set 0: induced subgraph is disconnected"]


def test_validate_reports_center_membership():
    g = glm.path_graph(4)
    p = Partition(sets=((0, 1), (2, 3)), centers=(0, 1))
    out = glm.validate_partition(g, p)
    assert out == ["set 1: center 1 is not a member"]


def test_validate_accepts_greedy_output(grid20):
    graph, _ = grid20
    assert glm.validate_partition(graph, glm.greedy_partition(graph, 4)) == []


def test_partition_constructor_structural_checks():
    with pytest.raises(ValueError, match="nonempty"):
        Partition(sets=((0, 1), ()))
    with pytest.raises(ValueError, match="centers"):
        Partition(sets=((0, 1),), centers=(0, 1))
    # ids that are not integers are not truncated
    with pytest.raises(TypeError):
        Partition(sets=((0, 1.7), (2,)))
    with pytest.raises(TypeError):
        Partition(sets=((0, 1), (2,)), centers=(0.9, 2))
    with pytest.raises(TypeError):
        Partition(sets=((0, 1), (2,))).with_centers([0, 2.0])
    p = Partition(sets=(np.array([0, 1]), [np.int64(2)]), centers=np.array([1, 2]))
    assert p.sets == ((0, 1), (2,)) and p.centers == (1, 2)
    assert all(type(v) is int for v in (*p.sets[0], *p.sets[1], *p.centers))


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 10**20, -(10**20)])
def test_partition_ids_beyond_int64_raise_at_construction(big):
    match = f"^partition holds vertex {big}, beyond any vertex index$"
    with pytest.raises(ValueError, match=match):
        Partition(sets=((0, 1), (2, big, 3)))
    with pytest.raises(ValueError, match=match):
        Partition(sets=((0, 1), (2,)), centers=(1, big))
    with pytest.raises(ValueError, match=match):
        Partition(sets=((0, 1), (2,))).with_centers([0, big])
    # a file field is -?[0-9]{1,18}, so ids beyond int64 are no field there
    with pytest.raises(EdgeListError, match=rf"^line 3: non-integer field in "
                       rf"\['2', '{big}', '3'\]$"):
        glm.localsets.parse_partition(f"0 1\n# comment\n2 {big} 3\n")
    # the int64 extremes are vertex ids, and validation reports them as data
    edge = Partition(sets=((0, 2**63 - 1), (-(2**63),)))
    assert edge.sets == ((0, 2**63 - 1), (-(2**63),))
    assert glm.validate_partition(glm.path_graph(1), edge) == [
        f"set 0: vertex {2**63 - 1} out of range [0, 1)",
        f"set 1: vertex {-(2**63)} out of range [0, 1)",
    ]


def test_partition_is_stored_as_csr_arrays():
    p = Partition(sets=([3, 1], (0,), np.array([2, 4])), centers=[1, 0, 4])
    assert p.vertices.dtype == np.int64 and p.indptr.dtype == np.int64
    assert p.vertices.tolist() == [3, 1, 0, 2, 4] and p.indptr.tolist() == [0, 2, 3, 5]
    assert not p.vertices.flags.writeable and not p.indptr.flags.writeable
    assert p.sets == ((3, 1), (0,), (2, 4)) and p.centers == (1, 0, 4)
    assert p == Partition(sets=p.sets, centers=p.centers)
    assert hash(p) == hash(Partition(sets=p.sets, centers=p.centers))
    assert p != Partition(sets=p.sets) and p != Partition(sets=((3, 1), (0, 2, 4)))
    assert Partition(s for s in p.sets) == Partition(sets=p.sets)


def test_partition_member_arrays():
    p = Partition(sets=((3, 1), (0,), (2, 4)))
    verts, ids = p.member_arrays()
    assert list(verts) == [3, 1, 0, 2, 4]
    assert list(ids) == [0, 0, 1, 2, 2]
    assert list(p.sizes()) == [2, 1, 2]
    rows = np.arange(10.0).reshape(5, 2)
    assert p.sum_by_set(rows).tolist() == [[2.0, 4.0], [4.0, 5.0], [14.0, 16.0]]
    assert Partition(sets=()).sum_by_set(np.zeros((0, 2))).shape == (0, 2)


def test_partition_gather_checks_the_range():
    p = Partition(sets=((3, 1), (0,)))
    values = np.array([10.0, 11.0, 12.0, 13.0])
    assert p.gather(values, "signal").tolist() == [13.0, 11.0, 10.0]
    rows = np.arange(8).reshape(4, 2)
    assert p.gather(rows, "basis").tolist() == [[6, 7], [2, 3], [0, 1]]
    with pytest.raises(ValueError, match="signal shorter"):
        p.gather(values[:3], "signal")
    with pytest.raises(ValueError, match="negative vertex -1"):
        Partition(sets=((0, -1),)).gather(values, "signal")
    with pytest.raises(ValueError, match=r"^noise model must have a vertex axis"):
        p.gather(np.float64(1.0), "noise model")


def test_metrics_p4_pairs():
    g = glm.path_graph(4)
    m = glm.partition_metrics(g, Partition(sets=((0, 1), (2, 3))))
    assert m.sizes == (2, 2) and m.diameters == (1, 1)
    assert m.c_max == pytest.approx(math.sqrt(2.0))
    assert m.radii is None and m.q_max is None


def test_metrics_star_centered():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    hub = glm.partition_metrics(star, Partition(sets=((0, 1, 2, 3),), centers=(0,)))
    assert hub.diameters == (2,) and hub.radii == (1,) and hub.max_subtree == (1,)
    assert hub.c_max == pytest.approx(math.sqrt(8.0))
    assert hub.q_max == pytest.approx(1.0)
    leaf = glm.partition_metrics(star, Partition(sets=((0, 1, 2, 3),), centers=(1,)))
    # from a leaf, the whole rest of the star hangs off one branch
    assert leaf.radii == (2,) and leaf.max_subtree == (3,)
    assert leaf.q_max == pytest.approx(math.sqrt(6.0))


def test_metrics_path_center():
    g = glm.path_graph(5)
    m = glm.partition_metrics(g, Partition(sets=((0, 1, 2, 3, 4),), centers=(2,)))
    assert m.diameters == (4,) and m.radii == (2,) and m.max_subtree == (2,)


def test_metrics_singleton_set():
    g = glm.path_graph(2)
    m = glm.partition_metrics(g, Partition(sets=((0,), (1,)), centers=(0, 1)))
    assert m.diameters == (0, 0) and m.max_subtree == (0, 0)
    assert m.c_max == 0.0 and m.q_max == 0.0


def test_metrics_branch_follows_first_discovery():
    # 7 is two hops below both children of 0; the breadth-first queue
    # reaches 9 (under 1) before 3 (under 5), so 7 hangs off branch 1
    g = Graph.from_edges(
        10, [(0, 1), (0, 5), (1, 9), (5, 3), (5, 4), (9, 7), (3, 7)]
    )
    p = Partition(sets=((0, 1, 3, 4, 5, 7, 9), (2,), (6,), (8,)), centers=(0, 2, 6, 8))
    m = glm.partition_metrics(g, p)
    assert m.radii == (3, 0, 0, 0) and m.max_subtree == (3, 0, 0, 0)


def test_metrics_rejects_invalid_partition():
    g = glm.path_graph(4)
    with pytest.raises(ValueError, match="invalid partition"):
        glm.partition_metrics(g, Partition(sets=((0, 1),)))


def test_suggest_nmax():
    assert glm.suggest_nmax(0.01) == 5
    assert glm.suggest_nmax(0.25) == 1
    assert glm.suggest_nmax(1.0 / 400.0) == 10
    assert glm.suggest_nmax(100.0) == 1  # never below one vertex
    with pytest.raises(ValueError):
        glm.suggest_nmax(0.0)
    with pytest.raises(ValueError):
        glm.suggest_nmax(-1.0)
    with pytest.raises(ValueError, match="omega must be positive"):
        glm.suggest_nmax(float("nan"))


def test_partition_serialization_roundtrip(tmp_path):
    p = Partition(sets=((0, 1), (2, 3)))
    text = glm.localsets.format_partition(p)
    assert text == "0 1\n2 3\n"
    assert glm.localsets.parse_partition(text) == p
    path = tmp_path / "p.txt"
    glm.write_partition(p, path)
    assert glm.read_partition(path) == p


def test_partition_parse_skips_blank_and_comment_lines():
    p = glm.localsets.parse_partition("# comment\n0 1\n\n2 3\n")
    assert p == Partition(sets=((0, 1), (2, 3)))


def test_partition_parse_errors():
    with pytest.raises(EdgeListError, match=r"^line 1: non-integer field in "
                       r"\['0', 'x'\]$"):
        glm.localsets.parse_partition("0 x\n")
    # a partition file holds sets only
    with pytest.raises(EdgeListError, match=r"^line 3: non-integer field in "
                       r"\['2', '1', 'center=1'\]$"):
        glm.localsets.parse_partition("0 1\n\n2 1 center=1\n")


def test_partition_with_centers_is_not_written(tmp_path):
    p = Partition(sets=((0, 1), (2, 3)), centers=(1, 2))
    path = tmp_path / "p.txt"
    with pytest.raises(ValueError, match="sets only"):
        glm.write_partition(p, path)
    assert not path.exists()
