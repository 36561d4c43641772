"""Shared fixtures: small hand graphs plus two desk-scale setups.

The grid and geometric-graph fixtures are session scoped because their
eigendecompositions dominate test runtime; tests must not mutate them.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import graphlmr as glm
from graphlmr.experiments import _STREAM_GRAPH, _rng


@pytest.fixture(scope="session")
def grid20():
    graph = glm.grid_graph(20, 20)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    return graph, basis


@pytest.fixture(scope="session")
def grid20_pairs(grid20):
    graph, _ = grid20
    partition = glm.greedy_partition(graph, 2)
    metrics = glm.partition_metrics(graph, partition)
    return partition, metrics


@pytest.fixture(scope="session")
def rgg300():
    """The geometric graph the experiment runner builds for seed 1."""
    graph = glm.random_geometric_graph(300, 0.09, _rng(1, _STREAM_GRAPH))
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    return graph, basis


@pytest.fixture(scope="session")
def rgg300_sets3(rgg300):
    graph, basis = rgg300
    partition = glm.greedy_partition(graph, 3)
    metrics = glm.partition_metrics(graph, partition)
    ev = basis.eigenvalues
    omega = float(0.5 * (ev[3] + ev[4]))  # in-band dimension 4
    gamma = metrics.c_max * math.sqrt(omega)
    assert gamma < 1.0  # setup guard: the tests below rely on contraction
    return partition, metrics, omega, gamma


@pytest.fixture(scope="session")
def contraction_setups(grid20, rgg300, rgg300_sets3):
    """(label, graph, basis, partition, omega, random weights) with gamma < 1."""
    grid_graph, grid_basis = grid20
    rgg_graph, rgg_basis = rgg300
    rgg_partition, _, rgg_omega, _ = rgg300_sets3
    p4 = glm.path_graph(4)
    setups = [
        ("P4 pairs", p4, glm.eigendecompose(glm.build_laplacian(p4)),
         glm.Partition(sets=((0, 1), (2, 3))), 1.0),
        ("grid20 n_max=4", grid_graph, grid_basis,
         glm.greedy_partition(grid_graph, 4), 0.03),
        ("grid20 n_max=8", grid_graph, grid_basis,
         glm.greedy_partition(grid_graph, 8), 0.03),
        ("rgg300 n_max=3", rgg_graph, rgg_basis, rgg_partition, rgg_omega),
    ]
    return [
        (label, graph, basis, partition, omega,
         glm.make_weights("random", partition, rng=np.random.default_rng(3)))
        for label, graph, basis, partition, omega in setups
    ]


@pytest.fixture()
def p4():
    graph = glm.path_graph(4)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    return graph, basis


@pytest.fixture()
def hide_scipy(monkeypatch):
    """Call it to make every later ``import scipy...`` in the test fail."""
    def hide():
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
    return hide
