"""The band-coordinate iteration against a dense vertex-space oracle.

The oracle runs f <- f + U U^T S (m - Phi f) on length-n vectors with a
dense Phi (``LocalWeights.to_matrix``) and a dense membership matrix S, the
textbook form of the ILMR sweep.  The package iterates on the k band
coefficients instead; both must give the same curves and estimates.
"""

from __future__ import annotations

import numpy as np
import pytest

import graphlmr as glm
from graphlmr.experiments import (
    _STREAM_NOISE,
    _STREAM_SIGNAL,
    _STREAM_WEIGHTS,
    _build_noise_model,
    _rng,
)


def spread_matrix(partition, n):
    s = np.zeros((n, partition.n_sets))
    for i, members in enumerate(partition.sets):
        s[list(members), i] = 1.0
    return s


def oracle(basis, omega, partition, weights, m, sweeps, stop_tolerance=0.0,
           truth=None):
    """Dense ILMR: returns (estimate, iterations, stop_reason, error trace)."""
    ub = basis.band_vectors(omega)
    proj = ub @ ub.T
    phi = weights.to_matrix(basis.n)
    spread = spread_matrix(partition, basis.n)
    f = proj @ spread @ m
    errors = [np.linalg.norm(f - truth)] if truth is not None else None
    iterations, reason = 0, "max_iterations"
    for _ in range(sweeps):
        prev = np.linalg.norm(f)
        correction = proj @ spread @ (m - phi @ f)
        f = f + correction
        iterations += 1
        if errors is not None:
            errors.append(np.linalg.norm(f - truth))
        if stop_tolerance > 0 and np.linalg.norm(correction) <= stop_tolerance * max(
                prev, 1e-300):
            reason = "converged"
            break
    return f, iterations, reason, np.array(errors) if errors is not None else None


@pytest.mark.parametrize("offband", [0.0, 0.05])
def test_run_experiment_matches_dense_oracle(offband):
    text = (
        "graph = grid\ngraph.rows = 7\ngraph.cols = 6\nomega = 0.3\nn_max = 3\n"
        "schemes = uniform random dirac optimal optimal_dirac\n"
        "noise = grouped\nnoise.sigma = 1e-3 3e-3\n"
        f"offband_energy = {offband!r}\ntrials = 4\nmax_iterations = 25\nseed = 9\n"
    )
    cfg = glm.parse_config(text)
    assert cfg.schemes == glm.WEIGHT_SCHEMES
    report = glm.run_experiment(cfg)

    graph = glm.grid_graph(7, 6)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    partition = glm.greedy_partition(graph, 3)
    model = _build_noise_model(cfg, graph.n_vertices)
    curves = {s: [] for s in cfg.schemes}
    for t in range(cfg.trials):
        f = glm.random_bandlimited(basis, 0.3, _rng(9, _STREAM_SIGNAL, t),
                                   offband_energy=offband or None)
        observed = f + glm.sample_noise(model, _rng(9, _STREAM_NOISE, t))
        for j, scheme in enumerate(cfg.schemes):
            weights = glm.make_weights(scheme, partition, noise=model,
                                       rng=_rng(9, _STREAM_WEIGHTS, t, j))
            m = weights.to_matrix(graph.n_vertices) @ observed
            *_, errors = oracle(basis, 0.3, partition, weights, m, 25, truth=f)
            curves[scheme].append(errors / np.linalg.norm(f))
    for scheme in cfg.schemes:
        want = np.array(curves[scheme])
        assert np.max(np.abs(report.mean_rel_error[scheme] - want.mean(axis=0))) < 1e-12
        assert np.max(np.abs(report.std_rel_error[scheme] - want.std(axis=0))) < 1e-12


def test_ilmr_early_stop_matches_dense_oracle(grid20, grid20_pairs):
    # the README quick start: 20x20 grid, pairs, default stop tolerance
    _, basis = grid20
    partition, metrics = grid20_pairs
    omega = 0.03
    rng = np.random.default_rng(0)
    truth = glm.random_bandlimited(basis, omega, rng, norm=1.0)
    weights = glm.make_weights("uniform", partition)
    noise = glm.sample_noise(glm.NoiseModel.iid(basis.n, 1e-3), rng)
    m = glm.measure(truth + noise, weights)
    config = glm.ReconstructionConfig(omega=omega, max_iterations=100)
    run = glm.ilmr(m, partition, weights, basis, config, c_max=metrics.c_max)
    estimate, iterations, reason, _ = oracle(
        basis, omega, partition, weights, m, 100, config.stop_tolerance)
    assert run.iterations_used == iterations
    assert run.stop_reason == reason == "converged"
    assert np.max(np.abs(run.estimate - estimate)) < 1e-12
