"""The band-coordinate iteration against two oracles.

The dense oracle runs f <- f + U U^T S (m - Phi f) on length-n vectors with
a dense Phi (``oracles.to_matrix``) and a dense membership matrix S,
the textbook form of the ILMR sweep.  The measurement-space oracle runs
c <- c + B^T (m - A c) on the band coefficients with |I|-length residuals.
The package sweeps c <- c + r - M c with the k x k gain M = B^T A instead;
all must give the same curves and estimates.
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
    _trial_rngs,
)
from oracles import to_matrix


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
    phi = to_matrix(weights, basis.n)
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


def measurement_space_oracle(op, a, m, sweeps, stop_tolerance=0.0, truth=None):
    """c <- c + B^T (m - A c) from c = B^T m on the columns of m (|I|, T);
    ``a`` is A, (|I|, k), or one per column, (T, |I|, k)."""
    def col_norm(x):
        return np.sqrt(np.add.reduce(x * x, axis=0))

    c = op.bt @ m
    norm = col_norm(c)
    increments, errors = [norm], None
    if truth is not None:
        truth_c = op.ub.T @ truth
        offband = np.add.reduce((truth - op.ub @ truth_c) ** 2, axis=0)
        errors = [np.sqrt(col_norm(c - truth_c) ** 2 + offband)]
    reason = "max_iterations"
    for _ in range(sweeps):
        ac = a @ c if a.ndim == 2 else np.einsum("tik,kt->it", a, c)
        delta = op.bt @ (m - ac)
        c = c + delta
        increments.append(col_norm(delta))
        if errors is not None:
            errors.append(np.sqrt(col_norm(c - truth_c) ** 2 + offband))
        if stop_tolerance > 0:
            prev, norm = norm, col_norm(c)
            if (increments[-1] <= stop_tolerance * np.maximum(prev, 1e-300)).all():
                reason = "converged"
                break
    return (c, np.array(increments),
            None if errors is None else np.array(errors), reason)


@pytest.mark.parametrize("per_trial", [False, True])
@pytest.mark.parametrize("stop_tolerance", [0.0, 1e-7])
def test_iterate_matches_measurement_space_sweep(per_trial, stop_tolerance):
    graph = glm.grid_graph(7, 6)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    partition = glm.greedy_partition(graph, 3)
    op = glm.BandOperator(basis, 0.3, partition)
    trials = 5
    rngs = [np.random.default_rng([31, t]) for t in range(trials)]
    truth = glm.random_bandlimited_block(basis, 0.3, rngs, offband_energy=0.1)
    observed = truth + 1e-3 * np.random.default_rng(32).standard_normal(truth.shape)
    if per_trial:
        weights = glm.draw_weights("random", partition, rngs)
        a = np.stack([op.measurement_matrix(glm.LocalWeights(partition, w))
                      for w in weights.flat])
        m = glm.measure(observed, weights)
    else:
        weights = glm.make_weights("uniform", partition)
        a, m = op.measurement_matrix(weights), glm.measure(observed, weights)
    gain = op.gain(weights)
    k = op.ub.shape[1]
    assert gain.shape == ((trials, k, k) if per_trial else (k, k))
    # sums of the same products in another order: exact to rounding
    eps = np.finfo(np.float64).eps
    assert np.abs(gain - op.bt @ a).max() <= 16 * eps * np.abs(gain).max()

    got = op.iterate(gain, m, 60, stop_tolerance, truth)
    c, increments, errors, reason = measurement_space_oracle(
        op, a, m, 60, stop_tolerance, truth)
    assert got.stop_reason == reason
    assert reason == ("converged" if stop_tolerance else "max_iterations")
    assert got.increments.shape == increments.shape
    assert np.allclose(got.coefficients, c, rtol=1e-12, atol=0.0)
    assert np.allclose(got.errors, errors, rtol=1e-12, atol=0.0)
    # an increment is a difference of iterates, exact to rounding of |c|
    assert np.allclose(got.increments, increments, rtol=1e-12,
                       atol=4 * eps * np.abs(c).max())


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
    radii = {s: [] for s in cfg.schemes}  # (norm, spectral radius) of I - B^T A
    op = glm.BandOperator(basis, 0.3, partition)
    for t in range(cfg.trials):
        f = glm.random_bandlimited(basis, 0.3, _rng(9, _STREAM_SIGNAL, t),
                                   offband_energy=offband)
        noise = _rng(9, _STREAM_NOISE, t).standard_normal(graph.n_vertices)
        observed = f + noise * model.sigma
        for j, scheme in enumerate(cfg.schemes):
            weights = glm.make_weights(scheme, partition, noise=model,
                                       rng=_rng(9, _STREAM_WEIGHTS, t, j))
            m = to_matrix(weights, graph.n_vertices) @ observed
            *_, errors = oracle(basis, 0.3, partition, weights, m, 25, truth=f)
            curves[scheme].append(errors / np.linalg.norm(f))
            it = np.eye(op.bt.shape[0]) - op.bt @ op.measurement_matrix(weights)
            radii[scheme].append((np.linalg.norm(it, 2),
                                  np.abs(np.linalg.eigvals(it)).max()))
    for scheme in cfg.schemes:
        want = np.array(curves[scheme])
        assert np.max(np.abs(report.mean_rel_error[scheme] - want.mean(axis=0))) < 1e-12
        assert np.max(np.abs(report.std_rel_error[scheme] - want.std(axis=0))) < 1e-12
        norm, radius = np.max(radii[scheme], axis=0)
        assert report.contraction[scheme] == pytest.approx(norm, rel=1e-10)
        assert report.spectral_radius[scheme] == pytest.approx(radius, rel=1e-10)


def test_run_experiment_curves_are_iterate_fed_measure_bitwise():
    # a run meets its signals only through measure: with the same trial
    # draws, iterate fed measure's output gives its curves bit for bit
    cfg = glm.parse_config(
        "graph = grid\ngraph.rows = 7\ngraph.cols = 6\nomega = 0.3\nn_max = 3\n"
        "schemes = uniform random dirac optimal_dirac\nnoise = grouped\n"
        "noise.sigma = 1e-3 3e-3\noffband_energy = 0.05\ntrials = 4\n"
        "max_iterations = 25\nseed = 9\n")
    report = glm.run_experiment(cfg)

    graph = glm.grid_graph(7, 6)
    basis = glm.eigendecompose(glm.build_laplacian(graph))
    partition = glm.greedy_partition(graph, 3)
    model = _build_noise_model(cfg, graph.n_vertices)
    trials = range(cfg.trials)
    truth = glm.random_bandlimited_block(
        basis, 0.3, _trial_rngs(9, _STREAM_SIGNAL, trials), 0.05)
    noisy = np.empty((cfg.trials, graph.n_vertices))
    for rng, row in zip(_trial_rngs(9, _STREAM_NOISE, trials), noisy):
        rng.standard_normal(out=row)
    noisy *= model.sigma
    noisy += truth.T
    op = glm.BandOperator(basis, 0.3, partition)
    for scheme in cfg.schemes:
        if scheme in ("random", "dirac"):
            weights = glm.draw_weights(scheme, partition, _trial_rngs(
                9, _STREAM_WEIGHTS, trials, glm.WEIGHT_SCHEMES.index(scheme)))
        else:
            weights = glm.make_weights(scheme, partition, noise=model)
        errors = op.iterate(op.gain(weights), glm.measure(noisy.T, weights), 25,
                            truth=truth).errors
        curves = errors.T / np.linalg.norm(truth, axis=0)[:, None]
        assert np.array_equal(report.mean_rel_error[scheme], curves.mean(axis=0))
        assert np.array_equal(report.std_rel_error[scheme], curves.std(axis=0))


def test_ilmr_early_stop_matches_dense_oracle(grid20, grid20_pairs):
    # the README quick start: 20x20 grid, pairs, default stop tolerance
    _, basis = grid20
    partition, metrics = grid20_pairs
    omega = 0.03
    rng = np.random.default_rng(0)
    truth = glm.random_bandlimited(basis, omega, rng)
    weights = glm.make_weights("uniform", partition)
    noise = 1e-3 * rng.standard_normal(basis.n)
    m = glm.measure(truth + noise, weights)
    config = glm.ReconstructionConfig(omega=omega, max_iterations=100)
    run = glm.ilmr(m, partition, weights, basis, config, c_max=metrics.c_max)
    estimate, iterations, reason, _ = oracle(
        basis, omega, partition, weights, m, 100, config.stop_tolerance)
    assert run.iterations_used == iterations
    assert run.stop_reason == reason == "converged"
    assert np.max(np.abs(run.estimate - estimate)) < 1e-12
