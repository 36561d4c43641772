"""End-to-end acceptance gate.

One test per guarantee the package is built around, each checking the
stated tolerance on fixed, reproducible setups:

1.  projection-spread bound  sup_f ||f - Gf|| / ||f|| <= C_max sqrt(omega)
2.  noise-free geometric decay at rate gamma and convergence
3.  dirac-weight / center-propagation / decimation equivalences
4.  inverse-variance weights minimize the equivalent noise variance
5.  realized-noise error bound dominates the observed error at every k
6.  grouped-noise steady state: optimal < uniform < optimal_dirac
7.  i.i.d.-noise steady state: averaging weights beat dirac across SNRs
8.  road-network partition set counts (slow; needs the downloaded data)
9.  half-normal / CLT statistics of the aggregate noise term
10. byte-identical CSV output for repeated seeded runs

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

import graphlmr as glm

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def test_1_projection_spread_bound(contraction_setups):
    start = time.perf_counter()
    for label, graph, basis, partition, omega, weights in contraction_setups:
        bound = glm.partition_metrics(graph, partition).c_max * math.sqrt(omega)
        op = glm.BandOperator(basis, omega, partition)
        ratio = op.contractions([op.gain(weights)])[0][0]
        assert ratio <= bound + 1e-9, f"{label}: {ratio} > {bound}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"bound check took {elapsed:.1f}s"


def test_2_noise_free_decay_and_convergence(grid20, grid20_pairs, rgg300,
                                            rgg300_sets3):
    grid_graph, grid_basis = grid20
    grid_partition, grid_metrics = grid20_pairs
    rgg_graph, rgg_basis = rgg300
    rgg_partition, rgg_metrics, rgg_omega, rgg_gamma = rgg300_sets3

    instances = []
    for t in range(25):
        instances.append((grid_basis, grid_partition, grid_metrics, 0.03, t))
        instances.append((rgg_basis, rgg_partition, rgg_metrics, rgg_omega, t))

    for basis, partition, metrics, omega, t in instances:
        gamma = metrics.c_max * math.sqrt(omega)
        assert gamma < 1.0
        rng = np.random.default_rng([2, t])
        f = glm.random_bandlimited(basis, omega, rng)
        scheme = "uniform" if t % 2 == 0 else "random"
        weights = glm.make_weights(scheme, partition, rng=rng)
        config = glm.ReconstructionConfig(
            omega=omega, max_iterations=500, stop_tolerance=1e-14, track_truth=f,
        )
        run = glm.ilmr(glm.measure(f, weights), partition, weights, basis,
                       config, c_max=metrics.c_max)
        err = run.error_trace
        ks = np.arange(err.size)
        assert np.all(err <= gamma**ks * err[0] + 1e-9)
        assert err[-1] < 1e-8  # truth has unit norm


def test_3_dirac_singleton_equivalences(grid20, grid20_pairs):
    _, basis = grid20
    partition, _ = grid20_pairs
    centers = tuple(s[0] for s in partition.sets)
    centered = partition.with_centers(centers)
    one_hot = glm.LocalWeights(
        partition=partition,
        flat=np.concatenate(
            [np.eye(len(s))[s.index(c)] for s, c in zip(partition.sets, centers)]
        ),
    )
    singletons = glm.Partition(sets=tuple((c,) for c in centers))
    singleton_w = glm.make_weights("uniform", singletons)
    config = glm.ReconstructionConfig(
        omega=0.03, max_iterations=30, stop_tolerance=0.0,
    )

    for t in range(20):
        rng = np.random.default_rng([3, t])
        f = glm.random_bandlimited(basis, 0.03, rng)
        noisy = f + 0.01 * rng.standard_normal(basis.n)
        decimated = noisy[list(centers)]

        via_ipr = glm.ipr(decimated, centered, basis, config).estimate
        via_ilmr = glm.ilmr(decimated, partition, one_hot, basis, config).estimate
        assert np.max(np.abs(via_ipr - via_ilmr)) <= 1e-12

        via_ilsr = glm.ilsr(decimated, centers, basis, config).estimate
        via_ilmr_s = glm.ilmr(
            decimated, singletons, singleton_w, basis, config
        ).estimate
        assert np.max(np.abs(via_ilsr - via_ilmr_s)) <= 1e-12


def test_4_inverse_variance_weights_minimize_variance(grid20_pairs):
    partition, _ = grid20_pairs
    rng = np.random.default_rng(42)
    model = glm.NoiseModel(sigma=rng.lognormal(0.0, 0.7, 400))
    weights = glm.make_weights("optimal", partition, noise=model)
    achieved = glm.equivalent_noise_sigma(weights, model) ** 2

    var = model.sigma**2
    for i, s in enumerate(partition.sets):
        sub = var[list(s)]
        closed_form = 1.0 / np.sum(1.0 / sub)
        assert achieved[i] == pytest.approx(closed_form, rel=1e-12)
        simplex = rng.dirichlet(np.ones(len(s)), size=1000)
        assert np.min(simplex**2 @ sub) >= achieved[i] - 1e-15


def test_5_realized_noise_bound_dominates(grid20, grid20_pairs):
    _, basis = grid20
    partition, metrics = grid20_pairs
    omega = 0.03
    gamma = metrics.c_max * math.sqrt(omega)
    assert gamma < 1.0
    weights = glm.make_weights("uniform", partition)

    violations = 0
    for t in range(100):
        rng = np.random.default_rng([5, t])
        f = glm.random_bandlimited(basis, omega, rng)
        noise = 0.01 * rng.standard_normal(400)
        per_set_noise = glm.measure(noise, weights)
        run = glm.ilmr(
            glm.measure(f, weights) + per_set_noise, partition, weights, basis,
            glm.ReconstructionConfig(
                omega=omega, max_iterations=60, stop_tolerance=0.0, track_truth=f,
            ),
            c_max=metrics.c_max,
        )
        bound = glm.realized_report(
            gamma, partition, per_set_noise,
            norm_f=1.0, norm_n=float(np.linalg.norm(noise)), n_iterations=60,
        ).bound_at_k
        assert run.error_trace.shape == bound.shape
        violations += int(np.count_nonzero(run.error_trace > bound + 1e-12))
    assert violations == 0


def test_6_grouped_noise_weight_ordering():
    start = time.perf_counter()
    config = glm.parse_config(
        "name = grouped-ordering\n"
        "graph = rgg\ngraph.n = 300\ngraph.radius = 0.09\n"
        "band_dim = 10\nn_max = 8\n"
        "schemes = optimal uniform optimal_dirac\n"
        "noise = grouped\nnoise.sigma = 1e-4 2e-4 5e-4\n"
        "trials = 150\nmax_iterations = 120\nseed = 1\n"
    )
    report = glm.run_experiment(config)
    opt = report.mean_rel_error["optimal"][-1]
    uni = report.mean_rel_error["uniform"][-1]
    od = report.mean_rel_error["optimal_dirac"][-1]
    assert opt < uni < od
    q_opt = glm.bootstrap_gap_quantile(
        report.steady_errors["optimal"], report.steady_errors["uniform"]
    )
    q_uni = glm.bootstrap_gap_quantile(
        report.steady_errors["uniform"], report.steady_errors["optimal_dirac"]
    )
    assert q_opt > 0.0 and q_uni > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"ordering check took {elapsed:.1f}s"


def test_7_iid_noise_snr_sweep_ordering():
    for snr_db in (20, 30, 40, 50):
        sigma = 10.0 ** (-snr_db / 20.0) / math.sqrt(300.0)
        config = glm.parse_config(
            "name = snr-sweep\n"
            "graph = rgg\ngraph.n = 300\ngraph.radius = 0.09\n"
            "band_dim = 4\nn_max = 3\n"
            "schemes = uniform random dirac\n"
            f"noise = iid\nnoise.sigma = {sigma!r}\n"
            "trials = 100\nmax_iterations = 80\nseed = 1\n"
        )
        report = glm.run_experiment(config)
        assert report.gamma < 1.0
        for scheme in ("uniform", "random"):
            gap = glm.bootstrap_gap_quantile(
                report.steady_errors[scheme], report.steady_errors["dirac"]
            )
            assert gap > 0.0, f"SNR {snr_db} dB: {scheme} vs dirac not significant"


@pytest.mark.slow
def test_8_road_network_partition_counts():
    path = DATA_DIR / "minnesota.edges"
    if not path.is_file():
        pytest.skip(
            "road-network data not present; run scripts/fetch_minnesota.py "
            "on a machine with network access and re-run with -m slow"
        )
    graph = glm.load_edge_list(path)
    assert graph.n_vertices == 2640
    for n_max, expected in ((4, 709), (8, 358)):
        partition = glm.greedy_partition(graph, n_max)
        assert glm.validate_partition(graph, partition) == []
        count = partition.n_sets
        assert abs(count - expected) <= 0.1 * expected, (
            f"n_max={n_max}: {count} sets vs {expected} +/- 10%"
        )


def test_9_aggregate_noise_statistics(grid20_pairs):
    partition, _ = grid20_pairs
    assert partition.n_sets == 200
    sigma = 0.01
    weights = glm.make_weights("uniform", partition)
    phi = weights.to_matrix(400)
    rng = np.random.default_rng(123)
    draws = rng.standard_normal((10_000, 400)) * sigma
    per_set = np.abs(draws @ phi.T)  # |n_i|, one row per draw

    sigma_i = sigma / math.sqrt(2.0)  # pair sets, uniform weights
    half_normal_mean = sigma_i * math.sqrt(2.0 / math.pi)
    assert np.mean(per_set) == pytest.approx(half_normal_mean, rel=0.02)

    n_tilde = per_set @ np.sqrt(partition.sizes())
    expected_mean = 200 * sigma * math.sqrt(2.0 / math.pi)
    expected_var = 200 * sigma**2 * (1.0 - 2.0 / math.pi)
    assert np.mean(n_tilde) == pytest.approx(expected_mean, rel=0.02)
    assert np.var(n_tilde, ddof=1) == pytest.approx(expected_var, rel=0.05)


def test_10_csv_byte_determinism(tmp_path):
    text = (
        "name = rerun\ngraph = grid\ngraph.rows = 8\ngraph.cols = 8\n"
        "omega = 0.1\nn_max = 2\nschemes = random dirac\n"
        "noise = iid\nnoise.sigma = 1e-3\n"
        "trials = 5\nmax_iterations = 20\nseed = 11\n"
    )
    paths = []
    for tag in ("a", "b"):
        report = glm.run_experiment(glm.parse_config(text))
        path = tmp_path / f"{tag}.csv"
        glm.write_report_csv(report, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
