import math

import numpy as np
import pytest

import graphlmr as glm
from graphlmr import NoiseModel, Partition, ReconstructionConfig

HALF_NORMAL = math.sqrt(2.0 / math.pi)


def test_in_place_noise_rows_match_fresh_draws():
    # run_experiment fills a (trials, n) block row by row, then scales it by
    # sigma; that must draw what rng.standard_normal(n) * sigma draws
    sigma = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    block = np.empty((3, sigma.size))
    for t, row in enumerate(block):
        np.random.default_rng([8, t]).standard_normal(out=row)
    block *= sigma
    for t, row in enumerate(block):
        want = np.random.default_rng([8, t]).standard_normal(sigma.size) * sigma
        assert np.array_equal(row, want)
    assert np.all(block[:, 0] == 0.0)


def test_noise_tilde_arithmetic():
    p = Partition(sets=((0, 1), (2, 3)))
    value = glm.noise_tilde(p, np.array([0.1, -0.2]))
    assert value == pytest.approx(math.sqrt(2.0) * 0.3, rel=1e-12)
    with pytest.raises(ValueError, match="per-set"):
        glm.noise_tilde(p, np.zeros(3))


def test_realized_report_limit_and_k0():
    # n_tilde = 0.1 via one set of four vertices with |n_1| = 0.05
    p = Partition(sets=((0, 1, 2, 3),))
    noises = np.array([0.05])
    rep = glm.realized_report(0.5, p, noises, norm_f=1.0, norm_n=0.01,
                              n_iterations=200)
    assert rep.bound_at_k[200] == pytest.approx(0.2, abs=1e-12)
    assert rep.bound_at_k[0] == pytest.approx(0.2 + 0.5 * 1.01, rel=1e-12)  # 0.705


def test_realized_report_zero_noise_is_pure_decay():
    p = Partition(sets=((0, 1),))
    rep = glm.realized_report(0.3, p, np.zeros(1), norm_f=2.0, norm_n=0.0,
                              n_iterations=10)
    for k in (0, 3, 10):
        assert rep.bound_at_k[k] == pytest.approx(0.3 ** (k + 1) * 2.0, rel=1e-12)


def test_bound_rejects_vacuous_gamma():
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    noise = NoiseModel.iid(2, 0.1)
    for gamma in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="gamma"):
            glm.realized_report(gamma, p, np.zeros(1), 1.0, 0.0, 0)
        with pytest.raises(ValueError, match="gamma"):
            glm.expected_report(gamma, w, noise, 0)
    with pytest.raises(ValueError, match="n_iterations must"):
        glm.realized_report(0.5, p, np.zeros(1), 1.0, 0.0, -1)


def test_expected_report_iid_value():
    # ten pair sets, sigma = 0.01, gamma = 0.5: |I| sigma sqrt(2/pi) / (1-gamma)
    p = glm.greedy_partition(glm.path_graph(20), 2)
    assert p.n_sets == 10
    w = glm.make_weights("uniform", p)
    noise = NoiseModel.iid(20, 0.01)
    value = glm.expected_report(0.5, w, noise, 0).asymptotic_bound
    assert value == pytest.approx(0.2 * HALF_NORMAL, rel=1e-12)
    assert value == pytest.approx(0.15957691216057307, rel=1e-10)


def test_expected_report_reduces_to_iid_closed_form():
    # with uniform weights and constant sigma, sqrt(|N_i|) sigma_i = sigma
    p = Partition(sets=((0, 1), (2, 3, 4), (5,)))
    w = glm.make_weights("uniform", p)
    noise = NoiseModel.iid(6, 0.02)
    general = glm.expected_report(0.4, w, noise, 0).asymptotic_bound
    assert general == pytest.approx(3 * 0.02 * HALF_NORMAL / 0.6, rel=1e-12)


def test_expected_report_zero_sigma():
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    rep = glm.expected_report(0.5, w, NoiseModel(sigma=np.zeros(2)), 0)
    assert rep.asymptotic_bound == 0.0


def test_expected_report_envelope_term():
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    noise = NoiseModel.iid(4, 0.05)
    rep = glm.expected_report(0.5, w, noise, 2, norm_f=1.5)
    envelope = 0.5**3 * (1.5 + math.sqrt(4 * 0.05**2))
    assert rep.bound_at_k[2] == pytest.approx(rep.asymptotic_bound + envelope,
                                              rel=1e-12)


def test_realized_report_curve():
    p = Partition(sets=((0, 1, 2, 3),))
    rep = glm.realized_report(0.5, p, np.array([0.05]), norm_f=1.0, norm_n=0.01,
                              n_iterations=30)
    assert rep.variant == "realized-noise"
    assert rep.n_tilde == pytest.approx(0.1, rel=1e-12)
    assert rep.asymptotic_bound == pytest.approx(0.2, rel=1e-12)
    assert rep.bound_at_k.shape == (31,)
    assert np.all(np.diff(rep.bound_at_k) <= 0.0)  # nonincreasing
    assert rep.bound_at_k[-1] == pytest.approx(rep.asymptotic_bound, abs=1e-9)
    for k in (0, 5, 30):
        assert rep.bound_at_k[k] == pytest.approx(0.2 + 0.5 ** (k + 1) * 1.01,
                                                  rel=1e-12)


def test_expected_report_curve():
    p = Partition(sets=((0, 1), (2, 3), (4, 5)))
    w = glm.make_weights("uniform", p)
    noise = NoiseModel.iid(6, 0.01)
    rep = glm.expected_report(0.4, w, noise, n_iterations=20, norm_f=1.0)
    assert rep.variant == "per-vertex-gaussian"
    assert rep.bound_at_k.shape == (21,)
    leading = 3 * 0.01 * HALF_NORMAL / 0.6
    for k in (0, 7, 20):
        assert rep.bound_at_k[k] == pytest.approx(
            leading + 0.4 ** (k + 1) * (1.0 + math.sqrt(6) * 0.01), rel=1e-12
        )
    # unequal sets under varied sigma
    p2 = Partition(sets=((0,), (1, 2, 3)))
    noise = NoiseModel(sigma=np.array([0.1, 0.2, 0.3, 0.4]))
    rep = glm.expected_report(0.5, glm.make_weights("uniform", p2), noise, 0)
    assert rep.asymptotic_bound == pytest.approx(0.6557216947749475, rel=1e-12)


def test_report_rejects_bad_args():
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    with pytest.raises(ValueError):
        glm.realized_report(1.2, p, np.zeros(1), 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        glm.realized_report(0.5, p, np.zeros(1), 1.0, 0.0, -1)
    with pytest.raises(ValueError):
        glm.expected_report(0.5, w, NoiseModel.iid(2, 0.1), -2)


@pytest.mark.parametrize("bad", [-5.0, math.nan])
def test_realized_report_rejects_bad_norm_f(bad):
    p = Partition(sets=((0,),))
    with pytest.raises(ValueError, match="norm_f must be nonnegative"):
        glm.realized_report(0.5, p, np.ones(1), bad, 1.0, 2)


@pytest.mark.parametrize("bad", [-5.0, math.nan])
def test_realized_report_rejects_bad_norm_n(bad):
    p = Partition(sets=((0,),))
    with pytest.raises(ValueError, match="norm_n must be nonnegative"):
        glm.realized_report(0.5, p, np.ones(1), 1.0, bad, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_noise_reports_reject_non_finite_per_set_noises(bad):
    p = Partition(sets=((0,), (1, 2)))
    noises = np.array([0.1, bad])
    with pytest.raises(ValueError, match="equivalent_noises must be finite"):
        glm.noise_tilde(p, noises)
    with pytest.raises(ValueError, match="equivalent_noises must be finite"):
        glm.realized_report(0.5, p, noises, 1.0, 1.0, 2)


@pytest.mark.parametrize("bad", [-3.0, math.nan])
def test_expected_report_rejects_bad_norm_f(bad):
    w = glm.make_weights("uniform", Partition(sets=((0, 1),)))
    with pytest.raises(ValueError, match="norm_f must be nonnegative"):
        glm.expected_report(0.5, w, NoiseModel.iid(2, 0.1), 2, norm_f=bad)


def test_report_iteration_count_must_be_an_integer():
    # np.arange would turn a float count into ceil(count) + 1 entries and
    # fail on NaN with a message that names no argument
    p = Partition(sets=((0,),))
    w = glm.make_weights("uniform", p)
    for bad in (2.5, 3.0, math.nan, "3"):
        with pytest.raises(TypeError):
            glm.realized_report(0.5, p, np.ones(1), 1.0, 1.0, bad)
        with pytest.raises(TypeError):
            glm.expected_report(0.5, w, NoiseModel.iid(1, 0.1), bad)
    rep = glm.realized_report(0.5, p, np.ones(1), 1.0, 1.0, np.int64(3))
    assert rep.bound_at_k.shape == (4,)


def test_realized_bound_dominates_error(grid20, grid20_pairs):
    # reconstruction error from noisy measurements stays under the bound curve
    _, basis = grid20
    partition, metrics = grid20_pairs
    omega = 0.03
    gamma = metrics.c_max * math.sqrt(omega)
    w = glm.make_weights("uniform", partition)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = glm.random_bandlimited(basis, omega, rng)
        noise_vec = 1e-3 * rng.standard_normal(basis.n)
        run = glm.ilmr(
            glm.measure(f + noise_vec, w), partition, w, basis,
            ReconstructionConfig(omega=omega, max_iterations=40,
                                 stop_tolerance=0.0, track_truth=f),
            c_max=metrics.c_max,
        )
        rep = glm.realized_report(
            gamma, partition, glm.measure(noise_vec, w),
            norm_f=float(np.linalg.norm(f)),
            norm_n=float(np.linalg.norm(noise_vec)),
            n_iterations=40,
        )
        assert np.all(run.error_trace <= rep.bound_at_k + 1e-12)
