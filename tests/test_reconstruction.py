import math
import re

import numpy as np
import pytest

import graphlmr as glm
from graphlmr import Partition, ReconstructionConfig
from oracles import oracle


def _basis(graph):
    return glm.eigendecompose(glm.build_laplacian(graph))


def test_band_operator_keeps_constants():
    # on P2 with cutoff below lambda_2 the band holds only constants, and
    # G f = U_b B^T (measure f) reproduces a constant exactly
    basis = _basis(glm.path_graph(2))
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    op = glm.BandOperator(basis, 0.4, p)
    f = np.array([3.0, 3.0])
    assert np.allclose(op.ub @ (op.bt @ glm.measure(f, w)), f, rtol=0, atol=1e-12)


def test_ilmr_measurement_shape_check(p4):
    _, basis = p4
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    cfg = ReconstructionConfig(omega=0.1)
    for bad in (np.zeros(3), np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="expected 2 measurements, got shape"):
            glm.ilmr(bad, p, w, basis, cfg)


def test_band_operator_rejects_foreign_weights(p4):
    _, basis = p4
    op = glm.BandOperator(basis, 0.1, Partition(sets=((0, 1), (2, 3))))
    other = glm.make_weights("uniform", Partition(sets=((0,), (1, 2, 3))))
    with pytest.raises(ValueError, match="different partition"):
        op.measurement_matrix(other)
    block = glm.draw_weights("random", other.partition,
                             [np.random.default_rng(t) for t in range(2)])
    for weights in (other, block):
        with pytest.raises(ValueError, match="different partition"):
            op.gain(weights)
    with pytest.raises(ValueError, match="vertex range"):
        glm.BandOperator(basis, 0.1, Partition(sets=((0, 4),)))


def test_band_operator_takes_weights_on_an_equal_partition(p4):
    # a partition is its sets: two built apart are equal, hash alike, and
    # either one's weights serve the other's operator
    _, basis = p4
    p, q = Partition(sets=((0, 1), (2, 3))), Partition(sets=[[0, 1], [2, 3]])
    assert p is not q and p == q and hash(p) == hash(q)
    op = glm.BandOperator(basis, 0.1, p)
    w = glm.make_weights("uniform", q)
    assert np.array_equal(op.gain(w), op.gain(glm.make_weights("uniform", p)))
    block = glm.draw_weights("random", q, [np.random.default_rng(t) for t in range(2)])
    assert op.gain(block).shape == (2, op.ub.shape[1], op.ub.shape[1])


def test_band_operator_rejects_a_block_for_other_sets_of_the_same_vertices():
    # both partitions of the 4 x 4 grid hold all 16 vertices, so a block
    # drawn for the 4 sets has the shape of one for the 8 sets, while each
    # of its rows sums to 0.94, 0.06, 0.56, ... over those 8
    graph = glm.grid_graph(4, 4)
    pairs, quads = glm.greedy_partition(graph, 2), glm.greedy_partition(graph, 4)
    assert (pairs.n_sets, quads.n_sets) == (8, 4)
    block = glm.draw_weights("random", quads,
                             [np.random.default_rng(t) for t in range(3)])
    op = glm.BandOperator(_basis(graph), 1.0, pairs)
    with pytest.raises(ValueError, match="^weights belong to a different partition$"):
        op.gain(block)


def test_measurement_matrix_rejects_a_block(p4):
    _, basis = p4
    p = Partition(sets=((0, 1), (2, 3)))
    op = glm.BandOperator(basis, 0.1, p)
    block = glm.draw_weights("dirac", p, [np.random.default_rng(t) for t in range(3)])
    with pytest.raises(ValueError, match=r"not a block of shape \(3, 4\)$"):
        op.measurement_matrix(block)


def test_iterate_rejects_measurements_and_gains_that_do_not_fit():
    # a (1, k, k) gain would broadcast over every column, and the rest would
    # fail inside numpy with a broadcast or matmul message
    graph = glm.grid_graph(4, 4)
    partition = glm.greedy_partition(graph, 2)
    op = glm.BandOperator(_basis(graph), 1.0, partition)
    k = op.ub.shape[1]
    rngs = [np.random.default_rng(t) for t in range(3)]
    gains = op.gain(glm.draw_weights("random", partition, rngs))
    m = np.ones((8, 3))
    assert op.iterate(gains, m, 2).coefficients.shape == (k, 3)
    assert op.iterate(gains[0], m, 2).coefficients.shape == (k, 3)
    for gain, bad in ((gains[:1], m), (gains[:2], m), (gains, np.ones((7, 3))),
                      (gains[0], np.ones(8)), (gains[0][:, 1:], m)):
        with pytest.raises(ValueError, match=rf"^expected \|I\| = 8 rows of "
                           rf"measurements, .* got {re.escape(str(bad.shape))} and "
                           rf"{re.escape(str(gain.shape))}$"):
            op.iterate(gain, bad, 2)


def test_ilmr_exact_on_constant():
    basis = _basis(glm.path_graph(2))
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    run = glm.ilmr(
        np.array([3.0]), p, w, basis, ReconstructionConfig(omega=0.4)
    )
    assert np.allclose(run.estimate, [3.0, 3.0], rtol=0, atol=1e-12)
    assert run.stop_reason == "converged"
    assert run.gamma is None  # no c_max supplied


def test_ilmr_zero_measurements(p4):
    _, basis = p4
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    run = glm.ilmr(np.zeros(2), p, w, basis, ReconstructionConfig(omega=0.1))
    assert np.allclose(run.estimate, 0.0, rtol=0, atol=1e-15)


def test_ilmr_measurement_count_mismatch(p4):
    _, basis = p4
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    with pytest.raises(ValueError, match="measurements"):
        glm.ilmr(np.zeros(3), p, w, basis, ReconstructionConfig(omega=0.1))


def test_ilmr_track_truth_length_check(p4):
    _, basis = p4
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    cfg = ReconstructionConfig(omega=0.1, track_truth=np.zeros(3))
    with pytest.raises(ValueError, match=r"track_truth must have shape \(4,\)"):
        glm.ilmr(np.zeros(2), p, w, basis, cfg)


def test_ilmr_recovers_bandlimited(grid20, grid20_pairs):
    _, basis = grid20
    partition, metrics = grid20_pairs
    omega = 0.03
    gamma = metrics.c_max * math.sqrt(omega)
    assert gamma < 1
    f = glm.random_bandlimited(basis, omega, np.random.default_rng(4))
    w = glm.make_weights("uniform", partition)
    run = glm.ilmr(
        glm.measure(f, w), partition, w, basis,
        ReconstructionConfig(omega=omega, max_iterations=300, stop_tolerance=1e-14,
                             track_truth=f),
        c_max=metrics.c_max,
    )
    assert run.gamma == pytest.approx(gamma)
    assert run.error_trace[-1] < 1e-10
    # a priori geometric decay with the initial error as constant
    ks = np.arange(run.error_trace.size)
    assert np.all(run.error_trace <= gamma**ks * run.error_trace[0] + 1e-9)


def test_ilmr_gamma_warning(grid20, grid20_pairs):
    _, basis = grid20
    partition, metrics = grid20_pairs
    w = glm.make_weights("uniform", partition)
    run = glm.ilmr(
        np.zeros(partition.n_sets), partition, w, basis,
        ReconstructionConfig(omega=2.0, max_iterations=1), c_max=metrics.c_max,
    )
    assert run.gamma > 1


def test_stop_reasons(grid20, grid20_pairs):
    _, basis = grid20
    partition, _ = grid20_pairs
    w = glm.make_weights("uniform", partition)
    f = glm.random_bandlimited(basis, 0.03, np.random.default_rng(8))
    m = glm.measure(f, w)
    capped = glm.ilmr(m, partition, w, basis,
                      ReconstructionConfig(omega=0.03, max_iterations=3,
                                           stop_tolerance=0.0))
    assert capped.stop_reason == "max_iterations" and capped.iterations_used == 3
    assert capped.increment_trace.shape == (4,)
    assert capped.error_trace is None
    converged = glm.ilmr(m, partition, w, basis,
                         ReconstructionConfig(omega=0.03, max_iterations=500,
                                              stop_tolerance=1e-12))
    assert converged.stop_reason == "converged"
    assert converged.iterations_used < 500


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(omega=-0.1)
    with pytest.raises(ValueError):
        ReconstructionConfig(omega=0.1, max_iterations=-1)
    with pytest.raises(ValueError):
        ReconstructionConfig(omega=0.1, stop_tolerance=-1e-3)
    nan = float("nan")
    with pytest.raises(ValueError, match="omega must be nonnegative"):
        ReconstructionConfig(omega=nan)
    with pytest.raises(ValueError, match="stop_tolerance must be nonnegative"):
        ReconstructionConfig(omega=0.1, stop_tolerance=nan)
    with pytest.raises(TypeError):
        ReconstructionConfig(omega=0.1, max_iterations=2.5)


def test_ilsr_recovers_constant_from_one_sample():
    basis = _basis(glm.path_graph(5))
    f = np.full(5, 2.0 / math.sqrt(5.0))
    run = glm.ilsr(
        np.array([f[2]]), [2], basis,
        ReconstructionConfig(omega=0.05, max_iterations=500, stop_tolerance=1e-14),
    )
    assert np.allclose(run.estimate, f, rtol=0, atol=1e-10)
    assert run.gamma is None


def test_ilsr_input_validation(p4):
    _, basis = p4
    cfg = ReconstructionConfig(omega=0.1)
    with pytest.raises(ValueError, match="repeated"):
        glm.ilsr(np.zeros(2), [1, 1], basis, cfg)
    with pytest.raises(ValueError, match="out of range"):
        glm.ilsr(np.zeros(1), [9], basis, cfg)
    with pytest.raises(TypeError):  # not truncated to vertices 0 and 2
        glm.ilsr(np.zeros(2), [0.6, 2.9], basis, cfg)


def test_ilmr_dirac_equals_ipr(grid20):
    # dirac local measurements degenerate to decimation plus propagation:
    # they are samples at one vertex per set, and ilmr on them is the dense
    # ILMR sweep
    graph, basis = grid20
    partition = glm.greedy_partition(graph, 3)
    rng = np.random.default_rng(21)
    centers = tuple(s[rng.integers(len(s))] for s in partition.sets)
    one_hot = [np.eye(len(s))[s.index(c)] for c, s in zip(centers, partition.sets)]
    weights = glm.LocalWeights(partition, np.concatenate(one_hot))
    omega = 0.03
    f = glm.random_bandlimited(basis, omega, rng)
    samples = f[np.array(centers)]
    assert np.array_equal(glm.measure(f, weights), samples)
    cfg = ReconstructionConfig(omega=omega, max_iterations=40, stop_tolerance=0.0)
    via_ilmr = glm.ilmr(samples, partition, weights, basis, cfg)
    dense, *_ = oracle(basis, omega, partition, weights, samples, 40)
    assert np.max(np.abs(via_ilmr.estimate - dense)) <= 1e-12


def test_ilmr_dirac_gamma_from_c_max():
    # the a-priori factor is c_max sqrt(omega) whatever the weights; the
    # iteration runs on even where it gives no guarantee
    star = glm.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    basis = _basis(star)
    p = Partition(sets=((0, 1, 2, 3),))
    metrics = glm.partition_metrics(star, p)
    hub = glm.LocalWeights(p, np.array([1.0, 0.0, 0.0, 0.0]))
    run = glm.ilmr(
        np.array([1.0]), p, hub, basis,
        ReconstructionConfig(omega=0.25, max_iterations=5), c_max=metrics.c_max,
    )
    assert run.gamma == pytest.approx(math.sqrt(8.0) * 0.5)
    assert np.all(np.isfinite(run.estimate))


def test_ilmr_singletons_equals_ilsr(grid20):
    graph, basis = grid20
    rng = np.random.default_rng(22)
    sample_set = sorted(rng.choice(graph.n_vertices, size=120, replace=False).tolist())
    singletons = Partition(sets=tuple((u,) for u in sample_set))
    weights = glm.make_weights("uniform", singletons)
    omega = 0.03
    f = glm.random_bandlimited(basis, omega, rng)
    samples = f[np.array(sample_set)]
    cfg = ReconstructionConfig(omega=omega, max_iterations=40, stop_tolerance=0.0)
    via_ilmr = glm.ilmr(samples, singletons, weights, basis, cfg)
    via_ilsr = glm.ilsr(samples, sample_set, basis, cfg)
    assert np.allclose(via_ilmr.estimate, via_ilsr.estimate, rtol=0, atol=1e-12)


def test_contraction_ratio_bound_holds(grid20, grid20_pairs):
    _, basis = grid20
    partition, metrics = grid20_pairs
    w = glm.make_weights("uniform", partition)
    op = glm.BandOperator(basis, 0.03, partition)
    ratio = op.contractions([op.gain(w)])[0][0]
    assert ratio <= metrics.c_max * math.sqrt(0.03) + 1e-9


def _sampled_ratio(basis, omega, partition, weights, trials, rng):
    """The former Monte-Carlo estimate: the worst ||f - G f|| over unit
    bandlimited draws, with G f = U_b B^T (measure f)."""
    op = glm.BandOperator(basis, omega, partition)
    worst = 0.0
    for _ in range(trials):
        f = glm.random_bandlimited(basis, omega, rng)
        ratio = float(np.linalg.norm(f - op.ub @ (op.bt @ glm.measure(f, weights))))
        worst = max(worst, ratio)
    return worst


def test_contraction_ratio_is_the_supremum(contraction_setups):
    for label, _, basis, partition, omega, weights in contraction_setups:
        op = glm.BandOperator(basis, omega, partition)
        ratio = op.contractions([op.gain(weights)])[0][0]
        sampled = _sampled_ratio(basis, omega, partition, weights, 200,
                                 np.random.default_rng(17))
        assert sampled <= ratio + 1e-12, label
        # the top right singular vector of I - B^T A attains the supremum
        k = op.ub.shape[1]
        _, _, vt = np.linalg.svd(np.eye(k) - op.bt @ op.measurement_matrix(weights))
        f = op.ub @ vt[0]
        attained = np.linalg.norm(f - op.ub @ (op.bt @ glm.measure(f, weights)))
        assert attained == pytest.approx(ratio, rel=0, abs=1e-12), label


def test_negative_members_are_rejected():
    # member -1 would otherwise read the last vertex of the signal
    graph = glm.path_graph(3)
    basis = _basis(graph)
    p = Partition(sets=((-1, 0), (1,)))
    w = glm.make_weights("uniform", p)
    calls = [
        lambda: glm.measure(np.array([0.0, 10.0, 20.0]), w),
        lambda: glm.equivalent_noise_sigma(w, glm.NoiseModel.iid(3, 0.1)),
        lambda: glm.BandOperator(basis, 1.0, p),
        lambda: glm.ilmr(np.zeros(2), p, w, basis, ReconstructionConfig(omega=1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="negative vertex -1"):
            call()


@pytest.mark.parametrize("big", [10**20, -(10**20)])
def test_members_beyond_int64_are_named(big):
    # no partition holds such a member, so no later stage meets one
    with pytest.raises(ValueError, match=f"partition holds vertex {big}, beyond"):
        Partition(sets=((0, big), (1,)))


def test_one_measurement_determines_a_one_dimensional_band_only():
    basis = _basis(glm.path_graph(2))
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    # one measurement pins down the constants: A = Phi U_b has full column
    # rank, and the sweep reaches the fixed point in one step
    op = glm.BandOperator(basis, 0.4, p)
    assert np.linalg.matrix_rank(op.measurement_matrix(w)) == 1
    assert op.contractions([op.gain(w)])[0] == pytest.approx((0.0, 0.0), abs=1e-12)
    # ...but not a two-dimensional band: the unmeasured direction is a fixed
    # vector of I - M, so the iteration cannot contract it
    op = glm.BandOperator(basis, 2.1, p)
    assert op.measurement_matrix(w).shape == (1, 2)
    [(norm, radius)] = op.contractions([op.gain(w)])
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert radius == pytest.approx(1.0, abs=1e-12)


def test_measurement_map_has_full_rank_at_desk_scale(grid20, grid20_pairs):
    _, basis = grid20
    partition, _ = grid20_pairs
    w = glm.make_weights("uniform", partition)
    op = glm.BandOperator(basis, 0.03, partition)
    k = op.ub.shape[1]
    assert np.linalg.matrix_rank(op.measurement_matrix(w)) == k
    ratio = op.contractions([op.gain(w)])[0][0]
    assert ratio < 1.0


def test_empty_band_contraction_and_uniqueness():
    # no eigenvalue at or below omega: the band, and with it the sweep's
    # iteration matrix, has no dimension to contract or determine
    basis = glm.SpectralBasis(eigenvalues=[1.0, 2.0], eigenvectors=np.eye(2))
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    op = glm.BandOperator(basis, 0.5, p)
    assert op.ub.shape == (2, 0)
    assert op.contractions([op.gain(w)]) == [(0.0, 0.0)]
    # the measurement map has no column, so it is trivially of full rank
    assert op.measurement_matrix(w).shape == (1, 0)


def test_contractions_stack_every_gain_bit_for_bit(rgg300, rgg300_sets3):
    _, basis = rgg300
    partition, _, omega, _ = rgg300_sets3
    op = glm.BandOperator(basis, omega, partition)
    rngs = [np.random.default_rng(t) for t in range(5)]
    gains = [op.gain(glm.make_weights("uniform", partition)),
             op.gain(glm.draw_weights("random", partition, rngs)),
             op.gain(glm.draw_weights("dirac", partition, rngs[:2]))]
    eye = np.eye(gains[0].shape[-1])
    # the oracle: one LAPACK call per matrix
    want = [(max(np.linalg.norm(eye - m, 2) for m in g.reshape(-1, *eye.shape)),
             max(np.abs(np.linalg.eigvals(eye - m)).max()
                 for m in g.reshape(-1, *eye.shape)))
            for g in gains]
    assert op.contractions(gains) == want
    assert op.contractions([gains[1]]) == [want[1]]
