import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import LocalWeights, NoiseModel, Partition
from oracles import to_matrix


@pytest.fixture()
def pair_partition():
    return Partition(sets=((0, 1), (2, 3)))


def test_uniform_weights(pair_partition):
    w = glm.make_weights("uniform", pair_partition)
    for vec in w.values:
        assert np.allclose(vec, 0.5, rtol=0, atol=1e-15)


def test_random_weights_normalized(pair_partition):
    w = glm.make_weights("random", pair_partition, rng=np.random.default_rng(0))
    for vec in w.values:
        assert np.all(vec >= 0) and vec.sum() == pytest.approx(1.0, abs=1e-12)
    again = glm.make_weights("random", pair_partition, rng=np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(w.values, again.values))


def test_dirac_weights_one_hot(pair_partition):
    w = glm.make_weights("dirac", pair_partition, rng=np.random.default_rng(1))
    for vec in w.values:
        assert sorted(vec) == [0.0, 1.0]


def test_rng_required():
    p = Partition(sets=((0, 1),))
    for scheme in ("random", "dirac"):
        with pytest.raises(ValueError, match="rng"):
            glm.make_weights(scheme, p)


def test_optimal_weights_inverse_variance():
    p = Partition(sets=((0, 1),))
    noise = NoiseModel(sigma=np.array([1.0, 2.0]))  # variances 1 and 4
    w = glm.make_weights("optimal", p, noise=noise)
    assert np.allclose(w.values[0], [0.8, 0.2], rtol=0, atol=1e-15)


def test_optimal_requires_positive_noise():
    p = Partition(sets=((0, 1),))
    with pytest.raises(ValueError, match="noise model"):
        glm.make_weights("optimal", p)
    zero = NoiseModel(sigma=np.array([1.0, 0.0]))
    for scheme in ("optimal", "optimal_dirac"):
        with pytest.raises(ValueError, match="sigma"):
            glm.make_weights(scheme, p, noise=zero)


def test_optimal_dirac_picks_min_sigma():
    p = Partition(sets=((0, 1, 2),))
    noise = NoiseModel(sigma=np.array([3.0, 1.0, 2.0]))
    w = glm.make_weights("optimal_dirac", p, noise=noise)
    assert np.array_equal(w.values[0], [0.0, 1.0, 0.0])


def test_optimal_dirac_tie_breaks_to_lowest_vertex():
    # member order deliberately scrambled; sigma equal everywhere
    p = Partition(sets=((2, 0, 1),))
    noise = NoiseModel(sigma=np.ones(3))
    w = glm.make_weights("optimal_dirac", p, noise=noise)
    assert np.array_equal(w.values[0], [0.0, 1.0, 0.0])  # vertex 0 wins


@pytest.mark.parametrize("scheme", ["optimal", "optimal_dirac"])
def test_optimal_weights_reject_members_outside_the_noise_model(scheme):
    # member -1 would read the last vertex's sigma, member 3 past the end
    noise = NoiseModel(sigma=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="negative vertex -1"):
        glm.make_weights(scheme, Partition(sets=((0, -1),)), noise=noise)
    with pytest.raises(ValueError, match="noise model shorter"):
        glm.make_weights(scheme, Partition(sets=((0, 3),)), noise=noise)


def test_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        glm.make_weights("best", Partition(sets=((0,),)))


def test_weights_renormalize_and_validate(pair_partition):
    flat = np.array([2.0, 2.0, 1.0, 3.0])
    w = LocalWeights(pair_partition, flat)
    assert np.array_equal(w.flat, [0.5, 0.5, 0.25, 0.75])
    assert flat[0] == 2.0  # the input is not normalized in place
    assert np.array_equal(w.values[0], [0.5, 0.5])
    assert np.array_equal(w.values[1], [0.25, 0.75])
    for vec in w.values:  # per-set views of the one stored array
        assert np.shares_memory(vec, w.flat) and not vec.flags.writeable
    with pytest.raises(ValueError, match="set 0: weights must be finite and >= 0"):
        LocalWeights(pair_partition, np.array([1.0, -0.1, 1.0, 1.0]))
    with pytest.raises(ValueError, match="set 1: weights must be finite"):
        LocalWeights(pair_partition, np.array([1.0, 1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="set 0: weights sum to zero"):
        LocalWeights(pair_partition, np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="set 1: weights sum to zero"):
        LocalWeights(pair_partition, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="expected 4 weights"):
        LocalWeights(pair_partition, np.ones(3))
    # one vector per set is not a form the constructor takes
    with pytest.raises(ValueError, match=r"expected 4 weights, got shape \(2, 2\)"):
        LocalWeights(pair_partition, (np.ones(2), np.ones(2)))


def test_weights_round_trip_bitwise(pair_partition):
    w = glm.make_weights("random", pair_partition, rng=np.random.default_rng(9))
    for back in (LocalWeights(pair_partition, w.flat),
                 LocalWeights(pair_partition, np.concatenate(w.values))):
        assert np.array_equal(back.flat, w.flat)


def test_weights_summing_to_one_pass_unscaled():
    # within 1e-12 of 1 a vector is kept as given; further off it is rescaled
    near = np.array([0.1, 0.2, 0.7])
    p = Partition(sets=((0, 1, 2),))
    assert LocalWeights(p, near).flat.tolist() == near.tolist()
    far = LocalWeights(p, near * 2).flat
    assert far.sum() == pytest.approx(1.0, abs=1e-15)


def test_weights_may_leave_members_out(pair_partition):
    # a zero weight drops its member from the set's measurement
    w = LocalWeights(pair_partition, np.array([0.0, 1.0, 0.5, 0.5]))
    assert to_matrix(w, 4).tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
    assert glm.measure(np.array([5.0, 7.0, 1.0, 3.0]), w).tolist() == [7.0, 2.0]


def test_weights_reject_infinite_entries(pair_partition):
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="set 1: weights must be finite"):
            LocalWeights(pair_partition, np.array([1.0, 1.0, 1.0, bad]))


def _per_set_weights(scheme, partition, noise=None, rng=None):
    """The per-set loop that make_weights vectorizes; kept as its reference."""
    values = []
    for s in partition.sets:
        m = len(s)
        if scheme == "uniform":
            w = np.full(m, 1.0 / m)
        elif scheme == "random":
            w = rng.random(m)
            while w.sum() == 0.0:
                w = rng.random(m)
        elif scheme == "dirac":
            w = np.zeros(m)
            w[rng.integers(m)] = 1.0
        elif scheme == "optimal":
            w = 1.0 / noise.sigma[np.asarray(s)] ** 2
        else:
            sig = noise.sigma[np.asarray(s)]
            pick = min((v, j) for j, v in enumerate(s) if sig[j] == sig.min())[1]
            w = np.zeros(m)
            w[pick] = 1.0
        values.append(w)
    return LocalWeights(partition, np.concatenate(values))


@st.composite
def _partitions_with_noise(draw):
    """Shuffled member order, sets of 1 to 8 vertices, sigma drawn from three
    values so ties within a set are common."""
    n = draw(st.integers(min_value=1, max_value=40))
    order = draw(st.permutations(range(n)))
    sets = []
    while order:
        m = draw(st.integers(min_value=1, max_value=min(8, len(order))))
        sets.append(tuple(order[:m]))
        order = order[m:]
    sigma = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n))
    return Partition(sets=tuple(sets)), NoiseModel(sigma=np.array(sigma))


@given(case=_partitions_with_noise(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_make_weights_matches_per_set_loop(case, seed):
    partition, noise = case
    for scheme in glm.WEIGHT_SCHEMES:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = glm.make_weights(scheme, partition, noise=noise, rng=rng)
        want = _per_set_weights(scheme, partition, noise=noise, rng=ref_rng)
        assert np.array_equal(got.flat, want.flat), scheme
        assert all(np.array_equal(a, b) for a, b in zip(got.values, want.values))
        assert rng.random() == ref_rng.random(), scheme  # same generator state


def test_random_weights_raise_on_zero_sum_set():
    class ZeroSecondSet:
        def __init__(self):
            self.sizes = []

        def random(self, size):
            self.sizes.append(size)
            return np.array([0.25, 0.75, 0.0]) if len(self.sizes) == 1 else np.ones(size)

    rng = ZeroSecondSet()
    with pytest.raises(ValueError, match="set 1: weights sum to zero"):
        glm.make_weights("random", Partition(sets=((0, 1), (2,))), rng=rng)
    assert rng.sizes == [3]  # no redraw


def test_weights_matrix(pair_partition):
    w = glm.make_weights("uniform", pair_partition)
    mat = to_matrix(w, 5)
    expected = np.array(
        [[0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5, 0.0]]
    )
    assert np.array_equal(mat, expected)


def test_weights_matrix_rejects_members_outside_it():
    # member -1 would land in the last column, member 2 past the end
    w = glm.make_weights("uniform", Partition(sets=((0, -1),)))
    with pytest.raises(ValueError, match="negative vertex -1"):
        to_matrix(w, 3)
    w = glm.make_weights("uniform", Partition(sets=((0, 2),)))
    with pytest.raises(ValueError, match="matrix shorter"):
        to_matrix(w, 2)
    assert to_matrix(w, 3).tolist() == [[0.5, 0.0, 0.5]]


def test_measure_uniform_average():
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    m = glm.measure(np.array([1.0, 3.0]), w)
    assert np.allclose(m, [2.0], rtol=0, atol=1e-15)


def test_measure_block_matches_columns(pair_partition):
    w = glm.make_weights("random", pair_partition, rng=np.random.default_rng(4))
    block = np.random.default_rng(5).standard_normal((5, 3))
    m = glm.measure(block, w)
    assert m.shape == (2, 3)
    for t in range(3):
        assert np.array_equal(m[:, t], glm.measure(block[:, t], w))


def test_measure_rejects_short_signal(pair_partition):
    w = glm.make_weights("uniform", pair_partition)
    with pytest.raises(ValueError, match="shorter"):
        glm.measure(np.zeros(3), w)


def test_measure_rejects_0d_signal(pair_partition):
    w = glm.make_weights("uniform", pair_partition)
    for signal in (np.float64(1.0), np.array(1.0)):
        with pytest.raises(ValueError, match=r"^signal must have a vertex axis"):
            glm.measure(signal, w)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_measure_dirac_is_exact_decimation(seed):
    # single-entry sums must reproduce the signal values bit for bit
    rng = np.random.default_rng(seed)
    p = Partition(sets=((0, 1, 2), (3, 4), (5,)))
    w = glm.make_weights("dirac", p, rng=rng)
    f = rng.standard_normal(6)
    m = glm.measure(f, w)
    for i, (s, vec) in enumerate(zip(p.sets, w.values)):
        chosen = s[int(np.argmax(vec))]
        assert m[i] == f[chosen]


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_measure_is_linear(seed):
    rng = np.random.default_rng(seed)
    p = Partition(sets=((0, 2), (1, 3, 4)))
    w = glm.make_weights("random", p, rng=rng)
    f, g = rng.standard_normal(5), rng.standard_normal(5)
    a, b = rng.standard_normal(2)
    lhs = glm.measure(a * f + b * g, w)
    rhs = a * glm.measure(f, w) + b * glm.measure(g, w)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_equivalent_noise_uniform_pair():
    p = Partition(sets=((0, 1),))
    w = glm.make_weights("uniform", p)
    noise = NoiseModel(sigma=np.array([1.0, 2.0]))
    sigma = glm.equivalent_noise_sigma(w, noise)
    # 0.25 * 1 + 0.25 * 4 = 1.25
    assert sigma.shape == (1,)
    assert sigma[0] == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_equivalent_noise_optimal_formula():
    # inverse-variance weights achieve sigma_i^2 = 1 / sum(1 / sigma^2)
    p = Partition(sets=((0, 1),))
    noise = NoiseModel(sigma=np.array([1.0, 2.0]))
    w = glm.make_weights("optimal", p, noise=noise)
    sigma = glm.equivalent_noise_sigma(w, noise)
    assert sigma[0] ** 2 == pytest.approx(0.8, abs=1e-15)


def test_optimal_beats_random_simplex_weights():
    rng = np.random.default_rng(2)
    p = Partition(sets=((0, 1, 2, 3),))
    noise = NoiseModel(sigma=rng.uniform(0.5, 3.0, size=4))
    best = glm.equivalent_noise_sigma(
        glm.make_weights("optimal", p, noise=noise), noise
    )[0]
    for _ in range(200):
        w = LocalWeights(p, rng.dirichlet(np.ones(4)))
        assert glm.equivalent_noise_sigma(w, noise)[0] >= best - 1e-12


def test_noise_model_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        NoiseModel(sigma=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="1-d"):
        NoiseModel(sigma=np.ones((2, 2)))
    m = NoiseModel.iid(5, 0.3)
    assert m.sigma.size == 5 and np.allclose(m.sigma, 0.3, rtol=0, atol=1e-15)


# set sizes past 8, where a pairwise sum would reorder the totals
BLOCK_PARTITION = Partition(
    sets=(tuple(range(12)), (12,), (13, 14), tuple(range(15, 40))))


@pytest.mark.parametrize("scheme", ["random", "dirac"])
def test_draw_weights_matches_make_weights_bitwise(scheme):
    rngs = [np.random.default_rng([4, t]) for t in range(6)]
    block = glm.draw_weights(scheme, BLOCK_PARTITION, rngs)
    assert block.partition is BLOCK_PARTITION and block.flat.shape == (6, 40)
    for t, rng in enumerate(rngs):
        single = np.random.default_rng([4, t])
        want = glm.make_weights(scheme, BLOCK_PARTITION, rng=single).flat
        assert np.array_equal(block.flat[t], want)
        assert rng.bit_generator.state == single.bit_generator.state


def test_draw_weights_raise_on_zero_sum_set():
    class Scripted:
        """Hands out scripted draws, then ones; records the sizes asked for."""

        def __init__(self, *draws):
            self.draws, self.sizes = list(draws), []

        def random(self, size):
            self.sizes.append(size)
            return np.array(self.draws.pop(0)) if self.draws else np.ones(size)

    partition = Partition(sets=((0, 1), (2,)))
    scripts = [([0.25, 0.75, 0.5],), ([0.0, 0.0, 0.5],), ([0.5, 0.5, 0.5],)]
    rngs = [Scripted(*draws) for draws in scripts]
    with pytest.raises(ValueError, match="set 0: weights sum to zero"):
        glm.draw_weights("random", partition, rngs)
    assert [r.sizes for r in rngs] == [[3], [3], [3]]  # no redraw
    # without the zero-sum trial, each row is still make_weights' draw
    kept = [scripts[0], scripts[2]]
    block = glm.draw_weights("random", partition, [Scripted(*d) for d in kept])
    for row, draws in zip(block.flat, kept):
        want = glm.make_weights("random", partition, rng=Scripted(*draws))
        assert np.array_equal(row, want.flat)


def test_draw_weights_rejects_fixed_schemes():
    with pytest.raises(ValueError, match="'random' or 'dirac'"):
        glm.draw_weights("uniform", BLOCK_PARTITION, [np.random.default_rng(0)])


def test_a_block_of_weights_needs_a_row():
    # an empty block would reach BandOperator.contractions, which cannot
    # take the largest factor over no trials
    message = r"^expected 40 weights, got shape \(0, 40\) \(one vector, or a block"
    with pytest.raises(ValueError, match=message):
        LocalWeights(BLOCK_PARTITION, np.ones((0, 40)))
    for scheme in ("random", "dirac"):
        with pytest.raises(ValueError, match=message):
            glm.draw_weights(scheme, BLOCK_PARTITION, [])


def test_block_values_slice_the_member_axis():
    rngs = [np.random.default_rng([5, t]) for t in range(3)]
    block = glm.draw_weights("random", BLOCK_PARTITION, rngs)
    for vec, members in zip(block.values, BLOCK_PARTITION.sets):
        assert vec.shape == (3, len(members)) and np.shares_memory(vec, block.flat)
        assert not vec.flags.writeable
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 40\)"):
        LocalWeights(BLOCK_PARTITION, np.ones((2, 3, 40)))


@pytest.mark.parametrize("scheme", ["random", "dirac"])
def test_block_measures_like_its_rows_bitwise(scheme):
    # set sizes past 8: a pairwise sum of a row would reorder its terms
    rngs = [np.random.default_rng([6, t]) for t in range(5)]
    block = glm.draw_weights(scheme, BLOCK_PARTITION, rngs)
    rng = np.random.default_rng(7)
    signals = rng.standard_normal((40, 5))
    noise = NoiseModel(sigma=rng.uniform(0.1, 2.0, size=40))
    m, sigma = glm.measure(signals, block), glm.equivalent_noise_sigma(block, noise)
    assert m.shape == (4, 5) and sigma.shape == (5, 4)
    for t, row in enumerate(block.flat):
        w = LocalWeights(BLOCK_PARTITION, row)
        assert np.array_equal(m[:, t], glm.measure(signals[:, t], w))
        assert np.array_equal(sigma[t], glm.equivalent_noise_sigma(w, noise))


def test_block_measure_needs_one_column_per_row():
    block = glm.draw_weights("dirac", BLOCK_PARTITION, [np.random.default_rng(0)])
    for bad in (np.ones(40), np.ones((40, 2))):
        with pytest.raises(ValueError, match=r"^weights for 1 trials measure an "
                                             r"\(n, 1\) signal, got shape"):
            glm.measure(bad, block)
