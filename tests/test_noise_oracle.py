"""The error bounds against the closed forms they replaced.

``_oracle_realized_bound`` and ``_oracle_expected_bound`` are the package's
former implementations of :func:`graphlmr.realized_bound` and
:func:`graphlmr.expected_bound`, with their ``_check_gamma`` helper and
half-normal constant, kept unchanged apart from their names and the
``glm.`` prefix on the package functions they call.  Each writes the bound
n_tilde / (1 - gamma) + gamma^(k+1) * envelope out in full; the expected one
also keeps the iid shortcut |I| sigma sqrt(2/pi) / (1 - gamma).  The package
now reads every bound off one report curve, so on valid input the two must
agree to rounding, and on input with one invalid argument they must raise
the same exception with the same message.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import LocalWeights, NoiseModel, Partition

_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)

# ---------------------------------------------------------------------------
# Oracles: the closed-form bounds


def _check_gamma(gamma):
    if not 0.0 <= gamma < 1.0:
        raise ValueError(
            f"bound requires 0 <= gamma < 1 (it is vacuous otherwise); got {gamma}"
        )


def _oracle_realized_bound(gamma, partition, equivalent_noises, norm_f, norm_n, k):
    _check_gamma(gamma)
    if k < 0:
        raise ValueError("k must be nonnegative")
    nt = glm.noise_tilde(partition, equivalent_noises)
    return nt / (1.0 - gamma) + gamma ** (k + 1) * (norm_f + norm_n)


def _oracle_expected_bound(
    gamma, partition, weights, noise, k=None, *, norm_f=1.0, iid_shortcut=False
):
    _check_gamma(gamma)
    if iid_shortcut:
        sig = noise.sigma
        if sig.size == 0:
            raise ValueError("empty noise model")
        if not np.all(sig == sig[0]):
            raise ValueError("iid shortcut requires constant sigma(v)")
        uniform = glm.make_weights("uniform", weights.partition).flat_values()
        if not np.allclose(weights.flat_values(), uniform, rtol=0.0, atol=1e-12):
            raise ValueError("iid shortcut requires uniform weights")
        leading = partition.n_sets * float(sig[0]) * _HALF_NORMAL_MEAN / (1.0 - gamma)
    else:
        eq = glm.equivalent_noise_sigma(weights, noise)
        leading = float(
            np.sqrt(partition.sizes()) @ eq.expected_abs
        ) / (1.0 - gamma)
    if k is None:
        return leading
    if k < 0:
        raise ValueError("k must be nonnegative")
    expected_norm_n = float(np.sqrt(np.sum(noise.sigma**2)))
    return leading + gamma ** (k + 1) * (norm_f + expected_norm_n)


# ---------------------------------------------------------------------------
# Strategies and comparison

# The oracle's envelope squares sigma(v), which underflows below about
# 1e-154 and overflows above about 1e154 where the package's does not.
# [1e-100, 1e100] keeps the squares normal floats.
_sigmas = st.floats(min_value=1e-100, max_value=1e100)
_gammas = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_ks = st.integers(min_value=0, max_value=200)
_norms = st.floats(min_value=0.0, max_value=1e3)


@st.composite
def _setups(draw, min_set_size=1):
    """(partition, weights, noise, per-set noises) on a shuffled vertex range."""
    sizes = draw(st.lists(st.integers(min_set_size, 5), min_size=1, max_size=6))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    starts = np.cumsum([0] + sizes)
    partition = Partition(
        sets=tuple(tuple(order[a:b]) for a, b in zip(starts[:-1], starts[1:]))
    )
    kind = draw(st.sampled_from(["constant", "varied", "with zeros"]))
    if kind == "constant":
        sigma = np.full(n, draw(st.one_of(st.just(0.0), _sigmas)))
    else:
        entry = _sigmas if kind == "varied" else st.one_of(st.just(0.0), _sigmas)
        sigma = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    scheme = draw(st.sampled_from(["uniform", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = glm.make_weights(scheme, partition, rng=np.random.default_rng(seed))
    noises = np.array(draw(st.lists(
        st.floats(min_value=-1e3, max_value=1e3),
        min_size=len(sizes), max_size=len(sizes),
    )))
    return partition, weights, NoiseModel(sigma=sigma), noises


def _outcome(fn, *args, **kwargs):
    """The value of ``fn(...)``, or the type and message of its ValueError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        assert not isinstance(new, tuple), new
        # subnormal results carry too few bits for a relative comparison
        assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-300), (new, old)


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=300, deadline=None)
@given(setup=_setups(), gamma=_gammas, k=_ks, norm_f=_norms, norm_n=_norms,
       iid=st.booleans())
def test_bounds_and_reports_match_closed_forms(setup, gamma, k, norm_f, norm_n, iid):
    partition, weights, noise, noises = setup

    realized = glm.realized_bound(gamma, partition, noises, norm_f, norm_n, k)
    _assert_same(
        realized, _oracle_realized_bound(gamma, partition, noises, norm_f, norm_n, k)
    )
    report = glm.realized_report(gamma, partition, noises, norm_f, norm_n, k)
    assert report.bound_at_k.shape == (k + 1,)
    for j in range(k + 1):
        assert report.bound_at_k[j] == glm.realized_bound(
            gamma, partition, noises, norm_f, norm_n, j
        )

    kwargs = dict(norm_f=norm_f, iid_shortcut=iid)
    for at in (None, k):
        _assert_same(
            _outcome(glm.expected_bound, gamma, partition, weights, noise, at, **kwargs),
            _outcome(_oracle_expected_bound, gamma, partition, weights, noise, at,
                     **kwargs),
        )
    rep = _outcome(glm.expected_report, gamma, partition, weights, noise, k, **kwargs)
    if isinstance(rep, tuple):
        return  # iid preconditions not met; the message was compared above
    assert rep.variant == ("iid" if iid else "per-vertex-gaussian")
    if iid:  # the shortcut only checks; its curve is the general one
        general = glm.expected_report(gamma, partition, weights, noise, k,
                                      norm_f=norm_f)
        assert np.array_equal(rep.bound_at_k, general.bound_at_k)
    assert rep.asymptotic_bound == glm.expected_bound(
        gamma, partition, weights, noise, **kwargs
    )
    for j in range(k + 1):
        assert rep.bound_at_k[j] == glm.expected_bound(
            gamma, partition, weights, noise, j, **kwargs
        )


_bad_gammas = st.one_of(
    st.sampled_from([1.0, -5e-324, math.inf, math.nan]),
    st.floats().filter(lambda g: not 0.0 <= g < 1.0),
)


@settings(max_examples=200, deadline=None)
@given(setup=_setups(min_set_size=2), gamma=_gammas, k=_ks, norm_f=_norms,
       iid=st.booleans(), data=st.data())
def test_one_invalid_argument_raises_as_the_closed_forms(
    setup, gamma, k, norm_f, iid, data
):
    partition, weights, noise, noises = setup
    n = noise.n
    if iid:  # start from valid iid input: constant sigma, uniform weights
        noise = NoiseModel.iid(n, 0.1)
        weights = glm.make_weights("uniform", partition)
    broken = data.draw(st.sampled_from(
        ["gamma", "k", "noises"]
        + (["empty noise model", "varied sigma", "perturbed weights"] if iid
           else ["short noise model"])
    ))
    if broken == "gamma":
        gamma = data.draw(_bad_gammas)
    elif broken == "k":
        k = data.draw(st.integers(max_value=-1))
    elif broken == "noises":
        length = data.draw(st.integers(0, 8).filter(lambda m: m != partition.n_sets))
        noises = np.zeros(length)
    elif broken == "short noise model":
        noise = NoiseModel(sigma=noise.sigma[: data.draw(st.integers(0, n - 1))])
    elif broken == "empty noise model":
        noise = NoiseModel(sigma=np.zeros(0))
    elif broken == "varied sigma":
        noise = NoiseModel(sigma=0.1 + np.arange(n) * 0.01)
    else:  # every set has two or more members, so its first vector is not uniform
        flat = weights.flat_values().copy()
        flat[0] += data.draw(st.floats(min_value=1e-9, max_value=1.0))
        weights = LocalWeights.from_flat(partition, flat)

    calls = [(glm.realized_bound, _oracle_realized_bound,
              (gamma, partition, noises, norm_f, 0.0, k), {})]
    for at in (None, k):
        calls.append((glm.expected_bound, _oracle_expected_bound,
                      (gamma, partition, weights, noise, at),
                      dict(norm_f=norm_f, iid_shortcut=iid)))
    raised = 0
    for new_fn, old_fn, args, kwargs in calls:
        old = _outcome(old_fn, *args, **kwargs)
        _assert_same(_outcome(new_fn, *args, **kwargs), old)
        raised += isinstance(old, tuple)
    assert raised, broken


def test_iid_shortcut_requires_noise_on_every_member():
    # the closed-form shortcut never read sigma per member, so it accepted a
    # noise model shorter than the partition; the general formula does not
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    short = NoiseModel.iid(3, 0.1)
    assert _oracle_expected_bound(0.5, p, w, short, iid_shortcut=True) > 0.0
    for iid in (False, True):
        assert _outcome(glm.expected_bound, 0.5, p, w, short, iid_shortcut=iid) == (
            ValueError, "noise model shorter than the partition's vertex range"
        )


def test_expected_bound_never_squares_sigma():
    # sigma^2 underflows to 0 at 1e-200 and overflows to inf at 1e160
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    for sigma in (1e-200, 1e160):
        noise = NoiseModel.iid(4, sigma)
        closed = _oracle_expected_bound(0.5, p, w, noise, iid_shortcut=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for iid in (False, True):
                value = glm.expected_bound(0.5, p, w, noise, iid_shortcut=iid)
                assert math.isclose(value, closed, rel_tol=1e-12), (sigma, iid)
                assert math.isfinite(
                    glm.expected_bound(0.5, p, w, noise, 0, iid_shortcut=iid))
