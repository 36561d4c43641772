"""The error-bound reports against the closed forms they replaced.

``_oracle_realized_bound`` and ``_oracle_expected_bound`` are the package's
former ``realized_bound`` and ``expected_bound`` functions, with their
``_check_gamma`` helper and half-normal constant, kept unchanged apart from
their names and the ``glm.`` prefix on the package functions they call.
Each writes the bound n_tilde / (1 - gamma) + gamma^(k+1) * envelope out in
full; the expected one also keeps the iid shortcut
|I| sigma sqrt(2/pi) / (1 - gamma).  The package reads every bound off one
report curve: entry k of :func:`graphlmr.realized_report` or
:func:`graphlmr.expected_report`, or its ``asymptotic_bound`` for the
oracle's ``k=None``.  On valid input the two must agree to rounding, and on
input with one invalid argument they must raise the same exception with the
same message, the report naming the oracle's ``k`` ``n_iterations``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import NoiseModel, Partition

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
        uniform = glm.make_weights("uniform", weights.partition).flat
        if not np.allclose(weights.flat, uniform, rtol=0.0, atol=1e-12):
            raise ValueError("iid shortcut requires uniform weights")
        leading = partition.n_sets * float(sig[0]) * _HALF_NORMAL_MEAN / (1.0 - gamma)
    else:
        sigma = glm.equivalent_noise_sigma(weights, noise)
        leading = float(
            np.sqrt(partition.sizes()) @ (sigma * _HALF_NORMAL_MEAN)
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


def _realized_entry(gamma, partition, noises, norm_f, norm_n, k):
    """The oracle's ``realized_bound`` read off the package's report."""
    report = glm.realized_report(gamma, partition, noises, norm_f, norm_n, k)
    return float(report.bound_at_k[k])


def _expected_entry(gamma, weights, noise, k=None, *, norm_f=1.0):
    """The oracle's ``expected_bound`` read off the package's report."""
    report = glm.expected_report(
        gamma, weights, noise, 0 if k is None else k, norm_f=norm_f
    )
    return report.asymptotic_bound if k is None else float(report.bound_at_k[k])


def _renamed(outcome):
    """An oracle outcome with the iteration count named as the report names it."""
    if outcome == (ValueError, "k must be nonnegative"):
        return ValueError, "n_iterations must be nonnegative"
    return outcome


@settings(max_examples=300, deadline=None)
@given(setup=_setups(), gamma=_gammas, k=_ks, norm_f=_norms, norm_n=_norms,
       iid=st.booleans())
def test_reports_match_closed_forms(setup, gamma, k, norm_f, norm_n, iid):
    partition, weights, noise, noises = setup

    report = glm.realized_report(gamma, partition, noises, norm_f, norm_n, k)
    assert report.bound_at_k.shape == (k + 1,)
    _assert_same(
        float(report.bound_at_k[k]),
        _oracle_realized_bound(gamma, partition, noises, norm_f, norm_n, k),
    )
    for j in range(k + 1):
        assert report.bound_at_k[j] == _realized_entry(
            gamma, partition, noises, norm_f, norm_n, j
        )

    rep = glm.expected_report(gamma, weights, noise, k, norm_f=norm_f)
    assert rep.variant == "per-vertex-gaussian"
    for at, new in ((None, rep.asymptotic_bound), (k, float(rep.bound_at_k[k]))):
        _assert_same(new, _oracle_expected_bound(gamma, partition, weights, noise,
                                                 at, norm_f=norm_f))
        if iid:  # the iid closed form, where its preconditions hold
            closed = _outcome(_oracle_expected_bound, gamma, partition, weights,
                              noise, at, norm_f=norm_f, iid_shortcut=True)
            if not isinstance(closed, tuple):
                _assert_same(new, closed)
    assert rep.asymptotic_bound == _expected_entry(
        gamma, weights, noise, norm_f=norm_f
    )
    for j in range(k + 1):
        assert rep.bound_at_k[j] == _expected_entry(
            gamma, weights, noise, j, norm_f=norm_f
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
    n = noise.sigma.size
    if iid:  # start from valid iid input: constant sigma, uniform weights
        noise = NoiseModel.iid(n, 0.1)
        weights = glm.make_weights("uniform", partition)
    # the iid closed form never read sigma per member, so it accepted a short
    # noise model (see the test below)
    broken = data.draw(st.sampled_from(
        ["gamma", "k", "noises"] + ([] if iid else ["short noise model"])
    ))
    if broken == "gamma":
        gamma = data.draw(_bad_gammas)
    elif broken == "k":
        k = data.draw(st.integers(max_value=-1))
    elif broken == "noises":
        length = data.draw(st.integers(0, 8).filter(lambda m: m != partition.n_sets))
        noises = np.zeros(length)
    else:
        noise = NoiseModel(sigma=noise.sigma[: data.draw(st.integers(0, n - 1))])

    outcomes = [(
        _outcome(_realized_entry, gamma, partition, noises, norm_f, 0.0, k),
        _outcome(_oracle_realized_bound, gamma, partition, noises, norm_f, 0.0, k),
    )]
    for at in (None, k):
        outcomes.append((
            _outcome(_expected_entry, gamma, weights, noise, at, norm_f=norm_f),
            _outcome(_oracle_expected_bound, gamma, partition, weights, noise, at,
                     norm_f=norm_f, iid_shortcut=iid),
        ))
    for new, old in outcomes:
        _assert_same(new, _renamed(old))
    assert any(isinstance(old, tuple) for _, old in outcomes), broken


def test_iid_closed_form_needs_noise_on_every_member():
    # the closed-form shortcut never read sigma per member, so it accepted a
    # noise model shorter than the partition; the general formula does not
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    short = NoiseModel.iid(3, 0.1)
    assert _oracle_expected_bound(0.5, p, w, short, iid_shortcut=True) > 0.0
    assert _outcome(glm.expected_report, 0.5, w, short, 0) == (
        ValueError, "noise model shorter than the partition's vertex range"
    )


def test_expected_report_never_squares_sigma():
    # sigma^2 underflows to 0 at 1e-200 and overflows to inf at 1e160
    p = Partition(sets=((0, 1), (2, 3)))
    w = glm.make_weights("uniform", p)
    for sigma in (1e-200, 1e160):
        noise = NoiseModel.iid(4, sigma)
        closed = _oracle_expected_bound(0.5, p, w, noise, iid_shortcut=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = glm.expected_report(0.5, w, noise, 0)
        assert math.isclose(report.asymptotic_bound, closed, rel_tol=1e-12), sigma
        assert math.isfinite(report.bound_at_k[0])
