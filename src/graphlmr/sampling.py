"""Weighted local measurements of graph signals.

Each local set carries a weight vector supported on its members, normalized
to sum 1; a measurement of a signal is the weighted average over each set.
Five weight schemes are provided, two of which use a per-vertex noise model
to minimize the variance of the measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .localsets import Partition

__all__ = [
    "WEIGHT_SCHEMES",
    "NoiseModel",
    "LocalWeights",
    "make_weights",
    "draw_weights",
    "measure",
    "equivalent_noise_sigma",
]

WEIGHT_SCHEMES = ("uniform", "random", "dirac", "optimal", "optimal_dirac")
# schemes whose weights are redrawn every trial, and those that need noise
_PER_TRIAL = ("random", "dirac")
_NEEDS_NOISE = ("optimal", "optimal_dirac")


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Independent zero-mean Gaussian noise with per-vertex deviation sigma(v)."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=np.float64).copy()
        if sig.ndim != 1:
            raise ValueError("sigma must be a 1-d array")
        if np.any(sig < 0) or not np.all(np.isfinite(sig)):
            raise ValueError("sigma values must be finite and nonnegative")
        sig.flags.writeable = False
        object.__setattr__(self, "sigma", sig)

    @staticmethod
    def iid(n_vertices: int, sigma: float) -> "NoiseModel":
        return NoiseModel(sigma=np.full(n_vertices, float(sigma)))


@dataclass(frozen=True, eq=False)
class LocalWeights:
    """Convex weights for every set, ``flat`` in partition member order;
    ``values[i][j]``, a view of it, weights the ``j``-th member of set ``i``.

    The constructor copies ``flat``, renormalizes every set to sum 1 and
    rejects negative entries or all-zero sets; sets already summing to 1
    pass through bitwise so round-trips are exact.
    """

    partition: Partition
    flat: np.ndarray

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        verts = self.partition.vertices
        if flat.shape != verts.shape:
            raise ValueError(f"expected {verts.size} weights, got shape {flat.shape}")
        flat = _normalize(self.partition, flat.copy())
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @cached_property
    def values(self) -> tuple[np.ndarray, ...]:
        """One read-only view of the flat array per set."""
        starts, sizes = self.partition.set_starts(), self.partition.sizes()
        return tuple(self.flat[a:a + m] for a, m in zip(starts, sizes))


def _normalize(partition: Partition, flat: np.ndarray) -> np.ndarray:
    """Scale each set's weights to sum 1, in place: one vector (|V|,) or one
    per trial (T, |V|), in partition member order.

    Rejects negative or non-finite entries and sets summing to zero.  Sets
    already summing to 1 are left as they are, so they pass bitwise.
    """
    _, ids = partition.member_arrays()
    bad = (flat < 0) | ~np.isfinite(flat)
    if bad.any():
        i = ids[np.nonzero(bad)[-1][0]]
        raise ValueError(f"set {i}: weights must be finite and >= 0")
    totals = partition.sum_by_set(flat.T).T
    if (totals <= 0).any():
        raise ValueError(f"set {np.nonzero(totals <= 0)[-1][0]}: weights sum to zero")
    scale = np.where(np.abs(totals - 1.0) > 1e-12, totals, 1.0)
    if (scale != 1.0).any():
        flat /= scale[..., ids]
    return flat


def _draw(
    scheme: str, partition: Partition, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Raw ``random`` or ``dirac`` weights, (T, |V|): row t takes one
    ``random(|V|)`` or ``integers(sizes)`` call on ``rngs[t]``."""
    sizes, starts = partition.sizes(), partition.set_starts()
    w = np.zeros((len(rngs), partition.vertices.size))
    if scheme == "random":
        for t, rng in enumerate(rngs):
            w[t] = rng.random(w.shape[1])
    elif rngs:
        picks = np.array([rng.integers(sizes) for rng in rngs])
        w[np.arange(len(rngs))[:, None], starts + picks] = 1.0
    return w


def make_weights(
    scheme: str,
    partition: Partition,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> LocalWeights:
    """Build weight vectors for every set under a named scheme.

    - ``uniform``: 1/|N| on every member.
    - ``random``: iid U(0, 1) entries, renormalized (requires ``rng``).
    - ``dirac``: all mass on one uniformly chosen member (requires ``rng``).
    - ``optimal``: inverse-variance weights sigma^-2(v) / sum sigma^-2,
      minimizing the measurement-noise variance (requires ``noise`` with
      strictly positive sigma everywhere).
    - ``optimal_dirac``: all mass on the member with smallest sigma, ties to
      the lowest vertex index (requires ``noise``, same positivity rule).

    The draws equal one ``rng.random(|V|)`` or ``rng.integers(sizes)`` call;
    a ``random`` set whose draws sum to zero raises rather than being redrawn.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; valid: {', '.join(WEIGHT_SCHEMES)}"
        )
    if scheme in _PER_TRIAL:
        if rng is None:
            raise ValueError(f"scheme {scheme!r} requires an rng")
        return LocalWeights(partition, _draw(scheme, partition, [rng])[0])
    if scheme in _NEEDS_NOISE:
        if noise is None:
            raise ValueError(f"scheme {scheme!r} requires a noise model")
        if np.any(noise.sigma <= 0):
            raise ValueError(
                f"scheme {scheme!r} requires sigma(v) > 0 on all vertices"
            )
    verts, ids = partition.member_arrays()
    if scheme == "uniform":
        w = (1.0 / partition.sizes())[ids]
    elif scheme == "optimal":
        w = 1.0 / partition.gather(noise.sigma, "noise model") ** 2
    else:  # optimal_dirac; ties go to the lowest vertex index, not position
        sigma = partition.gather(noise.sigma, "noise model")
        w = np.zeros(verts.size)
        w[np.lexsort((verts, sigma, ids))[partition.set_starts()]] = 1.0
    return LocalWeights(partition, w)


def draw_weights(
    scheme: str, partition: Partition, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """``random`` or ``dirac`` weights for many trials, (T, |V|) in member order.

    Row t equals ``make_weights(scheme, partition, rng=rngs[t]).flat``
    bit for bit and leaves ``rngs[t]`` in the same state; only the draws run
    per trial, the normalization is one pass over the block.  A ``random``
    set whose draws sum to zero raises rather than being redrawn.
    """
    if scheme not in _PER_TRIAL:
        raise ValueError(f"draw_weights takes 'random' or 'dirac', not {scheme!r}")
    return _normalize(partition, _draw(scheme, partition, rngs))


def measure(signal: np.ndarray, weights: LocalWeights) -> np.ndarray:
    """Weighted average of the signal over each set: m_i = <signal, phi_i>.

    ``signal`` is one vertex signal (n,) or a block of them (n, T), which
    gives (n_sets, T).  With dirac weights this reduces to plain decimation,
    exactly (each sum has a single term).
    """
    f = np.asarray(signal, dtype=np.float64)
    w = weights.flat.reshape((-1,) + (1,) * (f.ndim - 1))
    return weights.partition.sum_by_set(weights.partition.gather(f, "signal") * w)


def equivalent_noise_sigma(weights: LocalWeights, noise: NoiseModel) -> np.ndarray:
    """Standard deviation sigma_i of the measurement noise <noise, phi_i> per set.

    The measurement noise n_i = <n, phi_i> is zero-mean Gaussian with
    variance sigma_i^2 = sum_v sigma^2(v) phi_i^2(v).
    """
    partition = weights.partition
    # hypot never squares, so sigma beyond 1e+-154 neither under- nor overflows
    return np.hypot.reduceat(
        partition.gather(noise.sigma, "noise model") * weights.flat,
        partition.set_starts(),
    )
