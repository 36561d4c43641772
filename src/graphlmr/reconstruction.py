"""Iterative reconstruction of bandlimited signals from local measurements.

The engine behind :func:`ilmr` and :func:`ilsr` is one fixed-point iteration.
Writing P for the bandlimiting projector and G for the "measure, spread back
over the sets, project" operator

    G f = P( sum_i <f, phi_i> delta_{N_i} ),

a bandlimited f satisfies ||f - G f|| <= gamma ||f|| with
gamma = C_max sqrt(omega), so when gamma < 1 the iteration

    f(0)    = P( sum_i m_i delta_{N_i} )
    f(k+1)  = f(k) + P( sum_i (m_i - <f(k), phi_i>) delta_{N_i} )

contracts toward the unique bandlimited signal consistent with the
measurements m_i.  It reads f only through them (:func:`measure`) and runs
on the band coefficients (:class:`BandOperator`).  Decimation (one sampled
vertex per set) is the same loop with dirac weights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .localsets import Partition
from .sampling import LocalWeights, make_weights, measure
from .spectral import SpectralBasis

__all__ = [
    "BandOperator",
    "ReconstructionConfig",
    "ReconstructionRun",
    "ilmr",
    "ilsr",
]

_TINY = 1e-300  # guards the relative-increment test when the iterate is zero


@dataclass(frozen=True, eq=False)
class ReconstructionConfig:
    """Knobs for the iteration.

    ``stop_tolerance`` compares the increment norm against the previous
    iterate's norm; 0 disables early stopping.  ``track_truth``, when given,
    records ||f(k) - truth|| after every iteration (index 0 is the initial
    estimate), which costs one norm of a k-vector per iteration.
    """

    omega: float
    max_iterations: int = 500
    stop_tolerance: float = 1e-10
    track_truth: np.ndarray | None = None

    def __post_init__(self):
        # "not x >= 0" so that NaN fails too
        if not self.omega >= 0:
            raise ValueError("omega must be nonnegative")
        if operator.index(self.max_iterations) < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not self.stop_tolerance >= 0:
            raise ValueError("stop_tolerance must be nonnegative")


@dataclass(frozen=True, eq=False)
class ReconstructionRun:
    """Result of a reconstruction.

    ``increment_trace[k]`` is the correction norm applied at iteration k
    (entry 0 is ||f(0)||); ``error_trace`` aligns with it when truth was
    tracked, else ``None``.  ``gamma`` is the a-priori contraction factor
    when the caller supplied the constant to compute it, else ``None``; a
    gamma >= 1 gives no a-priori guarantee.
    ``stop_reason`` is ``"converged"`` or ``"max_iterations"``.
    """

    estimate: np.ndarray
    iterations_used: int
    increment_trace: np.ndarray
    error_trace: np.ndarray | None
    gamma: float | None
    stop_reason: str


def _column_sq(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.add.reduce(x * x, axis=0, out=out)


class Sweeps(NamedTuple):
    """:meth:`BandOperator.iterate` output; the traces hold one row per iterate."""

    coefficients: np.ndarray
    increments: np.ndarray
    errors: np.ndarray | None
    stop_reason: str


class BandOperator:
    """The ILMR iteration on band coefficients, for one (basis, omega, partition).

    It consumes the measurements m (:func:`measure`), never a signal.  With
    f(k) = U_b c(k), U_b the n x k band eigenvectors, each sweep is
    c(k+1) = c(k) + B^T (m - A c(k)) from c(0) = B^T m.  B^T = U_b^T S
    (``bt``, k x |I|, S spreads set values over members) is weight-free and
    A = Phi U_b (:meth:`measurement_matrix`, |I| x k); both are per-set sums
    of the band rows gathered in member order, never dense Phi or S.  The
    sweeps run as c(k+1) = c(k) + r - M c(k) on the k x k gain M = B^T A
    (:meth:`gain`) and r = B^T m, so a sweep costs O(k^2) per column.
    """

    def __init__(self, basis: SpectralBasis, omega: float, partition: Partition):
        self.partition = partition
        self.ub = basis.band_vectors(omega)
        self._rows = partition.gather(self.ub, "basis")
        self.bt = partition.sum_by_set(self._rows).T
        # row j: the column of B^T for member j's set
        self._spread = self.bt.T[partition.member_arrays()[1]]

    def _flat(self, weights: LocalWeights) -> np.ndarray:
        if weights.partition != self.partition:
            raise ValueError("weights belong to a different partition")
        return weights.flat

    def measurement_matrix(self, weights: LocalWeights) -> np.ndarray:
        """A = Phi U_b: the measurements of each band eigenvector, (|I|, k),
        for one weight vector per set; a (T, |V|) block raises."""
        if self._flat(weights).ndim != 1:
            raise ValueError(f"measurement_matrix takes one weight vector per "
                             f"set, not a block of shape {weights.flat.shape}")
        return measure(self.ub, weights)

    def gain(self, weights: LocalWeights) -> np.ndarray:
        """M = B^T A, (k, k), or (T, k, k) for a (T, |V|) block of per-trial
        weights (:func:`draw_weights`).

        M[a, b] sums spread[j, a] w[j] rows[j, b] over the members j.  A block
        is built one row a at a time, so no (T, |V|, k) array is formed.  The
        product is fused rather than B^T A with A from :func:`measure`, as
        per-trial gains through A cost about 12x as much.
        """
        w = self._flat(weights)
        if w.ndim == 1:
            return self._spread.T @ (w[:, None] * self._rows)
        k = self.ub.shape[1]
        gain = np.empty((w.shape[0], k, k))
        for a, spread in enumerate(self._spread.T):
            gain[:, a] = w @ (spread[:, None] * self._rows)
        return gain

    @staticmethod
    def contractions(gains: Sequence[np.ndarray]) -> list[tuple[float, float]]:
        """The spectral norm and the spectral radius of the sweep's iteration
        matrix I - M for each (k, k) or (T, k, k) gain, each the largest over
        trials for a (T, k, k) one.

        The norm bounds the error decay of every sweep; the radius is its
        asymptotic rate, and the iteration diverges when it is >= 1.  One svd
        and one eigvals call cover all gains stacked (LAPACK still runs per
        matrix, so each result is what a call on that gain alone gives).
        """
        k = gains[0].shape[-1]
        if k == 0:
            return [(0.0, 0.0)] * len(gains)
        blocks = [g.reshape(-1, k, k) for g in gains]
        it = np.eye(k) - np.concatenate(blocks)
        norm = np.linalg.svd(it, compute_uv=False)[:, 0]  # descending
        radius = np.abs(np.linalg.eigvals(it)).max(axis=-1)
        ends = np.cumsum([len(b) for b in blocks]).tolist()
        return [(float(norm[a:b].max()), float(radius[a:b].max()))
                for a, b in zip([0] + ends, ends)]

    def iterate(
        self, gain: np.ndarray, m: np.ndarray, sweeps: int,
        stop_tolerance: float = 0.0, truth: np.ndarray | None = None,
    ) -> Sweeps:
        """Run up to ``sweeps`` sweeps from the measurements ``m`` (|I|, T).

        ``gain`` is M for every column, (k, k), or one per column, (T, k, k).
        With ``stop_tolerance`` > 0 the loop stops once every increment is at
        most that fraction of its column's previous norm.  ``truth`` (n, T)
        adds ||f(k) - truth|| = sqrt(||c(k) - U_b^T truth||^2 + offband).
        """
        (k, sets), trials = self.bt.shape, m.shape[1:]
        if m.ndim != 2 or len(m) != sets or gain.shape not in ((k, k), trials + (k, k)):
            raise ValueError(f"expected |I| = {sets} rows of measurements, one column "
                             f"per trial T, and a ({k}, {k}) or (T, {k}, {k}) gain; "
                             f"got {m.shape} and {gain.shape}")
        if truth is not None:
            truth_c = self.ub.T @ truth
            offband = _column_sq(truth - self.ub @ truth_c)
        c = r = self.bt @ m
        # squared norms, one row per iterate, rooted in place at the end
        increments = np.empty((sweeps + 1, c.shape[1]))
        errors = np.empty_like(increments) if truth is not None else None
        norm = np.sqrt(_column_sq(c, out=increments[0]))
        if truth is not None:
            _column_sq(c - truth_c, out=errors[0])
            errors[0] += offband
        stop_reason, used = "max_iterations", sweeps
        for i in range(1, sweeps + 1):
            mc = gain @ c if gain.ndim == 2 else (gain @ c.T[:, :, None])[..., 0].T
            delta = r - mc
            c = c + delta
            _column_sq(delta, out=increments[i])
            if errors is not None:
                _column_sq(c - truth_c, out=errors[i])
                errors[i] += offband
            if stop_tolerance > 0:
                prev, norm = norm, np.sqrt(_column_sq(c))
                step = np.sqrt(increments[i])
                if (step <= stop_tolerance * np.maximum(prev, _TINY)).all():
                    stop_reason, used = "converged", i
                    break
        increments = np.sqrt(increments[: used + 1], out=increments[: used + 1])
        if errors is not None:
            errors = np.sqrt(errors[: used + 1], out=errors[: used + 1])
        return Sweeps(c, increments, errors, stop_reason)


def _check_length(x: np.ndarray, n: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    return arr


def ilmr(
    measurements: np.ndarray,
    partition: Partition,
    weights: LocalWeights,
    basis: SpectralBasis,
    config: ReconstructionConfig,
    c_max: float | None = None,
) -> ReconstructionRun:
    """Reconstruct from weighted local measurements.

    ``measurements[i]`` is the observed <f, phi_i> for set i.  When ``c_max``
    (the partition's max sqrt(|N| D) score) is supplied, the run reports the
    a-priori contraction factor gamma = c_max * sqrt(omega); the iteration
    itself runs whatever gamma is.
    """
    m = np.asarray(measurements, dtype=np.float64)
    if m.shape != (partition.n_sets,):
        raise ValueError(
            f"expected {partition.n_sets} measurements, got shape {m.shape}"
        )
    op = BandOperator(basis, config.omega, partition)
    truth = config.track_truth
    if truth is not None:
        truth = _check_length(truth, basis.n, "track_truth")[:, None]
    out = op.iterate(
        op.gain(weights), m[:, None], config.max_iterations,
        config.stop_tolerance, truth,
    )
    gamma = c_max * math.sqrt(config.omega) if c_max is not None else None
    return ReconstructionRun(
        estimate=op.ub @ out.coefficients[:, 0],
        iterations_used=out.increments.shape[0] - 1,
        increment_trace=out.increments[:, 0],
        error_trace=out.errors[:, 0] if out.errors is not None else None,
        gamma=gamma,
        stop_reason=out.stop_reason,
    )


def ilsr(
    decimated: np.ndarray,
    sample_set: Sequence[int],
    basis: SpectralBasis,
    config: ReconstructionConfig,
) -> ReconstructionRun:
    """Reconstruct from plain vertex samples f(u), u in ``sample_set``.

    Runs the same iteration with singleton sets and dirac weights; no
    a-priori rate is reported (the sampled set need not cover the graph, so
    the sqrt(|N| D) score does not apply).
    """
    samples = list(map(operator.index, sample_set))
    if len(set(samples)) != len(samples):
        raise ValueError("sample_set contains repeated vertices")
    if any(not 0 <= u < basis.n for u in samples):
        raise ValueError(f"sample vertex out of range for {basis.n} vertices")
    partition = Partition(sets=tuple((u,) for u in samples))
    weights = make_weights("uniform", partition)  # single member: weight 1
    return ilmr(decimated, partition, weights, basis, config)
