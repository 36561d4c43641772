"""Iterative reconstruction of bandlimited signals from local measurements.

The engine behind all three variants is the same fixed-point iteration.
Writing P for the bandlimiting projector and G for the "measure, spread back
over the sets, project" operator

    G f = P( sum_i <f, phi_i> delta_{N_i} ),

a bandlimited f satisfies ||f - G f|| <= gamma ||f|| with
gamma = C_max sqrt(omega), so when gamma < 1 the iteration

    f(0)    = P( sum_i m_i delta_{N_i} )
    f(k+1)  = f(k) + P( sum_i (m_i - <f(k), phi_i>) delta_{N_i} )

contracts toward the unique bandlimited signal consistent with the
measurements m_i; it runs on the band coefficients (:class:`BandOperator`).
Decimation (one sampled vertex per set) and center-propagation variants are
the same loop with dirac weight vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph import Graph
from .localsets import Partition, partition_metrics
from .sampling import LocalWeights, make_weights, measure
from .spectral import SpectralBasis

__all__ = [
    "BandOperator",
    "ReconstructionConfig",
    "ReconstructionRun",
    "apply_G",
    "ilmr",
    "ilsr",
    "ipr",
    "contraction_ratio",
    "uniqueness_check",
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
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.stop_tolerance < 0:
            raise ValueError("stop_tolerance must be nonnegative")


@dataclass(frozen=True, eq=False)
class ReconstructionRun:
    """Result of a reconstruction.

    ``increment_trace[k]`` is the correction norm applied at iteration k
    (entry 0 is ||f(0)||); ``error_trace`` aligns with it when truth was
    tracked, else ``None``.  ``gamma`` is the a-priori contraction factor
    when the caller supplied the constant to compute it, else ``None``;
    ``gamma_warning`` flags gamma >= 1 (no convergence guarantee).
    ``stop_reason`` is ``"converged"`` or ``"max_iterations"``.
    """

    estimate: np.ndarray
    iterations_used: int
    increment_trace: np.ndarray
    error_trace: np.ndarray | None
    gamma: float | None
    gamma_warning: bool
    stop_reason: str


def _column_sq(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * x, axis=0)


class Sweeps(NamedTuple):
    """:meth:`BandOperator.iterate` output; the traces hold one row per iterate."""

    coefficients: np.ndarray
    increments: np.ndarray
    errors: np.ndarray | None
    stop_reason: str


class BandOperator:
    """The ILMR iteration on band coefficients, for one (basis, omega, partition).

    With f(k) = U_b c(k), U_b the n x k band eigenvectors, each sweep is
    c(k+1) = c(k) + B^T (m - A c(k)) from c(0) = B^T m.  B^T = U_b^T S
    (``bt``, k x |I|, S spreads set values over members) is weight-free and
    A = Phi U_b (:meth:`measurement_matrix`, |I| x k); both are per-set sums
    of the band rows gathered in member order, never dense Phi or S.
    """

    def __init__(self, basis: SpectralBasis, omega: float, partition: Partition):
        partition.check_range(basis.n, "basis")
        self.partition = partition
        self.ub = basis.band_vectors(omega)
        self._rows = self.ub[partition.member_arrays()[0]]
        self.bt = partition.sum_by_set(self._rows).T

    def measurement_matrix(self, weights: LocalWeights) -> np.ndarray:
        """A = Phi U_b: the measurements of each band eigenvector, (|I|, k)."""
        if weights.partition.sets != self.partition.sets:
            raise ValueError("weights belong to a different partition")
        return self.partition.sum_by_set(weights.flat_values()[:, None] * self._rows)

    def iterate(
        self, a: np.ndarray, m: np.ndarray, sweeps: int,
        stop_tolerance: float = 0.0, truth: np.ndarray | None = None,
    ) -> Sweeps:
        """Run up to ``sweeps`` sweeps on the measurement columns ``m`` (|I|, T).

        ``a`` is A for every column, (|I|, k), or one per column, (T, |I|, k).
        With ``stop_tolerance`` > 0 the loop stops once every increment is at
        most that fraction of its column's previous norm.  ``truth`` (n, T)
        adds ||f(k) - truth|| = sqrt(||c(k) - U_b^T truth||^2 + offband).
        """
        c = self.bt @ m
        norm = np.sqrt(_column_sq(c))
        increments, errors = [norm], None
        if truth is not None:
            truth_c = self.ub.T @ truth
            offband = _column_sq(truth - self.ub @ truth_c)
            errors = [np.sqrt(_column_sq(c - truth_c) + offband)]
        stop_reason = "max_iterations"
        for _ in range(sweeps):
            ac = a @ c if a.ndim == 2 else (a @ c.T[:, :, None])[..., 0].T
            delta = self.bt @ (m - ac)
            c = c + delta
            increments.append(np.sqrt(_column_sq(delta)))
            if errors is not None:
                errors.append(np.sqrt(_column_sq(c - truth_c) + offband))
            if stop_tolerance > 0:
                prev, norm = norm, np.sqrt(_column_sq(c))
                if (increments[-1] <= stop_tolerance * np.maximum(prev, _TINY)).all():
                    stop_reason = "converged"
                    break
        errors = np.array(errors) if errors is not None else None
        return Sweeps(c, np.array(increments), errors, stop_reason)


def apply_G(
    basis: SpectralBasis,
    omega: float,
    partition: Partition,
    weights: LocalWeights,
    signal: np.ndarray,
) -> np.ndarray:
    """One application of the interpolation operator G (measure, spread, project)."""
    f = np.asarray(signal, dtype=np.float64)
    if f.shape != (basis.n,):
        raise ValueError(f"signal must have shape ({basis.n},), got {f.shape}")
    op = BandOperator(basis, omega, partition)
    return op.ub @ (op.bt @ measure(f, weights))


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
    a-priori contraction factor gamma = c_max * sqrt(omega) and warns when it
    is >= 1; the iteration itself runs either way.
    """
    m = np.asarray(measurements, dtype=np.float64)
    if m.shape != (partition.n_sets,):
        raise ValueError(
            f"expected {partition.n_sets} measurements, got shape {m.shape}"
        )
    op = BandOperator(basis, config.omega, partition)
    truth = config.track_truth
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64)
        if truth.shape != (basis.n,):
            raise ValueError("track_truth must match the basis size")
        truth = truth[:, None]
    out = op.iterate(
        op.measurement_matrix(weights), m[:, None], config.max_iterations,
        config.stop_tolerance, truth,
    )
    gamma = c_max * math.sqrt(config.omega) if c_max is not None else None
    return ReconstructionRun(
        estimate=op.ub @ out.coefficients[:, 0],
        iterations_used=out.increments.shape[0] - 1,
        increment_trace=out.increments[:, 0],
        error_trace=out.errors[:, 0] if out.errors is not None else None,
        gamma=gamma,
        gamma_warning=(gamma is not None and gamma >= 1.0),
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
    samples = list(int(u) for u in sample_set)
    if len(set(samples)) != len(samples):
        raise ValueError("sample_set contains repeated vertices")
    if any(not 0 <= u < basis.n for u in samples):
        raise ValueError(f"sample vertex out of range for {basis.n} vertices")
    partition = Partition(sets=tuple((u,) for u in samples))
    weights = make_weights("uniform", partition)  # single member: weight 1
    return ilmr(decimated, partition, weights, basis, config)


def ipr(
    decimated: np.ndarray,
    partition: Partition,
    basis: SpectralBasis,
    config: ReconstructionConfig,
    q_max: float | None = None,
) -> ReconstructionRun:
    """Reconstruct from center samples propagated over their local sets.

    ``decimated[i]`` is f evaluated at ``partition.centers[i]``; the update
    spreads each center's residual over its whole set, i.e. the iteration
    with dirac weights at the centers.  ``q_max`` (the partition's max
    sqrt(K R) score) yields the reported gamma, as with :func:`ilmr`.
    """
    if partition.centers is None:
        raise ValueError("ipr requires a partition with centers")
    verts, ids = partition.member_arrays()
    at_center = verts == np.array(partition.centers)[ids]
    weights = LocalWeights.from_flat(partition, at_center)
    return ilmr(decimated, partition, weights, basis, config, c_max=q_max)


def contraction_ratio(
    graph: Graph,
    basis: SpectralBasis,
    omega: float,
    partition: Partition,
    weights: LocalWeights,
) -> tuple[float, float]:
    """The a-priori contraction bound and the exact contraction factor of G.

    Returns ``(bound, ratio)`` where bound = C_max sqrt(omega) and ratio is
    the supremum of ||f - G f|| / ||f|| over nonzero bandlimited f, computed
    exactly as the spectral norm ||I_k - B^T A||_2 of the iteration on band
    coefficients.  The convergence guarantee rests on ratio <= bound.
    """
    metrics = partition_metrics(graph, partition)
    op = BandOperator(basis, omega, partition)
    iteration = np.eye(op.bt.shape[0]) - op.bt @ op.measurement_matrix(weights)
    return metrics.c_max * math.sqrt(omega), float(np.linalg.norm(iteration, 2))


def uniqueness_check(
    basis: SpectralBasis, omega: float, weights: LocalWeights
) -> bool:
    """Whether the measurement map determines bandlimited signals uniquely.

    f -> (<f, phi_i>)_i restricted to the band is the matrix Phi U_band; the
    map is injective iff that matrix has full column rank (numerical rank via
    SVD with tolerance K * eps * s_max).
    """
    op = BandOperator(basis, omega, weights.partition)
    k = op.ub.shape[1]
    if k == 0:
        return True  # the zero space is trivially determined
    mat = op.measurement_matrix(weights)
    if mat.shape[0] < k:
        return False
    s = np.linalg.svd(mat, compute_uv=False)
    tol = k * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    return rank == k
