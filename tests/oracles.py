"""Reference helpers the tests check the package against.

``to_matrix`` and ``spread_matrix`` build the dense measurement matrix Phi
and membership matrix S that the package never forms, and ``oracle`` runs
the ILMR sweep with them on length-n vectors; ``bootstrap_gap_quantile`` is
the resampling test behind the acceptance suite's "scheme A beats scheme B"
claims.
"""

from __future__ import annotations

import numpy as np

from graphlmr import LocalWeights, Partition, SpectralBasis

# bootstrap_gap_quantile: paired resamples, their seed, and the lower
# quantile reported (one-sided 95% confidence)
_GAP_RESAMPLES = 4000
_GAP_SEED = 0
_GAP_QUANTILE = 0.05


def to_matrix(weights: LocalWeights, n_vertices: int) -> np.ndarray:
    """Dense (n_sets, n_vertices) matrix whose rows are the weight vectors."""
    weights.partition.check_range(n_vertices, "matrix")
    mat = np.zeros((weights.partition.n_sets, n_vertices))
    verts, ids = weights.partition.member_arrays()
    mat[ids, verts] = weights.flat
    return mat


def spread_matrix(partition: Partition, n: int) -> np.ndarray:
    """Dense (n, n_sets) matrix whose column i is 1 on the members of set i."""
    s = np.zeros((n, partition.n_sets))
    for i, members in enumerate(partition.sets):
        s[list(members), i] = 1.0
    return s


def oracle(basis: SpectralBasis, omega: float, partition: Partition,
           weights: LocalWeights, m: np.ndarray, sweeps: int,
           stop_tolerance: float = 0.0, truth: np.ndarray | None = None):
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


def bootstrap_gap_quantile(smaller: np.ndarray, larger: np.ndarray) -> float:
    """Lower ``_GAP_QUANTILE`` quantile of mean(larger - smaller) over
    ``_GAP_RESAMPLES`` paired resamples drawn with seed ``_GAP_SEED``.

    A positive return value supports "smaller beats larger" at the
    (1 - quantile) one-sided confidence level.  Pairing is by trial, which
    is valid here because all schemes in a run share each trial's signal
    and noise draw.
    """
    a = np.asarray(smaller, dtype=np.float64)
    b = np.asarray(larger, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two equally sized nonempty 1-d samples")
    diffs = b - a
    rng = np.random.default_rng(_GAP_SEED)
    idx = rng.integers(0, diffs.size, size=(_GAP_RESAMPLES, diffs.size))
    means = diffs[idx].mean(axis=1)
    return float(np.quantile(means, _GAP_QUANTILE))
