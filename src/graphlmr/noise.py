"""Closed-form reconstruction-error bounds under measurement noise.

With measurement noise n_i = <n, phi_i>, the iteration error obeys

    ||f~(k) - f|| <= n_tilde / (1 - gamma) + gamma^(k+1) (||f|| + ||n||),

where n_tilde = sum_i sqrt(|N_i|) |n_i|.  Taking expectations over Gaussian
noise replaces |n_i| by sigma_i sqrt(2/pi); for iid noise with uniform
weights this collapses to |I| sigma sqrt(2/pi) / (1 - gamma).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .localsets import Partition
from .sampling import LocalWeights, NoiseModel, equivalent_noise_sigma

__all__ = [
    "ErrorBoundReport",
    "noise_tilde",
    "realized_report",
    "expected_report",
]

# E|n_i| / sigma_i for a zero-mean Gaussian n_i: its absolute value is half-normal
_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def noise_tilde(partition: Partition, equivalent_noises: np.ndarray) -> float:
    """Aggregate noise n_tilde = sum_i sqrt(|N_i|) * |n_i|."""
    n_i = np.asarray(equivalent_noises, dtype=np.float64)
    if n_i.shape != (partition.n_sets,):
        raise ValueError(
            f"expected {partition.n_sets} per-set noises, got shape {n_i.shape}"
        )
    if not np.isfinite(n_i).all():
        raise ValueError("equivalent_noises must be finite")
    return float(np.sqrt(partition.sizes()) @ np.abs(n_i))


@dataclass(frozen=True, eq=False)
class ErrorBoundReport:
    """Bound curve over iterations plus its ingredients.

    ``bound_at_k[k]`` is the bound after k iterations (nonincreasing, tending
    to ``asymptotic_bound = n_tilde / (1 - gamma)``).  ``variant`` names what
    n_tilde is: ``"realized-noise"`` (one observed noise vector) or
    ``"per-vertex-gaussian"`` (expectation under a sigma(v) model).
    """

    gamma: float
    n_tilde: float
    bound_at_k: np.ndarray
    asymptotic_bound: float
    variant: str


def _check_norm(value: float, name: str) -> None:
    if not value >= 0:  # NaN fails too
        raise ValueError(f"{name} must be nonnegative")


def _report(
    gamma: float, n_tilde: float, envelope: float, n_iterations: int, variant: str
) -> ErrorBoundReport:
    """The bound curve n_tilde / (1 - gamma) + gamma^(k+1) * envelope."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(
            f"bound requires 0 <= gamma < 1 (it is vacuous otherwise); got {gamma}"
        )
    if operator.index(n_iterations) < 0:
        raise ValueError("n_iterations must be nonnegative")
    asym = n_tilde / (1.0 - gamma)
    ks = np.arange(n_iterations + 1)
    return ErrorBoundReport(
        gamma=gamma,
        n_tilde=n_tilde,
        bound_at_k=asym + gamma ** (ks + 1) * envelope,
        asymptotic_bound=asym,
        variant=variant,
    )


def realized_report(
    gamma: float,
    partition: Partition,
    equivalent_noises: np.ndarray,
    norm_f: float,
    norm_n: float,
    n_iterations: int,
) -> ErrorBoundReport:
    """Bound curve for one realized noise vector, k = 0 .. n_iterations.

    n_tilde is built from the realized per-set noises <n, phi_i> and the
    envelope is norm_f + norm_n.
    """
    _check_norm(norm_f, "norm_f")
    _check_norm(norm_n, "norm_n")
    nt = noise_tilde(partition, equivalent_noises)
    return _report(gamma, nt, norm_f + norm_n, n_iterations, "realized-noise")


def expected_report(
    gamma: float,
    weights: LocalWeights,
    noise: NoiseModel,
    n_iterations: int,
    *,
    norm_f: float = 1.0,
) -> ErrorBoundReport:
    """Expected bound curve under the Gaussian noise model, k = 0 .. n_iterations.

    n_tilde is sqrt(2/pi) * sum_i sqrt(|N_i|) sigma_i over the sets of
    ``weights.partition``, and the envelope is norm_f + E||n||, approximating
    E||n|| by sqrt(sum_v sigma^2(v)).
    """
    _check_norm(norm_f, "norm_f")
    expected_abs = equivalent_noise_sigma(weights, noise) * _HALF_NORMAL_MEAN
    nt = noise_tilde(weights.partition, expected_abs)
    envelope = norm_f + float(np.hypot.reduce(noise.sigma))
    return _report(gamma, nt, envelope, n_iterations, "per-vertex-gaussian")
