"""Noise sampling and closed-form reconstruction-error bounds.

With measurement noise n_i = <n, phi_i>, the iteration error obeys

    ||f~(k) - f|| <= n_tilde / (1 - gamma) + gamma^(k+1) (||f|| + ||n||),

where n_tilde = sum_i sqrt(|N_i|) |n_i|.  Taking expectations over Gaussian
noise replaces |n_i| by sigma_i sqrt(2/pi); for iid noise with uniform
weights this collapses to |I| sigma sqrt(2/pi) / (1 - gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localsets import Partition
from .sampling import LocalWeights, NoiseModel, equivalent_noise_sigma, make_weights

__all__ = [
    "ErrorBoundReport",
    "sample_noise",
    "noise_tilde",
    "realized_bound",
    "expected_bound",
    "realized_report",
    "expected_report",
]

_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)  # E|X| / sigma for centered Gaussian X


def sample_noise(noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """One independent zero-mean Gaussian draw per vertex, scaled by sigma(v)."""
    return rng.standard_normal(noise.n) * noise.sigma


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(
            f"bound requires 0 <= gamma < 1 (it is vacuous otherwise); got {gamma}"
        )


def noise_tilde(partition: Partition, equivalent_noises: np.ndarray) -> float:
    """Aggregate noise n_tilde = sum_i sqrt(|N_i|) * |n_i|."""
    n_i = np.asarray(equivalent_noises, dtype=np.float64)
    if n_i.shape != (partition.n_sets,):
        raise ValueError(
            f"expected {partition.n_sets} per-set noises, got shape {n_i.shape}"
        )
    return float(np.sqrt(partition.sizes()) @ np.abs(n_i))


def realized_bound(
    gamma: float,
    partition: Partition,
    equivalent_noises: np.ndarray,
    norm_f: float,
    norm_n: float,
    k: int,
) -> float:
    """Error bound at iteration k for one realized noise vector.

    Returns n_tilde / (1 - gamma) + gamma^(k+1) (norm_f + norm_n) with
    n_tilde built from the realized per-set noises <n, phi_i>.
    """
    _check_gamma(gamma)
    if k < 0:
        raise ValueError("k must be nonnegative")
    nt = noise_tilde(partition, equivalent_noises)
    return nt / (1.0 - gamma) + gamma ** (k + 1) * (norm_f + norm_n)


def expected_bound(
    gamma: float,
    partition: Partition,
    weights: LocalWeights,
    noise: NoiseModel,
    k: int | None = None,
    *,
    norm_f: float = 1.0,
    iid_shortcut: bool = False,
) -> float:
    """Expected error bound over the Gaussian noise model.

    The leading (steady-state) term is sqrt(2/pi)/(1-gamma) * sum_i
    sqrt(|N_i|) sigma_i; with ``k`` given, the decaying envelope
    gamma^(k+1) (norm_f + E||n||) is added, approximating E||n|| by
    sqrt(sum_v sigma^2(v)).  ``k=None`` returns the leading term alone.

    ``iid_shortcut=True`` uses |I| sigma sqrt(2/pi)/(1-gamma) directly; it
    requires constant sigma and uniform weights (it is exactly the general
    formula under those assumptions).
    """
    _check_gamma(gamma)
    if iid_shortcut:
        sig = noise.sigma
        if sig.size == 0:
            raise ValueError("empty noise model")
        if not np.all(sig == sig[0]):
            raise ValueError("iid shortcut requires constant sigma(v)")
        uniform = make_weights("uniform", weights.partition).flat_values()
        if not np.allclose(weights.flat_values(), uniform, rtol=0.0, atol=1e-12):
            raise ValueError("iid shortcut requires uniform weights")
        leading = partition.n_sets * float(sig[0]) * _HALF_NORMAL_MEAN / (1.0 - gamma)
    else:
        eq = equivalent_noise_sigma(weights, noise)
        leading = float(
            np.sqrt(partition.sizes()) @ eq.expected_abs
        ) / (1.0 - gamma)
    if k is None:
        return leading
    if k < 0:
        raise ValueError("k must be nonnegative")
    expected_norm_n = float(np.sqrt(np.sum(noise.sigma**2)))
    return leading + gamma ** (k + 1) * (norm_f + expected_norm_n)


@dataclass(frozen=True, eq=False)
class ErrorBoundReport:
    """Bound curve over iterations plus its ingredients.

    ``bound_at_k[k]`` is the bound after k iterations (nonincreasing, tending
    to ``asymptotic_bound = n_tilde / (1 - gamma)``).  ``variant`` names what
    n_tilde is: ``"realized-noise"`` (one observed noise vector),
    ``"per-vertex-gaussian"`` (expectation under a general sigma(v) model),
    or ``"iid"`` (the constant-sigma shortcut).
    """

    gamma: float
    n_tilde: float
    bound_at_k: np.ndarray
    asymptotic_bound: float
    variant: str


def _build_report(
    gamma: float, nt: float, envelope_scale: float, n_iterations: int, variant: str
) -> ErrorBoundReport:
    asym = nt / (1.0 - gamma)
    ks = np.arange(n_iterations + 1)
    bounds = asym + gamma ** (ks + 1) * envelope_scale
    return ErrorBoundReport(
        gamma=gamma,
        n_tilde=nt,
        bound_at_k=bounds,
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
    """Bound curve for one realized noise vector, k = 0 .. n_iterations."""
    _check_gamma(gamma)
    if n_iterations < 0:
        raise ValueError("n_iterations must be nonnegative")
    nt = noise_tilde(partition, equivalent_noises)
    return _build_report(gamma, nt, norm_f + norm_n, n_iterations, "realized-noise")


def expected_report(
    gamma: float,
    partition: Partition,
    weights: LocalWeights,
    noise: NoiseModel,
    n_iterations: int,
    *,
    norm_f: float = 1.0,
    iid_shortcut: bool = False,
) -> ErrorBoundReport:
    """Expected bound curve under the noise model, k = 0 .. n_iterations."""
    if n_iterations < 0:
        raise ValueError("n_iterations must be nonnegative")
    leading = expected_bound(
        gamma, partition, weights, noise, None, iid_shortcut=iid_shortcut
    )
    nt = leading * (1.0 - gamma)
    envelope = norm_f + float(np.sqrt(np.sum(noise.sigma**2)))
    variant = "iid" if iid_shortcut else "per-vertex-gaussian"
    return _build_report(gamma, nt, envelope, n_iterations, variant)
