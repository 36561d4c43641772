"""Weighted local measurements of graph signals.

Each local set carries a weight vector supported on its members, normalized
to sum 1; a measurement of a signal is the weighted average over each set.
Five weight schemes are provided, two of which use a per-vertex noise model
to minimize the variance of the measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .localsets import Partition

__all__ = [
    "WEIGHT_SCHEMES",
    "NoiseModel",
    "LocalWeights",
    "EquivalentNoise",
    "make_weights",
    "measure",
    "equivalent_noise_sigma",
    "format_weights",
    "parse_weights",
    "write_weights",
    "read_weights",
]

WEIGHT_SCHEMES = ("uniform", "random", "dirac", "optimal", "optimal_dirac")


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

    @property
    def n(self) -> int:
        return self.sigma.size

    @staticmethod
    def iid(n_vertices: int, sigma: float) -> "NoiseModel":
        return NoiseModel(sigma=np.full(n_vertices, float(sigma)))


@dataclass(frozen=True, eq=False)
class LocalWeights:
    """One weight vector per set, aligned with the partition's member order.

    ``values[i][j]`` weights vertex ``partition.sets[i][j]``.  Construction
    renormalizes every vector to sum 1 and rejects negative entries or
    all-zero vectors, so downstream code can rely on convex weights; vectors
    already summing to 1 pass through bitwise so round-trips are exact.
    """

    partition: Partition
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        sets = self.partition.sets
        if len(self.values) != len(sets):
            raise ValueError(
                f"{len(self.values)} weight vectors for {len(sets)} sets"
            )
        arrs = [np.asarray(w, dtype=np.float64) for w in self.values]
        for i, (s, arr) in enumerate(zip(sets, arrs)):
            if arr.shape != (len(s),):
                raise ValueError(
                    f"set {i}: expected {len(s)} weights, got shape {arr.shape}"
                )
        flat = np.concatenate(arrs) if arrs else np.zeros(0)
        _, ids = self.partition.member_arrays()
        bad = (flat < 0) | ~np.isfinite(flat)
        if bad.any():
            i = ids[bad.argmax()]
            raise ValueError(f"set {i}: weights must be finite and >= 0")
        totals = self.partition.sum_by_set(flat)
        if (totals <= 0).any():
            raise ValueError(f"set {(totals <= 0).argmax()}: weights sum to zero")
        # dividing by exactly 1 keeps already normalized input bit-stable
        flat = flat / np.where(np.abs(totals - 1.0) > 1e-12, totals, 1.0)[ids]
        flat.flags.writeable = False
        object.__setattr__(self, "_flat_values", flat)
        starts = np.cumsum(self.partition.sizes()[:-1])
        values = tuple(np.split(flat, starts)) if sets else ()
        object.__setattr__(self, "values", values)

    def flat_values(self) -> np.ndarray:
        """Weights concatenated in partition member order."""
        return self._flat_values

    def to_matrix(self, n_vertices: int) -> np.ndarray:
        """Dense (n_sets, n_vertices) matrix whose rows are the weight vectors."""
        mat = np.zeros((self.partition.n_sets, n_vertices))
        verts, ids = self.partition.member_arrays()
        mat[ids, verts] = self._flat_values
        return mat


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
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; valid: {', '.join(WEIGHT_SCHEMES)}"
        )
    if scheme in ("random", "dirac") and rng is None:
        raise ValueError(f"scheme {scheme!r} requires an rng")
    if scheme in ("optimal", "optimal_dirac"):
        if noise is None:
            raise ValueError(f"scheme {scheme!r} requires a noise model")
        if np.any(noise.sigma <= 0):
            raise ValueError(
                f"scheme {scheme!r} requires sigma(v) > 0 on all vertices"
            )
    values: list[np.ndarray] = []
    for s in partition.sets:
        m = len(s)
        if scheme == "uniform":
            w = np.full(m, 1.0 / m)
        elif scheme == "random":
            w = rng.random(m)
            while w.sum() == 0.0:  # measure-zero, but keep the invariant airtight
                w = rng.random(m)
        elif scheme == "dirac":
            w = np.zeros(m)
            w[rng.integers(m)] = 1.0
        elif scheme == "optimal":
            w = 1.0 / noise.sigma[np.asarray(s)] ** 2
        else:  # optimal_dirac
            sig = noise.sigma[np.asarray(s)]
            best = sig.min()
            # ties go to the lowest vertex index, not the lowest position
            pick = min(
                (v, j) for j, v in enumerate(s) if sig[j] == best
            )[1]
            w = np.zeros(m)
            w[pick] = 1.0
        values.append(w)
    return LocalWeights(partition=partition, values=tuple(values))


def measure(signal: np.ndarray, weights: LocalWeights) -> np.ndarray:
    """Weighted average of the signal over each set: m_i = <signal, phi_i>.

    ``signal`` is one vertex signal (n,) or a block of them (n, T), which
    gives (n_sets, T).  With dirac weights this reduces to plain decimation,
    exactly (each sum has a single term).
    """
    f = np.asarray(signal, dtype=np.float64)
    verts, _ = weights.partition.member_arrays()
    if verts.size and verts.max() >= f.shape[0]:
        raise ValueError("signal shorter than the partition's vertex range")
    w = weights.flat_values().reshape((-1,) + (1,) * (f.ndim - 1))
    return weights.partition.sum_by_set(f[verts] * w)


class EquivalentNoise(NamedTuple):
    """Per-set measurement-noise scale: sigma_i^2 = sum_v sigma^2(v) phi_i^2(v)."""

    sigma: np.ndarray
    expected_abs: np.ndarray


def equivalent_noise_sigma(
    weights: LocalWeights, noise: NoiseModel
) -> EquivalentNoise:
    """Standard deviation of <noise, phi_i> per set, and E|n_i|.

    The measurement noise n_i = <n, phi_i> is zero-mean Gaussian with
    variance sum_v sigma^2(v) phi_i^2(v); its absolute value is half-normal,
    so E|n_i| = sigma_i * sqrt(2/pi).
    """
    verts, _ = weights.partition.member_arrays()
    if verts.size and verts.max() >= noise.n:
        raise ValueError("noise model shorter than the partition's vertex range")
    var = weights.partition.sum_by_set(
        (noise.sigma[verts] ** 2) * weights.flat_values() ** 2
    )
    sig = np.sqrt(var)
    return EquivalentNoise(sigma=sig, expected_abs=sig * math.sqrt(2.0 / math.pi))


def format_weights(weights: LocalWeights) -> str:
    """Serialize: ``<set index> v1:w1 v2:w2 ...`` per line, zero entries kept."""
    lines = []
    for i, (s, w) in enumerate(zip(weights.partition.sets, weights.values)):
        entries = " ".join(f"{v}:{float(w[j])!r}" for j, v in enumerate(s))
        lines.append(f"{i} {entries}")
    return "\n".join(lines) + "\n"


def parse_weights(text: str, partition: Partition) -> LocalWeights:
    """Inverse of :func:`format_weights` against a known partition.

    Entries may come in any order and omit zero weights; vertices outside the
    named set are rejected.  Missing set lines are rejected too.
    """
    per_set: dict[int, dict[int, float]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            idx = int(fields[0])
        except ValueError:
            raise ValueError(f"line {line_no}: bad set index {fields[0]!r}") from None
        if not 0 <= idx < partition.n_sets:
            raise ValueError(f"line {line_no}: set index {idx} out of range")
        if idx in per_set:
            raise ValueError(f"line {line_no}: duplicate set index {idx}")
        entries: dict[int, float] = {}
        for tok in fields[1:]:
            v_str, _, w_str = tok.partition(":")
            try:
                v, w = int(v_str), float(w_str)
            except ValueError:
                raise ValueError(f"line {line_no}: bad entry {tok!r}") from None
            if v not in partition.sets[idx]:
                raise ValueError(
                    f"line {line_no}: vertex {v} is not in set {idx}"
                )
            if v in entries:
                raise ValueError(f"line {line_no}: duplicate vertex {v}")
            entries[v] = w
        per_set[idx] = entries
    missing = [i for i in range(partition.n_sets) if i not in per_set]
    if missing:
        raise ValueError(f"no weights given for sets {missing}")
    values = []
    for i, s in enumerate(partition.sets):
        values.append(np.array([per_set[i].get(v, 0.0) for v in s]))
    return LocalWeights(partition=partition, values=tuple(values))


def write_weights(weights: LocalWeights, path: str | Path) -> None:
    Path(path).write_text(format_weights(weights), encoding="utf-8")


def read_weights(path: str | Path, partition: Partition) -> LocalWeights:
    return parse_weights(Path(path).read_text(encoding="utf-8"), partition)
