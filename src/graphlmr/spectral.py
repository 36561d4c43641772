"""Laplacian eigenbasis and random bandlimited signals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SpectralBasis",
    "eigendecompose",
    "random_bandlimited",
    "random_bandlimited_block",
]

# Relative slack on the band cutoff so eigenvalues that are equal to omega up
# to eigensolver round-off land inside the band.
_CUTOFF_RTOL = 1e-9

# Entries per temporary of the symmetry check (128 KB of float64): a small
# bound keeps the check from adding n x n arrays to the solver's peak memory.
_SYMMETRY_BLOCK = 1 << 14

# Order from which an owned Laplacian is decomposed in its own buffer.
# np.linalg.eigh holds five n x n float64 arrays at its peak: the input, its
# Fortran-order copy, LAPACK dsyevd's 2n^2 + 6n + 1 workspace and a fresh
# output.  dsyevd run in the input's buffer holds three, 16 n^2 bytes fewer,
# but needs scipy.linalg, whose import costs 28.4 MiB of resident memory
# (max RSS 55.2 against 26.8 MiB after importing numpy alone; scipy 1.17,
# Linux x86-64).  16 n^2 bytes exceed 28.4 MiB from n = 1365 on.
_IN_PLACE_MIN_N = 1365


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigendecomposition of a graph Laplacian.

    ``eigenvalues`` is finite and ascending; column ``k`` of ``eigenvectors``
    is the unit eigenvector for ``eigenvalues[k]``.  Arrays are read-only;
    the constructor copies what it is given, so later changes to the
    caller's arrays never reach the basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, vals: np.ndarray, vecs: np.ndarray) -> "SpectralBasis":
        """Basis over arrays no caller holds, frozen in place without a copy."""
        basis = cls.__new__(cls)
        object.__setattr__(basis, "eigenvalues", vals)
        object.__setattr__(basis, "eigenvectors", vecs)
        basis._freeze(copy=False)
        return basis

    def _freeze(self, copy: bool) -> None:
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.eigenvectors, dtype=np.float64)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvalues must be (n,), eigenvectors (n, n)")
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        # eigh's vectors are finite when its input is; a caller's may not be
        if copy and not np.isfinite(vecs).all():
            raise ValueError("eigenvectors must be finite")
        if copy:
            vals, vecs = vals.copy(), vecs.copy()
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def band_mask(self, omega: float) -> np.ndarray:
        """Boolean mask of eigenvalues inside the band ``[0, omega]``.

        The comparison is inclusive with slack ``1e-9 * lambda_max`` so a
        cutoff placed exactly on an eigenvalue keeps it.
        """
        if not omega >= 0:  # NaN fails too
            raise ValueError("band cutoff must be nonnegative")
        lam_max = float(self.eigenvalues[-1]) if self.n else 0.0
        eps = _CUTOFF_RTOL * lam_max if lam_max > 0 else 0.0
        return self.eigenvalues <= omega + eps

    def band_dim(self, omega: float) -> int:
        return int(self.band_mask(omega).sum())

    def band_vectors(self, omega: float) -> np.ndarray:
        """Columns spanning the band, shape (n, band_dim); a view of the prefix."""
        return self.eigenvectors[:, : self.band_dim(omega)]


@dataclass(frozen=True, eq=False)
class _Owned:
    """A Laplacian handed to :func:`eigendecompose` by a caller that drops it
    right after, so the solver may overwrite it."""

    laplacian: np.ndarray


def eigendecompose(laplacian: np.ndarray) -> SpectralBasis:
    """Full symmetric eigendecomposition of a (dense) Laplacian.

    Raises ``ValueError`` for non-square, non-finite or non-symmetric input;
    LAPACK convergence failures raise ``numpy.linalg.LinAlgError``.  The
    caller's array is never written.
    """
    owned = isinstance(laplacian, _Owned)
    lap = np.asarray(laplacian.laplacian if owned else laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    _check_symmetric(lap)
    if (owned and lap.shape[0] >= _IN_PLACE_MIN_N
            and lap.flags.c_contiguous and lap.flags.writeable):
        solved = _eigh_in_place(lap)
        if solved is not None:
            # one C-order copy, made after the workspace is freed: products
            # over it round as they do over np.linalg.eigh's vectors
            return SpectralBasis._adopt(solved[0], np.ascontiguousarray(solved[1]))
    vals, vecs = np.linalg.eigh(lap)
    return SpectralBasis._adopt(vals, vecs)


def _eigh_in_place(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``np.linalg.eigh(lap)`` by LAPACK dsyevd in the buffer of the
    C-contiguous symmetric float64 ``lap``, which it overwrites: the
    eigenvectors come back as that memory in Fortran order.  ``None`` when
    scipy is not installed.
    """
    try:
        from scipy.linalg import lapack
    except ImportError:
        return None
    # lap.T is Fortran-contiguous and holds the same matrix; lower=1 runs the
    # reduction np.linalg.eigh runs (UPLO="L") on it
    vals, vecs, info = lapack.dsyevd(lap.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info = {info}")
    return vals, vecs


def _check_symmetric(lap: np.ndarray) -> None:
    """Raise unless ``lap`` is finite and ``|lap - lap.T| <= 1e-10 max(|lap|, 1)``.

    Walks the upper triangle in row blocks, comparing ``lap[i:j, i:]`` with
    ``lap[i:, i:j].T``, so no temporary exceeds ``_SYMMETRY_BLOCK`` entries.
    """
    n = lap.shape[0]
    scale = float(max(lap.max(), -lap.min())) if lap.size else 0.0
    if not math.isfinite(scale):
        raise ValueError("laplacian must be finite")
    tol = 1e-10 * max(scale, 1.0)
    rows = max(1, _SYMMETRY_BLOCK // max(n, 1))
    # a difference that overflows to inf is asymmetric anyway
    with np.errstate(over="ignore"):
        for i in range(0, n, rows):
            j = min(i + rows, n)
            diff = lap[i:j, i:] - lap[i:, i:j].T
            if np.abs(diff, out=diff).max() > tol:
                raise ValueError("laplacian must be symmetric")


def random_bandlimited(
    basis: SpectralBasis,
    omega: float,
    rng: np.random.Generator,
    offband_energy: float = 0.0,
) -> np.ndarray:
    """Random unit-norm signal, bandlimited to ``[0, omega]``.

    In-band coefficients are iid standard normal, then rescaled.  With
    ``offband_energy = e`` in ``[0, 1)`` the result carries energy fraction
    ``e`` in the orthogonal complement (an independent unit-energy draw),
    so ``||f|| = 1`` still holds; ``e = 0`` means strictly bandlimited.
    """
    return random_bandlimited_block(basis, omega, [rng], offband_energy)[:, 0]


def random_bandlimited_block(
    basis: SpectralBasis,
    omega: float,
    rngs: Sequence[np.random.Generator],
    offband_energy: float = 0.0,
) -> np.ndarray:
    """Unit-norm :func:`random_bandlimited` signals, one column per generator.

    Column t draws from ``rngs[t]`` exactly what ``random_bandlimited`` draws
    from it; only the draws run per column, the products and norms are one
    pass over the (n, T) block.  A draw that gives the zero vector raises
    ``RuntimeError`` rather than being redrawn.
    """
    k_in = basis.band_dim(omega)
    if k_in == 0:
        raise ValueError("band is empty; no eigenvalues at or below the cutoff")
    if not 0.0 <= offband_energy < 1.0:
        raise ValueError("offband_energy must lie in [0, 1)")
    if offband_energy > 0.0 and k_in == basis.n:
        raise ValueError("band spans the whole spectrum; no off-band direction")
    inband = _unit_columns(basis.eigenvectors[:, :k_in], rngs)
    if offband_energy == 0.0:
        return inband
    offband = _unit_columns(basis.eigenvectors[:, k_in:], rngs)
    return np.sqrt(1.0 - offband_energy) * inband + np.sqrt(offband_energy) * offband


def _unit_columns(cols: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``cols @ g / ||cols @ g||`` per generator, g its standard normal draw."""
    coeff = np.empty((cols.shape[1], len(rngs)))
    for t, rng in enumerate(rngs):
        coeff[:, t] = rng.standard_normal(cols.shape[1])
    vecs = cols @ coeff
    scale = np.linalg.norm(vecs, axis=0)
    if (scale == 0).any():  # probability 0 with a working generator
        raise RuntimeError("random draw produced the zero vector")
    vecs /= scale
    return vecs
