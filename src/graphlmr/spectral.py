"""Laplacian eigenbasis and random bandlimited signals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
# output.  dsytrd in the input's buffer, then dstevd's vectors and workspace,
# hold three, 16 n^2 bytes fewer, but need scipy.linalg, whose import costs
# 28.4 MiB of resident memory (max RSS 55.2 against 26.8 MiB after importing
# numpy alone; scipy 1.17, Linux x86-64): more than 16 n^2 bytes below 1365.
_IN_PLACE_MIN_N = 1365


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """All n eigenvalues of a graph Laplacian and the lowest m eigenvectors.

    ``eigenvalues`` is finite and ascending; column ``k`` of the (n, m)
    ``eigenvectors``, m <= n, is the unit eigenvector for ``eigenvalues[k]``;
    ``solver`` names their eigensolver.  The basis keeps read-only copies,
    the vectors in C order, so later changes to the given arrays never reach it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    solver: str | None = None

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64)
        vecs = np.array(self.eigenvectors, dtype=np.float64, order="C")
        if vals.ndim != 1 or vecs.ndim != 2 or not vals.size == len(vecs) >= len(vecs.T):
            raise ValueError("eigenvalues must be (n,), eigenvectors (n, m) with m <= n")
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        # max and min carry a NaN or inf through without an n x n temporary
        if vecs.size and not math.isfinite(max(vecs.max(), -vecs.min())):
            raise ValueError("eigenvectors must be finite")
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
        if (k := self.band_dim(omega)) > (m := self.eigenvectors.shape[1]):
            raise ValueError(f"the band has dimension {k}, the basis only {m} vectors")
        return self.eigenvectors[:, :k]


@dataclass(frozen=True, eq=False)
class _Owned:
    """A Laplacian whose caller drops it right after :func:`eigendecompose`,
    so the solver may overwrite it and keep ``columns(eigenvalues)`` vectors."""

    laplacian: np.ndarray
    columns: Callable[[np.ndarray], int] = len


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
    columns = laplacian.columns if owned else len
    solved = None
    if (owned and lap.shape[0] >= _IN_PLACE_MIN_N
            and lap.flags.c_contiguous and lap.flags.writeable):
        solved = _eigh_in_place(lap, columns)
    if solved is None:
        vals, vecs = np.linalg.eigh(lap)
        solved = vals, vecs[:, :columns(vals)], "np.linalg.eigh"
    # the basis copies the vectors in C order once the solver's workspace is
    # freed, so products over them round alike whichever solver ran
    return SpectralBasis(*solved)


def _eigh_in_place(lap: np.ndarray, columns: Callable[[np.ndarray], int]):
    """``lap``'s eigenvalues, bitwise ``np.linalg.eigh``'s, its first
    ``columns(eigenvalues)`` eigenvectors and the solver's name, or ``None``
    without scipy; overwrites ``lap``, a C-contiguous symmetric float64 array."""
    try:
        from scipy.linalg import lapack
    except ImportError:
        return None
    # lap.T is Fortran-contiguous and holds the same matrix; lower=1 runs the
    # reduction np.linalg.eigh runs (UPLO="L"), blocked only at optimal lwork
    lwork, _ = lapack.dsytrd_lwork(lap.shape[0], lower=1)
    c, d, e, tau, _ = lapack.dsytrd(lap.T, lower=1, lwork=int(lwork), overwrite_a=1)
    vals, z, info = lapack.dstevd(d, e)  # the dstedc that dsyevd runs
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    vecs = z[:, :columns(vals)]
    # Q = H(1) ... H(n-1) keeps row 0 and acts on rows 1.. as the QR factor
    # whose reflectors lie below c's subdiagonal (dormtr with UPLO="L")
    reflectors = np.asfortranarray(c[1:, :-1])
    _, work, _ = lapack.dormqr("L", "N", reflectors, tau, vecs[1:], -1)
    vecs[1:], _, _ = lapack.dormqr("L", "N", reflectors, tau, vecs[1:], int(work[0]))
    return vals, vecs, "dsytrd+dstevd+dormqr"


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
    inband = _unit_columns(basis.band_vectors(omega), rngs)
    if offband_energy == 0.0:
        return inband
    if basis.eigenvectors.shape[1] < basis.n:
        raise ValueError("off-band draws need all n eigenvectors; the basis has fewer")
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
