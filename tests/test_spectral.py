import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphlmr as glm
from graphlmr import spectral


def test_eigendecompose_p3_spectrum():
    # path on 3 vertices has eigenvalues 0, 1, 3
    basis = glm.eigendecompose(glm.build_laplacian(glm.path_graph(3)))
    assert np.allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_eigendecompose_orthonormal(grid20):
    _, basis = grid20
    u = basis.eigenvectors
    assert np.allclose(u.T @ u, np.eye(basis.n), atol=1e-10)
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        glm.eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        glm.eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the difference overflows to inf
        with pytest.raises(ValueError, match="symmetric"):
            glm.eigendecompose(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def _allclose_check(laplacian):
    """The symmetry check as one n x n ``np.allclose``: the oracle."""
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    scale = float(np.abs(lap).max()) if lap.size else 0.0
    if not np.allclose(lap, lap.T, rtol=0.0, atol=1e-10 * max(scale, 1.0)):
        raise ValueError("laplacian must be symmetric")


def _outcome(check, lap):
    try:
        check(lap)
    except ValueError as exc:
        return str(exc)
    return "ok"


@st.composite
def _near_symmetric(draw):
    """A symmetric matrix with a few entries moved off their mirror by
    tol * (1 +- 1e-6), just inside or just outside the tolerance."""
    n = draw(st.integers(min_value=0, max_value=7))
    entries = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                            min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(entries, dtype=np.float64).reshape(n, n))
    lap = upper + np.triu(upper, 1).T
    tol = 1e-10 * max(float(np.abs(lap).max()) if n else 0.0, 1.0)
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if n > 1 else 0):
        r, c = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        factor = draw(st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]))
        lap[r, c] = lap[c, r] + draw(st.sampled_from([-1.0, 1.0])) * factor * tol
    return lap


@given(lap=_near_symmetric(), block=st.integers(min_value=1, max_value=24))
@example(lap=np.array([[0.0, 1e-10 * (1 + 1e-6)], [0.0, 0.0]]), block=1)
@example(lap=np.array([[0.0, 1e-10 * (1 - 1e-6)], [0.0, 0.0]]), block=1)
@example(lap=np.array([[-5.0, 5e-10 * (1 - 1e-6)], [0.0, 0.0]]), block=1)
@example(lap=np.zeros((0, 0)), block=1)
@example(lap=np.array([[3.0]]), block=1)
@example(lap=np.zeros((2, 3)), block=1)
@example(lap=np.zeros((0, 3)), block=1)
@example(lap=np.zeros(4), block=1)
@example(lap=np.zeros((2, 2, 2)), block=1)
@settings(max_examples=300, deadline=None)
def test_blocked_symmetry_check_matches_allclose(lap, block):
    # a small block bound makes even these matrices span several row blocks
    with mock.patch.object(spectral, "_SYMMETRY_BLOCK", block):
        assert _outcome(glm.eigendecompose, lap) == _outcome(_allclose_check, lap)


def test_tolerance_boundary_examples_differ():
    # the tolerance is 1e-10 while every entry stays below 1 in magnitude
    inside = np.array([[0.0, 1e-10 * (1 - 1e-6)], [0.0, 0.0]])
    outside = np.array([[0.0, 1e-10 * (1 + 1e-6)], [0.0, 0.0]])
    assert _outcome(_allclose_check, inside) == "ok"
    assert _outcome(_allclose_check, outside) == "laplacian must be symmetric"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 1)])
def test_eigendecompose_rejects_non_finite(bad, where):
    lap = glm.build_laplacian(glm.path_graph(3)).copy()
    lap[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="laplacian must be finite"):
            glm.eigendecompose(lap)


def test_basis_arrays_read_only(p4):
    _, basis = p4
    with pytest.raises(ValueError):
        basis.eigenvalues[0] = 7.0
    with pytest.raises(ValueError):
        basis.eigenvectors[0, 0] = 7.0


def test_eigendecompose_keeps_the_solver_arrays(monkeypatch):
    solved = []

    def eigh(a):
        solved.append(real_eigh(a))
        return solved[-1]

    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    basis = glm.eigendecompose(glm.build_laplacian(glm.path_graph(4)))
    assert basis.eigenvalues is solved[0][0]
    assert basis.eigenvectors is solved[0][1]


def test_basis_copies_caller_arrays(p4):
    _, fresh = p4
    vals, vecs = fresh.eigenvalues.copy(), fresh.eigenvectors.copy()
    basis = glm.SpectralBasis(eigenvalues=vals, eigenvectors=vecs)
    vals[:] = -1.0
    vecs[:] = 0.0
    assert np.array_equal(basis.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(basis.eigenvectors, fresh.eigenvectors)
    assert not basis.eigenvalues.flags.writeable
    assert not basis.eigenvectors.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_basis_rejects_non_finite_eigenpairs(bad):
    vecs = np.eye(2)
    vecs[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            glm.SpectralBasis(eigenvalues=[0.0, bad], eigenvectors=np.eye(2))
        with pytest.raises(ValueError, match="eigenvectors must be finite"):
            glm.SpectralBasis(eigenvalues=[0.0, 1.0], eigenvectors=vecs)


@pytest.mark.parametrize("vals, vecs", [
    ([0.0, 1.0], np.eye(3)),
    ([0.0, 1.0], np.ones(4)),
    ([[0.0, 1.0]], np.eye(2)),
])
def test_basis_rejects_mismatched_shapes(vals, vecs):
    with pytest.raises(ValueError, match=r"eigenvalues must be \(n,\)"):
        glm.SpectralBasis(eigenvalues=vals, eigenvectors=vecs)


def test_eigenvectors_invert_and_keep_the_norm(grid20):
    _, basis = grid20
    f = np.random.default_rng(0).standard_normal(basis.n)
    coeff = basis.eigenvectors.T @ f
    assert np.allclose(basis.eigenvectors @ coeff, f, atol=1e-10)
    assert np.linalg.norm(coeff) == pytest.approx(np.linalg.norm(f), rel=1e-12)


def test_eigendecompose_p2_constant_eigenvector():
    basis = glm.eigendecompose(glm.build_laplacian(glm.path_graph(2)))
    assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
    # the zero eigenvalue belongs to the constant vector (sign is solver-dependent)
    const = basis.eigenvectors[:, 0]
    assert np.allclose(np.abs(const), [1.0 / math.sqrt(2.0)] * 2, atol=1e-12)


def test_band_vectors_project_p2():
    basis = glm.eigendecompose(glm.build_laplacian(glm.path_graph(2)))
    ub = basis.band_vectors(1.0)
    assert np.allclose(ub @ (ub.T @ np.array([2.0, 0.0])), [1.0, 1.0], atol=1e-12)


def test_band_vectors_are_orthonormal(grid20):
    # so U_b U_b^T is an orthogonal projection: applying it twice changes nothing
    _, basis = grid20
    ub = basis.band_vectors(0.1)
    assert np.allclose(ub.T @ ub, np.eye(ub.shape[1]), atol=1e-10)
    f = np.random.default_rng(1).standard_normal(basis.n)
    once = ub @ (ub.T @ f)
    assert np.allclose(ub @ (ub.T @ once), once, atol=1e-10)


def test_band_vectors_extremes(p4):
    _, basis = p4
    f = np.array([1.0, 2.0, 3.0, 4.0])
    # cutoff above the whole spectrum: the band is everything
    ub = basis.band_vectors(10.0)
    assert ub.shape == (4, 4)
    assert np.allclose(ub @ (ub.T @ f), f, atol=1e-10)
    # cutoff 0 keeps only the constant component (connected graph)
    ub = basis.band_vectors(0.0)
    assert ub.shape == (4, 1)
    assert np.allclose(ub @ (ub.T @ f), np.full(4, f.mean()), atol=1e-10)


def test_band_cutoff_inclusive():
    basis = glm.eigendecompose(glm.build_laplacian(glm.path_graph(3)))
    # eigenvalue exactly at the cutoff stays in band
    assert basis.band_dim(1.0) == 2
    assert basis.band_dim(0.999999) == 1
    assert basis.band_dim(3.0) == 3
    with pytest.raises(ValueError, match="nonnegative"):
        basis.band_mask(-0.1)
    with pytest.raises(ValueError, match="band cutoff must be nonnegative"):
        basis.band_mask(float("nan"))


def test_random_bandlimited_norm_and_band(grid20):
    _, basis = grid20
    rng = np.random.default_rng(7)
    f = glm.random_bandlimited(basis, 0.1, rng)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    ub = basis.band_vectors(0.1)
    assert np.allclose(ub @ (ub.T @ f), f, atol=1e-10)


def test_random_bandlimited_deterministic(grid20):
    _, basis = grid20
    f1 = glm.random_bandlimited(basis, 0.1, np.random.default_rng(5))
    f2 = glm.random_bandlimited(basis, 0.1, np.random.default_rng(5))
    assert np.array_equal(f1, f2)


def test_random_bandlimited_offband_energy(grid20):
    _, basis = grid20
    rng = np.random.default_rng(11)
    e = 1e-2
    f = glm.random_bandlimited(basis, 0.1, rng, offband_energy=e)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    ub = basis.band_vectors(0.1)
    inband = ub @ (ub.T @ f)
    assert np.linalg.norm(f - inband) ** 2 == pytest.approx(e, rel=1e-9)
    assert np.linalg.norm(inband) ** 2 == pytest.approx(1.0 - e, rel=1e-9)


def test_random_bandlimited_offband_zero_matches_unset(grid20):
    _, basis = grid20
    f1 = glm.random_bandlimited(basis, 0.1, np.random.default_rng(3), offband_energy=0.0)
    f2 = glm.random_bandlimited(basis, 0.1, np.random.default_rng(3))
    assert np.array_equal(f1, f2)


def test_random_bandlimited_errors(p4):
    _, basis = p4
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="nonnegative"):
        glm.random_bandlimited(basis, -1.0, rng)
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            glm.random_bandlimited(basis, 0.1, rng, offband_energy=bad)
    with pytest.raises(ValueError, match="whole spectrum"):
        glm.random_bandlimited(basis, 10.0, rng, offband_energy=0.5)


def test_random_bandlimited_is_unit_norm_on_a_one_dimensional_band(p4):
    _, basis = p4
    assert basis.band_dim(0.1) == 1
    rng = np.random.default_rng(5)
    f = glm.random_bandlimited(basis, 0.1, rng)
    # the band holds only the constant vector, so f is +-1/2 everywhere
    assert np.allclose(np.abs(f), 0.5, atol=1e-12)
    g = glm.random_bandlimited(basis, 0.1, rng, offband_energy=0.5)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
    assert abs(g.mean()) * 2.0 == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_random_bandlimited_block_rejects_an_empty_band():
    basis = glm.SpectralBasis(eigenvalues=[1.0, 2.0], eigenvectors=np.eye(2))
    rngs = [np.random.default_rng(0)]
    with pytest.raises(ValueError, match="band is empty"):
        glm.random_bandlimited_block(basis, 0.5, rngs)


def test_band_vectors_are_a_view_of_the_spectrum_prefix(grid20):
    _, basis = grid20
    ub = basis.band_vectors(0.1)
    assert np.shares_memory(ub, basis.eigenvectors)
    assert np.array_equal(ub, basis.eigenvectors[:, basis.band_mask(0.1)])
    with pytest.raises(ValueError, match="ascending"):
        glm.SpectralBasis(np.array([1.0, 0.0]), np.eye(2))


def test_random_bandlimited_offband_matches_masked_draw(grid20):
    _, basis = grid20
    omega, e = 0.1, 0.3
    got = glm.random_bandlimited(basis, omega, np.random.default_rng(4), offband_energy=e)
    rng, mask = np.random.default_rng(4), basis.band_mask(omega)

    def unit_draw(cols):
        vec = cols @ rng.standard_normal(cols.shape[1])
        return vec / np.linalg.norm(vec)

    want = (math.sqrt(1.0 - e) * unit_draw(basis.eigenvectors[:, mask])
            + math.sqrt(e) * unit_draw(basis.eigenvectors[:, ~mask]))
    # same draws; BLAS may sum a strided view in another order than a copy
    assert np.allclose(got, want, rtol=0.0, atol=basis.n * np.finfo(np.float64).eps)


@pytest.mark.parametrize("offband", [0.0, 0.3])
def test_random_bandlimited_block_matches_single_draws(grid20, offband):
    _, basis = grid20
    rngs = [np.random.default_rng([9, t]) for t in range(5)]
    block = glm.random_bandlimited_block(basis, 0.1, rngs, offband)
    assert block.shape == (basis.n, 5)
    for t, rng in enumerate(rngs):
        single = np.random.default_rng([9, t])
        want = glm.random_bandlimited(basis, 0.1, single, offband_energy=offband)
        # same draws; a block product may sum in another order than one column
        assert np.allclose(block[:, t], want, rtol=0.0,
                           atol=basis.n * np.finfo(np.float64).eps)
        assert rng.bit_generator.state == single.bit_generator.state


def test_random_bandlimited_block_raises_on_zero_draw(p4):
    _, basis = p4

    class Zeros:
        """Draws ``zeros`` all-zero vectors, then ones."""

        def __init__(self, zeros):
            self.zeros, self.calls = zeros, 0

        def standard_normal(self, size):
            self.calls += 1
            return np.zeros(size) if self.calls <= self.zeros else np.ones(size)

    rngs = [Zeros(0), Zeros(0)]
    block = glm.random_bandlimited_block(basis, 10.0, rngs)
    assert [r.calls for r in rngs] == [1, 1]
    # ones over an orthonormal basis of the whole spectrum have norm 2
    want = basis.eigenvectors @ np.ones(4) / 2
    assert np.allclose(block, np.tile(want[:, None], 2), rtol=0.0, atol=1e-15)
    rngs = [Zeros(0), Zeros(1)]
    with pytest.raises(RuntimeError, match="zero vector"):
        glm.random_bandlimited_block(basis, 10.0, rngs)
    assert [r.calls for r in rngs] == [1, 1]  # no redraw


@pytest.mark.parametrize("setup", ["grid20", "rgg300"])
def test_in_place_solver_matches_eigh(setup, request):
    pytest.importorskip("scipy.linalg")
    graph, _ = request.getfixturevalue(setup)
    lap = glm.build_laplacian(graph)
    want_vals, want_vecs = np.linalg.eigh(lap)
    vals, vecs = spectral._eigh_in_place(lap)
    assert np.shares_memory(vecs, lap)  # solved in the Laplacian's buffer
    np.testing.assert_allclose(vals, want_vals, rtol=0.0, atol=1e-12)
    # no flipped signs, no other basis of a degenerate eigenspace
    assert np.einsum("ij,ij->j", vecs, want_vecs).min() >= 1.0 - 1e-12


def test_owned_laplacian_gives_the_public_basis():
    lap = glm.build_laplacian(glm.grid_graph(40, 40))
    assert lap.shape[0] >= spectral._IN_PLACE_MIN_N
    kept = lap.copy()
    public = glm.eigendecompose(lap)
    assert np.array_equal(lap, kept)  # the caller's array is never written
    owned = glm.eigendecompose(spectral._Owned(lap))
    assert owned.eigenvectors.flags.c_contiguous
    assert not owned.eigenvectors.flags.writeable
    np.testing.assert_allclose(owned.eigenvalues, public.eigenvalues,
                               rtol=0.0, atol=1e-12)
    assert np.einsum("ij,ij->j", owned.eigenvectors,
                     public.eigenvectors).min() >= 1.0 - 1e-12
