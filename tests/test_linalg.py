"""Dense linear algebra primitives: conventions, errors, reconstruction."""

import numpy as np
import pytest
import scipy.linalg

import repsc
from repsc.clustering import constraint_null_basis
from repsc.linalg import as_float_matrix, ensure_symmetric


def test_sym_eig_known_diagonal():
    values, vectors = repsc.sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(values, [-1.0, 2.0, 3.0])
    # Eigenvectors of a diagonal matrix are coordinate axes, sign-fixed up.
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])
    assert np.all(vectors.sum(axis=0) > 0)


def test_sym_eig_orthonormal_and_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 12)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        values, vectors = repsc.sym_eig(a)
        assert np.all(np.diff(values) >= 0)
        assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-9)
        assert np.allclose((vectors * values) @ vectors.T, a, atol=1e-9)


def test_sym_eig_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    a = a + a.T
    _, v1 = repsc.sym_eig(a)
    _, v2 = repsc.sym_eig(a.copy())
    assert np.array_equal(v1, v2)
    for j in range(v1.shape[1]):
        lead = v1[np.abs(v1[:, j]) > 1e-12, j]
        assert lead.size == 0 or lead[0] > 0


def test_sym_eig_rejects_bad_input():
    with pytest.raises(repsc.NonSquareError):
        repsc.sym_eig(np.ones((2, 3)))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(repsc.NotSymmetricError):
        repsc.sym_eig(skew)
    with pytest.raises(ValueError):
        repsc.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_symmetry_noise_below_tolerance_is_averaged():
    a = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
    sym = ensure_symmetric(a)
    assert np.array_equal(sym, sym.T)
    values, _ = repsc.sym_eig(a)
    assert values.shape == (2,)


def test_as_float_matrix_shape_check():
    with pytest.raises(ValueError):
        as_float_matrix(np.ones(3))


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def assert_sign_fixed(vectors):
    for j in range(vectors.shape[1]):
        lead = vectors[np.abs(vectors[:, j]) > 1e-12, j]
        assert lead.size == 0 or lead[0] > 0


def test_sym_eig_generalized_b_orthonormal_and_solves():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a, b = random_symmetric(rng, n), random_spd(rng, n)
        values, vectors = repsc.sym_eig(a, b)
        assert np.all(np.diff(values) >= 0)
        assert np.allclose(vectors.T @ b @ vectors, np.eye(n), atol=1e-9)
        assert np.allclose(a @ vectors, b @ vectors * values, atol=1e-8)
        assert np.allclose(values, scipy.linalg.eigvalsh(a, b), atol=1e-9)
        assert_sign_fixed(vectors)


def test_sym_eig_count_returns_the_bottom_pairs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        count = int(rng.integers(1, n))
        a = random_symmetric(rng, n)
        for b in (None, random_spd(rng, n)):
            full = repsc.sym_eig(a, b)
            part = repsc.sym_eig(a, b, count=count)
            assert part.eigenvalues.shape == (count,)
            assert part.eigenvectors.shape == (n, count)
            assert np.allclose(part.eigenvalues, full.eigenvalues[:count], atol=1e-9)
            gram = part.eigenvectors.T @ (np.eye(n) if b is None else b) @ part.eigenvectors
            assert np.allclose(gram, np.eye(count), atol=1e-9)
            assert_sign_fixed(part.eigenvectors)
            # Random spectra are simple, so the vectors agree column by column.
            assert np.allclose(part.eigenvectors, full.eigenvectors[:, :count], atol=1e-7)
        # A count past the dimension is the full spectrum.
        assert repsc.sym_eig(a, count=n + 3).eigenvalues.shape == (n,)


def test_sym_eig_generalized_rejects_bad_b():
    a = np.diag([1.0, 2.0])
    with pytest.raises(repsc.SizeMismatchError):
        repsc.sym_eig(a, np.eye(3))
    with pytest.raises(repsc.NotSymmetricError):
        repsc.sym_eig(a, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        repsc.sym_eig(a, count=0)


# -- what the removed helpers did, through the code that replaced them -------
#
# The SVD null space, the square root pair and the rank truncation are gone:
# constraint_null_basis(R, rank) builds the null space of R (I - 11^T/N) from
# one eigendecomposition of R, and sym_eig(m, b) replaces Q^{-1/2} whitening.


def centered(r):
    n = r.shape[0]
    return r - np.outer(r.sum(axis=1), np.full(n, 1.0 / n))


def assert_same_projector(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a @ a.T - b @ b.T)) <= 1e-8


def test_null_space_of_centered_projector():
    # R (I - 11^T/N) has rank one, so the null space has N - 1 columns.
    v = np.array([1.0, 2.0, 3.0])
    basis = constraint_null_basis(np.outer(v, v))
    assert basis.shape == (3, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    assert np.allclose(centered(np.outer(v, v)) @ basis, 0.0, atol=1e-9)


def test_null_space_full_rank_is_empty():
    # null(R) is empty, so only the all-ones direction is left.
    basis = constraint_null_basis(np.diag([1.0, 2.0, 3.0]))
    assert basis.shape == (3, 1)
    assert np.allclose(basis[:, 0], 1.0 / np.sqrt(3.0))


def test_null_space_zero_matrix_is_identity_sized():
    basis = constraint_null_basis(np.zeros((4, 4)))
    assert basis.shape == (4, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)


def test_null_space_deterministic_and_sign_fixed():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 9))
    # Rank 6 in 9 dimensions, and 1 is not in null(R): span(1) plus the
    # 2-dimensional part of null(R) orthogonal to 1.
    r = a.T @ a
    b1 = constraint_null_basis(r)
    b2 = constraint_null_basis(r.copy())
    assert np.array_equal(b1, b2)
    assert b1.shape == (9, 3)
    assert np.allclose(b1.T @ b1, np.eye(3), atol=1e-10)
    assert np.allclose(centered(r) @ b1, 0.0, atol=1e-9)
    assert_sign_fixed(b1)


def test_sqrt_and_inv_sqrt_roundtrip():
    # The generalized problem m z = lambda b z is the whitened problem
    # b^{-1/2} m b^{-1/2} u = lambda u with z = b^{-1/2} u.
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a, spd = random_symmetric(rng, n), random_spd(rng, n)
        q_values, q_vectors = scipy.linalg.eigh(spd)
        root = (q_vectors * np.sqrt(q_values)) @ q_vectors.T
        inv_root = (q_vectors / np.sqrt(q_values)) @ q_vectors.T
        assert np.allclose(root @ root, spd, atol=1e-8)
        assert np.allclose(root @ inv_root, np.eye(n), atol=1e-8)
        whitened = inv_root @ a @ inv_root
        values, vectors = repsc.sym_eig(a, spd)
        assert np.allclose(values, scipy.linalg.eigvalsh((whitened + whitened.T) / 2.0),
                           atol=1e-9)
        u = root @ vectors
        assert np.allclose(u.T @ u, np.eye(n), atol=1e-9)
        assert np.allclose(whitened @ u, u * values, atol=1e-8)


def test_sqrt_rejects_singular():
    a = np.diag([1.0, 2.0])
    for b in (np.diag([1.0, 0.0]), np.diag([1.0, -2.0])):
        with pytest.raises(repsc.EigenConvergenceError):
            repsc.sym_eig(a, b)
        with pytest.raises(repsc.EigenConvergenceError):
            repsc.sym_eig(a, b, count=1)


def test_low_rank_approx_exact_on_low_rank_input():
    # Two all-ones blocks have rank 2: the truncation loses nothing.
    m = np.zeros((7, 7))
    m[:4, :4] = 1.0
    m[4:, 4:] = 1.0
    assert_same_projector(constraint_null_basis(m, rank=2), constraint_null_basis(m))


def test_low_rank_approx_keeps_largest_magnitude():
    # Rank 2 keeps 5 and -4 and discards 1, so null(R_2) = span(e_3).
    basis = constraint_null_basis(np.diag([5.0, -4.0, 1.0]), rank=2)
    expected = scipy.linalg.null_space(centered(np.diag([5.0, -4.0, 0.0])))
    assert basis.shape == (3, 1)
    assert_same_projector(basis, expected)


def test_low_rank_approx_error_matches_discarded_spectrum():
    # With 1 an eigenvector of the largest |lambda|, the basis is 1 plus the
    # discarded eigenvectors, so R (I - 11^T/N) maps it onto exactly the
    # discarded part of the spectrum.
    rng = np.random.default_rng(7)
    n, rank = 9, 4
    start = rng.standard_normal((n, n))
    start[:, 0] = 1.0
    q, _ = np.linalg.qr(start)
    values = rng.uniform(-1.0, 1.0, n)
    values[0] = 3.0
    a = (q * values) @ q.T
    basis = constraint_null_basis(a, rank=rank)
    discarded = np.sort(np.abs(values))[: n - rank]
    assert basis.shape == (n, n - rank + 1)
    assert np.isclose(np.linalg.norm(centered(a) @ basis), np.linalg.norm(discarded), atol=1e-9)


def test_low_rank_approx_rank_bounds():
    m = np.eye(3)
    with pytest.raises(ValueError):
        constraint_null_basis(m, rank=-1)
    with pytest.raises(ValueError):
        constraint_null_basis(m, rank=4)
    assert_same_projector(constraint_null_basis(m, rank=3), constraint_null_basis(m))
