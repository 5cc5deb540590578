"""Dense linear algebra primitives: conventions, errors, reconstruction."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repsc
from conftest import traced_peak
from repsc import clustering
from repsc.clustering import constraint_null_basis
from repsc.linalg import (
    SIGN_THRESHOLD,
    SYMMETRY_ATOL,
    _fix_signs,
    _scratch,
    _symmetrize,
    as_float_matrix,
    ensure_symmetric,
    matmul,
    null_side_eig,
    orthonormal_columns,
)


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


def test_sym_eig_generalized_rejects_bad_b():
    # Every solve is a standard symmetric one: a second matrix, the b of a
    # generalized problem, is refused by name or by position, never read as
    # a count.
    a = np.diag([1.0, 2.0])
    for b in (np.eye(3), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)):
        with pytest.raises(TypeError, match="count must be an integer"):
            repsc.sym_eig(a, b)
        with pytest.raises(TypeError):
            repsc.sym_eig(a, b=b)
    with pytest.raises(ValueError):
        repsc.sym_eig(a, count=0)


def test_symmetry_noise_below_tolerance_is_averaged():
    a = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
    sym = ensure_symmetric(a)
    assert np.array_equal(sym, sym.T)
    values, _ = repsc.sym_eig(a)
    assert values.shape == (2,)


def test_as_float_matrix_shape_check():
    with pytest.raises(ValueError):
        as_float_matrix(np.ones(3))


def test_as_float_matrix_checks_finiteness_by_row_strips():
    # A float64 matrix comes back as it is, and the finiteness check holds
    # one row strip's mask at a time, not an N x N bool array (1/8 of the
    # matrix); a non-finite entry in the last strip is still found.
    n = 600
    a = random_symmetric(np.random.default_rng(10), n)
    assert as_float_matrix(a) is a
    assert traced_peak(lambda: as_float_matrix(a)) <= 0.01 * n * n * 8
    a[-1, -1] = np.nan
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        as_float_matrix(a)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def assert_sign_fixed(vectors):
    for j in range(vectors.shape[1]):
        lead = vectors[np.abs(vectors[:, j]) > 1e-12, j]
        assert lead.size == 0 or lead[0] > 0


def test_sym_eig_count_returns_the_bottom_pairs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        count = int(rng.integers(1, n))
        a = random_symmetric(rng, n)
        full = repsc.sym_eig(a)
        part = repsc.sym_eig(a, count=count)
        assert part.eigenvalues.shape == (count,)
        assert part.eigenvectors.shape == (n, count)
        assert np.allclose(part.eigenvalues, full.eigenvalues[:count], atol=1e-9)
        assert np.allclose(part.eigenvectors.T @ part.eigenvectors, np.eye(count), atol=1e-9)
        assert_sign_fixed(part.eigenvectors)
        # Random spectra are simple, so the vectors agree column by column.
        assert np.allclose(part.eigenvectors, full.eigenvectors[:, :count], atol=1e-7)
        # A count past the dimension is the full spectrum.
        assert repsc.sym_eig(a, count=n + 3).eigenvalues.shape == (n,)


def planted_null(rng, n, m):
    """A symmetric n x n matrix with eigenvalue 0 of multiplicity m (a
    random eigenbasis; every other |lambda| in [0.5, 3] with a random sign),
    and the threshold that counts its null eigenvalues: rounding leaves them
    at about 1e-15, far inside it."""
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    values = np.zeros(n)
    values[m:] = rng.uniform(0.5, 3.0, n - m) * rng.choice([-1.0, 1.0], n - m)
    a = (basis * values) @ basis.T
    return (a + a.T) / 2.0, 1e-8


def assert_select_matches_the_full_decomposition(a, tol, rank=None):
    """``null_side_eig`` against the full ``evd``: it takes the side that its
    rule picks from every eigenvalue (the null pairs, |lambda| <= ``tol``
    and with ``rank`` every pair outside the ``rank`` of largest |lambda|,
    when 2 (w + 1) <= N, or 2 w < N with ``rank``), and its eigenvectors
    have the projector of that side's columns."""
    n = a.shape[0]
    full = repsc.sym_eig(a)
    magnitude = np.abs(full.eigenvalues)
    null = magnitude <= tol
    if rank is not None:
        null[np.argsort(-magnitude, kind="stable")[rank:]] = True
    width = np.count_nonzero(null)
    vectors, null_side = null_side_eig(a, tol, rank)
    assert null_side == (2 * width < n if rank is not None else 2 * (width + 1) <= n)
    assert_same_projector(vectors, full.eigenvectors[:, null if null_side else ~null])
    assert np.allclose(vectors.T @ vectors, np.eye(vectors.shape[1]), atol=1e-10)
    assert_sign_fixed(vectors)
    assert vectors.flags.f_contiguous
    return vectors, null_side


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.integers(4, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(20, 9), seed=0)  # w = (N - 2) // 2: the null side
@example(case=(20, 10), seed=0)  # one more: the other side
@example(case=(21, 9), seed=1)
@example(case=(21, 10), seed=1)
def test_a_band_spans_the_planted_null_space(case, seed):
    # A zero eigenvalue of multiplicity m >= 2: bisection over [-t, t] finds
    # the whole cluster, and inverse iteration spans the same null space as
    # the null columns of the full decomposition; past N/2 - 1 of them, the
    # eigenvectors of the other eigenvalues span its complement.
    n, m = case
    a, tol = planted_null(np.random.default_rng(seed), n, m)
    vectors, null_side = assert_select_matches_the_full_decomposition(a, tol)
    assert null_side == (2 * (m + 1) <= n)
    assert vectors.shape == (n, m if null_side else n - m)
    if null_side:
        assert np.abs(a @ vectors).max() <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(21, 11), seed=0)  # 2 w = N - 1 null pairs: the null side
@example(case=(21, 10), seed=0)  # 2 w = N + 1: the kept side
def test_a_rank_takes_the_narrower_side(case, seed):
    # A random spectrum has no zero and no tie: all but the rank pairs of
    # largest |lambda| are null.
    n, rank = case
    vectors, null_side = assert_select_matches_the_full_decomposition(
        random_symmetric(np.random.default_rng(seed), n), 0.0, rank)
    assert null_side == (2 * (n - rank) < n)
    assert vectors.shape == (n, n - rank if null_side else rank)


def test_band_returns_the_pairs_in_the_closed_interval():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        a = random_symmetric(rng, n)
        # Halfway between two magnitudes, so no eigenvalue sits near an end
        # and 1 to n - 1 of them are null: both sides are taken.
        magnitudes = np.sort(np.abs(repsc.sym_eig(a).eigenvalues))
        inside = int(rng.integers(1, n))
        assert_select_matches_the_full_decomposition(
            a, float(magnitudes[inside - 1] + magnitudes[inside]) / 2.0)
    for seed, (n, m) in enumerate([(40, 2), (40, 19), (120, 39), (9, 7)]):
        assert_select_matches_the_full_decomposition(*planted_null(np.random.default_rng(seed), n, m))
    # Both ends of [-1, 1] belong to it: the null side when it is narrow,
    # the side outside it when it is wide.
    narrow, null_side = null_side_eig(np.diag([2.0, 1.0, -1.0, 3.0, -3.0, 4.0, 5.0, -6.0]), 1.0)
    assert null_side and np.array_equal(narrow @ narrow.T, np.diag([0.0, 1, 1, 0, 0, 0, 0, 0]))
    wide, null_side = null_side_eig(np.diag([2.0, 1.0, -1.0, 0.5, -3.0]), 1.0)
    assert not null_side and np.array_equal(wide @ wide.T, np.diag([1.0, 0, 0, 0, 1]))
    # No null eigenvalue: the empty null side from N = 2 on.
    for n in (2, 5):
        empty, null_side = null_side_eig(np.diag(np.linspace(2.0, 3.0, n)), 1.0)
        assert null_side and empty.shape == (n, 0)
    # 1 x 1 and 0 x 0: the null side is never narrow, and [1] is the one
    # eigenvector.
    for m, width in ((np.array([[2.0]]), 1), (np.array([[0.5]]), 0), (np.zeros((0, 0)), 0)):
        vectors, null_side = null_side_eig(m, 1.0)
        assert not null_side and np.array_equal(vectors, np.ones((m.shape[0], width)))


def test_sym_eig_leaves_its_arguments_unchanged():
    rng = np.random.default_rng(9)
    n = 12
    a = random_symmetric(rng, n)
    # Exactly symmetric inputs, C- and F-ordered, and one with rounding noise.
    noisy = a + 1e-13 * rng.standard_normal((n, n))
    for m in (a, np.asfortranarray(a), noisy):
        for count in (None, 1, 3):
            m_before = m.copy()
            repsc.sym_eig(m, count)
            assert np.array_equal(m, m_before)
        # R's select solve: a narrow band, a wide one, and a rank.
        for tol, rank in ((1.0, None), (100.0, None), (0.0, 3)):
            m_before = m.copy()
            null_side_eig(m, tol, rank)
            assert np.array_equal(m, m_before)


@pytest.mark.parametrize("fortran, count, copies", [
    (False, None, 3),  # symmetrized copy + divide-and-conquer workspace (2 N^2)
    (True, None, 3),   # a Fortran-ordered argument is copied once too
    (True, 1, 1),
    (False, 1, 1),
])
def test_sym_eig_peak_memory(fortran, count, copies):
    # Allocations inside sym_eig, in units of one N x N float64 matrix: the
    # argument copy LAPACK works on, and no second copy made by scipy.
    n = 400
    rng = np.random.default_rng(10)
    a = random_symmetric(rng, n)
    if fortran:
        a = np.asfortranarray(a)
    peak = traced_peak(lambda: repsc.sym_eig(a, count))
    assert peak <= (copies + 0.25) * n * n * 8


def test_the_select_solve_holds_one_copy_and_thin_blocks():
    # The select solve tridiagonalizes its one copy of m in place and keeps
    # the reflectors there: beyond it only N x w eigenvector blocks (w = N/10
    # here), not the 2 N^2 of workspace and vectors of a full solve.
    n = 400
    a = random_symmetric(np.random.default_rng(10), n)
    peak = traced_peak(lambda: null_side_eig(a, 0.0, n // 10))
    assert peak <= 1.5 * n * n * 8


def test_the_exact_null_solve_of_a_regular_r_holds_one_copy():
    # R's exact constraint on a fresh d-regular R at N = 400 (19 null
    # pairs): its float copy of R, tridiagonalized in place, and N x 19
    # blocks. Bisection
    # computes no other eigenvalue and no N-column eigenvector buffer is
    # made; the interval solve of scipy's subset driver read about 2.1.
    n = 400
    fresh = iter([repsc.build_d_regular_rep_graph(n, 5, 40)[0] for _ in range(2)])
    peak = traced_peak(lambda: clustering._rep_spectrum(next(fresh), None))
    assert peak <= 1.3 * n * n * 8


def test_a_scratch_matrix_is_solved_without_a_copy():
    # The matrix itself is LAPACK's workspace: only the eigenvector and
    # work arrays are allocated.
    n = 400
    a = random_symmetric(np.random.default_rng(10), n)
    copies = iter([a.copy(), a.copy()])
    peak = traced_peak(lambda: repsc.sym_eig(_scratch(next(copies)), count=1))
    assert peak <= 0.25 * n * n * 8


@pytest.mark.parametrize("options", [{}, {"count": 3}, {"tol": 1.0}, {"tol": 0.0, "rank": 100}])
def test_sym_eig_results_own_their_bytes(options):
    # The subset solve fills buffers sized for all N pairs and scipy
    # returns slices of them; a caller keeping such a slice, as R's memo
    # keeps the eigenvectors of R's select solve (``tol``), would keep the
    # larger buffer alive. The copy keeps LAPACK's Fortran layout.
    n = 200
    a = random_symmetric(np.random.default_rng(3), n)
    if "tol" in options:
        vectors, _ = null_side_eig(a, **options)
        arrays = (vectors,)
    else:
        arrays = repsc.sym_eig(a, **options)
    vectors = arrays[-1]
    assert 0 < vectors.shape[1] < n or not options
    for array in arrays:
        assert array.base is None or array.base.nbytes == array.nbytes
    assert vectors.flags.f_contiguous


def whole_matrix_symmetrized(a):
    """ensure_symmetric's check and average computed on the whole matrix at
    once, or None where the check fails: the reference of the strips."""
    sym = np.subtract(a, a.T)
    np.abs(sym, out=sym)
    gap = sym.max() if a.size else 0.0
    if gap > SYMMETRY_ATOL:
        return None
    np.add(a, a.T, out=sym)
    sym /= 2.0
    return sym


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 80), noise=st.sampled_from([0.0, 1e-13, 4e-11, 1e-10, 3e-10, 1.0]),
       scale=st.sampled_from([1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
@example(n=1, noise=1.0, scale=1.0, seed=0)
@example(n=2, noise=1e-10, scale=1.0, seed=1)
def test_in_place_symmetrization_equals_the_whole_matrix_formula(n, noise, scale, seed):
    rng = np.random.default_rng(seed)
    a = scale * random_symmetric(rng, n) + noise * rng.standard_normal((n, n))
    reference = whole_matrix_symmetrized(a)
    for symmetrize in (ensure_symmetric, lambda m: _symmetrize(m.copy())):
        if reference is None:
            with pytest.raises(repsc.NotSymmetricError):
                symmetrize(a)
        else:
            assert symmetrize(a).tobytes() == reference.tobytes()
    # sym_eig solves a scratch matrix as it solves the matrix's copy.
    count = max(1, n // 3)
    if reference is None:
        with pytest.raises(repsc.NotSymmetricError):
            repsc.sym_eig(_scratch(a.copy()), count=count)
    elif n:
        got = repsc.sym_eig(_scratch(a.copy()), count=count)
        want = repsc.sym_eig(a, count=count)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_matmul_into_out_equals_a_fresh_product():
    rng = np.random.default_rng(14)
    for rows, inner, cols in [(300, 20, 300), (7, 3, 5), (1, 4, 1), (50, 600, 40)]:
        a, b = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
        out = np.full((rows, cols), np.nan)
        assert matmul(a, b, out=out) is out
        assert out.tobytes() == matmul(a, b).tobytes()
        assert matmul(a.T.T, np.asfortranarray(b), out=out).tobytes() == matmul(a, b).tobytes()
    with pytest.raises(ValueError):
        matmul(a, b, out=np.empty((cols, rows)))


def test_fix_signs_flips_columns_in_place():
    rng = np.random.default_rng(11)
    for cols in range(1, 20):
        vectors = rng.standard_normal((7, cols))
        vectors[0, ::2] = -np.abs(vectors[0, ::2])
        expected = vectors * np.where(vectors[0] < 0, -1.0, 1.0)
        assert _fix_signs(vectors) is vectors
        assert np.array_equal(vectors, expected)


def fix_signs_reference(vectors):
    """The per-column loop: one flatnonzero per column."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = np.flatnonzero(np.abs(col) > SIGN_THRESHOLD)
        if idx.size and col[idx[0]] < 0:
            vectors[:, j] = -col
    return vectors


# Mostly tiny entries, so columns whose every entry is at or below the
# threshold and columns whose first large entry comes late are common.
sign_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, SIGN_THRESHOLD, -SIGN_THRESHOLD, 2e-12, -2e-12]),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
                  elements=sign_entries),
       st.sampled_from(["C", "F", "strided"]))
# A first large entry that is negative and late; columns wholly at or below it.
@example(np.array([[1e-13, 0.0], [-1e-13, 2e-12], [-5.0, -1.0]]), "strided")
@example(np.array([[-SIGN_THRESHOLD, 1e-13], [-1e-13, -SIGN_THRESHOLD]]), "F")
def test_fix_signs_equals_the_per_column_loop(m, layout):
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "strided":
        # Every other column of a wider array; with 4 columns its rows are 8
        # doubles apart, the layout of the numpy 2.4.6 negative(out=) bug.
        wide = np.zeros((m.shape[0], 2 * m.shape[1]))
        wide[:, ::2] = m
        m = wide[:, ::2]
    want = fix_signs_reference(m.copy())
    got = _fix_signs(m)
    assert got is m
    assert got.tobytes() == want.tobytes()


# -- matmul: every dense product on the BLAS of the eigensolver --------------


def layouts(rng, rows, cols):
    """One random matrix C-ordered, Fortran-ordered and as a strided view."""
    m = rng.standard_normal((rows, cols))
    strided = np.zeros((2 * rows, 3 * cols))[::2, ::3]
    strided[...] = m
    return [m, np.asfortranarray(m), strided]


def test_matmul_equals_the_operator_in_every_layout():
    rng = np.random.default_rng(12)
    for m, k, n in [(7, 5, 3), (1, 4, 6), (30, 1, 2), (40, 60, 20)]:
        for a in layouts(rng, m, k):
            for b in layouts(rng, k, n):
                # 1-d operands: a row on the left, a column on the right.
                for x, y in [(a, b), (a[0], b), (a, b[:, 0]), (a[0], b[:, 0])]:
                    x_before, y_before = x.copy(), y.copy()
                    got, want = matmul(x, y), x @ y
                    assert np.shape(got) == np.shape(want)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                    assert np.ndim(got) == 0 or got.flags.c_contiguous
                    assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


def test_matmul_edge_shapes():
    assert np.array_equal(matmul(np.ones((3, 0)), np.ones((0, 4))), np.zeros((3, 4)))
    assert matmul(np.ones((0, 2)), np.ones((2, 5))).shape == (0, 5)
    read_only = np.arange(6.0).reshape(2, 3)
    read_only.flags.writeable = False
    assert np.array_equal(matmul(read_only, np.eye(3)), read_only)
    with pytest.raises(repsc.SizeMismatchError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        matmul(np.ones((2, 2, 2)), np.ones((2, 2)))


def test_matmul_rejects_a_bool_operand():
    # A Graph's bool adjacency is multiplied by row strips
    # (graphs._adjacency_product); converting it whole would copy it to
    # float64, so matmul refuses it on either side, with or without out.
    mask = np.eye(3, dtype=bool)
    for x, y in [(mask, np.ones((3, 2))), (np.ones((2, 3)), mask), (mask[0], np.ones(3)),
                 (mask, mask)]:
        with pytest.raises(ValueError, match="bool operand"):
            matmul(x, y)
    with pytest.raises(ValueError, match="bool operand"):
        matmul(mask, np.ones((3, 2)), out=np.empty((3, 2)))
    assert np.array_equal(matmul(mask.astype(float), np.ones((3, 2))), np.ones((3, 2)))


def test_orthonormal_columns_keeps_the_span():
    # A degree rescaling of orthonormal columns, as the normalized W arm
    # hands it: degrees spread over two orders of magnitude.
    rng = np.random.default_rng(21)
    columns, _ = np.linalg.qr(rng.standard_normal((200, 12)))
    scaled = columns / np.sqrt(rng.uniform(1.0, 100.0, 200))[:, None]
    got = orthonormal_columns(scaled)
    assert np.abs(got.T @ got - np.eye(12)).max() <= 1e-13
    reference, _ = np.linalg.qr(scaled)
    assert np.abs(got @ got.T - reference @ reference.T).max() <= 1e-13
    with pytest.raises(repsc.EigenConvergenceError):
        orthonormal_columns(np.column_stack([scaled, scaled[:, 0]]))


def test_matmul_copies_no_contiguous_operand():
    a = np.random.default_rng(13).standard_normal((600, 400))
    for x, y in [(a.T, a), (a, a.T), (np.asfortranarray(a), a.T)]:
        out = matmul(x, y)
        # The product itself, and no copy of a 1.9 MB operand.
        assert traced_peak(lambda: matmul(x, y)) <= out.nbytes + a.nbytes / 4


PRODUCT_CALLS = {"dot", "matmul", "tensordot"}
# numpy.linalg's factorizations and solvers run on numpy's OpenBLAS, the
# second thread pool; np.linalg.norm runs no LAPACK and stays allowed.
NUMPY_LAPACK_CALLS = {"cholesky", "solve", "qr", "svd", "eigh", "eig", "inv", "pinv", "lstsq"}


def _is_numpy_linalg(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def _names_scipy_spatial(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.spatial") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.spatial") or (
            module == "scipy" and any(alias.name == "spatial" for alias in node.names))
    return (isinstance(node, ast.Attribute) and node.attr in ("spatial", "cdist")) or (
        isinstance(node, ast.Name) and node.id == "cdist")


def test_only_linalg_multiplies_matrices():
    # One BLAS library, and so one thread pool, serves the package only while
    # every product goes through linalg.matmul and every factorization
    # through linalg; distances are products too, so no module may reach for
    # scipy.spatial's cdist instead.
    found = []
    for path in sorted(Path(repsc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _names_scipy_spatial(node):
                found.append(f"{path.name}:{node.lineno}: scipy.spatial")
            elif path.name == "linalg.py":
                continue
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif (isinstance(node, ast.Attribute) and node.attr in PRODUCT_CALLS
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno}: np.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and any(alias.name in PRODUCT_CALLS | {"linalg"} for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}: from numpy import")
            elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_LAPACK_CALLS
                  and _is_numpy_linalg(node.value)):
                found.append(f"{path.name}:{node.lineno}: np.linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found.append(f"{path.name}:{node.lineno}: from numpy.linalg import")
    assert found == []


FUNCTION_CACHES = {"cache", "lru_cache"}


def test_memos_stay_attached_to_objects():
    # What the package keeps lives on the object it was computed from (a
    # Graph's spectrum and memo) and is freed with it. A function-level cache
    # holds its arguments and results for the life of the process, and an
    # id() key can name a later object that reuses a freed one's address.
    found = []
    for path in sorted(Path(repsc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in FUNCTION_CACHES
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and any(alias.name in FUNCTION_CACHES for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}: from functools import")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id"):
                found.append(f"{path.name}:{node.lineno}: id()")
    assert found == []


# Loaded by scipy.optimize (and by scipy.spatial), never by scipy.linalg;
# together they add about 0.2 s and 20 MiB to a process's import on a
# 2-core machine.
HEAVY_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special", "scipy.fft")


def test_importing_the_cli_loads_no_heavy_scipy_module():
    # A fresh interpreter, so modules the test suite has loaded do not count.
    probe = ("import sys, repsc.cli; "
             f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    src = str(Path(repsc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# -- what the removed helpers did, through the code that replaced them -------
#
# The SVD null space and the rank truncation are gone:
# constraint_null_basis(R, rank) builds the null space of R (I - 11^T/N) from
# one eigendecomposition of R.


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
