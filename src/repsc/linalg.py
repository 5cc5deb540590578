"""Dense linear algebra with deterministic output conventions.

This module owns every dense matrix product (``matmul``), the symmetric
rank-2k update (``sym_rank2k_update``) and every factorization
(``sym_eig``, ``null_side_eig``, ``orthonormal_columns``,
``_complement_columns``), all on scipy's BLAS and LAPACK: numpy links a
second OpenBLAS with its own thread pool, whose spinning threads slow the
next scipy eigensolve down. Every eigendecomposition reports its
eigenvalues in ascending order, and in every eigenvector column the first
entry whose magnitude exceeds 1e-12 is made positive, so repeated runs and
different call sites agree bit for bit. Every N-by-N pass works on row
strips of about N/32 rows (``row_blocks``), so its temporaries stay a small
fraction of one N-by-N matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dcopy, dgemm, dsyr2k

from .errors import (
    EigenConvergenceError,
    NonSquareError,
    NotSymmetricError,
    SizeMismatchError,
)

SYMMETRY_ATOL = 1e-10
SIGN_THRESHOLD = 1e-12
# An eigenvalue of R counts as zero when |lambda| <= RANK_REL_TOL * N *
# ||R||_inf (``clustering._rep_spectrum``, the one place that applies it).
RANK_REL_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Spectrum (or its bottom part) of a symmetric matrix.

    ``eigenvalues`` is ascending; column ``eigenvectors[:, i]`` belongs to
    ``eigenvalues[i]`` and carries the deterministic sign convention.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_float_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array and reject non-finite entries, checked
    by row strips (``row_blocks``), so no N-by-N mask is made."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not all(np.isfinite(a[rows]).all() for rows in row_blocks(a.shape[0])):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices that cover ``n`` rows, about n/32 rows each
    (at least 16): a pass over an N-by-N matrix strip by strip holds
    temporaries of a few percent of it."""
    step = max(-(-n // 32), 16)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _symmetrize(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Overwrite square ``a`` with (a + a^T)/2 and return it; first raise
    NotSymmetricError when max|a - a^T| exceeds SYMMETRY_ATOL.

    Strip i of rows is paired with the same strip of columns at or right of
    the diagonal, whose entries no earlier strip has written, so every entry
    gets the bits of the whole-matrix formula and no N-by-N temporary is
    made.
    """
    strips = row_blocks(a.shape[0])
    gap = 0.0
    for rows in strips:
        diff = np.subtract(a[rows, rows.start:], a[rows.start:, rows].T)
        np.abs(diff, out=diff)
        gap = max(gap, diff.max())
    if gap > SYMMETRY_ATOL:
        raise NotSymmetricError(
            f"{name} is not symmetric: max|m - m^T| = {gap:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    for rows in strips:
        half = np.add(a[rows, rows.start:], a[rows.start:, rows].T)
        half /= 2.0
        a[rows, rows.start:] = half
        a[rows.start:, rows] = half.T
    return a


def _square_matrix(m, name: str) -> np.ndarray:
    """``as_float_matrix`` that also raises NonSquareError."""
    a = as_float_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    return a


def ensure_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry up to SYMMETRY_ATOL and return the symmetrized copy.

    Asymmetry below the tolerance is treated as numerical noise and averaged
    away; anything larger is an error in the caller's data.
    """
    return _symmetrize(_square_matrix(np.array(m, dtype=np.float64, order="C"), name), name)


def _blas_operand(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, trans) with x Fortran-contiguous and op(x) = m^T, where op
    transposes when ``trans`` is 1; only an operand that is neither C- nor
    Fortran-contiguous is copied."""
    if m.flags.c_contiguous:
        return m.T, 0
    if m.flags.f_contiguous:
        return m, 1
    return np.ascontiguousarray(m).T, 0


def matmul(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` through scipy's BLAS ``dgemm``, the library ``sym_eig`` uses.

    A 1-d ``a`` is a row and a 1-d ``b`` a column, and each such dimension
    is dropped from the result, as with ``@``. BLAS computes the transpose
    b^T a^T in Fortran order, so the product comes back C-ordered, the
    layout ``@`` returns; the operands are neither modified nor copied
    unless one is neither C- nor Fortran-contiguous. For 2-d operands,
    ``out``, a C-contiguous float64 array of the product's shape that
    overlaps neither operand, receives the product, with the bits of a
    fresh one, and is returned. A bool operand raises ValueError: its float
    conversion would be a whole float64 copy, which a ``Graph``'s bool
    adjacency never gets (``graphs._adjacency_product`` multiplies it by
    row strips).
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == bool or b.dtype == bool:
        raise ValueError("matmul takes no bool operand; convert it to float64 first")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"operands must be 1- or 2-d, got shapes {a.shape} and {b.shape}")
    left = a if a.ndim == 2 else a[None, :]
    right = b if b.ndim == 2 else b[:, None]
    if left.shape[1] != right.shape[0]:
        raise SizeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")
    first, trans_a = _blas_operand(right)
    second, trans_b = _blas_operand(left)
    if out is not None:
        if a.ndim != 2 or b.ndim != 2 or out.shape != (a.shape[0], b.shape[1]) \
                or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 {a.shape[0]}x{b.shape[1]} array")
        # beta = 0 zeroes C before the update, as for a fresh product.
        dgemm(1.0, first, second, trans_a=trans_a, trans_b=trans_b, c=out.T, overwrite_c=True)
        return out
    product = dgemm(1.0, first, second, trans_a=trans_a, trans_b=trans_b).T
    return product.reshape(a.shape[:-1] + b.shape[1:])[()]


def sym_rank2k_update(m: np.ndarray, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Overwrite the symmetric ``m`` (C-contiguous float64, N-by-N) with
    m - W E^T - E W^T for N-by-w W = ``w`` and E = ``e`` and return it.

    One BLAS ``dsyr2k`` updates m's lower triangle in place, from W^T and
    E^T as Fortran views (``trans``); then one ``dcopy`` per row mirrors
    it, so the result is exactly symmetric and nothing is allocated beyond
    what ``w`` and ``e`` need: a numpy copy within m would copy its source
    first, and those strip temporaries stay resident in the heap.
    """
    if m.dtype != np.float64 or not m.flags.c_contiguous:
        raise ValueError("m must be a C-contiguous float64 array")
    dsyr2k(-1.0, np.ascontiguousarray(w).T, np.ascontiguousarray(e).T, beta=1.0, c=m.T,
           trans=1, overwrite_c=1)
    n, flat = m.shape[0], m.reshape(-1)
    for j in range(n - 1):  # row j right of the diagonal from column j below it
        dcopy(flat, flat, n - j - 1, (j + 1) * n + j, n, j * n + j + 1, 1)
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs in place so the first entry above the threshold is
    positive; return ``vectors``."""
    if vectors.shape[0] == 0:
        return vectors
    columns = np.arange(vectors.shape[1])
    first = (np.abs(vectors) > SIGN_THRESHOLD).argmax(axis=0)
    # A column with no entry above the threshold has first == 0 and an entry
    # of magnitude at most the threshold there, so it keeps its sign.
    signs = np.where(vectors[first, columns] < -SIGN_THRESHOLD, -1.0, 1.0)
    # Times -1.0 negates a finite entry exactly, and in place it is far
    # cheaper than a fancy-index copy of the flipped columns. Not
    # np.negative(col, out=col) per column: numpy 2.4.6 writes wrong values
    # through a column view whose rows are 8 doubles apart.
    vectors *= signs
    return vectors


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span of ``m``, which must have
    full column rank: m R^{-1} for R the Cholesky factor of m^T m (one
    Cholesky QR step). Its columns are orthonormal to about cond(m)^2 times
    the rounding unit, so ``m`` should be well conditioned, such as a
    diagonal rescaling of orthonormal columns.

    Raises:
        EigenConvergenceError when m^T m is not numerically positive
        definite.
    """
    try:
        upper = scipy.linalg.cholesky(matmul(m.T, m), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return scipy.linalg.solve_triangular(upper, m.T, trans="T", check_finite=False).T


def _complement_columns(columns: np.ndarray) -> np.ndarray:
    """Orthonormal N-by-(N - w) columns spanning the orthogonal complement
    of the span of orthonormal N-by-w ``columns``: the last N - w columns of
    the Q of their Householder QR (LAPACK's ``dgeqrf``, then ``dormqr`` on
    [0; I]), sign-fixed. Only the N-by-(N - w) result is formed."""
    n, width = columns.shape
    if width == 0:
        return np.eye(n, order="F")
    factors, tau, _, _ = lapack.dgeqrf(np.array(columns, order="F"), overwrite_a=1)
    out = np.zeros((n, n - width), order="F")
    out[width:] = np.eye(n - width)
    _, work, _ = lapack.dormqr("L", "N", factors, tau, out, -1)
    lapack.dormqr("L", "N", factors, tau, out, max(int(work[0]), 1), overwrite_c=1)
    return _fix_signs(out)


def _owned(a: np.ndarray) -> np.ndarray:
    """``a`` when it spans its whole buffer, else a copy in its own memory
    layout (``order="K"``: a Fortran block stays Fortran, so every later
    reduction over it sums in the same order). scipy's subset eigensolve
    (``count``) fills buffers sized for every eigenpair and returns slices
    of them; a kept slice would keep the whole buffer alive."""
    base = a.base
    if base is None or getattr(base, "nbytes", None) == a.nbytes:
        return a
    return a.copy(order="K")


class _Scratch(np.ndarray):
    """A matrix that ``sym_eig`` may overwrite; made by ``_scratch``."""


def _scratch(m: np.ndarray) -> np.ndarray:
    """``m`` handed to ``sym_eig`` as scratch: a view that ``sym_eig`` checks
    for symmetry and averages in place (the same SYMMETRY_ATOL and the same
    (m + m^T)/2 bits as ``ensure_symmetric``), and that LAPACK then
    overwrites, so an N-by-N matrix the caller built and drops, such as a
    Laplacian, is solved without a copy. It holds no meaningful values
    afterwards. The solve stays a ``sym_eig`` call, so every eigensolve of
    the package is one of that or ``null_side_eig``."""
    return m.view(_Scratch)


def _tridiagonal_vectors(diagonal: np.ndarray, offdiagonal: np.ndarray, values: np.ndarray,
                         blocks: np.ndarray, split: np.ndarray) -> np.ndarray:
    """N-by-w eigenvectors of the tridiagonal T for ``values`` (from
    ``dstebz``, with T's block of each in ``blocks`` and its split points in
    ``split``), in the order of ``values``: ``dstein``'s inverse iteration,
    which wants the eigenvalues grouped by block, ascending in each
    (``dstebz`` may list two close ones of a block out of order)."""
    n = diagonal.size
    if not values.size:
        return np.zeros((n, 0), order="F")
    by_block = np.lexsort((values, blocks))
    grouped = np.zeros(n, dtype=blocks.dtype)
    grouped[:values.size] = blocks[by_block]
    tridiagonal_vectors, info = lapack.dstein(diagonal, offdiagonal, values[by_block],
                                              grouped, split)
    if info:
        raise EigenConvergenceError(f"dstein failed to converge (info={info})")
    vectors = np.empty((n, values.size), order="F")
    vectors[:, by_block] = tridiagonal_vectors
    return vectors


def _back_transform(factors: np.ndarray, tau: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Overwrite eigenvectors of T with those of a = Q T Q^T and return them.

    Q's first row and column are e_0, and its other rows are ``dormqr``
    with the reflectors one row down, as LAPACK's ``dormtr`` does for
    ``uplo = L``. scipy's ``dormqr`` copies a reflector block that is not
    contiguous, so the reflectors are first moved, column by column, into
    the contiguous (N-1)-by-(N-1) head of their own buffer (``factors``,
    which is overwritten)."""
    n = factors.shape[0]
    if not vectors.shape[1]:
        return vectors
    flat = factors.T.reshape(-1)  # Fortran order: column j is flat[j * n:(j + 1) * n]
    for j in range(n - 1):  # column j of factors[1:, :-1], from its row j down
        flat[j * n:(j + 1) * (n - 1)] = flat[j * (n + 1) + 1:(j + 1) * n]
    reflectors = flat[:(n - 1) ** 2].reshape((n - 1, n - 1), order="F")
    rows = np.asfortranarray(vectors[1:])
    _, work, _ = lapack.dormqr("L", "N", reflectors, tau, rows, -1)
    lapack.dormqr("L", "N", reflectors, tau, rows, max(int(work[0]), 1), overwrite_c=1)
    vectors[1:] = rows
    return vectors


def null_side_eig(m, tol: float, rank: int | None = None) -> tuple[np.ndarray, bool]:
    """Orthonormal, sign-fixed eigenvectors of the symmetric ``m`` that span
    the narrower of its two sides, and whether that is the null side. A pair
    is null when |lambda| <= ``tol``, and with ``rank`` so is every pair
    outside the ``rank`` of largest |lambda|, ties kept in ascending
    position. The null side of width w is taken when 2 (w + 1) <= N, or with
    ``rank`` when 2 w < N; so an m whose every eigenvalue is null gets no
    eigenvector.

    The solve holds one copy of ``m`` (never modified) and N-by-w blocks,
    never an N-by-N eigenvector matrix. LAPACK's ``dsytrd`` reduces the copy
    a = Q T Q^T to a tridiagonal T (reflectors below the subdiagonal,
    ``uplo = L``). Without ``rank`` and with ``tol`` > 0, ``dstebz`` first
    bisects T over [-tol, tol] (range ``V``, LAPACK's default absolute
    tolerance 0, as ``dsyevr`` does; LAPACK's interval (vl, vu] is closed by
    one step below -tol): a narrow null side takes those eigenvalues alone,
    with no other eigenvalue computed. Otherwise ``dsterf`` gives every
    eigenvalue, and for each run of consecutive positions of the side taken
    ``dstebz`` bisects for those eigenvalues (and T's split points).
    ``dstein`` takes their eigenvectors of T by inverse iteration
    (``_tridiagonal_vectors``) and Q takes them back (``_back_transform``).

    Raises:
        NonSquareError, NotSymmetricError, EigenConvergenceError.
    """
    a = ensure_symmetric(m)
    n = a.shape[0]
    if n <= 1:  # scipy's tridiagonal wrappers reject an empty off-diagonal
        values = a.diagonal()
    else:
        # a is symmetric, so a.T is the Fortran-ordered matrix LAPACK reads.
        work, _ = lapack.dsytrd_lwork(n, lower=1)
        factors, diagonal, offdiagonal, tau, _ = lapack.dsytrd(
            a.T, lower=1, lwork=max(int(work), 1), overwrite_a=1)
        if rank is None and tol > 0.0:
            width, found, blocks, split, info = lapack.dstebz(
                diagonal, offdiagonal, 1, np.nextafter(-tol, -np.inf), tol, 0, 0, 0.0, "E")
            if info:
                raise EigenConvergenceError(f"dstebz failed on [-{tol}, {tol}] (info={info})")
            if 2 * (width + 1) <= n:
                vectors = _tridiagonal_vectors(diagonal, offdiagonal, found[:width],
                                               blocks[:width], split)
                return _fix_signs(_back_transform(factors, tau, vectors)), True
        values, info = lapack.dsterf(diagonal, offdiagonal)
        if info:
            raise EigenConvergenceError(f"dsterf failed to converge (info={info})")
    magnitude = np.abs(values)
    null = magnitude <= tol
    if rank is not None:
        null[np.argsort(-magnitude, kind="stable")[rank:]] = True
    width = np.count_nonzero(null)
    null_side = 2 * width < n if rank is not None else 2 * (width + 1) <= n
    positions = np.flatnonzero(null if null_side else ~null)
    if n <= 1 or not positions.size:  # [1] is a 1 x 1 matrix's eigenvector
        return np.ones((n, positions.size), order="F"), null_side
    found, blocks = [], []
    for run in np.split(positions, np.flatnonzero(np.diff(positions) > 1) + 1):
        width, bisected, block, split, info = lapack.dstebz(
            diagonal, offdiagonal, 2, 0.0, 0.0, run[0] + 1, run[-1] + 1,
            2.0 * np.finfo(np.float64).tiny, "E")
        if info or width != run.size:
            raise EigenConvergenceError(f"dstebz failed on eigenvalues {run[0]}..{run[-1]} "
                                        f"(info={info})")
        found.append(bisected[:width])
        blocks.append(block[:width])
    vectors = _tridiagonal_vectors(diagonal, offdiagonal, np.concatenate(found),
                                   np.concatenate(blocks), split)
    return _fix_signs(_back_transform(factors, tau, vectors)), null_side


def sym_eig(m, count: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    With ``count`` only the ``count`` smallest eigenpairs are computed.
    ``m`` is never modified, except when the package marked it with
    ``_scratch``.

    Args:
        m: square matrix, symmetric up to 1e-10 absolute tolerance.
        count: optional number of bottom eigenpairs, at least 1.

    Returns:
        EigenDecomposition with ascending eigenvalues and orthonormal,
        sign-fixed eigenvectors. Both arrays own exactly their own bytes
        (``_owned``).

    Raises:
        NonSquareError, NotSymmetricError, EigenConvergenceError; TypeError
        for a ``count`` that is not an integer, such as a second matrix.
    """
    if count is not None and not isinstance(count, (int, np.integer)):
        raise TypeError(f"count must be an integer, got {type(count).__name__}")
    a = _symmetrize(_square_matrix(m, "matrix")) if type(m) is _Scratch else ensure_symmetric(m)
    if count is not None and count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count is None or count >= a.shape[0]:
        options = {"driver": "evd"}
    else:
        options = {"subset_by_index": [0, count - 1]}
    try:
        # a is exactly symmetric, so a.T is the Fortran-ordered matrix LAPACK
        # overwrites without copying again.
        values, vectors = scipy.linalg.eigh(a.T, overwrite_a=True, check_finite=False, **options)
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return EigenDecomposition(_owned(values), _fix_signs(_owned(vectors)))
