"""Dense linear algebra with deterministic output conventions.

All routines work on plain float64 numpy arrays and are meant for the
desk-scale problems this package targets (a few thousand nodes), so
everything is dense and exact up to LAPACK precision. This module owns every
dense matrix product in the package (``matmul``) as well as every
factorization: the eigensolver (``sym_eig``), the Cholesky QR of a few
columns (``orthonormal_columns``) and the Householder QR that completes
orthonormal columns to a basis (``_complement_columns``), and all of them
run on scipy's BLAS and LAPACK.
numpy links a second OpenBLAS with its own thread pool, and a pool whose
threads still spin after a numpy product slows the next scipy eigensolve
down; with one library for both, there is one pool. Two conventions are applied to every
eigendecomposition so that repeated runs and different call sites agree
bit for bit:

* eigenvalues are reported in ascending order;
* in every eigenvector column, the first entry whose magnitude
  exceeds 1e-12 is made positive by flipping the column sign if needed.

``sym_eig`` never modifies its inputs: LAPACK works on the symmetrized
copies that ``ensure_symmetric`` makes, in place, so each argument is copied
exactly once. An N-by-N scratch matrix that its caller built and drops,
such as a Laplacian, is handed over as ``_scratch(m)`` instead: the symmetry
check and the average (a + a^T)/2 run in place, strip by strip, and LAPACK
overwrites the matrix, so the solve holds no second N-by-N array. Every
N-by-N pass here works on row strips of about N/32 rows (``row_blocks``),
so its temporaries stay a small fraction of one N-by-N matrix.

``sym_eig(m, pick=fn)`` computes every eigenvalue but only the
eigenvectors that ``fn`` asks for, from one tridiagonalization of the
symmetrized copy (``_picked_eig``): N-by-w eigenvectors for w picked
positions, with no N-by-N eigenvector matrix formed; ``pick=Band(t, w)``
bisects it for the eigenpairs with |lambda| <= t and, when there are at
most w, computes no other eigenpair. scipy's subset drivers, whose
eigenvector buffers have N columns however few pairs are found, serve
only ``count``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dgemm

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
    ``eigenvalues[i]`` (to the i-th picked one for ``sym_eig``'s ``pick``)
    and carries the deterministic sign convention.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_float_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices that cover ``n`` rows, about n/32 rows each
    (at least 16): a pass over an N-by-N matrix strip by strip holds
    temporaries of a few percent of it."""
    step = max(-(-n // 32), 16)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _symmetrize(a: np.ndarray, name: str = "matrix", check: bool = True) -> np.ndarray:
    """Overwrite square ``a`` with (a + a^T)/2 and return it; with ``check``,
    first raise NotSymmetricError when max|a - a^T| exceeds SYMMETRY_ATOL.

    Strip i of rows is paired with the same strip of columns at or right of
    the diagonal, whose entries no earlier strip has written, so every entry
    gets the bits of the whole-matrix formula and no N-by-N temporary is
    made.
    """
    strips = row_blocks(a.shape[0])
    if check:
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
    of them, as bisection does for a band's eigenvalues; a kept slice would
    keep the whole buffer alive."""
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
    the package is one."""
    return m.view(_Scratch)


class Band(NamedTuple):
    """A ``pick`` for ``sym_eig``: the eigenpairs with |lambda| <= ``bound``
    (positive and finite) when there are at most ``most`` of them, else
    every eigenvalue and the eigenvectors with |lambda| > ``bound``."""

    bound: float
    most: int


def _tridiagonal_vectors(diagonal: np.ndarray, offdiagonal: np.ndarray, values: np.ndarray,
                         blocks: np.ndarray, split: np.ndarray) -> np.ndarray:
    """N-by-w eigenvectors of the tridiagonal T for ``values`` (from
    ``dstebz``, with T's block of each in ``blocks`` and its split points in
    ``split``), in the order of ``values``: ``dstein``'s inverse iteration,
    which wants the eigenvalues grouped by block, ascending in each."""
    n = diagonal.size
    if not values.size:
        return np.zeros((n, 0), order="F")
    by_block = np.argsort(blocks, kind="stable")
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


def _picked_eig(a: np.ndarray,
                pick: Callable[[np.ndarray], np.ndarray] | Band) -> EigenDecomposition:
    """The eigenpairs of ``a`` (symmetric and overwritten) that ``pick``
    asks for: a callable marks positions in the ascending eigenvalues, all
    of which are returned, or a ``Band``.

    LAPACK's ``dsytrd`` reduces a = Q T Q^T to a tridiagonal T (reflectors
    below the subdiagonal, ``uplo = L``). A ``Band`` first bisects T over
    [-bound, bound] (``dstebz``, range ``V``, LAPACK's default absolute
    tolerance 0, as ``dsyevr`` does; LAPACK's interval (vl, vu] is closed by
    one step below -bound): a narrow band returns those eigenvalues and
    takes their eigenvectors alone, with no other eigenvalue computed. A
    callable, or a wide band's outside, reads every eigenvalue from
    ``dsterf``; for each run of consecutive picked positions ``dstebz``
    bisects for those eigenvalues (and T's split points). ``dstein`` takes
    their eigenvectors of T by inverse iteration (``_tridiagonal_vectors``)
    and Q takes them back, N-by-w (``_back_transform``).
    """
    n = a.shape[0]
    if isinstance(pick, Band) and not 0.0 < pick.bound < np.inf:
        raise ValueError(f"a band's bound must be positive and finite, got {pick.bound}")
    if n <= 1:  # scipy's tridiagonal wrappers reject an empty off-diagonal
        values = a.diagonal().copy()
        if isinstance(pick, Band):
            inside = np.abs(values) <= pick.bound
            if np.count_nonzero(inside) <= pick.most:
                return EigenDecomposition(values[inside], np.eye(n, order="F")[:, inside])
            return EigenDecomposition(values, np.eye(n, order="F")[:, ~inside])
        return EigenDecomposition(values, np.eye(n, order="F")[:, pick(values)])
    # a is symmetric, so a.T is the Fortran-ordered matrix LAPACK reads.
    work, _ = lapack.dsytrd_lwork(n, lower=1)
    factors, diagonal, offdiagonal, tau, _ = lapack.dsytrd(
        a.T, lower=1, lwork=max(int(work), 1), overwrite_a=1)
    if isinstance(pick, Band):
        width, found, blocks, split, info = lapack.dstebz(
            diagonal, offdiagonal, 1, np.nextafter(-pick.bound, -np.inf), pick.bound,
            0, 0, 0.0, "E")
        if info:
            raise EigenConvergenceError(f"dstebz failed on [-{pick.bound}, {pick.bound}] "
                                        f"(info={info})")
        if width <= pick.most:
            vectors = _tridiagonal_vectors(diagonal, offdiagonal, found[:width],
                                           blocks[:width], split)
            return EigenDecomposition(found[:width], _back_transform(factors, tau, vectors))
    values, info = lapack.dsterf(diagonal, offdiagonal)
    if info:
        raise EigenConvergenceError(f"dsterf failed to converge (info={info})")
    positions = np.flatnonzero(np.abs(values) > pick.bound if isinstance(pick, Band)
                               else pick(values))
    if not positions.size:
        return EigenDecomposition(values, np.zeros((n, 0), order="F"))
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
    return EigenDecomposition(values, _back_transform(factors, tau, vectors))


def sym_eig(m, b=None, count: int | None = None,
            pick: Callable[[np.ndarray], np.ndarray] | Band | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, optionally generalized.

    With ``b`` the problem is ``m z = lambda b z`` for a symmetric positive
    definite ``b``, and the eigenvectors are b-orthonormal (Z^T b Z = I).
    With ``count`` only the ``count`` smallest eigenpairs are computed.
    With ``pick`` only the eigenvectors it asks for are computed, from one
    tridiagonalization of the symmetrized copy (``_picked_eig``), and the
    solve holds that copy and N-by-w blocks, never an N-by-N eigenvector
    matrix. A callable ``pick`` gets every eigenvalue and marks the
    positions wanted (a boolean mask over the ascending eigenvalues):
    ``eigenvectors[:, j]`` then belongs to
    ``eigenvalues[pick(eigenvalues)][j]``. A ``Band(bound, most)`` asks
    for the eigenpairs with |lambda| <= bound, ascending, when there are at
    most ``most`` of them, and computes no other eigenvalue; when there are
    more, for every eigenvalue and the eigenvectors with |lambda| > bound,
    so the eigenvalues returned number fewer than N only in the first case
    (for ``most`` < N). The LAPACK driver follows from the call:
    the divide-and-conquer drivers (``evd``/``gvd``) for a full spectrum,
    and the subset drivers for ``count``.
    ``m`` and ``b`` are never modified: LAPACK overwrites the symmetrized
    copies made here, whose transposes are the Fortran-ordered views it
    reads without copying again (the copies are exactly symmetric). Only an
    ``m`` that the package marked with ``_scratch`` is symmetrized and
    overwritten in place instead.

    Args:
        m: square matrix, symmetric up to 1e-10 absolute tolerance.
        b: optional positive definite matrix of the same shape.
        count: optional number of bottom eigenpairs, at least 1.
        pick: optional mask of the eigenvectors wanted, from the
            eigenvalues, or a ``Band``; not with ``b`` or ``count``.

    Returns:
        EigenDecomposition with ascending eigenvalues and sign-fixed
        eigenvectors (orthonormal, or b-orthonormal when ``b`` is given).
        Both arrays own exactly their own bytes (``_owned``): the subset
        solve's N-by-count block is copied out of LAPACK's larger output,
        which is freed when the call returns, so a caller that keeps the
        block keeps N count numbers, not more.

    Raises:
        NonSquareError, NotSymmetricError, SizeMismatchError,
        EigenConvergenceError (also when ``b`` is not positive definite).
    """
    a = _symmetrize(_square_matrix(m, "matrix")) if type(m) is _Scratch else ensure_symmetric(m)
    n = a.shape[0]
    if b is not None:
        b = ensure_symmetric(b, "b")
        if b.shape != a.shape:
            raise SizeMismatchError(f"b has shape {b.shape}, matrix has {a.shape}")
    if pick is not None:
        if b is not None or count is not None:
            raise ValueError("pick cannot be given with b or count")
        values, vectors = _picked_eig(a, pick)
        return EigenDecomposition(_owned(values), _fix_signs(_owned(vectors)))
    if count is not None and count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count is None or count >= n:
        options = {"driver": "evd" if b is None else "gvd"}
    else:
        options = {"subset_by_index": [0, count - 1]}
    try:
        values, vectors = scipy.linalg.eigh(
            a.T, None if b is None else b.T, overwrite_a=True, overwrite_b=True,
            check_finite=False, **options,
        )
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return EigenDecomposition(_owned(values), _fix_signs(_owned(vectors)))
