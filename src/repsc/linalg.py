"""Dense linear algebra with deterministic output conventions.

All routines work on plain float64 numpy arrays and are meant for the
desk-scale problems this package targets (a few thousand nodes), so
everything is dense and exact up to LAPACK precision. This module owns every
dense matrix product in the package (``matmul``) as well as every
factorization: the eigensolver (``sym_eig``) and the Cholesky QR of a few
columns (``orthonormal_columns``), and all of them run on scipy's BLAS.
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
exactly once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
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
    ``eigenvalues[i]`` and carries the deterministic sign convention.
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


def ensure_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry up to SYMMETRY_ATOL and return the symmetrized copy.

    Asymmetry below the tolerance is treated as numerical noise and averaged
    away; anything larger is an error in the caller's data.
    """
    a = as_float_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    sym = np.subtract(a, a.T)
    np.abs(sym, out=sym)
    gap = sym.max() if a.size else 0.0
    if gap > SYMMETRY_ATOL:
        raise NotSymmetricError(
            f"{name} is not symmetric: max|m - m^T| = {gap:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    np.add(a, a.T, out=sym)
    sym /= 2.0
    return sym


def _blas_operand(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, trans) with x Fortran-contiguous and op(x) = m^T, where op
    transposes when ``trans`` is 1; only an operand that is neither C- nor
    Fortran-contiguous is copied."""
    if m.flags.c_contiguous:
        return m.T, 0
    if m.flags.f_contiguous:
        return m, 1
    return np.ascontiguousarray(m).T, 0


def matmul(a, b) -> np.ndarray:
    """``a @ b`` through scipy's BLAS ``dgemm``, the library ``sym_eig`` uses.

    A 1-d ``a`` is a row and a 1-d ``b`` a column, and each such dimension
    is dropped from the result, as with ``@``. BLAS computes the transpose
    b^T a^T in Fortran order, so the product comes back C-ordered, the
    layout ``@`` returns; the operands are neither modified nor copied
    unless one is neither C- nor Fortran-contiguous.
    """
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


def sym_eig(m, b=None, count: int | None = None,
            within: float | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, optionally generalized.

    With ``b`` the problem is ``m z = lambda b z`` for a symmetric positive
    definite ``b``, and the eigenvectors are b-orthonormal (Z^T b Z = I).
    With ``count`` only the ``count`` smallest eigenpairs are computed, and
    with ``within`` only those with |lambda| <= ``within`` (possibly none).
    The LAPACK driver follows from the call: the divide-and-conquer drivers
    (``evd``/``gvd``) for a full spectrum, the subset drivers otherwise,
    over the closed interval [-within, within] for ``within``.
    ``m`` and ``b`` are never modified: LAPACK overwrites the symmetrized
    copies made here, whose transposes are the Fortran-ordered views it
    reads without copying again (the copies are exactly symmetric).

    Args:
        m: square matrix, symmetric up to 1e-10 absolute tolerance.
        b: optional positive definite matrix of the same shape.
        count: optional number of bottom eigenpairs, at least 1.
        within: optional positive bound on |lambda|; not with ``count``.

    Returns:
        EigenDecomposition with ascending eigenvalues and sign-fixed
        eigenvectors (orthonormal, or b-orthonormal when ``b`` is given).

    Raises:
        NonSquareError, NotSymmetricError, SizeMismatchError,
        EigenConvergenceError (also when ``b`` is not positive definite).
    """
    a = ensure_symmetric(m)
    n = a.shape[0]
    if b is not None:
        b = ensure_symmetric(b, "b")
        if b.shape != a.shape:
            raise SizeMismatchError(f"b has shape {b.shape}, matrix has {a.shape}")
    if count is not None and count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if within is not None:
        if count is not None:
            raise ValueError("count and within cannot both be given")
        if not within > 0.0:
            raise ValueError(f"within must be positive, got {within}")
        # LAPACK's interval is half-open, (vl, vu]: one step below -within
        # closes it.
        options = {"subset_by_value": [np.nextafter(-within, -np.inf), within]}
    elif count is None or count >= n:
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
    return EigenDecomposition(values, _fix_signs(vectors))
