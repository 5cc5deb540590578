"""Dense symmetric linear algebra with deterministic output conventions.

All routines work on plain float64 numpy arrays and are meant for the
desk-scale problems this package targets (a few thousand nodes), so
everything is dense and exact up to LAPACK precision. Two conventions are
applied everywhere so that repeated runs and different call sites agree
bit for bit:

* eigenvalues are reported in ascending order;
* in every eigenvector column, the first entry whose magnitude
  exceeds 1e-12 is made positive by flipping the column sign if needed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    EigenConvergenceError,
    NonSquareError,
    NotSymmetricError,
    SizeMismatchError,
)

SYMMETRY_ATOL = 1e-10
SIGN_THRESHOLD = 1e-12
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


def ensure_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = as_float_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    return a


def ensure_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry up to SYMMETRY_ATOL and return the symmetrized copy.

    Asymmetry below the tolerance is treated as numerical noise and averaged
    away; anything larger is an error in the caller's data.
    """
    a = ensure_square(m, name)
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    if gap > SYMMETRY_ATOL:
        raise NotSymmetricError(
            f"{name} is not symmetric: max|m - m^T| = {gap:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    return (a + a.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the first entry above the threshold is positive."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        idx = np.flatnonzero(np.abs(col) > SIGN_THRESHOLD)
        if idx.size and col[idx[0]] < 0:
            v[:, j] = -col
    return v


def sym_eig(m, b=None, count: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, optionally generalized.

    With ``b`` the problem is ``m z = lambda b z`` for a symmetric positive
    definite ``b``, and the eigenvectors are b-orthonormal (Z^T b Z = I).
    With ``count`` only the ``count`` smallest eigenpairs are computed.
    The LAPACK driver follows from the call: the divide-and-conquer drivers
    (``evd``/``gvd``) for a full spectrum, the subset drivers otherwise.

    Args:
        m: square matrix, symmetric up to 1e-10 absolute tolerance.
        b: optional positive definite matrix of the same shape.
        count: optional number of bottom eigenpairs, at least 1.

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
    if count is None or count >= n:
        options = {"driver": "evd" if b is None else "gvd"}
    else:
        options = {"subset_by_index": [0, count - 1]}
    try:
        values, vectors = scipy.linalg.eigh(a, b, **options)
    except scipy.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return EigenDecomposition(values, _fix_signs(vectors))
