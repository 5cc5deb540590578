"""Closed-form expected-case spectra and misclustering bound shapes.

Under the planted model with a regular representation graph, the expected
similarity matrix has constant row sums and its spectrum relevant to
clustering is known exactly: one top eigenvalue attached to the all-ones
direction and a (k-1)-fold eigenvalue attached to cluster-contrast
directions. These closed forms are used as cross-checks for the numerical
pipeline and to evaluate the shape of the high-probability misclustering
bounds (with all unknown universal constants set to 1, so values are
comparable across configurations but are not certified error guarantees).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .clustering import DEGENERATE_GAP_TOL, _contrasts, _restrict, constraint_null_basis
from .errors import AssumptionViolatedError, DivisibilityError, ZeroGapError
from .graphs import (RppParams, _check_k, _laplacian_product, build_d_regular_rep_graph,
                     expected_adjacency, validate_regular_representation)
from .linalg import _scratch, sym_eig

SPECTRUM_REL_TOL = 1e-7

logger = logging.getLogger(__name__)


def closed_form_eigenvalues(params: RppParams) -> tuple[float, float]:
    """Leading expected-adjacency eigenvalues (top one, and the (k-1)-fold one).

    Requires the representation graph to be regular with equal per-cluster
    representation and the clusters to have equal sizes; anything else makes
    the closed form invalid and raises AssumptionViolatedError.
    """
    report = validate_regular_representation(params.rep_graph, params.assignment)
    if not report.ok:
        raise AssumptionViolatedError(
            "representation graph violates the regularity assumption: "
            + "; ".join(report.violations[:5])
        )
    sizes = params.assignment.sizes
    if np.unique(sizes).size != 1:
        raise AssumptionViolatedError(f"clusters must have equal sizes, got {sizes.tolist()}")
    n = params.n
    k = params.k
    d = report.degree
    shared = (params.p - params.q) * d / k + (params.r - params.s) * (n - d) / k
    lambda1 = params.q * d + params.s * (n - d) + shared
    return float(lambda1), float(shared)


def canonical_y_vectors(n: int, k: int) -> np.ndarray:
    """Orthonormal cluster-contrast basis for contiguous equal-size clusters.

    Column 0 is the normalized all-ones vector. Column j (j >= 1) is zero on
    clusters before j-1, takes one positive value on cluster j-1 and one
    negative value on all later clusters, scaled to unit length: the
    clusters' ``clustering._contrasts``, the group basis's formula. Together
    the columns span exactly the functions that are constant on each
    cluster, and each column beyond the first is orthogonal to all-ones.
    """
    _check_k(k)
    if n % k != 0:
        raise DivisibilityError(f"k={k} must divide n={n}")
    m = n // k
    basis = np.zeros((n, k))
    basis[:, 0] = 1.0 / math.sqrt(n)
    basis[:, 1:] = np.repeat(_contrasts(k, m), m, axis=0)
    return basis


@dataclass(frozen=True)
class ExpectedSpectrum:
    """Spectral summary of the expected (population) constrained problem.

    ``mu`` holds the ascending eigenvalues of the expected Laplacian
    restricted to the constraint null space; ``gamma`` is the gap between
    positions k and k+1 (inf when the null space has exactly k dimensions).
    The ``*_normalized`` fields describe the degree-whitened problem, which
    under the regularity assumption is the same problem scaled by the
    constant expected degree.
    """

    lambda1: float
    lambda_rest: float
    mu: np.ndarray
    gamma: float
    mu_normalized: np.ndarray
    gamma_normalized: float


def expected_spectrum(params: RppParams) -> ExpectedSpectrum:
    """Numerical spectrum of the expected constrained Laplacian, cross-checked.

    Verifies that the bottom k restricted eigenvalues match the closed form
    (0 and k-1 copies of lambda1 - lambda_rest) and that the expected degree
    is the constant lambda1 - p, raising AssumptionViolatedError when the
    inputs do not actually satisfy the regularity assumption. It solves two
    eigenproblems. ``constraint_null_basis`` solves R for its null block, the
    eigenvectors with |lambda| near zero (one select solve that bisects for
    them and computes no other eigenpair: 39 of 600 on the benchmark's
    d-regular R; every eigenvalue only when that block is wider than about
    N/2), and the ``Graph`` R keeps it, so urepsc and nrepsc on the same R
    reuse it. Then the restricted Laplacian Y^T (D Y - A Y) of
    the expected similarity matrix A, of the null space's dimension, is
    decomposed. No Laplacian is built over A, and A is never decomposed
    (``lambda_bar`` does that, on demand).

    R's null block is solved before the expected similarity matrix is
    built: beyond R, the solve's one N-by-N array (its copy of R,
    tridiagonalized in place) or that one matrix is held, never both; R
    keeps only the N-by-m null block.
    """
    lambda1, lambda_rest = closed_form_eigenvalues(params)
    k = params.k
    basis = constraint_null_basis(params.rep_graph)
    atilde = expected_adjacency(params)
    degrees = atilde.sum(axis=1)
    expected_degree = lambda1 - params.p
    tol = SPECTRUM_REL_TOL * (1.0 + abs(lambda1))
    if np.max(np.abs(degrees - expected_degree)) > tol:
        raise AssumptionViolatedError(
            "expected degrees are not constant; inputs do not satisfy the "
            "regularity assumption"
        )
    if basis.shape[1] < k:
        raise AssumptionViolatedError(
            f"constraint null space has {basis.shape[1]} < k={k} dimensions"
        )
    mu = sym_eig(_restrict(basis, _laplacian_product(atilde, degrees, basis))).eigenvalues
    expected_bottom = np.concatenate(([0.0], np.full(k - 1, lambda1 - lambda_rest)))
    if np.max(np.abs(mu[:k] - expected_bottom)) > tol:
        raise AssumptionViolatedError(
            f"bottom restricted eigenvalues {mu[:k].tolist()} do not match the "
            f"closed form {expected_bottom.tolist()}"
        )
    gamma = float(mu[k] - mu[k - 1]) if mu.shape[0] > k else math.inf
    if gamma <= DEGENERATE_GAP_TOL:
        logger.warning(
            "restricted eigengap %.3g is numerically degenerate; the "
            "recovery guarantees do not apply at this configuration", gamma
        )
    if expected_degree <= 1e-12:
        raise ZeroGapError(
            f"expected degree {expected_degree:g} is not positive; the "
            "normalized problem is undefined"
        )
    mu_normalized = mu / expected_degree
    gamma_normalized = gamma / expected_degree
    return ExpectedSpectrum(
        lambda1=lambda1,
        lambda_rest=lambda_rest,
        mu=mu,
        gamma=gamma,
        mu_normalized=mu_normalized,
        gamma_normalized=float(gamma_normalized),
    )


def lambda_bar(params: RppParams) -> float:
    """Smallest eigenvalue of the raw expectation matrix (p on the diagonal).

    One N-by-N eigensolve of ``expected_adjacency``, whose eigenvalues are
    the raw ones shifted by -p, in that matrix's own storage; nothing else in
    the package reads it.
    """
    return float(sym_eig(_scratch(expected_adjacency(params)), count=1).eigenvalues[0] + params.p)


@dataclass(frozen=True)
class BoundShape:
    """Values of the two misclustering bound shapes with constants set to 1."""

    unnormalized: float
    normalized: float


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the bound's slack epsilon is non-negative."""
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")


def misclustering_bound_shape(params: RppParams, epsilon: float = 0.0,
                        spectrum: ExpectedSpectrum | None = None) -> BoundShape:
    """Evaluate the misclustering bound shapes for a model configuration.

    The unnormalized shape is (2 + eps) * p * n * ln(n) / gamma^2 with gamma
    the restricted eigengap. The normalized shape is
    32 * (2 + eps) * (8 sqrt(k) / gamma_n + 1)^2 * p * n * ln(n) / deg^2
    with gamma_n the whitened eigengap and deg the constant expected degree.
    Universal constants are fixed to 1, so these are shapes for comparing
    configurations, not certified probabilities.

    Raises ZeroGapError when the relevant gap is not positive.
    """
    check_epsilon(epsilon)
    spec = spectrum if spectrum is not None else expected_spectrum(params)
    n = params.n
    k = params.k
    if not spec.gamma > DEGENERATE_GAP_TOL:
        raise ZeroGapError(f"restricted eigengap is {spec.gamma:g}; bound shape undefined")
    log_term = (2.0 + epsilon) * params.p * n * math.log(n)
    if math.isinf(spec.gamma):
        unnormalized = 0.0
        normalized_factor = 1.0  # 8 sqrt(k) / gamma vanishes
    else:
        unnormalized = log_term / spec.gamma**2
        normalized_factor = (8.0 * math.sqrt(k) / spec.gamma_normalized + 1.0) ** 2
    degree = spec.lambda1 - params.p
    normalized = 32.0 * log_term * normalized_factor / degree**2
    return BoundShape(unnormalized=float(unnormalized), normalized=float(normalized))


def expected_case_inputs(n: int, k: int, d: int, p: float, q: float, r: float, s: float):
    """Convenience: regular representation graph, contiguous truth, params.

    Returns (params, expected_similarity_matrix). The matrix is the expected
    adjacency with zero diagonal, ready to be fed to any clustering
    algorithm in place of a sampled graph.
    """
    rep, truth = build_d_regular_rep_graph(n, k, d)
    params = RppParams(assignment=truth, rep_graph=rep, p=p, q=q, r=r, s=s)
    return params, expected_adjacency(params)
