"""Spectral clustering, plain and representation-constrained.

All six spectral algorithms solve one problem and then run k-means on the
rows of its solution:

    minimize tr(H^T L H)  subject to  H^T B H = I,  H in span(Y),

with L = D - A the unnormalized Laplacian of the similarity graph. B is the
identity (ratio-cut flavor) or the degree matrix D (normalized-cut
flavor); Y is the identity or an orthonormal basis of the null space of the
centered representation matrix R (I - 11^T/N), which forces the relaxed
indicator vectors to respect proportional representation. Writing H = Y Z,
the solution is the bottom-k generalized eigenvectors of
(Y^T L Y, Y^T B Y), re-expanded by Y.

============== ===== ==================================== ===================
algorithm      B     Y                                    rows fed to k-means
============== ===== ==================================== ===================
usc            I     I                                    as they are
nsc            D     I                                    scaled to unit length
urepsc         I     null basis of R                      as they are
nrepsc         D     null basis of R                      as they are
urepsc_approx  I     null basis of R's rank-r truncation  as they are
nrepsc_approx  D     null basis of R's rank-r truncation  as they are
============== ===== ==================================== ===================

nsc's unit-length scaling cancels the D^{-1/2} factor between the
generalized eigenvectors and those of I - D^{-1/2} A D^{-1/2}, so it
clusters the classic normalized embedding. ``constraint_null_basis`` builds
every Y from one eigendecomposition of R; for the approximate variants the
null space of the truncation is spanned by the eigenvectors the truncation
discards, so no rank-r matrix is ever formed.

k-means is implemented here rather than borrowed so that seeding, restarts,
tie-breaking and empty-cluster repair are fully deterministic functions of
the config seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    IsolatedNodeError,
    KTooLargeError,
    NullSpaceTooSmallError,
    RankTooLargeError,
)
from .graphs import ClusterAssignment, as_adjacency
from .linalg import RANK_REL_TOL, _fix_signs, sym_eig

logger = logging.getLogger(__name__)

DEGENERATE_GAP_TOL = 1e-10
# The all-ones direction counts as orthogonal to null(R) when its unit
# vector's projection there is shorter than this.
ONES_IN_NULL_ATOL = 1e-8


@dataclass(frozen=True)
class KMeansConfig:
    """Settings for the k-means backend.

    ``k`` may be left None when the caller (a spectral algorithm) supplies
    the cluster count itself.
    """

    k: int | None = None
    restarts: int = 10
    max_iters: int = 100
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class ClusteringResult:
    """Output of a spectral clustering run.

    ``embedding`` holds the points actually fed to k-means (one row per
    node), ``spectrum_used`` the eigenvalues whose eigenvectors built that
    embedding, and ``warnings`` any numerical caveats such as a degenerate
    eigengap at the cut-off index.
    """

    assignment: ClusterAssignment
    embedding: np.ndarray
    kmeans_inertia: float
    spectrum_used: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _sq_distances(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; any choice ties.
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = points[pick]
        closest = np.minimum(closest, _sq_distances(points, centroids[j:j + 1])[:, 0])
    return centroids


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iters: int, rel_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    n = points.shape[0]
    centroids = _seed_centroids(points, k, rng)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        d2 = _sq_distances(points, centroids)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        # Repair empty clusters: hand each one the point farthest from its
        # current centroid, one point per empty cluster.
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            far = int(assigned.argmax())
            labels[far] = empty
            assigned[far] = 0.0
        inertia = float(assigned.sum())
        for j in range(k):
            members = points[labels == j]
            if members.size:
                centroids[j] = members.mean(axis=0)
        if prev_inertia - inertia <= rel_tol * max(abs(prev_inertia), 1e-300):
            break
        prev_inertia = inertia
    d2 = _sq_distances(points, centroids)
    labels = d2.argmin(axis=1)
    counts = np.bincount(labels, minlength=k)
    assigned = d2[np.arange(n), labels]
    for empty in np.flatnonzero(counts == 0):
        far = int(assigned.argmax())
        labels[far] = empty
        assigned[far] = 0.0
    inertia = float(assigned.sum())
    return labels, centroids, inertia


def kmeans(points, cfg: KMeansConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Restarted Lloyd iterations with k-means++ seeding.

    Runs ``cfg.restarts`` independent seeded attempts and keeps the one with
    the lowest inertia (first winner on ties). Each restart draws its
    randomness from a generator keyed by (seed, restart index), so results
    do not depend on scheduling or on how many restarts run.

    Returns:
        (labels, centroids, inertia).

    Raises:
        KTooLargeError if cfg.k exceeds the number of points.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {pts.shape}")
    if cfg.k is None:
        raise ValueError("cfg.k must be set for a direct kmeans call")
    k = cfg.k
    if k > pts.shape[0]:
        raise KTooLargeError(f"k={k} exceeds number of points {pts.shape[0]}")
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        labels, centroids, inertia = _lloyd(pts, k, rng, cfg.max_iters, cfg.rel_tol)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def _gap_warnings(eigenvalues: np.ndarray, k: int) -> tuple[str, ...]:
    if eigenvalues.shape[0] > k and eigenvalues[k] - eigenvalues[k - 1] < DEGENERATE_GAP_TOL:
        msg = (
            f"eigengap between positions {k - 1} and {k} is below {DEGENERATE_GAP_TOL:.0e}; "
            "the clustering subspace was resolved by index order and is not unique"
        )
        logger.warning(msg)
        return (msg,)
    return ()


def _cluster_rows(embedding: np.ndarray, spectrum: np.ndarray, warnings: tuple[str, ...],
                  k: int, cfg: KMeansConfig) -> ClusteringResult:
    labels, _, inertia = kmeans(embedding, replace(cfg, k=k))
    assignment = ClusterAssignment(labels, k)
    return ClusteringResult(assignment, embedding, inertia, spectrum, warnings)


def constraint_null_basis(rep_graph_or_matrix, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis Y of the null space of R (I - 11^T/N).

    Every vector in this space, viewed as a relaxed cluster indicator,
    assigns each node's representatives to clusters in proportion to
    cluster sizes. The space is span(1) plus the part of null(R) orthogonal
    to 1, so one eigendecomposition of R gives it: eigenvalues with
    |lambda| <= RANK_REL_TOL * max|lambda| * N count as zero. With ``rank``,
    R is replaced by its best rank-``rank`` approximation (the eigenpairs of
    largest |lambda|, ties kept in ascending position), whose null space is
    spanned by the discarded eigenvectors and the kept null ones.

    Column 0 is the normalized all-ones vector; every column carries the
    linalg sign convention.
    """
    r = as_adjacency(rep_graph_or_matrix)
    n = r.shape[0]
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {rank}")
    values, vectors = sym_eig(r)
    magnitude = np.abs(values)
    null = magnitude <= RANK_REL_TOL * (magnitude.max() if n else 0.0) * n
    if rank is not None:
        null[np.argsort(-magnitude, kind="stable")[rank:]] = True
    ones = np.full(n, 1.0 / np.sqrt(n))
    rest = vectors[:, null]
    overlap = rest.T @ ones
    if np.linalg.norm(overlap) > ONES_IN_NULL_ATOL:
        rest = _fix_signs(rest @ scipy.linalg.null_space(overlap[None, :]))
    return np.column_stack([ones, rest])


def _embed(graph, k: int, rep_graph=None, rank: int | None = None,
           normalized: bool = False) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Solve the module's restricted problem; return (Y Z, spectrum, warnings).

    B is D when ``normalized`` and I otherwise; Y is the identity without a
    ``rep_graph`` and ``constraint_null_basis(rep_graph, rank)`` with one.
    """
    a = as_adjacency(graph)
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    degrees = a.sum(axis=1)
    if normalized and np.any(degrees <= 0.0):
        bad = np.flatnonzero(degrees <= 0.0)
        raise IsolatedNodeError(f"nodes with non-positive degree: {bad.tolist()}")
    laplacian = np.diag(degrees) - a
    weight = None
    if rep_graph is None:
        if k > n:
            raise KTooLargeError(f"k={k} exceeds node count {n}")
        basis = None
        if normalized:
            weight = np.diag(degrees)
    else:
        r = as_adjacency(rep_graph)
        if r.shape[0] != n:
            raise ValueError(f"graph has {n} nodes but representation matrix has {r.shape[0]}")
        if rank is not None:
            if rank < 1:
                raise ValueError(f"rank must be at least 1, got {rank}")
            if rank > n - k:
                raise RankTooLargeError(
                    f"rank {rank} exceeds n - k = {n - k}; the constraint null space "
                    "would be too small"
                )
        basis = constraint_null_basis(r, rank)
        if basis.shape[1] < k:
            raise NullSpaceTooSmallError(
                f"constraint null space has {basis.shape[1]} dimensions, need at least k={k}"
            )
        # Rounding leaves the products slightly asymmetric; average it away.
        reduced = basis.T @ laplacian @ basis
        laplacian = (reduced + reduced.T) / 2.0
        if normalized:
            reduced = basis.T @ (degrees[:, None] * basis)
            weight = (reduced + reduced.T) / 2.0
    values, vectors = sym_eig(laplacian, weight, count=k + 1)
    embedding = vectors[:, :k] if basis is None else basis @ vectors[:, :k]
    return embedding, values[:k], _gap_warnings(values, k)


def usc(graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Unnormalized spectral clustering.

    Accepts a Graph or any symmetric real matrix (so expected-case inputs
    can be clustered directly).
    """
    return _cluster_rows(*_embed(graph, k), k, cfg)


def nsc(graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Normalized spectral clustering with unit-length row scaling.

    Raises IsolatedNodeError when some degree is not positive, since the
    normalized Laplacian is undefined there.
    """
    embedding, spectrum, warnings = _embed(graph, k, normalized=True)
    norms = np.linalg.norm(embedding, axis=1)
    zero_rows = norms <= 1e-12
    if np.any(zero_rows):
        logger.warning(
            "nsc: %d embedding rows have zero norm and stay at the origin",
            int(zero_rows.sum()),
        )
    embedding /= np.where(zero_rows, 1.0, norms)[:, None]
    return _cluster_rows(embedding, spectrum, warnings, k, cfg)


def urepsc(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Representation-constrained unnormalized spectral clustering.

    Minimizes the ratio-cut relaxation over span(Y) where Y spans the null
    space of the centered representation matrix, then clusters the rows of
    the re-expanded embedding Y Z.
    """
    return _cluster_rows(*_embed(graph, k, rep_graph), k, cfg)


def nrepsc(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Representation-constrained normalized spectral clustering.

    Solves Y^T L Y z = mu Y^T D Y z, so the volume-scaled indicator
    relaxation stays inside the constraint space and the embedding Y Z is
    D-orthonormal. The embedding rows are fed to k-means as they are; no
    unit-length scaling is applied.
    """
    return _cluster_rows(*_embed(graph, k, rep_graph, normalized=True), k, cfg)


def urepsc_approx(graph, rep_graph, k: int, rank: int,
                  cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """urepsc on the best rank-``rank`` approximation of the representation matrix.

    Keeping 1 <= rank <= n - k guarantees the approximated constraint leaves
    at least k null dimensions, at the price of only approximately
    satisfying the original constraint.
    """
    return _cluster_rows(*_embed(graph, k, rep_graph, rank), k, cfg)


def nrepsc_approx(graph, rep_graph, k: int, rank: int,
                  cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """nrepsc on the best low-rank approximation of the representation matrix."""
    return _cluster_rows(*_embed(graph, k, rep_graph, rank, normalized=True), k, cfg)
