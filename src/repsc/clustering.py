"""Spectral clustering, plain and representation-constrained.

The six spectral algorithms and the group-fairness baseline solve one
problem, minimize tr(H^T L H) subject to H^T B H = I and H in S, and run
k-means on the rows of its solution (README, *Algorithms*). ``_embed`` is
that kernel; ``_basis`` hands it S as an orthonormal basis Y or as one W of
S's orthogonal complement, and ``_rep_spectrum`` is the only code that
solves a representation matrix R. Everything before k-means is
deterministic, and a ``Graph`` keeps it (``graphs._memoized``).

k-means is implemented here so that seeding, restarts, tie-breaking and
empty-cluster repair are deterministic functions of the config seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    IsolatedNodeError,
    KTooLargeError,
    NullSpaceTooSmallError,
    RankTooLargeError,
)
from .graphs import (ClusterAssignment, Graph, _check_k, _degrees, _laplacian,
                     _laplacian_product, _memoized, as_adjacency)
from .linalg import (
    _complement_columns,
    _fix_signs,
    _scratch,
    as_float_matrix,
    matmul,
    null_side_eig,
    orthonormal_columns,
    row_blocks,
    sym_eig,
    sym_rank2k_update,
)

logger = logging.getLogger(__name__)

DEGENERATE_GAP_TOL = 1e-10
# An eigenvalue of R counts as zero when |lambda| <= RANK_REL_TOL * N *
# ||R||_inf (``_rep_spectrum``).
RANK_REL_TOL = 1e-10
# The all-ones direction counts as orthogonal to null(R) when its unit
# vector's projection there is shorter than this.
ONES_IN_NULL_ATOL = 1e-8
# Lloyd's stopping rule scales rel_tol by an inertia of at least this.
INERTIA_FLOOR = 1e-300
# nsc leaves an embedding row at the origin when its length is at most this.
ZERO_ROW_ATOL = 1e-12


@dataclass(frozen=True)
class KMeansConfig:
    """Settings for the k-means backend; the cluster count is an argument of
    ``kmeans`` and of every algorithm. Every error message starts with the
    name of the field at fault.
    """

    restarts: int = 10
    max_iters: int = 100
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
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
    node), ``kmeans_iters`` the number of Lloyd updates of the winning
    k-means restart, ``spectrum_used`` the eigenvalues whose eigenvectors
    built that embedding, and ``warnings`` any numerical caveats such as a
    degenerate eigengap at the cut-off index.
    """

    assignment: ClusterAssignment
    embedding: np.ndarray
    kmeans_inertia: float
    kmeans_iters: int
    spectrum_used: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared length of every row of ``m``."""
    return np.square(m).sum(axis=1)


def _lifted_points(points: np.ndarray) -> np.ndarray:
    """Rows [x, 1, |x|^2]: the product of one with a ``_lifted_centroids``
    row [-2c, |c|^2, 1] is the squared distance |x|^2 - 2 x.c + |c|^2."""
    return np.column_stack([points, np.ones(points.shape[0]), _sq_norms(points)])


def _lifted_centroids(centroids: np.ndarray) -> np.ndarray:
    """Rows [-2c, |c|^2, 1]; see ``_lifted_points``."""
    return np.column_stack([-2.0 * centroids, _sq_norms(centroids), np.ones(centroids.shape[0])])


def _kmeanspp_draws(closest: np.ndarray, rngs) -> np.ndarray:
    """One k-means++ pick per row of ``closest`` (one restart's squared
    distances to its nearest centroid so far), each from that restart's
    generator.

    A row with a positive total draws exactly what
    ``rng.choice(n, p=row / total)`` draws, from the same one uniform
    variate; a row without one (every point sits on a centroid, so any
    choice ties) draws ``rng.integers(n)``.
    """
    n = closest.shape[1]
    totals = closest.sum(axis=1)
    live = totals > 0.0
    cdf = np.cumsum(closest[live] / totals[live, None], axis=1)
    cdf /= cdf[:, -1:]
    rows = iter(cdf)
    return np.array([next(rows).searchsorted(rng.random(), side="right") if positive
                     else rng.integers(n) for rng, positive in zip(rngs, live)], dtype=np.intp)


def _seed_centroids(points: np.ndarray, lifted: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ seeding of one restart per generator, in lockstep: the row
    indices (R, k) of each restart's initial centroids, spread by squared
    distance. ``lifted`` is ``_lifted_points(points)``; one product per step
    measures every restart's newest centroid against all points."""
    n = points.shape[0]
    restarts = np.arange(len(rngs))
    lifted_rows = _lifted_centroids(points)
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    closest = np.full((len(rngs), n), np.inf)
    for j in range(1, k):
        newest = chosen[:, j - 1]
        dist = matmul(lifted_rows[newest], lifted.T)
        np.maximum(dist, 0.0, out=dist)
        dist[restarts, newest] = 0.0
        np.minimum(closest, dist, out=closest)
        chosen[:, j] = _kmeanspp_draws(closest, rngs)
    return chosen


def _assign(lifted: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels (R, n) and inertias (R,) of each restart's
    (k, d) centroids in ``centroids`` (R, k, d), no cluster left empty
    (needs n >= k); ``lifted`` is ``_lifted_points`` of the points.

    One product gives the squared distances of every restart, and each
    assigned distance is clamped at 0. In each restart, each empty cluster
    takes the point farthest from its centroid among clusters with two or
    more members; that point then adds 0 to the inertia.
    """
    restarts, k, _ = centroids.shape
    dist = matmul(lifted, _lifted_centroids(centroids.reshape(restarts * k, -1)).T)
    dist = dist.reshape(-1, restarts, k)
    nearest = dist.argmin(axis=2)
    assigned = np.take_along_axis(dist, nearest[:, :, None], axis=2)[:, :, 0]
    assigned = np.maximum(assigned.T, 0.0, order="C")
    labels = np.ascontiguousarray(nearest.T)
    counts = np.bincount((labels + k * np.arange(restarts)[:, None]).ravel(),
                         minlength=restarts * k).reshape(restarts, k)
    for restart in np.flatnonzero((counts == 0).any(axis=1)):
        own, dist_own, sizes = labels[restart], assigned[restart], counts[restart]
        for empty in np.flatnonzero(sizes == 0):
            far = int(np.where(sizes[own] > 1, dist_own, -1.0).argmax())
            sizes[own[far]] -= 1
            sizes[empty] = 1
            own[far] = empty
            dist_own[far] = 0.0
    return labels, assigned.sum(axis=1)


def _update(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each restart's centroids (R, k, d): the mean of every cluster of its
    labels (R, n), none of them empty, summed in point order."""
    restarts, n = labels.shape
    keys = (labels + k * np.arange(restarts)[:, None]).ravel()
    # Keys of 16 bits or fewer sort by radix.
    order = np.argsort(keys.astype(np.min_scalar_type(restarts * k)), kind="stable")
    counts = np.bincount(keys, minlength=restarts * k)
    sums = np.add.reduceat(points.take(order % n, axis=0), np.cumsum(counts) - counts, axis=0)
    return (sums / counts[:, None]).reshape(restarts, k, points.shape[1])


def _lloyd(points: np.ndarray, k: int, seed: int, restarts, max_iters: int,
           rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Lloyd runs of the restart indices ``restarts``, in lockstep.

    Restart r draws from ``default_rng([seed, r])`` alone. It stops at a
    fixed point (an assignment that moves no label), once an update lowers
    its inertia by at most ``rel_tol`` of the previous inertia, or after
    ``max_iters`` updates; the others go on. Returns every restart's labels
    (R, n), centroids (R, k, d), inertia (R,) and number of updates (R,),
    the labels and inertia those of the final centroids.
    """
    lifted = _lifted_points(points)
    rngs = [np.random.default_rng([seed, restart]) for restart in restarts]
    centroids = points[_seed_centroids(points, lifted, k, rngs)]
    labels = np.full((len(rngs), points.shape[0]), -1, dtype=np.intp)
    inertia = np.full(len(rngs), np.inf)
    iters = np.zeros(len(rngs), dtype=np.int64)
    stale = np.zeros(len(rngs), dtype=bool)  # updated since their last assignment
    active = np.arange(len(rngs))
    while active.size:
        new, cost = _assign(lifted, centroids[active])
        moved = (new != labels[active]).any(axis=1)
        last = inertia[active]
        labels[active], inertia[active], stale[active] = new, cost, False
        active, last, cost = active[moved], last[moved], cost[moved]
        centroids[active] = _update(points, new[moved], k)
        iters[active] += 1
        stale[active] = True
        done = np.isfinite(last) & (last - cost <= rel_tol * np.maximum(last, INERTIA_FLOOR))
        active = active[~done & (iters[active] < max_iters)]
    if stale.any():
        labels[stale], inertia[stale] = _assign(lifted, centroids[stale])
    return labels, centroids, inertia, iters


class KMeansFit(NamedTuple):
    """The winning k-means restart: its labels (n,), centroids (k, d),
    inertia and number of Lloyd updates."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iters: int


def kmeans(points, k: int, cfg: KMeansConfig = KMeansConfig()) -> KMeansFit:
    """Restarted Lloyd iterations with k-means++ seeding.

    Runs ``cfg.restarts`` seeded attempts and keeps the one with the lowest
    inertia (first winner on ties). Every restart iterates until an
    assignment moves no label, an update lowers its inertia by at most
    ``cfg.rel_tol`` of the previous inertia, or for ``cfg.max_iters``
    updates. The restarts run in lockstep: one matrix product per step gives
    every active restart's squared distances (|x|^2 - 2 x.c + |c|^2,
    clamped at 0), and one sorted reduction its new centroids. Each restart
    draws its randomness from a generator keyed by (seed, restart index),
    and the other restarts change its arithmetic at most by BLAS rounding
    the product of another width differently in the last bit, so its
    result is a function of (seed, restart) except at exact near-ties.

    Raises:
        ValueError if ``points`` is not a finite 2-d array or k is not a
        positive integer;
        KTooLargeError if k exceeds the number of points.
    """
    _check_k(k)
    pts = as_float_matrix(points, "points")
    if k > pts.shape[0]:
        raise KTooLargeError(f"k={k} exceeds number of points {pts.shape[0]}")
    labels, centroids, inertia, iters = _lloyd(pts, k, cfg.seed, range(cfg.restarts),
                                               cfg.max_iters, cfg.rel_tol)
    best = int(inertia.argmin())
    return KMeansFit(labels[best], centroids[best], float(inertia[best]), int(iters[best]))


def _gap_warnings(eigenvalues: np.ndarray, k: int) -> tuple[str, ...]:
    if eigenvalues.shape[0] > k and eigenvalues[k] - eigenvalues[k - 1] < DEGENERATE_GAP_TOL:
        msg = (
            f"eigengap between positions {k - 1} and {k} is below {DEGENERATE_GAP_TOL:.0e}; "
            "the clustering subspace was resolved by index order and is not unique"
        )
        logger.warning(msg)
        return (msg,)
    return ()


def _rep_spectrum(rep_graph_or_matrix, rank: int | None) -> tuple[np.ndarray, bool]:
    """Orthonormal eigenvectors of R that span either null(R), or the null
    space of R's rank-``rank`` truncation, or its orthogonal complement,
    whichever is narrower (``linalg.null_side_eig``), and whether they span
    the null side.

    An eigenvalue counts as zero when |lambda| <= t = RANK_REL_TOL * N *
    ||R||_inf, with ||R||_inf the largest absolute row sum; with ``rank`` so
    do all but the ``rank`` eigenpairs of largest |lambda|. Each solve
    computes t, and a ``Graph`` R keeps only its solves (("picked", rank)),
    so it is solved at most once per rank; a raw matrix R is solved on
    every call.
    """
    graph = isinstance(rep_graph_or_matrix, Graph)
    r = rep_graph_or_matrix.adjacency if graph else as_float_matrix(rep_graph_or_matrix)
    n = r.shape[0]
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {rank}")

    def solve() -> tuple[np.ndarray, bool]:
        # A Graph's entries are 0 and 1, so its absolute row sums are its degrees.
        row_sums = _degrees(r) if graph else np.abs(r).sum(axis=1)
        return null_side_eig(r, RANK_REL_TOL * n * (row_sums.max() if r.size else 0.0), rank)

    return _memoized(rep_graph_or_matrix, ("picked", rank), solve)


def _split_ones(columns: np.ndarray, overlap: np.ndarray, drop: bool) -> np.ndarray:
    """Orthonormal columns for the part of span(C) orthogonal to 1, for
    orthonormal C = ``columns`` whose inner products with the unit all-ones
    vector u are ``overlap`` (w).

    C is returned as it is when |w| <= ONES_IN_NULL_ATOL: it counts as
    orthogonal to u. Otherwise a Householder step takes span(C) ∩ u^⊥:
    columns 1.. of C times the reflector taking w to e_0, sign-fixed, one
    column fewer. With ``drop`` that is the result. Without it, the column
    the step dropped comes back projected off u, C w - |w|^2 u scaled to
    unit length, so the columns span (I - 11^T/N) span(C), as
    (C - u w^T)(I - w w^T)^{-1/2} does. The two spaces agree when u lies in
    span(C), where only the first can be computed accurately.
    """
    length = np.linalg.norm(overlap)
    if length <= ONES_IN_NULL_ATOL:
        return columns
    v = overlap / length
    v[0] += np.copysign(1.0, v[0])
    v /= np.linalg.norm(v)
    rest = _fix_signs(columns[:, 1:] - 2.0 * np.outer(matmul(columns, v), v[1:]))
    if drop:
        return rest
    tilt = matmul(columns, overlap) - length * length / np.sqrt(columns.shape[0])
    return np.column_stack([rest, tilt / np.linalg.norm(tilt)])


def constraint_null_basis(rep_graph_or_matrix, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis Y of the null space of R (I - 11^T/N).

    Every vector in this space, viewed as a relaxed cluster indicator,
    assigns each node's representatives to clusters in proportion to
    cluster sizes. The space is span(1) plus the part of null(R) orthogonal
    to 1 (see ``_rep_spectrum`` for what counts as null). With ``rank``, R
    is replaced by its best rank-``rank`` approximation.

    Column 0 is the normalized all-ones vector; every column carries the
    linalg sign convention. A ``Graph`` R keeps its solve, a raw matrix R
    is solved on every call; the returned basis is always a fresh array.
    """
    vectors, null = _rep_spectrum(rep_graph_or_matrix, rank)
    return _null_basis(vectors if null else _complement_columns(vectors))


def _null_basis(vectors: np.ndarray) -> np.ndarray:
    """``constraint_null_basis`` from orthonormal columns spanning null(R)."""
    n = vectors.shape[0]
    ones = np.full(n, 1.0 / np.sqrt(n))
    overlap = matmul(vectors.T, ones)
    return np.column_stack([ones, _split_ones(vectors, overlap, drop=True)])


def _group_complement(groups: ClusterAssignment) -> np.ndarray:
    """W for the group constraint: an orthonormal basis of the span of
    1_g - (|g|/N) 1 over the non-empty groups g. The unit indicators of the
    groups span 1, so ``_split_ones`` drops it from them."""
    used = groups.sizes > 0
    sizes = groups.sizes[used]
    indicators = np.zeros((groups.n, sizes.size))
    column = (np.cumsum(used) - 1)[groups.labels]
    indicators[np.arange(groups.n), column] = 1.0 / np.sqrt(sizes[column])
    return _split_ones(indicators, np.sqrt(sizes / groups.n), drop=True)


def _restrict(basis: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Y^T M Y from Y = ``basis`` and the N-by-m product M Y = ``applied``,
    averaged with its transpose to remove rounding asymmetry."""
    reduced = matmul(basis.T, applied)
    return (reduced + reduced.T) / 2.0


def _deflate(m: np.ndarray, complement: np.ndarray) -> None:
    """Turn symmetric ``m`` in place into P m P + c W W^T, exactly
    symmetric, where W is ``complement`` (orthonormal columns) and
    P = I - W W^T: m compressed to the orthogonal complement S of span(W),
    and c on span(W). c is one more than the largest absolute row sum of m,
    which bounds every eigenvalue of m and so of P m P (Gershgorin), so the
    bottom N - width(W) eigenpairs of the result are those of m restricted
    to S. That matrix is m - W E^T - E W^T with
    E = m W - W (W^T m W + c I) / 2, one ``sym_rank2k_update``.
    """
    shift = 1.0 + max(np.abs(m[strip]).sum(axis=1).max() for strip in row_blocks(m.shape[0]))
    applied = matmul(m, complement)
    inner = matmul(complement.T, applied)
    inner[np.diag_indices_from(inner)] += shift
    inner /= 2.0
    applied -= matmul(complement, inner)
    sym_rank2k_update(m, complement, applied)


def _embed(graph, k: int, basis: np.ndarray | None = None, normalized: bool = False,
           complement: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Solve the module's restricted problem; return (H, spectrum, warnings):
    H the bottom k solutions, spectrum their values.

    B is D when ``normalized`` and I otherwise. The constraint space S is
    given by at most one of ``basis`` (Y, orthonormal columns spanning S)
    and ``complement`` (W, orthonormal columns spanning its orthogonal
    complement); with neither, S is everything. Every solve is a standard
    symmetric one (README, *Algorithms*): on Y an m-by-m one from N-by-m
    products, otherwise one on an N-by-N matrix built row strip by row
    strip from A and solved in its own storage, so beyond the graph one
    N-by-N array is held. Only the bottom min(k + 1, dim S) eigenpairs are
    solved.
    """
    _check_k(k)
    a = as_adjacency(graph)
    n = a.shape[0]
    degrees = _degrees(a)
    if normalized and np.any(degrees <= 0.0):
        bad = np.flatnonzero(degrees <= 0.0)
        raise IsolatedNodeError(f"nodes with non-positive degree: {bad.tolist()}")
    if basis is None and complement is None:
        if k > n:
            raise KTooLargeError(f"k={k} exceeds node count {n}")
        dims = n
    else:
        rows = (basis if basis is not None else complement).shape[0]
        if rows != n:
            raise ValueError(f"graph has {n} nodes but representation matrix has {rows}")
        dims = basis.shape[1] if basis is not None else n - complement.shape[1]
        if dims < k:
            raise NullSpaceTooSmallError(
                f"constraint null space has {dims} dimensions, need at least k={k}"
            )
    inv_root = 1.0 / np.sqrt(degrees)[:, None] if normalized else None
    if basis is not None:
        if normalized:  # D^{-1/2} Y' for Y' orthonormal columns spanning D^{1/2} S
            basis = orthonormal_columns(basis / inv_root)
            basis *= inv_root
        reduced = _restrict(basis, _laplacian_product(a, degrees, basis))
        values, vectors = sym_eig(reduced, count=k + 1)
        return matmul(basis, vectors[:, :k]), values[:k], _gap_warnings(values, k)
    operator = np.empty((n, n))
    for strip in row_blocks(n):
        _, operator[strip] = _laplacian(a[strip], strip.start)
        if normalized:  # D^{-1/2} L D^{-1/2}
            operator[strip] *= inv_root[strip]
            operator[strip] *= inv_root.T
    if complement is not None and complement.shape[1]:
        _deflate(operator, orthonormal_columns(inv_root * complement) if normalized else complement)
    values, vectors = sym_eig(_scratch(operator), count=min(k + 1, dims))
    embedding = inv_root * vectors[:, :k] if normalized else vectors[:, :k]
    return embedding, values[:k], _gap_warnings(values, k)


def _order(graph) -> int:
    """Node count of a Graph or of a square matrix."""
    return graph.n if isinstance(graph, Graph) else np.shape(graph)[0]


def _basis(graph, k: int, rep, rank: int | None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The constraint that ``rep`` and ``rank`` stand for, as ``_embed``'s
    (basis, complement), the other one None: (None, None) without ``rep``;
    W for the groups of a ClusterAssignment; for the null space of R (of its
    rank-``rank`` truncation when ``rank`` is given), Y when ``_rep_spectrum``
    solved the null side and W otherwise. A ``rank`` must leave room for k
    dimensions; that is checked before R is solved."""
    if rep is None:
        return None, None
    if isinstance(rep, ClusterAssignment):
        return None, _group_complement(rep)
    if rank is not None:
        n = _order(graph)
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        if rank > n - k:
            raise RankTooLargeError(
                f"rank {rank} exceeds n - k = {n - k}; the constraint null space "
                "would be too small"
            )
    vectors, null = _rep_spectrum(rep, rank)
    if null:
        return _null_basis(vectors), None
    # W = (I - 11^T/N) V_r for the kept eigenvectors V_r; 1 lies in span(V_r)
    # when it has no part in the null span.
    ones = np.full(vectors.shape[0], 1.0 / np.sqrt(vectors.shape[0]))
    overlap = matmul(ones, vectors)
    leans = np.linalg.norm(ones - matmul(vectors, overlap)) > ONES_IN_NULL_ATOL
    return None, _split_ones(vectors, overlap, drop=not leans)


def _points(graph, k: int, rep, rank: int | None,
            normalized: bool) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The deterministic half of ``_solve``: the k-means input points, the
    spectrum and the warnings. The points are the rows of ``_embed``'s
    solution, scaled to unit length for nsc (``normalized`` without
    ``rep``)."""
    basis, complement = _basis(graph, k, rep, rank)
    embedding, spectrum, warnings = _embed(graph, k, basis, normalized, complement)
    if normalized and rep is None:
        norms = np.linalg.norm(embedding, axis=1)
        zero_rows = norms <= ZERO_ROW_ATOL
        if np.any(zero_rows):
            logger.warning(
                "nsc: %d embedding rows have zero norm and stay at the origin",
                int(zero_rows.sum()),
            )
        embedding /= np.where(zero_rows, 1.0, norms)[:, None]
    return embedding, spectrum, warnings


def _solve(graph, k: int, cfg: KMeansConfig, rep=None, rank: int | None = None,
           normalized: bool = False) -> ClusteringResult:
    """k-means into k clusters, configured by ``cfg``, on ``_points``.

    ``rep`` is what the constraint is built from (see ``_basis``). When
    ``graph`` is a Graph and ``rep`` is a Graph or None, the points,
    spectrum and warnings are kept in ``graph``'s memo once the call
    succeeds, keyed by (rep, rank, normalized, k), and a later
    call with that key runs only k-means, whose seed is in ``cfg``. Every
    result gets its own copies of the arrays. A k that is not a positive
    integer raises ValueError before any of it.
    """
    _check_k(k)

    def cluster(kept):
        points, spectrum, warnings = kept
        fit = kmeans(points, k, cfg)
        return ClusteringResult(ClusterAssignment(fit.labels, k), points.copy(), fit.inertia,
                                fit.iters, spectrum.copy(), warnings)

    holder = graph if rep is None or isinstance(rep, Graph) else None
    return _memoized(holder, ("points", rep, rank, normalized, k),
                     lambda: _points(graph, k, rep, rank, normalized), cluster)


def usc(graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Unnormalized spectral clustering.

    Accepts a Graph or any symmetric real matrix (so expected-case inputs
    can be clustered directly).
    """
    return _solve(graph, k, cfg)


def nsc(graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Normalized spectral clustering with unit-length row scaling.

    Raises IsolatedNodeError when some degree is not positive, since the
    normalized Laplacian is undefined there.
    """
    return _solve(graph, k, cfg, normalized=True)


def urepsc(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Representation-constrained unnormalized spectral clustering.

    Minimizes the ratio-cut relaxation over span(Y) where Y spans the null
    space of the centered representation matrix, then clusters the rows of
    the re-expanded embedding Y Z.
    """
    return _solve(graph, k, cfg, rep_graph)


def nrepsc(graph, rep_graph, k: int, cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """Representation-constrained normalized spectral clustering.

    Minimizes tr(H^T L H) over H in the constraint space with H^T D H = I,
    so the volume-scaled indicator relaxation stays inside that space and
    the embedding is D-orthonormal (README, *Algorithms*). The embedding
    rows are fed to k-means as they are; no unit-length scaling is applied.
    """
    return _solve(graph, k, cfg, rep_graph, normalized=True)


def urepsc_approx(graph, rep_graph, k: int, rank: int,
                  cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """urepsc on the best rank-``rank`` approximation of the representation matrix.

    Keeping 1 <= rank <= n - k guarantees the approximated constraint leaves
    at least k null dimensions, at the price of only approximately
    satisfying the original constraint.
    """
    return _solve(graph, k, cfg, rep_graph, rank)


def nrepsc_approx(graph, rep_graph, k: int, rank: int,
                  cfg: KMeansConfig = KMeansConfig()) -> ClusteringResult:
    """nrepsc on the best low-rank approximation of the representation matrix."""
    return _solve(graph, k, cfg, rep_graph, rank, normalized=True)
