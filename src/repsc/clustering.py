"""Spectral clustering, plain and representation-constrained.

The six spectral algorithms and the group-fairness baseline solve one
problem and then run k-means on the rows of its solution:

    minimize tr(H^T L H)  subject to  H^T B H = I,  H in S,

with L = D - A the unnormalized Laplacian of the similarity graph. B is the
identity (ratio-cut flavor) or the degree matrix D (normalized-cut
flavor); S is everything or the null space of the centered representation
matrix R (I - 11^T/N), which forces the relaxed indicator vectors to
respect proportional representation. ``_embed`` takes S in one of two
forms, and ``_basis`` hands it whichever has fewer columns; both widths
follow from the input before either is built, so no option picks one:

* Y, an orthonormal basis of S (m columns). Writing H = Y Z, the solution
  is the bottom-k generalized eigenvectors of (Y^T L Y, Y^T B Y),
  re-expanded by Y; a generalized m-by-m problem when B = D, with L only
  as the N-by-m product L Y. Exact urepsc and nrepsc on a d-regular R take
  this arm (40 of 600 dimensions on the benchmark's R).
* W, an orthonormal basis of S's orthogonal complement (w columns: about r
  for the approximate variants, G - 1 for the baseline's G groups).
  ``_deflate`` turns L into P L P + c W W^T (P = I - W W^T), with c above
  every eigenvalue of L, and the bottom min(k + 1, N - w) eigenpairs of
  that N-by-N matrix are the restricted problem's. With B = D the same runs
  on D^{-1/2} L D^{-1/2} with D^{-1/2} W orthonormalized, and H is D^{-1/2}
  times the eigenvectors. No generalized problem, N-by-m Y or m-by-m
  matrix is formed.

With no constraint (usc, nsc) L or D^{-1/2} L D^{-1/2} is solved directly,
and nsc's embedding is D^{-1/2} times the eigenvectors: the generalized
ones, so no N-by-N B is ever factored.

================ = =================================== =================== =================================== =====================
algorithm        B S                                   Y arm               W arm                               rows fed to k-means
================ = =================================== =================== =================================== =====================
usc              I everything                          none                L                                   as they are
nsc              D everything                          none                D^{-1/2} L D^{-1/2}                 scaled to unit length
urepsc           I null space of R (I - 11^T/N)        Y^T L Y             L deflated by W                     as they are
nrepsc           D null space of R (I - 11^T/N)        (Y^T L Y, Y^T D Y)  D^{-1/2} L D^{-1/2} deflated by W'  as they are
urepsc_approx    I the same for R's rank-r truncation  Y^T L Y             L deflated by W                     as they are
nrepsc_approx    D the same for R's rank-r truncation  (Y^T L Y, Y^T D Y)  D^{-1/2} L D^{-1/2} deflated by W'  as they are
fair_sc_baseline I span(1) + zero sum on every group   Y^T L Y             L deflated by W                     as they are
================ = =================================== =================== =================================== =====================

D^{-1/2} L D^{-1/2} = I - D^{-1/2} A D^{-1/2} is the normalized Laplacian
of Ng, Jordan and Weiss, and nsc's unit-length scaling cancels the D^{-1/2}
factor again, so it clusters the classic normalized embedding. This module
owns every Y and W, and none takes an SVD. ``constraint_null_basis`` builds
every Y that comes from an R from R's eigenvectors, and ``_rep_spectrum``
owns what counts as null. Every constraint from R is one select solve of R
(``sym_eig``'s ``pick``) from one tridiagonalization. The exact constraint
reads null(R) alone: bisection over [-t, t], for t the null threshold,
finds its width m and its eigenvalues, and only their eigenvectors are
computed, an N-by-m block (m = 39 of 600 on the benchmark's d-regular R),
with no other eigenvalue. For the approximate variants the null space of
the truncation is spanned by the eigenvectors the truncation discards, and
no rank-r matrix is ever formed. W spans (I - 11^T/N) V_r for the kept
eigenvectors V_r that are not null. So a rank-r constraint, or an exact
null block too wide to be sure of the Y arm (2 (m + 1) > N, as the
bisection counts it, from the same tridiagonal), takes every eigenvalue
and the eigenvectors of the narrower side only, V_r or the null ones, an
N-by-w block with w at most about N/2. The other side, where an arm needs
it, is that block's orthogonal complement.
No N-by-N eigenvector matrix of R is formed. R is solved nowhere else: a
``Graph`` R keeps each solve (("picked", rank), rank None for the exact
constraint) in its memo, each run at most once per R object and rank and
owning its bytes; a raw matrix R is solved on every call.
``_group_basis`` writes the baseline's Y down from the groups, and
``_group_complement`` its W. ``_split_ones`` takes the ones direction out
of orthonormal columns for both arms.

Everything before k-means is deterministic, so ``_solve`` keeps it on the
similarity ``Graph`` (``Graph._memo``): the k-means input points, the
spectrum and the warnings, keyed by (R, rank, normalized, unit_rows, k).
Runs that differ only in the k-means seed, such as the trials of a sweep
on one fixed pair of graphs, then build each Y or W and solve the
eigenproblem once. An entry is an N-by-k array that owns its bytes (not a
slice of the solve's N-by-(k + 1) output) and lives as long as the Graph;
no basis or Laplacian outlives its call. A raw matrix, as the graph or as
R, and the baseline's group constraint are solved on every call.

k-means is implemented here rather than borrowed so that seeding, restarts,
tie-breaking and empty-cluster repair are fully deterministic functions of
the config seed. Its restarts run in lockstep, so each seeding or Lloyd
step is one ``matmul`` for all of them.
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
                     _laplacian_product, as_adjacency)
from .linalg import (
    RANK_REL_TOL,
    Band,
    _complement_columns,
    _fix_signs,
    _owned,
    _scratch,
    _symmetrize,
    as_float_matrix,
    matmul,
    orthonormal_columns,
    row_blocks,
    sym_eig,
)

logger = logging.getLogger(__name__)

DEGENERATE_GAP_TOL = 1e-10
# The all-ones direction counts as orthogonal to null(R) when its unit
# vector's projection there is shorter than this.
ONES_IN_NULL_ATOL = 1e-8


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
        done = np.isfinite(last) & (last - cost <= rel_tol * np.maximum(np.abs(last), 1e-300))
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


def _pick(r: np.ndarray, tol: float, rank: int | None) -> tuple[np.ndarray, bool]:
    """One ``sym_eig(r, pick=...)`` solve for the narrower side of R's null
    mask (|lambda| <= ``tol``, and with ``rank`` every eigenpair outside the
    ``rank`` of largest |lambda|, ties kept in ascending position): its
    eigenvectors, and whether they are the null ones. Without ``rank`` the
    pick is a ``Band``: the null block when 2 (m + 1) <= N for its width m,
    so that ``_basis`` takes Y, else the side that is not null, which is
    also what R = 0 (``tol`` = 0, every eigenvalue null) gets."""
    n = r.shape[0]
    if rank is None and tol > 0.0:
        values, vectors = sym_eig(r, pick=Band(tol, (n - 2) // 2))
        return vectors, values.size < n  # a wide band returns every eigenvalue
    null_side = False

    def narrower(values: np.ndarray) -> np.ndarray:
        nonlocal null_side
        magnitude = np.abs(values)
        null = magnitude <= tol
        if rank is not None:
            null[np.argsort(-magnitude, kind="stable")[rank:]] = True
        null_side = rank is not None and 2 * np.count_nonzero(null) < null.size
        return null if null_side else ~null

    return sym_eig(r, pick=narrower).eigenvectors, null_side


def _rep_spectrum(rep_graph_or_matrix, rank: int | None) -> tuple[np.ndarray, bool]:
    """Orthonormal eigenvectors of R that span either null(R), or the null
    space of R's rank-``rank`` truncation, or its orthogonal complement,
    and whether they span the null side (N-by-w, w at most about N/2).

    An eigenvalue counts as zero when |lambda| <= t = RANK_REL_TOL * N *
    ||R||_inf, with ||R||_inf the largest absolute row sum: it bounds every
    |lambda| (Gershgorin) and equals max|lambda| on a regular R. With
    ``rank`` so do all but the ``rank`` eigenpairs of largest |lambda| (ties
    kept in ascending position).

    Either constraint is one select solve of R (``_pick``), from one
    tridiagonalization. Without ``rank`` only null(R) is read: bisection
    over [-t, t] finds its width m and its eigenvalues, and a narrow block
    (2 (m + 1) <= N) takes their eigenvectors alone, N-by-m, with no other
    eigenvalue computed; a wide one, so that ``_basis`` may choose the
    complement W, or R = 0 (t = 0, every eigenvalue null), goes on to every
    eigenvalue and the eigenvectors that are not null. With ``rank`` every
    eigenvalue is computed, and the eigenvectors of the narrower side only:
    the ``rank`` kept ones or the null ones, whichever are fewer. A
    ``Graph`` keeps t ("null_tol") and each solve, read-only, in its memo
    under ("picked", rank), rank None for the exact constraint, once per
    (R, rank); a raw matrix R is solved on every call. This is the only
    code that solves R, no N-by-N eigenvector matrix of R is formed, and no
    result depends on which solve ran first.
    """
    graph = isinstance(rep_graph_or_matrix, Graph)
    r = rep_graph_or_matrix.adjacency if graph else as_float_matrix(rep_graph_or_matrix)
    n = r.shape[0]
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {rank}")
    memo = rep_graph_or_matrix._memo if graph else {}
    if "null_tol" not in memo:
        # A Graph's entries are 0 and 1, so its absolute row sums are its degrees.
        row_sums = _degrees(r) if graph else np.abs(r).sum(axis=1)
        memo["null_tol"] = RANK_REL_TOL * n * (row_sums.max() if r.size else 0.0)
    key = ("picked", rank)
    if key not in memo:
        memo[key] = _pick(r, memo["null_tol"], rank)
        memo[key][0].flags.writeable = False
    return memo[key]


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
    to 1, so R's null eigenvectors give it (see ``_rep_spectrum`` for what
    counts as null). With ``rank``, R is replaced by its best
    rank-``rank`` approximation, whose null space is spanned by the
    discarded eigenvectors and the kept null ones.

    Column 0 is the normalized all-ones vector; every column carries the
    linalg sign convention. Only the narrower side of R's eigenvectors is
    solved for (``_rep_spectrum``); when that is the side that is not null,
    the null side is its orthogonal complement (``_complement_columns``). A
    ``Graph`` R keeps each solve, a raw matrix R is solved on every call;
    the returned basis is always a fresh array.
    """
    vectors, null = _rep_spectrum(rep_graph_or_matrix, rank)
    return _null_basis(vectors if null else _complement_columns(vectors))


def _null_basis(vectors: np.ndarray) -> np.ndarray:
    """``constraint_null_basis`` from orthonormal columns spanning null(R)."""
    n = vectors.shape[0]
    ones = np.full(n, 1.0 / np.sqrt(n))
    overlap = matmul(vectors.T, ones)
    return np.column_stack([ones, _split_ones(vectors, overlap, drop=True)])


def _contrasts(count: int, weight: int = 1) -> np.ndarray:
    """Helmert contrasts of ``count`` items of ``weight`` nodes each, one per
    column: column j is 0 before item j, positive on it and equal and negative
    after it, and has unit length over the nodes."""
    remaining = np.arange(count - 1, 0, -1)
    scale = 1.0 / np.sqrt(weight * remaining * (remaining + 1))
    out = np.tril(np.broadcast_to(-scale, (count, count - 1)), -1)
    np.fill_diagonal(out, remaining * scale)
    return out


def _group_basis(groups: ClusterAssignment) -> np.ndarray:
    """[1/sqrt(N), each non-empty group's ``_contrasts`` over its members in
    node order]: the null basis of the centered block matrix of the groups,
    with the linalg sign convention by construction."""
    sizes = groups.sizes[groups.sizes > 0]
    basis = np.zeros((groups.n, 1 + groups.n - sizes.size))
    basis[:, 0] = 1.0 / np.sqrt(groups.n)
    column = 1
    for members in np.split(np.argsort(groups.labels, kind="stable"), np.cumsum(sizes)[:-1]):
        basis[members, column:column + members.size - 1] = _contrasts(members.size)
        column += members.size - 1
    return basis


def _group_complement(groups: ClusterAssignment) -> np.ndarray:
    """W for the group constraint: an orthonormal basis of the span of
    1_g - (|g|/N) 1 over the non-empty groups g, the orthogonal complement
    of ``_group_basis``'s span. The unit indicators of the groups span 1, so
    ``_split_ones`` drops it from them."""
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


def _deflate(m: np.ndarray, complement: np.ndarray, rows) -> None:
    """Turn symmetric ``m`` in place into m - W E^T - E W^T, where W is
    ``complement`` (orthonormal columns) and E = m W - W (W^T m W + c I) / 2.

    That is P m P + c W W^T with P = I - W W^T: m compressed to the
    orthogonal complement S of span(W), and c on span(W). With c one more
    than the largest absolute row sum of m, which bounds every eigenvalue of
    m and so of P m P (Gershgorin), every eigenvalue of the compression lies
    below c, and the bottom N - width(W) eigenpairs of the result are those
    of m restricted to S. The product [W E][E W]^T is written over m, and
    ``rows(strip)``, which rebuilds m's rows in a row strip with the same
    bits, supplies m for the subtraction, so no second N-by-N array is made.
    The result is averaged with its transpose: the product's rounding is of
    the order of c times the rounding unit, which on heavy edge weights
    exceeds ``sym_eig``'s absolute symmetry tolerance.
    """
    strips = row_blocks(m.shape[0])
    shift = 1.0 + max(np.abs(m[strip]).sum(axis=1).max() for strip in strips)
    applied = matmul(m, complement)
    inner = matmul(complement.T, applied)
    inner[np.diag_indices_from(inner)] += shift
    applied -= matmul(complement, inner) / 2.0
    matmul(np.hstack([complement, applied]), np.hstack([applied, complement]).T, out=m)
    for strip in strips:
        np.subtract(rows(strip), m[strip], out=m[strip])
    _symmetrize(m, check=False)


def _operator(a: np.ndarray, inv_root: np.ndarray | None, rows: slice) -> np.ndarray:
    """Rows ``rows`` of L = D - A, or of D^{-1/2} L D^{-1/2} given
    ``inv_root`` (the degrees' inverse square roots), as a fresh array; a
    strip has the bits of the same rows of the whole matrix, so ``_embed``
    fills the N-by-N matrix strip by strip and a bool A is never converted
    whole."""
    _, m = _laplacian(a[rows], rows.start)
    if inv_root is not None:
        m *= inv_root[rows, None]
        m *= inv_root
    return m


def _embed(graph, k: int, basis: np.ndarray | None = None, normalized: bool = False,
           complement: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Solve the module's restricted problem; return (Y Z, spectrum, warnings).

    B is D when ``normalized`` and I otherwise. The constraint space S is
    given by at most one of ``basis`` (Y, orthonormal columns spanning S)
    and ``complement`` (W, orthonormal columns spanning its orthogonal
    complement); with neither, S is everything. On Y the problem is
    (Y^T L Y, Y^T B Y), a generalized one when B = D, from N-by-m products
    (L only as ``_laplacian_product``). Otherwise it is solved
    on an N-by-N matrix: L, or with B = D its standard form
    D^{-1/2} L D^{-1/2}, whose bottom eigenvectors V give D^{-1/2} V with
    D-orthonormal columns (as for nsc); there W becomes D^{-1/2} W
    orthonormalized, which spans the complement of D^{1/2} S. ``_deflate``
    moves the span of W above the spectrum, and only the bottom
    min(k + 1, dim S) eigenpairs are solved, so its eigenvalue enters
    neither the spectrum nor the gap test. No N-by-N B is ever factored, and
    that N-by-N matrix is the one the solve runs on (``_scratch``):
    beyond the graph, one N-by-N array is held, built row strip by row
    strip from a bool A.
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
    if basis is not None:
        weight = _restrict(basis, degrees[:, None] * basis) if normalized else None
        reduced = _restrict(basis, _laplacian_product(a, degrees, basis))
        values, vectors = sym_eig(reduced, weight, count=k + 1)
        return matmul(basis, vectors[:, :k]), values[:k], _gap_warnings(values, k)
    inv_root = 1.0 / np.sqrt(degrees) if normalized else None
    operator = np.empty((n, n))
    for strip in row_blocks(n):
        operator[strip] = _operator(a, inv_root, strip)
    if complement is not None and complement.shape[1]:
        _deflate(operator, orthonormal_columns(inv_root[:, None] * complement)
                 if normalized else complement, lambda strip: _operator(a, inv_root, strip))
    values, vectors = sym_eig(_scratch(operator), count=min(k + 1, dims))
    embedding = inv_root[:, None] * vectors[:, :k] if normalized else vectors[:, :k]
    return embedding, values[:k], _gap_warnings(values, k)


def _order(graph) -> int:
    """Node count of a Graph or of a square matrix."""
    return graph.n if isinstance(graph, Graph) else np.shape(graph)[0]


def _basis(graph, k: int, rep, rank: int | None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The constraint that ``rep`` and ``rank`` stand for, as ``_embed``'s
    (basis, complement): (None, None) without ``rep``; for the groups of a
    ClusterAssignment, or the null space of R (of its rank-``rank``
    truncation when ``rank`` is given), whichever of Y and W has fewer
    columns, the other None. Y wins a tie. Both widths follow from the
    groups' sizes, or from the width of R's null side and where 1 lies,
    before either is built; an exact constraint handed R's null block alone
    has Y the narrower (``_rep_spectrum``). Either is built from the side of
    R's eigenvectors that was solved for, or from its orthogonal complement.
    A ``rank`` must leave room for k dimensions; that is checked before R is
    solved."""
    if rep is None:
        return None, None
    if isinstance(rep, ClusterAssignment):
        groups = np.count_nonzero(rep.sizes)
        if groups - 1 < rep.n - groups + 1:
            return None, _group_complement(rep)
        return _group_basis(rep), None
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
    order = vectors.shape[0]
    ones = np.full(order, 1.0 / np.sqrt(order))
    overlap = matmul(ones, vectors)
    if null:
        leans = np.linalg.norm(overlap) > ONES_IN_NULL_ATOL
        nulls = vectors.shape[1]
    else:  # 1's part in the null span is what the kept side leaves of it
        leans = np.linalg.norm(ones - matmul(vectors, overlap)) > ONES_IN_NULL_ATOL
        nulls = order - vectors.shape[1]
    width = nulls + (0 if leans else 1)
    if width <= order - width:
        return _null_basis(vectors if null else _complement_columns(vectors)), None
    # W = (I - 11^T/N) V_r for the kept eigenvectors V_r; 1 lies in span(V_r)
    # when it does not lean into the null span.
    if null:
        vectors = _complement_columns(vectors)
        overlap = matmul(ones, vectors)
    return None, _split_ones(vectors, overlap, drop=not leans)


def _points(graph, k: int, rep, rank: int | None, normalized: bool,
            unit_rows: bool) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The deterministic half of ``_solve``: the k-means input points (the
    rows of ``_embed``'s solution, scaled to unit length with ``unit_rows``
    and as they are otherwise), the spectrum and the warnings. The two
    arrays own their bytes in the solve's layout (``_owned``): ``_embed``
    hands out the first k of the k + 1 eigenpairs it solved for as slices,
    and a kept slice would keep the whole solve output."""
    basis, complement = _basis(graph, k, rep, rank)
    embedding, spectrum, warnings = _embed(graph, k, basis, normalized, complement)
    if unit_rows:
        norms = np.linalg.norm(embedding, axis=1)
        zero_rows = norms <= 1e-12
        if np.any(zero_rows):
            logger.warning(
                "nsc: %d embedding rows have zero norm and stay at the origin",
                int(zero_rows.sum()),
            )
        embedding /= np.where(zero_rows, 1.0, norms)[:, None]
    return _owned(embedding), _owned(spectrum), warnings


def _solve(graph, k: int, cfg: KMeansConfig, rep=None, rank: int | None = None,
           normalized: bool = False, unit_rows: bool = False) -> ClusteringResult:
    """k-means into k clusters, configured by ``cfg``, on ``_points``.

    ``rep`` is what Y is built from (see ``_basis``). When ``graph`` is a
    Graph and ``rep`` is a Graph or None, the points, spectrum and warnings
    are kept in ``graph._memo`` once the call succeeds, keyed by
    (rep, rank, normalized, unit_rows, k), and a later call with that key
    builds no basis and solves nothing; only k-means, whose seed is in
    ``cfg``, runs again. Every result gets its own copies of the arrays.
    A k that is not a positive integer raises ValueError before any of it.
    """
    _check_k(k)
    keyed = isinstance(graph, Graph) and (rep is None or isinstance(rep, Graph))
    key = ("points", rep, rank, normalized, unit_rows, k)
    kept = graph._memo.get(key) if keyed else None
    if kept is None:
        points, spectrum, warnings = _points(graph, k, rep, rank, normalized, unit_rows)
    else:
        points, spectrum, warnings = kept
    fit = kmeans(points, k, cfg)
    if keyed and kept is None:
        for array in (points, spectrum):
            array.flags.writeable = False
        graph._memo[key] = points, spectrum, warnings
    return ClusteringResult(ClusterAssignment(fit.labels, k), points.copy(), fit.inertia,
                            fit.iters, spectrum.copy(), warnings)


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
    return _solve(graph, k, cfg, normalized=True, unit_rows=True)


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
    the embedding is D-orthonormal: on a null basis Y as the generalized
    problem Y^T L Y z = mu Y^T D Y z, on its complement W as the standard
    problem on D^{-1/2} L D^{-1/2} deflated by D^{-1/2} W orthonormalized
    (see ``_embed``). The embedding rows are fed to k-means as they are; no
    unit-length scaling is applied.
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
