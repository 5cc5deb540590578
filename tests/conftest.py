"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

import repsc
from repsc import clustering
from repsc.linalg import null_side_eig, sym_eig

# Regular-representation instances used across the suite: (n, k, d) with
# d/k representatives per cluster, chosen so the ring construction is
# feasible (even per-cluster degree needs an even cluster size).
REGULAR_INSTANCES = [
    (60, 2, 4),
    (60, 2, 12),
    (120, 2, 4),
    (240, 2, 12),
    (60, 3, 6),
    (120, 3, 18),
    (240, 3, 6),
    (240, 3, 18),
    (120, 4, 8),
    (120, 4, 24),
    (240, 4, 8),
    (240, 4, 24),
]

SWEEP_PROBS = dict(p=0.4, q=0.3, r=0.2, s=0.1)


def brute_force_mistake(truth: repsc.ClusterAssignment,
                        predicted: repsc.ClusterAssignment) -> float:
    """Reference value of the permutation-minimized indicator mismatch.

    Enumerates every k-permutation explicitly and counts differing one-hot
    entries, so it shares no code with the matching-based implementation.
    """
    theta = truth.onehot()
    theta_hat = predicted.onehot()
    best = np.inf
    for perm in itertools.permutations(range(truth.k)):
        j = np.zeros((truth.k, truth.k))
        j[list(perm), range(truth.k)] = 1.0
        mismatch = np.count_nonzero(theta - theta_hat @ j)
        best = min(best, mismatch)
    return best / truth.n


def same_partition(a: repsc.ClusterAssignment, b: repsc.ClusterAssignment) -> bool:
    """True when the two label vectors induce the same partition of nodes."""
    if a.n != b.n:
        return False
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for la, lb in zip(a.labels.tolist(), b.labels.tolist()):
        if mapping.setdefault(la, lb) != lb:
            return False
        if reverse.setdefault(lb, la) != la:
            return False
    return True


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees ``fn()`` hold above what was held
    when it started. One untraced warm call comes first, so imports and
    first-use caches do not count."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_retained(fn) -> int:
    """Bytes that tracemalloc sees still held once ``fn()`` has returned and
    its result is dropped, above what was held when it started: what ``fn``
    left behind, such as a cache entry. One untraced warm call comes first,
    as for ``traced_peak``."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random n-by-k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def random_assignment(rng: np.random.Generator, n: int, k: int) -> repsc.ClusterAssignment:
    """Uniform random labels conditioned on every cluster being non-empty."""
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size == k:
            return repsc.ClusterAssignment(labels, k)


def contrasts(count: int, weight: int = 1) -> np.ndarray:
    """Helmert contrasts of ``count`` items of ``weight`` nodes each, one per
    column: column j is 0 before item j, positive on it and equal and negative
    after it, and has unit length over the nodes."""
    remaining = np.arange(count - 1, 0, -1)
    scale = 1.0 / np.sqrt(weight * remaining * (remaining + 1))
    out = np.tril(np.broadcast_to(-scale, (count, count - 1)), -1)
    np.fill_diagonal(out, remaining * scale)
    return out


def group_basis(groups: repsc.ClusterAssignment) -> np.ndarray:
    """Y for the group constraint, written down: [1/sqrt(N), each non-empty
    group's ``contrasts`` over its members in node order], the null basis of
    the centered block matrix of the groups, with the linalg sign convention
    by construction. The package solves that constraint on its complement W
    (``clustering._group_complement``); this is the Y arm it is checked
    against."""
    sizes = groups.sizes[groups.sizes > 0]
    basis = np.zeros((groups.n, 1 + groups.n - sizes.size))
    basis[:, 0] = 1.0 / np.sqrt(groups.n)
    column = 1
    for members in np.split(np.argsort(groups.labels, kind="stable"), np.cumsum(sizes)[:-1]):
        basis[members, column:column + members.size - 1] = contrasts(members.size)
        column += members.size - 1
    return basis


def canonical_y_vectors(n: int, k: int) -> np.ndarray:
    """Orthonormal cluster-contrast basis for k contiguous equal-size
    clusters: column 0 is the normalized all-ones vector, and column j
    (j >= 1) the clusters' ``contrasts`` column j - 1. Together the columns
    span exactly the functions that are constant on each cluster."""
    repsc.graphs._check_k(k)
    if n % k != 0:
        raise repsc.DivisibilityError(f"k={k} must divide n={n}")
    m = n // k
    basis = np.zeros((n, k))
    basis[:, 0] = 1.0 / np.sqrt(n)
    basis[:, 1:] = np.repeat(contrasts(k, m), m, axis=0)
    return basis


@pytest.fixture(scope="session")
def toy_instance():
    """The 24-node, 2-cluster, 6-regular walkthrough instance."""
    rep, truth = repsc.build_d_regular_rep_graph(24, 2, 6)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    return rep, truth, params


def kept_arrays(value):
    """Every array in a memo entry: arrays, tuples of them, assignments."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from kept_arrays(item)
    elif isinstance(value, repsc.ClusterAssignment):
        yield value.labels


class Solve(NamedTuple):
    """One eigensolve: its matrix, ``count``, whether it was R's select
    solve (``null_side_eig``), and for that one the number of eigenvectors
    it returned (None until it has returned)."""

    matrix: np.ndarray
    count: int | None
    select: bool = False
    width: int | None = None

    @property
    def kind(self) -> str:
        """"subset" for the bottom ``count`` eigenpairs, "select" for the
        eigenvectors of the narrower side of R, and "full" for a whole
        spectrum."""
        if self.count is not None:
            return "subset"
        return "select" if self.select else "full"


@pytest.fixture
def eigensolves(monkeypatch):
    """Every eigensolve of ``repsc.clustering``, as a ``Solve``, in call
    order. That module is the one that solves R (its select solves) and
    every clustering problem; ``theory`` solves its restricted problem
    itself, which is not recorded."""
    solves = []

    def recording(m, count=None):
        solves.append(Solve(m, count))
        return sym_eig(m, count)

    def recording_select(m, tol, rank=None):
        solves.append(Solve(m, None, select=True))
        vectors, null_side = null_side_eig(m, tol, rank)
        solves[-1] = solves[-1]._replace(width=vectors.shape[1])
        return vectors, null_side

    monkeypatch.setattr(clustering, "sym_eig", recording)
    monkeypatch.setattr(clustering, "null_side_eig", recording_select)
    return solves


def r_solves(solves) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, shape) of each solve of an R among ``solves``: its select
    solves (and full ones, which the package no longer runs), the ones that
    ask for no ``count``."""
    return [(solve.kind, solve.matrix.shape) for solve in solves if solve.kind != "subset"]
