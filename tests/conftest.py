"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

import repsc
from repsc import clustering, experiments
from repsc.linalg import sym_eig

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


@pytest.fixture(scope="session")
def toy_instance():
    """The 24-node, 2-cluster, 6-regular walkthrough instance."""
    rep, truth = repsc.build_d_regular_rep_graph(24, 2, 6)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    return rep, truth, params


def clear_harness_caches() -> None:
    """Drop the grid point, trial and multiplex file the harness holds."""
    for cache in (experiments._regular_setup, experiments._real_setup,
                  experiments._trial_inputs):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def empty_harness_caches():
    """Leave no grid point, trial or multiplex file in the harness caches."""
    yield
    clear_harness_caches()


class Solve(NamedTuple):
    """One ``sym_eig`` call: its matrix, ``count`` and ``pick``, and for a
    select solve the number of eigenvectors it returned (None until it has
    returned)."""

    matrix: np.ndarray
    count: int | None
    pick: object = None
    width: int | None = None

    @property
    def kind(self) -> str:
        """"subset" for the bottom ``count`` eigenpairs, "select" for the
        eigenvectors ``pick`` asks for (a mask over every eigenvalue, or a
        ``Band``, such as R's null block), and "full" for a whole
        spectrum."""
        if self.count is not None:
            return "subset"
        return "full" if self.pick is None else "select"


@pytest.fixture
def eigensolves(monkeypatch):
    """Every eigensolve of ``repsc.clustering``, as a ``Solve``, in call
    order. That module is the one that solves R (its select solves) and
    every clustering problem; ``theory`` solves its restricted problem
    itself, which is not recorded."""
    solves = []

    def recording(m, b=None, count=None, pick=None):
        solves.append(Solve(m, count, pick))
        result = sym_eig(m, b, count, pick)
        if pick is not None:
            solves[-1] = solves[-1]._replace(width=result.eigenvectors.shape[1])
        return result

    monkeypatch.setattr(clustering, "sym_eig", recording)
    return solves


def r_solves(solves) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, shape) of each solve of an R among ``solves``: its select
    solves (and full ones, which the package no longer runs), the ones that
    ask for no ``count``."""
    return [(solve.kind, solve.matrix.shape) for solve in solves if solve.kind != "subset"]
