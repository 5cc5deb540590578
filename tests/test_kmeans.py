"""The lockstep k-means: reference checks of its distances and seeding, and
liveness of its Lloyd iterations and of its config keys."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import repsc
from repsc.clustering import (
    _assign,
    _kmeanspp_draws,
    _lifted_centroids,
    _lifted_points,
    _lloyd,
    _update,
)
from repsc.linalg import matmul


def blobs(seed: int, n: int = 240, d: int = 3, centers: int = 6, spread: float = 1.0):
    rng = np.random.default_rng(seed)
    middles = rng.uniform(-6.0, 6.0, (centers, d))
    return middles[rng.integers(centers, size=n)] + spread * rng.standard_normal((n, d))


@pytest.mark.parametrize("seed", range(6))
def test_lifted_product_matches_cdist(seed):
    # cdist is the reference for the squared distances of the one product.
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(1, 300), rng.integers(1, 40), rng.integers(1, 60)
    points = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    centroids = rng.standard_normal((k, d)) + rng.uniform(-3.0, 3.0)
    product = matmul(_lifted_points(points), _lifted_centroids(centroids).T)
    reference = cdist(points, centroids, "sqeuclidean")
    scale = np.square(points).sum(axis=1)[:, None] + np.square(centroids).sum(axis=1)
    assert np.all(np.abs(product - reference) <= 1e-12 * scale)


@pytest.mark.parametrize("seed", range(6))
def test_assignment_matches_cdist_away_from_near_ties(seed):
    rng = np.random.default_rng(seed)
    points = blobs(seed, n=400, d=int(rng.integers(1, 8)))
    restarts, k = 4, int(rng.integers(2, 12))
    centroids = points[rng.integers(points.shape[0], size=(restarts, k))]
    centroids += 0.1 * rng.standard_normal(centroids.shape)
    labels, inertia = _assign(_lifted_points(points), centroids)
    for restart in range(restarts):
        reference = cdist(points, centroids[restart], "sqeuclidean")
        if np.bincount(reference.argmin(axis=1), minlength=k).min() == 0:
            continue  # the repair moves points; only plain assignments compare here
        ordered = np.sort(reference, axis=1)
        clear = ordered[:, 1] - ordered[:, 0] > 1e-9 * ordered[:, 1]
        assert np.array_equal(labels[restart][clear], reference.argmin(axis=1)[clear])
        nearest = reference[np.arange(len(points)), labels[restart]]
        assert inertia[restart] == pytest.approx(nearest.sum(), rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_batched_draws_equal_generator_choice(data, n, restarts, seed):
    # Each restart picks what Generator.choice(n, p=row/total) picks, or
    # integers(n) on an all-zero row, and leaves its generator in the same state.
    values = st.one_of(st.just(0.0), st.floats(1e-300, 1e6), st.floats(0.0, 1.0))
    closest = np.array([data.draw(st.lists(values, min_size=n, max_size=n))
                        for _ in range(restarts)])
    batched = [np.random.default_rng([seed, r]) for r in range(restarts)]
    picks = _kmeanspp_draws(closest, batched)
    for r, row in enumerate(closest):
        alone = np.random.default_rng([seed, r])
        total = row.sum()
        expected = alone.choice(n, p=row / total) if total > 0.0 else alone.integers(n)
        assert picks[r] == expected
        assert batched[r].bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_a_restart_alone_equals_its_lockstep_run(seed):
    points = blobs(seed, n=300, d=4, centers=8)
    k, restarts = 8, 6
    labels, centroids, inertia, iters = _lloyd(points, k, seed, range(restarts), 100, 1e-9)
    for r in range(restarts):
        one_labels, one_centroids, one_inertia, one_iters = _lloyd(points, k, seed, [r], 100, 1e-9)
        assert np.array_equal(one_labels[0], labels[r])
        assert one_iters[0] == iters[r]
        # The product's width may change BLAS's rounding, and nothing more.
        assert one_inertia[0] == pytest.approx(inertia[r], rel=1e-12)
        assert np.allclose(one_centroids[0], centroids[r], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_every_restart_ends_at_a_fixed_point_or_at_max_iters(seed):
    rng = np.random.default_rng(seed)
    points = blobs(seed, n=int(rng.integers(30, 400)), d=int(rng.integers(1, 6)),
                   centers=int(rng.integers(2, 9)), spread=float(rng.uniform(0.5, 3.0)))
    k = int(rng.integers(1, 10))
    max_iters = int(rng.integers(1, 12))
    labels, centroids, _, iters = _lloyd(points, k, seed, range(5), max_iters, 1e-9)
    lifted = _lifted_points(points)
    assert np.all((1 <= iters) & (iters <= max_iters))
    for r in np.flatnonzero(iters < max_iters):
        again, _ = _assign(lifted, centroids[r][None])
        assert np.array_equal(again[0], labels[r])
        after, _ = _assign(lifted, _update(points, again, k))
        assert np.array_equal(after, again)


@pytest.mark.parametrize("seed", range(4))
def test_inertia_never_rises_from_one_iteration_to_the_next(seed):
    points = blobs(seed, n=500, d=2, centers=10, spread=2.0)
    k, restarts = 10, 4
    history = np.array([_lloyd(points, k, seed, range(restarts), m, 1e-9)[2] for m in range(1, 16)])
    assert np.all(history[1:] <= history[:-1] * (1.0 + 1e-12))
    # The runs do iterate: some restart improves after its first update.
    assert np.any(history[-1] < history[0] * (1.0 - 1e-6))


def test_max_iters_and_rel_tol_each_change_the_outcome():
    points = blobs(0, n=2000, d=2, centers=8, spread=2.5)
    full = repsc.kmeans(points, 8, repsc.KMeansConfig(seed=0))
    assert full.iters > 1
    for other in (repsc.KMeansConfig(seed=0, max_iters=1), repsc.KMeansConfig(seed=0, rel_tol=0.5)):
        short = repsc.kmeans(points, 8, other)
        assert short.iters < full.iters
        assert short.inertia > full.inertia
        assert not np.array_equal(short.labels, full.labels)


def test_clustering_result_reports_the_final_kmeans_iterations():
    rng = np.random.default_rng(5)
    upper = np.triu((rng.random((40, 40)) < 0.3).astype(float), 1)
    graph = repsc.Graph(upper + upper.T)
    cfg = repsc.KMeansConfig(seed=3)
    for result in (repsc.usc(graph, 4, cfg), repsc.fair_sc_baseline(graph, graph, 4, cfg)):
        again = repsc.kmeans(result.embedding, 4, cfg)
        assert result.kmeans_iters == again.iters >= 1
        assert np.array_equal(result.assignment.labels, again.labels)
