"""The k-means backend and the six spectral pipelines."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import repsc
from repsc import clustering, linalg
from repsc.clustering import _assign, _lifted_points, constraint_null_basis
from conftest import (SWEEP_PROBS, r_solves, random_orthonormal, same_partition, traced_peak,
                      traced_retained)


def two_cliques(m: int) -> repsc.Graph:
    block = np.ones((m, m)) - np.eye(m)
    adjacency = np.zeros((2 * m, 2 * m))
    adjacency[:m, :m] = block
    adjacency[m:, m:] = block
    return repsc.Graph(adjacency)


def test_kmeans_config_validation():
    with pytest.raises(ValueError):
        repsc.KMeansConfig(restarts=0)
    with pytest.raises(ValueError):
        repsc.KMeansConfig(max_iters=0)
    with pytest.raises(ValueError):
        repsc.KMeansConfig(rel_tol=0.0)


def test_kmeans_recovers_separated_clouds():
    rng = np.random.default_rng(17)
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    points = np.vstack([c + 0.1 * rng.standard_normal((10, 2)) for c in centers])
    labels, centroids, inertia, _ = repsc.kmeans(points, 3, repsc.KMeansConfig(seed=1))
    truth = repsc.ClusterAssignment(np.repeat(np.arange(3), 10), 3)
    assert same_partition(repsc.ClusterAssignment(labels, 3), truth)
    # Inertia equals the within-cloud squared deviation from cloud means.
    expected = sum(
        np.sum((points[i * 10:(i + 1) * 10] - points[i * 10:(i + 1) * 10].mean(axis=0)) ** 2)
        for i in range(3)
    )
    assert inertia == pytest.approx(expected, rel=1e-9)
    assert centroids.shape == (3, 2)


def test_kmeans_identical_points():
    points = np.ones((8, 3))
    labels, _, inertia, _ = repsc.kmeans(points, 2, repsc.KMeansConfig(seed=0))
    assert inertia == 0.0
    assert set(labels.tolist()) == {0, 1}  # empty-cluster repair keeps k clusters


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**16))
def test_kmeans_never_returns_an_empty_cluster(data, k, dim, seed):
    # Coarse integer coordinates make duplicate points and distance ties common.
    n = data.draw(st.integers(k, 14))
    coords = data.draw(st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim))
    points = np.array(coords, dtype=np.float64).reshape(n, dim)
    if len(np.unique(points, axis=0)) < k:
        return
    labels = repsc.kmeans(points, k, repsc.KMeansConfig(restarts=2, max_iters=5, seed=seed)).labels
    assert np.bincount(labels, minlength=k).min() >= 1
    assert labels.max() < k


def test_assignment_repair_never_empties_a_cluster():
    # Centroids of this partition leave cluster 1 empty, and the farthest
    # point is the only member of cluster 0: moving it would empty cluster 0.
    points = np.array([[0.179], [-0.937], [-0.252], [1.174], [-0.147], [1.553], [0.224]])
    previous = np.array([2, 0, 2, 1, 0, 3, 1])
    centroids = np.array([points[previous == j].mean(axis=0) for j in range(4)])
    (labels,), (inertia,) = _assign(_lifted_points(points), centroids[None])
    assert labels.tolist() == [2, 0, 2, 1, 2, 3, 2]
    assert inertia == pytest.approx(0.328976)


def test_kmeans_close_to_brute_force_restarts():
    rng = np.random.default_rng(18)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    points = np.vstack([c + rng.standard_normal((30, 2)) for c in centers])
    inertia = repsc.kmeans(points, 3, repsc.KMeansConfig(restarts=10, seed=2)).inertia
    best = repsc.kmeans(points, 3, repsc.KMeansConfig(restarts=1000, seed=3)).inertia
    assert inertia <= 1.05 * best


def test_kmeans_k_too_large():
    with pytest.raises(repsc.KTooLargeError):
        repsc.kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError, match="k must be positive, got 0"):
        repsc.kmeans(np.zeros((3, 2)), 0)


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_kmeans_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        repsc.kmeans(np.arange(10.0).reshape(5, 2), k)


def test_kmeans_takes_a_numpy_integer_k():
    points = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(repsc.kmeans(points, np.int64(2)).labels, repsc.kmeans(points, 2).labels)


@pytest.mark.parametrize("run", [
    lambda g, rep: repsc.usc(g, 1.5),
    lambda g, rep: repsc.nsc(g, 1.5),
    lambda g, rep: repsc.urepsc(g, rep, 1.5),
    lambda g, rep: repsc.nrepsc_approx(g, rep, 1.5, 6),
    lambda g, rep: clustering._embed(g, 1.5),
    lambda g, rep: repsc.fair_sc_baseline(g, rep, 1.5, groups=3),
], ids=["usc", "nsc", "urepsc", "nrepsc_approx", "_embed", "fair_sc_baseline"])
def test_algorithms_reject_a_k_that_is_not_an_integer_before_solving(run, eigensolves):
    # No eigensolve starts: neither of the similarity graph nor of R (nor
    # the baseline's group discovery on R).
    g, rep = memo_pair()
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        run(g, rep)
    assert eigensolves == [] and picked_ranks(rep) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    points = np.random.default_rng(5).standard_normal((20, 2))
    points[7, 1] = bad
    with pytest.raises(ValueError, match="points contains non-finite entries"):
        repsc.kmeans(points, 3)


def test_kmeans_deterministic():
    rng = np.random.default_rng(19)
    points = rng.standard_normal((40, 3))
    cfg = repsc.KMeansConfig(seed=7)
    first = repsc.kmeans(points, 4, cfg)
    second = repsc.kmeans(points, 4, cfg)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.centroids, second.centroids)
    assert (first.inertia, first.iters) == (second.inertia, second.iters)


def test_usc_disjoint_cliques():
    g = two_cliques(6)
    result = repsc.usc(g, 2)
    truth = repsc.contiguous_assignment(12, 2)
    assert same_partition(result.assignment, truth)
    # Two connected components give eigenvalue 0 with multiplicity 2.
    assert np.allclose(result.spectrum_used, 0.0, atol=1e-10)
    assert result.kmeans_inertia >= 0.0


def test_usc_on_expected_matrix_recovers_planted_clusters():
    params, expected = repsc.expected_case_inputs(24, 2, 6, 0.4, 0.3, 0.2, 0.1)
    result = repsc.usc(expected, 2)
    assert repsc.mistake_fraction(params.assignment, result.assignment) == 0.0


def test_usc_degenerate_gap_warning():
    # Complete graph: Laplacian spectrum {0, n, ..., n}, so the gap at the
    # cut position vanishes and the subspace is not unique.
    complete = repsc.Graph(np.ones((4, 4)) - np.eye(4))
    result = repsc.usc(complete, 2)
    assert result.warnings


def test_nsc_disjoint_cliques_and_isolated_node():
    g = two_cliques(6)
    result = repsc.nsc(g, 2)
    assert same_partition(result.assignment, repsc.contiguous_assignment(12, 2))
    with_isolated = np.zeros((5, 5))
    with_isolated[:4, :4] = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(repsc.IsolatedNodeError):
        repsc.nsc(repsc.Graph(with_isolated), 2)


def test_nsc_on_expected_matrix(toy_instance):
    _, truth, params = toy_instance
    expected = repsc.expected_adjacency(params)
    result = repsc.nsc(expected, 2)
    assert repsc.mistake_fraction(truth, result.assignment) == 0.0


def test_urepsc_expected_case_exact(toy_instance):
    rep, truth, params = toy_instance
    expected = repsc.expected_adjacency(params)
    result = repsc.urepsc(expected, rep, 2)
    assert repsc.mistake_fraction(truth, result.assignment) == 0.0


def test_urepsc_embedding_satisfies_linear_condition(toy_instance):
    rep, _, params = toy_instance
    budget = 1e-7 * (1.0 + np.linalg.norm(rep.adjacency))
    for seed in range(5):
        g = repsc.sample_rpp(params, seed)
        result = repsc.urepsc(g, rep, 2)
        assert repsc.linear_constraint_norm(result.embedding, rep) <= budget


def test_urepsc_with_all_ones_rep_equals_usc(toy_instance):
    _, _, params = toy_instance
    allones = repsc.Graph(np.ones((24, 24)), allows_self_loops=True)
    for seed in range(20):
        g = repsc.sample_rpp(params, seed)
        constrained = repsc.urepsc(g, allones, 2)
        plain = repsc.usc(g, 2)
        assert same_partition(constrained.assignment, plain.assignment)


def test_urepsc_null_space_too_small():
    rng = np.random.default_rng(23)
    # A dense irregular representation matrix almost surely leaves only the
    # all-ones direction in the null space; skip seeds that do not.
    n = 16
    upper = rng.random((n, n)) < 0.5
    adjacency = np.triu(upper, 1)
    adjacency = (adjacency | adjacency.T).astype(float)
    np.fill_diagonal(adjacency, 1.0)
    rep = repsc.Graph(adjacency, allows_self_loops=True)
    assert constraint_null_basis(rep).shape[1] == 1
    g = repsc.Graph((np.ones((n, n)) - np.eye(n)))
    with pytest.raises(repsc.NullSpaceTooSmallError):
        repsc.urepsc(g, rep, 2)


def test_urepsc_solution_minimizes_restricted_trace(toy_instance):
    rep, _, params = toy_instance
    g = repsc.sample_rpp(params, 31)
    result = repsc.urepsc(g, rep, 2)
    basis = constraint_null_basis(rep)
    laplacian = np.diag(g.degrees) - g.adjacency
    reduced = basis.T @ laplacian @ basis
    reduced = (reduced + reduced.T) / 2.0
    optimum = float(np.sum(result.spectrum_used))
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = random_orthonormal(rng, reduced.shape[0], 2)
        assert np.trace(w.T @ reduced @ w) >= optimum - 1e-9


def test_nrepsc_expected_case_exact(toy_instance):
    rep, truth, params = toy_instance
    expected = repsc.expected_adjacency(params)
    result = repsc.nrepsc(expected, rep, 2)
    assert repsc.mistake_fraction(truth, result.assignment) == 0.0


def test_nrepsc_embedding_whitened(toy_instance):
    rep, _, params = toy_instance
    g = repsc.sample_rpp(params, 41)
    assert np.all(g.degrees > 0)
    result = repsc.nrepsc(g, rep, 2)
    t = result.embedding
    gram = t.T @ np.diag(g.degrees) @ t
    assert np.allclose(gram, np.eye(2), atol=1e-7)


def test_nrepsc_equals_urepsc_on_uniform_degree_graph(toy_instance):
    rep, _, _ = toy_instance
    # Two 12-cliques plus a perfect matching across: every degree is 12.
    m = 12
    adjacency = np.zeros((24, 24))
    adjacency[:m, :m] = np.ones((m, m)) - np.eye(m)
    adjacency[m:, m:] = np.ones((m, m)) - np.eye(m)
    adjacency[:m, m:] = np.eye(m)
    adjacency[m:, :m] = np.eye(m)
    g = repsc.Graph(adjacency)
    assert np.all(g.degrees == 12.0)
    normalized = repsc.nrepsc(g, rep, 2)
    unnormalized = repsc.urepsc(g, rep, 2)
    assert same_partition(normalized.assignment, unnormalized.assignment)


def test_nrepsc_rejects_isolated_node(toy_instance):
    rep, _, _ = toy_instance
    adjacency = np.zeros((24, 24))
    adjacency[0, 1] = adjacency[1, 0] = 1.0  # nodes 2.. have degree zero
    with pytest.raises(repsc.IsolatedNodeError):
        repsc.nrepsc(repsc.Graph(adjacency), rep, 2)


def test_approx_lossless_at_true_rank():
    cliques, _ = repsc.sample_planted_partition_rep_graph(30, 3, 1.0, 0.0, 0)
    g, _ = repsc.sample_planted_partition_rep_graph(30, 3, 0.7, 0.25, 5)
    weights = g.adjacency.astype(float)
    sim = repsc.Graph(weights - np.diag(np.diag(weights)))
    exact = repsc.urepsc(sim, cliques, 3)
    approx = repsc.urepsc_approx(sim, cliques, 3, rank=3)
    assert same_partition(exact.assignment, approx.assignment)


def test_approx_rank_bounds(toy_instance):
    rep, _, params = toy_instance
    g = repsc.sample_rpp(params, 2)
    with pytest.raises(ValueError):
        repsc.urepsc_approx(g, rep, 2, rank=0)
    with pytest.raises(repsc.RankTooLargeError):
        repsc.urepsc_approx(g, rep, 2, rank=23)
    result = repsc.nrepsc_approx(g, rep, 2, rank=8)
    assert result.assignment.n == 24


def test_pipelines_deterministic(toy_instance):
    rep, _, params = toy_instance
    g = repsc.sample_rpp(params, 51)
    for algorithm in (
        lambda: repsc.usc(g, 2),
        lambda: repsc.nsc(g, 2),
        lambda: repsc.urepsc(g, rep, 2),
        lambda: repsc.nrepsc(g, rep, 2),
        lambda: repsc.urepsc_approx(g, rep, 2, rank=6),
    ):
        first = algorithm()
        second = algorithm()
        assert np.array_equal(first.assignment.labels, second.assignment.labels)
        assert np.array_equal(first.embedding, second.embedding)


# -- each solve of a representation Graph once (its memo's ("picked", rank)
# entries, rank None for the exact constraint) --
#
# r_solves(eigensolves) lists R's solves in call order, as (kind, shape):
# "select" for the eigenvectors of the narrower side (sym_eig's ``pick``;
# the Solve's ``width`` counts them), R's null block among them.

SELECT = ("select", (24, 24))


def picked_ranks(rep) -> list:
    """The ranks (None for the exact constraint) whose select solve ``rep``
    keeps, in the order they were solved."""
    return [key[1] for key in rep._memo if isinstance(key, tuple) and key[0] == "picked"]


def test_graph_r_is_solved_once_per_rank(eigensolves, toy_instance):
    # A rank-r truncation's constraint reads the r eigenvectors of largest
    # |lambda| (R has 10 that are not null): one select solve per rank,
    # kept by the Graph, never repeated, each with r eigenvectors.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    first = constraint_null_basis(rep, rank=4)
    constraint_null_basis(rep, rank=8)
    _, _, params = toy_instance
    g = repsc.sample_rpp(params, 3)
    repsc.urepsc_approx(g, rep, 2, rank=5)
    repsc.nrepsc_approx(g, rep, 2, rank=6)
    repsc.urepsc_approx(repsc.sample_rpp(params, 4), rep, 2, rank=8)
    assert np.array_equal(constraint_null_basis(rep, rank=4), first)
    assert r_solves(eigensolves) == [SELECT] * 4
    assert [solve.width for solve in eigensolves if solve.kind == "select"] == [4, 8, 5, 6]
    assert picked_ranks(rep) == [4, 8, 5, 6]


def test_narrow_exact_constraint_takes_one_interval_solve(eigensolves, toy_instance):
    # d = 8 leaves 9 null dimensions of 24: bisection over [-t, t] finds
    # them, and urepsc, nrepsc and the null basis read the one N x 9 null
    # block the Graph keeps; no other eigenpair of R is computed.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 8)
    first = constraint_null_basis(rep)
    _, _, params = toy_instance
    g = repsc.sample_rpp(params, 3)
    repsc.urepsc(g, rep, 2)
    repsc.nrepsc(g, rep, 2)
    assert first.shape == (24, 10)
    assert np.array_equal(constraint_null_basis(rep), first)
    assert r_solves(eigensolves) == [SELECT] and eigensolves[0].width == 9
    assert picked_ranks(rep) == [None] and rep._memo[("picked", None)][1]


def test_wide_exact_constraint_takes_one_select_solve(eigensolves):
    # d = 6 leaves 14 null dimensions of 24, more than N/2: the solve that
    # bisected for them goes on, from the same tridiagonalization, to the
    # 10 eigenvectors that are not null, once per Graph; no eigenvector of
    # the wide block is computed.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    g, _ = memo_pair()
    assert constraint_null_basis(rep).shape == (24, 15)
    repsc.urepsc(g, rep, 2)
    assert r_solves(eigensolves) == [SELECT] and eigensolves[0].width == 10
    assert picked_ranks(rep) == [None] and not rep._memo[("picked", None)][1]


@pytest.mark.parametrize("groups", [2, 5, 12])
def test_a_block_r_takes_one_solve_of_its_groups(groups, eigensolves):
    # R[i, j] = 1 when nodes i and j share a group, self-loops included:
    # rank `groups`, and N - groups null dimensions, too many for the Y arm
    # to be sure of. Bisection finds them, and the same solve goes on to
    # the eigenvectors that are not null, which span the group indicators.
    n = 24
    labels = np.random.default_rng(groups).permutation(np.arange(n) * groups // n)
    rep = repsc.Graph(labels[:, None] == labels[None, :], allows_self_loops=True)
    vectors, null = clustering._rep_spectrum(rep, None)
    onehot = labels[:, None] == np.arange(groups)
    indicators = onehot / np.sqrt(onehot.sum(axis=0))
    assert not null and vectors.shape == (n, groups)
    assert np.abs(vectors @ vectors.T - indicators @ indicators.T).max() <= 1e-10
    assert constraint_null_basis(rep).shape == (n, n - groups + 1)
    assert r_solves(eigensolves) == [SELECT] and eigensolves[0].width == groups


@pytest.mark.parametrize("d", [8, 6])  # a narrow null block, then a wide one
def test_exact_rows_do_not_depend_on_an_earlier_rank_solve(d):
    # urepsc_approx solves one copy of R for its rank first; the exact
    # variants' bytes must not change for it.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, d)
    decomposed = fresh(rep)
    g, _ = memo_pair()
    repsc.urepsc_approx(fresh(g), decomposed, 2, rank=5)
    assert picked_ranks(decomposed) == [5]
    assert np.array_equal(constraint_null_basis(rep), constraint_null_basis(decomposed))
    for algorithm in (repsc.urepsc, repsc.nrepsc):
        assert_same_result(algorithm(fresh(g), rep, 2), algorithm(fresh(g), decomposed, 2))


def test_null_basis_memo_recomputes_a_changed_r(eigensolves):
    # A raw matrix R, changed or not, is solved on every call.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    raw = rep.adjacency.copy()
    first = constraint_null_basis(raw)
    assert np.array_equal(constraint_null_basis(raw, rank=4), constraint_null_basis(rep, rank=4))
    assert np.array_equal(constraint_null_basis(raw), first)
    changed = raw.copy()
    changed[0, 1] = changed[1, 0] = 1.0 - changed[0, 1]
    assert not np.array_equal(constraint_null_basis(changed), first)
    # Each call, exact or rank, is one select solve.
    assert r_solves(eigensolves) == [SELECT] * 5


def test_null_basis_memo_caches_no_failure(eigensolves, monkeypatch):
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    recording = clustering.sym_eig

    def failing(m, b=None, count=None, pick=None):
        raise repsc.EigenConvergenceError("no convergence")

    monkeypatch.setattr(clustering, "sym_eig", failing)
    with pytest.raises(repsc.EigenConvergenceError):
        constraint_null_basis(rep)
    assert picked_ranks(rep) == []
    # Inverse iteration fails after bisection has found R wide.
    monkeypatch.setattr(clustering, "sym_eig", recording)
    with monkeypatch.context() as patch:
        patch.setattr(linalg.lapack, "dstein", lambda *args: (np.zeros((24, 0)), 1))
        with pytest.raises(repsc.EigenConvergenceError, match="dstein failed"):
            constraint_null_basis(rep)
    assert picked_ranks(rep) == []
    constraint_null_basis(rep)
    constraint_null_basis(rep)
    # The failed solve, then one that is kept: the last call reads it.
    assert r_solves(eigensolves) == [SELECT, SELECT]
    assert [solve.width for solve in eigensolves] == [None, 10]


def test_null_basis_memo_is_read_only_and_returns_fresh_bases(eigensolves):
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    handed = rep.adjacency.copy()
    graph = repsc.Graph(handed, allows_self_loops=True)
    # Kept without a copy, and the caller's array became read-only with it.
    assert graph.adjacency is handed
    basis = constraint_null_basis(graph)
    constraint_null_basis(graph, rank=4)
    picked = [graph._memo[("picked", rank)][0] for rank in (None, 4)]
    for array in (handed, *picked):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    expected = basis.copy()
    basis[:] = 0.0
    assert np.array_equal(constraint_null_basis(graph), expected)
    assert r_solves(eigensolves) == [SELECT, SELECT]


def test_sweep_decomposes_each_r_once_per_grid_point(eigensolves, tmp_path):
    # Setup (expected_spectrum) and 2 trials x (urepsc, nrepsc) at each of
    # two grid points share one solve of that point's R, whose null block
    # (1 and 9 of 24 dimensions) is narrow: its eigenvectors alone.
    cfg = repsc.parse_config_text(
        "mode = d_regular_sweep\n"
        "algorithms = usc, urepsc, nrepsc\n"
        "n_values = 24\n"
        "k_values = 2\n"
        "d_values = 4, 8\n"
        "trials = 2\n"
        f"out = {tmp_path}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0 and len(result.rows) == 12
    assert r_solves(eigensolves) == [SELECT, SELECT]
    assert [solve.width for solve in eigensolves if solve.kind == "select"] == [1, 9]


# -- what a Graph keeps of each solve (Graph._memo) --
#
# Tests that patch a solver build their own Graphs: the session-scoped
# toy_instance graph keeps what earlier tests solved on it.


def memo_pair(seed: int = 3) -> tuple[repsc.Graph, repsc.Graph]:
    """A fresh (similarity, representation) pair on the 24-node toy model."""
    rep, truth = repsc.build_d_regular_rep_graph(24, 2, 6)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    return repsc.sample_rpp(params, seed), rep


def fresh(graph: repsc.Graph) -> repsc.Graph:
    return repsc.Graph(graph.adjacency.copy(), graph.allows_self_loops)


def assert_same_result(a: repsc.ClusteringResult, b: repsc.ClusteringResult) -> None:
    assert np.array_equal(a.assignment.labels, b.assignment.labels)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.spectrum_used, b.spectrum_used)
    assert a.warnings == b.warnings
    assert a.kmeans_inertia == b.kmeans_inertia
    assert a.kmeans_iters == b.kmeans_iters


MEMO_RUNS = {
    "usc": lambda g, rep, cfg: repsc.usc(g, 2, cfg),
    "nsc": lambda g, rep, cfg: repsc.nsc(g, 2, cfg),
    "urepsc": lambda g, rep, cfg: repsc.urepsc(g, rep, 2, cfg),
    "nrepsc": lambda g, rep, cfg: repsc.nrepsc(g, rep, 2, cfg),
    "urepsc_approx": lambda g, rep, cfg: repsc.urepsc_approx(g, rep, 2, 6, cfg),
    "nrepsc_approx": lambda g, rep, cfg: repsc.nrepsc_approx(g, rep, 2, 6, cfg),
    "fair_sc_baseline": lambda g, rep, cfg: repsc.fair_sc_baseline(g, rep, 2, cfg, groups=3),
}


@pytest.mark.parametrize("name", MEMO_RUNS)
def test_a_kept_solve_equals_a_solve_on_fresh_graphs(name, eigensolves):
    run = MEMO_RUNS[name]
    g, rep = memo_pair()
    run(g, rep, repsc.KMeansConfig(seed=1))
    solved = len(eigensolves)
    for seed in (1, 2):  # k-means with the seed of the first call, then another
        cfg = repsc.KMeansConfig(seed=seed)
        kept = run(g, rep, cfg)
        # Only the baseline's group-constrained problem is solved again.
        assert len(eigensolves) == solved + (name == "fair_sc_baseline")
        assert_same_result(kept, run(fresh(g), fresh(rep), cfg))
        solved = len(eigensolves)


def test_results_own_their_arrays():
    g, rep = memo_pair()
    first = repsc.nrepsc(g, rep, 2)
    embedding, spectrum = first.embedding.copy(), first.spectrum_used.copy()
    for result in (first, repsc.nrepsc(g, rep, 2, repsc.KMeansConfig(seed=5))):
        result.embedding[:] = 7.0
        result.spectrum_used[:] = 7.0
        result.assignment.labels[:] = 0
    later = repsc.nrepsc(g, rep, 2)
    assert np.array_equal(later.embedding, embedding)
    assert np.array_equal(later.spectrum_used, spectrum)
    assert_same_result(later, repsc.nrepsc(fresh(g), fresh(rep), 2))


def test_a_degenerate_eigengap_warning_survives_a_kept_solve(eigensolves):
    # Three equal cliques: the bottom three eigenvalues are all zero, so the
    # two-dimensional embedding is one choice among many.
    block = np.ones((4, 4)) - np.eye(4)
    g = repsc.Graph(np.kron(np.eye(3), block))
    first = repsc.usc(g, 2)
    assert len(first.warnings) == 1 and "eigengap between positions 1 and 2" in first.warnings[0]
    assert repsc.usc(g, 2, repsc.KMeansConfig(seed=4)).warnings == first.warnings
    assert len(eigensolves) == 1


def test_raw_matrices_are_solved_on_every_call(eigensolves):
    g, rep = memo_pair()
    raw_g, raw_rep = g.adjacency.copy(), rep.adjacency.copy()
    for _ in range(2):
        repsc.usc(raw_g, 2)
        repsc.urepsc(g, raw_rep, 2)
        repsc.nrepsc_approx(raw_g, rep, 2, 6)
        repsc.fair_sc_baseline(raw_g, raw_rep, 2, groups=3)
    # usc: 1; urepsc: R's select solve and the restricted problem;
    # nrepsc_approx: the restricted problem, and on the first call the
    # Graph R's select solve for rank 6, which it keeps; the baseline:
    # discovery and solve.
    assert len(eigensolves) == 2 * (1 + 2 + 1 + 2) + 1
    assert "_memo" not in vars(g)


def test_a_failing_call_keeps_nothing(monkeypatch):
    g, rep = memo_pair()
    with pytest.raises(repsc.RankTooLargeError):
        repsc.urepsc_approx(g, rep, 2, rank=23)
    with pytest.raises(repsc.KTooLargeError):
        repsc.usc(g, 25)
    with pytest.raises(repsc.KTooLargeError):
        repsc.fair_sc_baseline(g, rep, 2, groups=25)

    def failing(points, k, cfg):
        raise repsc.EigenConvergenceError("no convergence")

    monkeypatch.setattr(clustering, "kmeans", failing)
    with pytest.raises(repsc.EigenConvergenceError):
        repsc.nsc(g, 2)
    with pytest.raises(repsc.EigenConvergenceError):
        repsc.fair_sc_baseline(g, rep, 2, groups=3)
    assert g._memo == {} and rep._memo == {}


# -- permutation equivariance ------------------------------------------------

EQUIVARIANT = {  # name: (which R, direct call on (G, R))
    "usc": ("planted", lambda g, r, cfg: repsc.usc(g, 3, cfg)),
    "nsc": ("planted", lambda g, r, cfg: repsc.nsc(g, 3, cfg)),
    "urepsc": ("regular", lambda g, r, cfg: repsc.urepsc(g, r, 3, cfg)),
    "nrepsc": ("regular", lambda g, r, cfg: repsc.nrepsc(g, r, 3, cfg)),
    "urepsc_approx": ("planted", lambda g, r, cfg: repsc.urepsc_approx(g, r, 3, 30, cfg)),
    "nrepsc_approx": ("planted", lambda g, r, cfg: repsc.nrepsc_approx(g, r, 3, 30, cfg)),
}


@pytest.fixture(scope="module")
def equivariance_instances():
    """N = 300, K = 3: a planted R with 30 groups (no tied eigenvalues at the
    rank-30 cut-off) and a d-regular R with d = 30, each with a sampled G."""
    truth = repsc.contiguous_assignment(300, 3)
    reps = {"planted": repsc.sample_planted_partition_rep_graph(300, 30, 0.8, 0.2, 0)[0],
            "regular": repsc.build_d_regular_rep_graph(300, 3, 30)[0]}
    return {name: (repsc.sample_rpp(repsc.RppParams(truth, rep, **SWEEP_PROBS), 1), rep)
            for name, rep in reps.items()}


@pytest.mark.parametrize("name", EQUIVARIANT)
def test_embedding_subspace_is_permutation_equivariant(equivariance_instances, name):
    """Relabelling the nodes of G and R by pi moves the embedding X to
    pi(X) Q for some orthogonal Q, so X X^T (the projector onto span(X) when
    its columns are orthonormal) moves to pi(X X^T). Partitions are not
    compared: k-means++ picks rows by index. fair_sc_baseline is not
    equivariant either, because its group discovery is itself a k-means:
    its X X^T moves by 0.12 on the planted instance with 30 groups."""
    which, call = EQUIVARIANT[name]
    graph, rep = equivariance_instances[which]
    perm = np.random.default_rng(3).permutation(graph.n)

    def relabel(g):
        return repsc.Graph(g.adjacency[np.ix_(perm, perm)], g.allows_self_loops)

    cfg = repsc.KMeansConfig(restarts=1)
    before = call(graph, rep, cfg).embedding
    after = call(relabel(graph), relabel(rep), cfg).embedding
    gram_before, gram_after = before @ before.T, after @ after.T
    assert np.abs(gram_after - gram_before[np.ix_(perm, perm)]).max() <= 1e-10


# -- the eigensolves a sweep pays for -----------------------------------------


@pytest.fixture
def eighs(monkeypatch):
    """One record per ``scipy.linalg.eigh`` call: the order of its matrix,
    the shape of its ``b`` (None without one), what it solves, told apart
    by the options and the matrix ("full" for a whole spectrum, "L" for a
    Laplacian (rows sum to zero), "normalized L" for a unit diagonal,
    "other" otherwise), and the names of the options it was given."""
    calls = []
    eigh = scipy.linalg.eigh

    def recording(a, b=None, **options):
        if options.get("subset_by_index") is None:
            kind = "full"
        elif np.allclose(a.sum(axis=1), 0.0):
            kind = "L"
        elif np.allclose(np.diag(a), 1.0):
            kind = "normalized L"
        else:
            kind = "other"
        calls.append((a.shape[0], None if b is None else b.shape, kind, sorted(options)))
        return eigh(a, b, **options)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    return calls


def test_a_sweep_solves_only_r_and_the_unconstrained_problems_at_full_size(eighs, eigensolves,
                                                                           tmp_path):
    # Per grid point: R once, by one select solve of its null block (kept
    # in its memo, shared by the setup and the constrained rows), then
    # usc's L and nsc's D^{-1/2} L D^{-1/2} once per trial's sampled graph.
    # The setup's expected spectrum and the constrained rows solve problems
    # of the null space's dimension, and no call factors an N-by-N b. R's
    # solve calls LAPACK directly: a fallback to a full or an interval
    # solve through scipy.linalg.eigh fails the eigh count or its options,
    # and a second solve of R the count of R's solves.
    n, d_values, trials = 60, (6, 12), 2
    cfg = repsc.parse_config_text(
        "mode = d_regular_sweep\n"
        "algorithms = usc, nsc, urepsc, nrepsc\n"
        f"n_values = {n}\n"
        "k_values = 3\n"
        f"d_values = {', '.join(map(str, d_values))}\n"
        f"trials = {trials}\n"
        f"out = {tmp_path}\n"
    )
    result = repsc.run_experiment(cfg)
    assert result.error_count == 0 and len(result.rows) == 4 * len(d_values) * trials
    assert all(b is None or b[0] < n for _, b, _, _ in eighs)
    assert not any("subset_by_value" in options for *_, options in eighs)
    full_size = sorted(kind for order, _, kind, _ in eighs if order == n)
    assert full_size == sorted(["L", "normalized L"] * len(d_values) * trials)
    assert r_solves(eigensolves) == [("select", (n, n))] * len(d_values)


# -- basis invariance ---------------------------------------------------------


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["d_regular", "planted"]), normalized=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_embedding_does_not_depend_on_the_orthonormal_basis_of_y(kind, normalized, seed):
    """Y and Y Q span one space for an orthogonal Q, so the restricted
    problem is one problem and X X^T must not move: which basis LAPACK
    returns for R's repeated null eigenvalue is arbitrary. A planted R is
    full rank, so its Y is the null basis of the rank-N/10 truncation."""
    rng = np.random.default_rng(seed)
    n, k = 60, 3
    if kind == "d_regular":
        rep, truth = repsc.build_d_regular_rep_graph(n, k, 12)
        basis = constraint_null_basis(rep)
    else:
        rep, _ = repsc.sample_planted_partition_rep_graph(n, 6, 0.8, 0.2, seed)
        truth = repsc.contiguous_assignment(n, k)
        basis = constraint_null_basis(rep, rank=n // 10)
    graph = repsc.sample_rpp(repsc.RppParams(truth, rep, **SWEEP_PROBS), seed)
    q = random_orthonormal(rng, basis.shape[1], basis.shape[1])
    x, spectrum, warnings = clustering._embed(graph, k, basis, normalized)
    rotated, rotated_spectrum, _ = clustering._embed(graph, k, basis @ q, normalized)
    assume(not warnings)  # a tied k-th eigenvalue leaves the subspace open
    assert np.allclose(rotated_spectrum, spectrum, atol=1e-10)
    assert np.abs(rotated @ rotated.T - x @ x.T).max() <= 1e-10


# -- errors and warnings on the complement (W) arm -----------------------------


def pairs(n: int = 20) -> repsc.ClusterAssignment:
    """n/2 groups of two nodes: W has n/2 - 1 columns and Y n/2 + 1, so the
    group constraint is solved on W and leaves n/2 + 1 dimensions."""
    return repsc.ClusterAssignment(np.arange(n) // 2, n // 2)


def test_rank_out_of_range_raises_before_r_is_decomposed(eigensolves):
    g, rep = memo_pair()
    with pytest.raises(ValueError, match="rank must be at least 1, got 0"):
        repsc.urepsc_approx(g, rep, 2, rank=0)
    with pytest.raises(repsc.RankTooLargeError):
        repsc.nrepsc_approx(g, rep.adjacency.copy(), 2, rank=23)
    assert r_solves(eigensolves) == [] and "full" not in rep._memo


def test_complement_arm_raises_when_fewer_than_k_dimensions_are_left():
    g = repsc.Graph(np.ones((20, 20)) - np.eye(20))
    assert clustering._basis(g, 12, pairs(), None)[0] is None
    message = "constraint null space has 11 dimensions, need at least k=12"
    for normalized in (False, True):
        with pytest.raises(repsc.NullSpaceTooSmallError, match=message):
            clustering._solve(g, 12, repsc.KMeansConfig(), pairs(), normalized=normalized)
        with pytest.raises(repsc.NullSpaceTooSmallError, match=message):
            clustering._embed(g, 12, clustering._group_basis(pairs()), normalized)


def test_complement_arm_with_exactly_k_dimensions_left(eigensolves):
    # The eigenvalue c of span(W) is not solved for, so it can neither enter
    # the spectrum nor the gap test.
    rng = np.random.default_rng(9)
    upper = np.triu(rng.random((20, 20)), 1)
    g = upper + upper.T
    for normalized in (False, True):
        result = clustering._solve(g, 11, repsc.KMeansConfig(), pairs(), normalized=normalized)
        assert eigensolves[-1].count == 11
        _, spectrum, warnings = clustering._embed(g, 11, clustering._group_basis(pairs()),
                                                  normalized)
        assert result.warnings == warnings == ()
        assert np.allclose(result.spectrum_used, spectrum, atol=1e-10)


def test_complement_arm_warning_survives_a_kept_solve(eigensolves):
    # Three 4-cliques, and an R of two groups with two members in every
    # clique: each clique's indicator meets the constraint, so the bottom
    # three eigenvalues are zero. R has rank 2 and 1 in its span, so W has
    # one column.
    g = repsc.Graph(np.kron(np.eye(3), np.ones((4, 4)) - np.eye(4)))
    labels = np.arange(12) % 4 // 2
    rep = repsc.Graph((labels[:, None] == labels[None, :]).astype(float), allows_self_loops=True)
    assert clustering._basis(g, 2, rep, None)[1].shape == (12, 1)
    first = repsc.urepsc(g, rep, 2)
    assert len(first.warnings) == 1 and "eigengap between positions 1 and 2" in first.warnings[0]
    assert repsc.urepsc(g, rep, 2, repsc.KMeansConfig(seed=4)).warnings == first.warnings
    # R's select solve (10 null dimensions of 12 make the block wide, so
    # it takes the 2 eigenvectors that are not null) and the restricted
    # problem.
    assert len(eigensolves) == 2 and (eigensolves[0].kind, eigensolves[0].width) == ("select", 2)
    assert clustering._embed(g, 2, constraint_null_basis(rep))[2] == first.warnings


def test_complement_arm_accepts_heavy_edge_weights():
    # The deflated matrix carries c ~ 2 max degree = 6e10 on span(W); its
    # rounding asymmetry must not reach sym_eig's absolute tolerance.
    rng = np.random.default_rng(0)
    upper = np.triu(rng.random((60, 60)), 1) * 1e9
    g = upper + upper.T
    groups = repsc.ClusterAssignment(np.arange(60) % 4, 4)
    assert clustering._basis(g, 3, groups, None)[0] is None
    for normalized in (False, True):
        got = clustering._solve(g, 3, repsc.KMeansConfig(), groups, normalized=normalized)
        x, spectrum, _ = clustering._embed(g, 3, clustering._group_basis(groups), normalized)
        scale = np.abs(spectrum).max()
        assert np.allclose(got.spectrum_used, spectrum, rtol=0.0, atol=1e-12 * scale)
        gram = got.embedding @ got.embedding.T
        assert np.abs(gram - x @ x.T).max() <= 1e-9 * np.abs(x @ x.T).max()


@pytest.mark.parametrize("normalized, constrained", [(False, False), (True, False), (True, True)])
def test_an_n_by_n_solve_holds_one_matrix_beyond_the_graph(normalized, constrained):
    # usc, nsc and a normalized W-arm solve, in N x N float64 units at
    # N = 600: the Laplacian (deflated on the W arm), solved in its own
    # storage; a copy for the solve would read about 2.05.
    n = 600
    rep, truth = repsc.build_d_regular_rep_graph(n, 5, 40)
    g = repsc.sample_rpp(repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS), 1)
    complement = clustering._group_complement(repsc.contiguous_assignment(n, 10))
    peak = traced_peak(lambda: clustering._embed(g, 5, None, normalized,
                                                 complement if constrained else None))
    assert peak <= 1.25 * n * n * 8


@pytest.mark.parametrize("normalized", [False, True])
def test_the_basis_arm_holds_no_n_by_n_matrix_beyond_the_graph(normalized):
    # urepsc's and nrepsc's solve on a d-regular null basis at N = 900 (10
    # of 900 dimensions), in N x N float64 units: Y^T L Y and Y^T D Y come
    # from N x m products. A whole L built to be multiplied reads 1.01.
    n = 900
    rep, truth = repsc.build_d_regular_rep_graph(n, 5, 40)
    g = repsc.sample_rpp(repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS), 1)
    basis = constraint_null_basis(rep)
    assert basis.shape == (n, 10)
    peak = traced_peak(lambda: clustering._embed(g, 5, basis, normalized))
    assert peak <= 0.25 * n * n * 8


def test_r_keeps_its_null_block_and_not_the_solve_buffer():
    # On a fresh d-regular R at N = 600 bisection finds 39 null pairs; the
    # Graph keeps their N x 39 eigenvectors and its threshold. A slice of
    # an N-column eigenvector buffer would keep all N^2 numbers.
    n, m = 600, 39
    graphs = [repsc.build_d_regular_rep_graph(n, 5, 40)[0] for _ in range(2)]
    fresh = iter(graphs)
    assert traced_retained(lambda: constraint_null_basis(next(fresh))) <= (m + 2) * n * 8
    vectors, null = graphs[1]._memo[("picked", None)]
    assert vectors.shape == (n, m) and null


def test_a_rank_r_graph_keeps_r_eigenvectors_and_not_r_s_decomposition():
    # A planted R at N = 600 and rank r = N/10: the Graph keeps its select
    # solve's N x r eigenvectors, the ones the truncation keeps. R's full
    # decomposition, which it kept before, holds N^2 + N numbers.
    n, rank = 600, 60
    graphs = [repsc.sample_planted_partition_rep_graph(n, 6, 0.8, 0.2, seed)[0] for seed in (1, 2)]
    fresh = iter(graphs)
    assert traced_retained(lambda: clustering._rep_spectrum(next(fresh), rank)) \
        <= (rank + 2) * n * 8
    vectors, null = graphs[1]._memo[("picked", rank)]
    assert vectors.shape == (n, rank) and not null
