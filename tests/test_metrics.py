"""Cut values, partition agreement, and the combined score bundle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repsc
from conftest import (SWEEP_PROBS, brute_force_mistake, random_assignment, same_partition,
                      traced_peak)
from repsc.metrics import _max_weight_matching


def complete_graph(n: int) -> repsc.Graph:
    return repsc.Graph(np.ones((n, n)) - np.eye(n))


def random_graph(rng: np.random.Generator, n: int, density: float = 0.4) -> repsc.Graph:
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return repsc.Graph((upper | upper.T).astype(np.float64))


def test_ratio_cut_zero_on_disjoint_cliques():
    adjacency = np.zeros((8, 8))
    adjacency[:4, :4] = np.ones((4, 4)) - np.eye(4)
    adjacency[4:, 4:] = np.ones((4, 4)) - np.eye(4)
    truth = repsc.contiguous_assignment(8, 2)
    assert repsc.ratio_cut(repsc.Graph(adjacency), truth) == 0.0


def test_cut_values_on_complete_four_nodes():
    # Splitting K4 in half cuts four edges; each cluster of size 2 sees all
    # four, so rcut = 4/2 + 4/2 = 4. Each cluster volume is 6, so
    # ncut = 4/6 + 4/6 = 4/3.
    g = complete_graph(4)
    half = repsc.ClusterAssignment(np.array([0, 0, 1, 1]), 2)
    assert repsc.ratio_cut(g, half) == pytest.approx(4.0, abs=1e-12)
    assert repsc.normalized_cut(g, half) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_cut_dual_forms_agree_on_random_graphs():
    rng = np.random.default_rng(61)
    for trial in range(20):
        n = int(rng.integers(6, 20))
        k = int(rng.integers(2, min(5, n)))
        g = random_graph(rng, n)
        assignment = random_assignment(rng, n, k)
        onehot = assignment.onehot()
        laplacian = np.diag(g.degrees) - g.adjacency
        # Independent combinatorial recomputation, edge by edge.
        crossing = np.zeros(k)
        for i, j in itertools.combinations(range(n), 2):
            if g.adjacency[i, j] and assignment.labels[i] != assignment.labels[j]:
                crossing[assignment.labels[i]] += 1
                crossing[assignment.labels[j]] += 1
        expected_rcut = float(np.sum(crossing / assignment.sizes))
        rcut = repsc.ratio_cut(g, assignment)  # internally checks the trace form
        assert rcut == pytest.approx(expected_rcut, abs=1e-9)
        volumes = g.degrees @ onehot
        if np.all(volumes > 0):
            expected_ncut = float(np.sum(crossing / volumes))
            assert repsc.normalized_cut(g, assignment) == pytest.approx(
                expected_ncut, abs=1e-9
            )


def test_cut_rejections():
    g = complete_graph(4)
    lonely = repsc.ClusterAssignment(np.array([0, 0, 0, 0]), 2)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.ratio_cut(g, lonely)
    with pytest.raises(repsc.SizeMismatchError):
        repsc.ratio_cut(g, repsc.contiguous_assignment(6, 2))
    # An isolated node in its own cluster has zero volume.
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    with pytest.raises(repsc.ZeroVolumeClusterError):
        repsc.normalized_cut(
            repsc.Graph(adjacency), repsc.ClusterAssignment(np.array([0, 0, 1]), 2)
        )


def test_mistake_fraction_label_swap_is_free():
    truth = repsc.contiguous_assignment(10, 2)
    swapped = repsc.ClusterAssignment(1 - truth.labels, 2)
    assert repsc.mistake_fraction(truth, swapped) == 0.0
    assert repsc.accuracy_nodes(truth, swapped) == 1.0


def test_mistake_fraction_single_misplaced_node():
    truth = repsc.contiguous_assignment(10, 2)
    labels = truth.labels.copy()
    labels[0] = 1
    predicted = repsc.ClusterAssignment(labels, 2)
    assert repsc.mistake_fraction(truth, predicted) == pytest.approx(2.0 / 10.0)
    assert repsc.accuracy_nodes(truth, predicted) == pytest.approx(9.0 / 10.0)


def test_mistake_fraction_constant_prediction():
    truth = repsc.contiguous_assignment(8, 2)
    constant = repsc.ClusterAssignment(np.zeros(8, dtype=int), 2)
    assert repsc.mistake_fraction(truth, constant) == brute_force_mistake(truth, constant)
    assert repsc.mistake_fraction(truth, constant) == pytest.approx(1.0)


def test_mistake_fraction_matches_brute_force():
    rng = np.random.default_rng(62)
    for trial in range(60):
        n = int(rng.integers(4, 16))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        truth = random_assignment(rng, n, k)
        predicted = random_assignment(rng, n, k)
        fast = repsc.mistake_fraction(truth, predicted)
        slow = brute_force_mistake(truth, predicted)
        assert fast == pytest.approx(slow, abs=1e-12)
        assert repsc.accuracy_nodes(truth, predicted) == pytest.approx(
            1.0 - fast / 2.0, abs=1e-12
        )


def test_mistake_fraction_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(63)
    for trial in range(20):
        truth = random_assignment(rng, 12, 3)
        predicted = random_assignment(rng, 12, 3)
        perm = rng.permutation(3)
        relabeled = repsc.ClusterAssignment(perm[predicted.labels], 3)
        value = repsc.mistake_fraction(truth, predicted)
        assert repsc.mistake_fraction(truth, relabeled) == pytest.approx(value)
        assert repsc.mistake_fraction(predicted, truth) == pytest.approx(value)


def test_mistake_fraction_rejects_mismatched_shapes():
    with pytest.raises(repsc.SizeMismatchError):
        repsc.mistake_fraction(
            repsc.contiguous_assignment(8, 2), repsc.contiguous_assignment(10, 2)
        )
    with pytest.raises(repsc.SizeMismatchError):
        repsc.mistake_fraction(
            repsc.contiguous_assignment(12, 2), repsc.contiguous_assignment(12, 3)
        )


# -- the exact matching solver against independent optima --------------------


def brute_force_matching(weights):
    k = weights.shape[0]
    return max(int(weights[range(k), list(perm)].sum())
               for perm in itertools.permutations(range(k)))


# Few distinct values make ties (and many optimal matchings) likely.
small_confusions = st.integers(1, 6).flatmap(lambda k: hnp.arrays(
    np.int64, (k, k), elements=st.one_of(st.integers(0, 3), st.integers(0, 10**6))))


@settings(max_examples=300, deadline=None)
@given(small_confusions)
def test_matching_equals_brute_force_on_small_matrices(weights):
    assert _max_weight_matching(weights) == brute_force_matching(weights)
    # Transposing (swapping truth and prediction) keeps the optimum.
    assert _max_weight_matching(weights.T.copy()) == brute_force_matching(weights)


def test_matching_equals_scipy_up_to_k_200():
    # scipy.optimize is imported here only: the package itself avoids it.
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(64)
    for k in (7, 12, 25, 50, 100, 200):
        for high in (2, 50, 10**9):
            weights = rng.integers(0, high, size=(k, k))
            rows, cols = linear_sum_assignment(weights, maximize=True)
            assert _max_weight_matching(weights) == int(weights[rows, cols].sum()), (k, high)


def test_score_partition_on_fair_ground_truth(toy_instance):
    rep, truth, params = toy_instance
    g = repsc.sample_rpp(params, 71)
    score = repsc.score_partition(g, rep, truth, truth)
    # The planted truth is perfectly represented: every node has d/K = 3
    # representatives in each cluster.
    assert score.avg_balance == pytest.approx(1.0)
    assert score.min_balance == pytest.approx(1.0)
    assert score.max_representation_residual == pytest.approx(0.0, abs=1e-12)
    assert score.mistake_fraction == 0.0
    assert score.accuracy == 1.0
    assert score.rcut > 0.0
    assert score.ncut is not None
    assert score.balance_over_rcut == pytest.approx(1.0 / score.rcut)


def test_each_scored_row_solves_one_matching(tmp_path, monkeypatch, toy_instance):
    calls = []

    def counting(weights):
        calls.append(weights.shape)
        return _max_weight_matching(weights)

    monkeypatch.setattr(repsc.metrics, "_max_weight_matching", counting)
    rows = repsc.run_experiment(repsc.parse_config_text(
        "mode = d_regular_sweep\nalgorithms = usc, urepsc\nn_values = 24\nk_values = 2\n"
        f"d_values = 6\ntrials = 2\nout = {tmp_path}\n")).rows
    assert not any(row["error"] for row in rows)
    assert calls == [(2, 2)] * len(rows) == [(2, 2)] * 4
    # A row without a truth assignment solves none.
    rep, truth, params = toy_instance
    calls.clear()
    assert repsc.score_partition(repsc.sample_rpp(params, 3), rep, truth).accuracy is None
    assert calls == []


def test_score_partition_zero_cut_leaves_ratio_undefined():
    adjacency = np.zeros((8, 8))
    adjacency[:4, :4] = np.ones((4, 4)) - np.eye(4)
    adjacency[4:, 4:] = np.ones((4, 4)) - np.eye(4)
    g = repsc.Graph(adjacency)
    rep = repsc.Graph(np.eye(8), allows_self_loops=True)
    truth = repsc.contiguous_assignment(8, 2)
    score = repsc.score_partition(g, rep, truth)
    assert score.rcut == 0.0
    assert score.balance_over_rcut is None
    assert score.mistake_fraction is None and score.accuracy is None


def test_score_partition_zero_volume_cluster_gives_no_ncut():
    adjacency = np.zeros((4, 4))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    g = repsc.Graph(adjacency)
    rep = repsc.Graph(np.eye(4), allows_self_loops=True)
    predicted = repsc.ClusterAssignment(np.array([0, 0, 1, 1]), 2)
    score = repsc.score_partition(g, rep, predicted)
    assert score.ncut is None
    assert score.rcut == 0.0


@pytest.mark.parametrize("builder", ["build_indicator_h", "build_indicator_t"])
def test_dual_form_gate_fires_on_a_misscaled_indicator(monkeypatch, builder):
    # Each cut keeps its own trace check: a wrongly scaled H breaks the
    # ratio cut's, a wrongly scaled T the normalized cut's. Both cuts come
    # from one pass, so either break stops every cut function.
    rng = np.random.default_rng(64)
    g = random_graph(rng, 12, density=0.6)
    assignment = repsc.ClusterAssignment(np.arange(12) % 3, 3)
    rep = repsc.Graph(np.eye(12), allows_self_loops=True)
    repsc.score_partition(g, rep, assignment)
    original = getattr(repsc.metrics, builder)
    monkeypatch.setattr(repsc.metrics, builder, lambda *args: 1.5 * original(*args))
    with pytest.raises(AssertionError, match="disagree; this is a bug"):
        repsc.ratio_cut(g, assignment)
    with pytest.raises(AssertionError, match="disagree; this is a bug"):
        repsc.normalized_cut(g, assignment)
    with pytest.raises(AssertionError, match="disagree; this is a bug"):
        repsc.score_partition(g, rep, assignment)


def test_score_partition_cuts_equal_the_cut_functions():
    rng = np.random.default_rng(65)
    seen_zero_volume = 0
    for trial in range(30):
        n = int(rng.integers(6, 20))
        k = int(rng.integers(2, min(5, n)))
        g = random_graph(rng, n, density=0.3).adjacency.astype(float)
        if trial % 3 == 0:
            # Real-valued weights, as on expected-case matrices.
            weights = np.triu(rng.random((n, n)), k=1)
            g *= weights + weights.T
        assignment = random_assignment(rng, n, k)
        if trial % 5 == 0:
            # Isolate the nodes of the last cluster: its volume is zero.
            members = assignment.labels == k - 1
            g[members, :] = 0.0
            g[:, members] = 0.0
        rep = repsc.Graph(np.eye(n), allows_self_loops=True)
        score = repsc.score_partition(g, rep, assignment)
        assert score.rcut == repsc.ratio_cut(g, assignment)
        if score.ncut is None:
            seen_zero_volume += 1
            with pytest.raises(repsc.ZeroVolumeClusterError):
                repsc.normalized_cut(g, assignment)
        else:
            assert score.ncut == repsc.normalized_cut(g, assignment)
    assert seen_zero_volume >= 6


def test_empty_cluster_is_an_empty_cluster_error_for_every_cut():
    g = complete_graph(4)
    rep = repsc.Graph(np.eye(4), allows_self_loops=True)
    empty = repsc.ClusterAssignment(np.array([0, 0, 2, 2]), 3)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.ratio_cut(g, empty)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.normalized_cut(g, empty)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.score_partition(g, rep, empty)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 40), st.integers(2, 4))
def test_score_partition_ignores_node_and_cluster_relabelling(seed, n, k):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n)
    rep = repsc.Graph(random_graph(rng, n).adjacency + np.eye(n), allows_self_loops=True)
    truth, predicted = random_assignment(rng, n, k), random_assignment(rng, n, k)
    score = repsc.score_partition(graph, rep, predicted, truth)
    nodes, clusters = rng.permutation(n), rng.permutation(k)

    def relabel(g):
        return repsc.Graph(g.adjacency[np.ix_(nodes, nodes)], g.allows_self_loops)

    moved = (
        repsc.score_partition(relabel(graph), relabel(rep),
                              repsc.ClusterAssignment(predicted.labels[nodes], k),
                              repsc.ClusterAssignment(truth.labels[nodes], k)),
        repsc.score_partition(graph, rep, repsc.ClusterAssignment(clusters[predicted.labels], k),
                              truth),
    )
    for other in moved:
        assert other.accuracy == score.accuracy
        assert other.mistake_fraction == score.mistake_fraction
        for name in ("rcut", "ncut", "avg_balance", "min_balance",
                     "max_representation_residual", "balance_over_rcut"):
            want, got = getattr(score, name), getattr(other, name)
            assert got == want if want is None else got == pytest.approx(want, rel=1e-12), name


def test_scoring_holds_no_n_by_n_array_beyond_the_graph():
    # The trace checks are formed from N x k products; a Laplacian built
    # for them read about 1.04 N x N float64 at N = 600.
    n = 600
    rep, truth = repsc.build_d_regular_rep_graph(n, 5, 40)
    g = repsc.sample_rpp(repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS), 1)
    predicted = random_assignment(np.random.default_rng(66), n, 5)
    assert traced_peak(lambda: repsc.score_partition(g, rep, predicted, truth)) <= 0.25 * n * n * 8
