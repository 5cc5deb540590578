"""Balance, residual, the linear sufficient condition, indicator matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repsc
from conftest import REGULAR_INSTANCES, random_assignment


def unfair_split():
    """Half of each ring per cluster: group-proportional yet unbalanced.

    On the 24-node instance the two 12-node rings act as protected groups;
    this split gives each cluster 6 members of each ring, but node 0 keeps
    5 of its 6 representatives in one cluster.
    """
    labels = np.zeros(24, dtype=int)
    labels[6:12] = 1
    labels[18:24] = 1
    return repsc.ClusterAssignment(labels, 2)


def test_ground_truth_is_perfectly_balanced(toy_instance):
    rep, truth, _ = toy_instance
    report = repsc.node_balance(rep, truth)
    assert np.allclose(report.per_node_balance, 1.0)
    assert report.average_balance == 1.0
    assert report.min_balance == 1.0
    assert np.allclose(repsc.representation_residual(rep, truth), 0.0)
    h = repsc.build_indicator_h(truth)
    assert repsc.linear_constraint_norm(h, rep) < 1e-12


def test_half_ring_split_is_group_fair_but_unbalanced(toy_instance):
    rep, truth, _ = toy_instance
    split = unfair_split()
    # Group-level proportionality holds: each cluster takes half of each ring.
    rings = truth.onehot()
    assert np.all(rings.T @ split.onehot() == 6.0)
    # Individually the split is skewed: node 0 has 5 representatives in its
    # own cluster and only 1 in the other.
    report = repsc.node_balance(rep, split)
    assert report.per_node_balance[0] == pytest.approx(1.0 / 5.0)
    assert report.average_balance < 1.0
    assert repsc.linear_constraint_norm(repsc.build_indicator_h(split), rep) > 1e-3
    assert np.abs(repsc.representation_residual(rep, split)).max() > 1e-3


def test_balance_conventions():
    # Node 0 has no representatives at all -> balance 1 (nothing to skew).
    # Nodes with representatives in only one cluster -> balance 0.
    adjacency = np.array([
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ], dtype=float)
    rep = repsc.Graph(adjacency, allows_self_loops=True)
    assignment = repsc.ClusterAssignment(np.array([0, 0, 1, 1]), 2)
    report = repsc.node_balance(rep, assignment)
    assert report.per_node_balance.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert report.min_balance == 0.0
    # One representative on each side -> balance 1.
    star = repsc.Graph(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
    labels = repsc.ClusterAssignment(np.array([0, 0, 1]), 2)
    assert repsc.node_balance(star, labels).per_node_balance[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_balance_is_the_ratio_of_extreme_counts(n, k, seed):
    # Representative counts are whole numbers, so each node's balance is its
    # smallest count over its largest, or 1 with no representative, with no
    # floor on the divisor and no division by zero.
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < rng.random())
    rep = repsc.Graph(upper | upper.T, allows_self_loops=True)
    assignment = repsc.ClusterAssignment(rng.integers(0, k, n), k)
    counts = rep.adjacency.astype(float) @ assignment.onehot()
    with np.errstate(all="raise"):
        got = repsc.node_balance(rep, assignment).per_node_balance
    want = [row.min() / row.max() if row.max() > 0.0 else 1.0 for row in counts]
    assert got.tolist() == want


def test_identity_representation_concentrates():
    rep = repsc.Graph(np.eye(6), allows_self_loops=True)
    assignment = repsc.contiguous_assignment(6, 2)
    report = repsc.node_balance(rep, assignment)
    # Every node's single representative sits in its own cluster.
    assert np.allclose(report.per_node_balance, 0.0)


def test_min_balance_bounded_by_size_ratio():
    # The smallest per-node balance can never beat the worst cluster-size
    # ratio, checked on random instances.
    rng = np.random.default_rng(11)
    for t in range(30):
        n, k, d = REGULAR_INSTANCES[t % len(REGULAR_INSTANCES)]
        rep, _ = repsc.build_d_regular_rep_graph(n, k, d)
        assignment = random_assignment(rng, n, k)
        sizes = assignment.sizes.astype(float)
        ratio = sizes.min() / sizes.max()
        report = repsc.node_balance(rep, assignment)
        assert report.min_balance <= ratio + 1e-12


def test_residual_requires_nonempty_clusters(toy_instance):
    rep, _, _ = toy_instance
    degenerate = repsc.ClusterAssignment(np.zeros(24, dtype=int), 2)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.representation_residual(rep, degenerate)


def test_residual_definition_matches_direct_count(toy_instance):
    rep, _, _ = toy_instance
    rng = np.random.default_rng(12)
    assignment = random_assignment(rng, 24, 3)
    residual = repsc.representation_residual(rep, assignment)
    for i in range(24):
        neighbors = np.flatnonzero(rep.adjacency[i])
        for c in range(3):
            share = np.sum(assignment.labels[neighbors] == c) / assignment.sizes[c]
            overall = neighbors.size / 24
            assert residual[i, c] == pytest.approx(share - overall, abs=1e-12)


def test_linear_condition_implies_zero_residual():
    # Forward implication of the sufficient condition: an indicator matrix
    # annihilated by the centered representation matrix has zero residual.
    rng = np.random.default_rng(13)
    premise_hits = 0
    for t in range(50):
        n, k, d = REGULAR_INSTANCES[t % len(REGULAR_INSTANCES)]
        rep, truth = repsc.build_d_regular_rep_graph(n, k, d)
        perm = rng.permutation(n)
        rep = repsc.Graph(rep.adjacency[np.ix_(perm, perm)], allows_self_loops=True)
        shuffled_truth = repsc.ClusterAssignment(truth.labels[perm], k)
        assignment = shuffled_truth if t % 2 == 0 else random_assignment(rng, n, k)
        h = repsc.build_indicator_h(assignment)
        if repsc.linear_constraint_norm(h, rep) <= 1e-9:
            premise_hits += 1
            residual = repsc.representation_residual(rep, assignment)
            assert np.abs(residual).max() <= 1e-9
    assert premise_hits >= 25


def test_linear_condition_with_volume_scaled_indicator(toy_instance):
    # The volume-scaled analog: scaling indicator columns cannot change
    # whether the centered representation matrix annihilates them.
    rep, truth, params = toy_instance
    g = repsc.sample_rpp(params, 21)
    t = repsc.build_indicator_t(truth, g.degrees)
    if repsc.linear_constraint_norm(t, rep) <= 1e-9:
        assert np.abs(repsc.representation_residual(rep, truth)).max() <= 1e-9
    # Ground truth on the regular instance always satisfies the H condition;
    # the T condition may differ only through degree fluctuations, so check
    # the expected-case degrees too (exactly constant).
    expected = repsc.expected_adjacency(params)
    t_exp = repsc.build_indicator_t(truth, expected.sum(axis=1))
    assert repsc.linear_constraint_norm(t_exp, rep) <= 1e-9


def test_indicator_h_basics():
    singletons = repsc.ClusterAssignment(np.array([0, 1]), 2)
    assert np.array_equal(repsc.build_indicator_h(singletons), np.eye(2))
    assignment = repsc.contiguous_assignment(12, 3)
    h = repsc.build_indicator_h(assignment)
    assert np.allclose(h.T @ h, np.eye(3), atol=1e-12)
    with pytest.raises(repsc.EmptyClusterError):
        repsc.build_indicator_h(repsc.ClusterAssignment(np.zeros(4, dtype=int), 2))


def test_indicator_t_basics():
    assignment = repsc.contiguous_assignment(8, 2)
    # Uniform degree c: T is H scaled by 1/sqrt(c).
    c = 3.0
    degrees = np.full(8, c)
    t = repsc.build_indicator_t(assignment, degrees)
    h = repsc.build_indicator_h(assignment)
    assert np.allclose(t, h / np.sqrt(c), atol=1e-12)
    assert np.allclose(t.T @ np.diag(degrees) @ t, np.eye(2), atol=1e-12)
    with pytest.raises(repsc.ZeroVolumeClusterError):
        repsc.build_indicator_t(assignment, np.array([1, 1, 1, 1, 0, 0, 0, 0.0]))
    with pytest.raises(repsc.SizeMismatchError):
        repsc.build_indicator_t(assignment, np.ones(5))


def test_constraint_norm_accepts_graph_or_matrix(toy_instance):
    rep, truth, _ = toy_instance
    h = repsc.build_indicator_h(truth)
    from_graph = repsc.linear_constraint_norm(h, rep)
    from_matrix = repsc.linear_constraint_norm(h, rep.adjacency)
    assert from_graph == from_matrix
