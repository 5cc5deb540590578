"""Graph types, the two samplers, the regular builder, serialization."""

import copy
import inspect
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repsc
from conftest import (REGULAR_INSTANCES, SWEEP_PROBS, canonical_y_vectors, kept_arrays,
                      random_assignment, traced_peak, traced_retained)
from repsc import experiments, multiplex
from repsc.clustering import RANK_REL_TOL
from repsc.graphs import _laplacian, _laplacian_product
from repsc.linalg import row_blocks


def test_graph_validation():
    with pytest.raises(ValueError):
        repsc.Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        repsc.Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))  # not 0/1
    with pytest.raises(ValueError):
        repsc.Graph(np.eye(2), allows_self_loops=False)
    g = repsc.Graph(np.eye(3), allows_self_loops=True)
    assert g.n == 3
    assert np.allclose(g.degrees, 1.0)


def test_cluster_assignment_validation():
    with pytest.raises(ValueError):
        repsc.ClusterAssignment(np.array([0, 1, 2]), 2)  # label out of range
    with pytest.raises(ValueError):
        repsc.ClusterAssignment(np.array([-1, 0]), 2)
    a = repsc.ClusterAssignment(np.array([0, 0, 1]), 3)  # empty cluster is legal
    assert a.sizes.tolist() == [2, 1, 0]
    assert np.array_equal(a.onehot().sum(axis=1), np.ones(3))


@pytest.mark.parametrize("labels", [
    [0.0, 1.7, 1.2], [0.0, 0.5], [0.0, np.nan], [0.0, -0.25], [1e-12, 0.0]])
def test_cluster_assignment_rejects_non_integral_labels(labels):
    # Casting would truncate 1.7 to 1; a label must be an exact integer.
    with pytest.raises(ValueError, match="exact integers"):
        repsc.ClusterAssignment(np.array(labels), 2)


def test_cluster_assignment_takes_integral_floats_and_rejects_non_numbers():
    a = repsc.ClusterAssignment(np.array([0.0, 1.0, 1.0]), 2)
    assert a.labels.dtype == np.int64 and a.labels.tolist() == [0, 1, 1]
    for labels in (np.array(["0", "1"]), np.array([0, 1j]), np.array([0, 1], dtype=object)):
        with pytest.raises(ValueError, match="integer array"):
            repsc.ClusterAssignment(labels, 2)
    with pytest.raises(ValueError, match="lie in"):
        repsc.ClusterAssignment(np.array([0.0, np.inf]), 2)


def test_graphs_compare_and_hash_by_identity():
    adjacency = np.ones((3, 3))
    graph = repsc.Graph(adjacency, allows_self_loops=True)
    twin = repsc.Graph(adjacency.copy(), allows_self_loops=True)
    assert graph == graph and graph != twin
    assert {graph: "graph", twin: "twin"}[graph] == "graph"
    assert hash(graph) == hash(graph)


def test_contiguous_assignment():
    a = repsc.contiguous_assignment(6, 3)
    assert a.labels.tolist() == [0, 0, 1, 1, 2, 2]
    with pytest.raises(repsc.DivisibilityError):
        repsc.contiguous_assignment(7, 3)


@pytest.mark.parametrize("build, k", [
    (lambda k: repsc.contiguous_assignment(10, k), 0),
    (lambda k: repsc.contiguous_assignment(10, k), -2),
    (lambda k: repsc.sample_planted_partition_rep_graph(10, k, 0.8, 0.2, 0), 0),
    (lambda k: canonical_y_vectors(10, k), 0),
])
def test_contiguous_constructors_reject_k_below_one(build, k):
    with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
        build(k)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_cluster_assignment_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        repsc.contiguous_assignment(10, k)
    with pytest.raises(ValueError, match="k must be an integer"):
        repsc.ClusterAssignment(np.zeros(10, dtype=int), k)


@pytest.mark.parametrize("k", [2, np.int64(2), np.int32(2), np.uint8(2)])
def test_cluster_assignment_takes_python_and_numpy_integer_k(k):
    assert repsc.contiguous_assignment(10, k).sizes.tolist() == [5, 5]


def test_rpp_params_ordering(toy_instance):
    rep, truth, _ = toy_instance
    with pytest.raises(ValueError):
        repsc.RppParams(assignment=truth, rep_graph=rep, p=0.3, q=0.4, r=0.2, s=0.1)
    with pytest.raises(ValueError):
        repsc.RppParams(assignment=truth, rep_graph=rep, p=1.2, q=0.4, r=0.2, s=0.1)
    with pytest.raises(repsc.SizeMismatchError):
        repsc.RppParams(assignment=repsc.contiguous_assignment(12, 2),
                        rep_graph=rep, **SWEEP_PROBS)


def test_builder_toy_counts(toy_instance):
    rep, truth, _ = toy_instance
    onehot = truth.onehot()
    per_cluster = rep.adjacency @ onehot
    # 6 representatives per node: 3 (incl. the self-loop) in the own cluster,
    # 3 in the other.
    assert np.all(per_cluster == 3.0)
    assert np.all(np.diag(rep.adjacency) == 1.0)
    assert np.all(rep.degrees == 6.0)


def test_builder_minimal_case():
    rep, truth = repsc.build_d_regular_rep_graph(4, 2, 2)
    # Each node's representatives: itself plus exactly one cross-cluster node.
    assert np.all(np.diag(rep.adjacency) == 1.0)
    assert np.all(rep.degrees == 2.0)
    cross = rep.adjacency[:2, 2:]
    assert cross.sum() == 2.0
    report = repsc.validate_regular_representation(rep, truth)
    assert report.ok


@pytest.mark.parametrize("n,k,d", REGULAR_INSTANCES)
def test_builder_passes_validator(n, k, d):
    rep, truth = repsc.build_d_regular_rep_graph(n, k, d)
    report = repsc.validate_regular_representation(rep, truth)
    assert report.ok, report.violations
    assert report.degree == d
    assert report.neighbors_per_cluster == d // k


def test_builder_reference_scale_rank():
    rep, truth = repsc.build_d_regular_rep_graph(1200, 5, 40)
    assert repsc.validate_regular_representation(rep, truth).ok
    assert np.linalg.matrix_rank(rep.adjacency) <= 1200 - 5


def test_builder_rejections():
    with pytest.raises(repsc.DivisibilityError):
        repsc.build_d_regular_rep_graph(10, 3, 6)  # k does not divide n
    with pytest.raises(repsc.DivisibilityError):
        repsc.build_d_regular_rep_graph(12, 3, 7)  # k does not divide d
    with pytest.raises(repsc.DegreeRangeError):
        repsc.build_d_regular_rep_graph(12, 3, 15)  # d > n
    with pytest.raises(repsc.DegreeRangeError):
        repsc.build_d_regular_rep_graph(12, 6, 3)  # d < k
    with pytest.raises(repsc.DegreeRangeError):
        repsc.build_d_regular_rep_graph(8, 2, 10)
    # Even per-cluster degree with an odd cluster size has no symmetric
    # within-cluster block (handshake parity).
    with pytest.raises(repsc.DivisibilityError):
        repsc.build_d_regular_rep_graph(60, 4, 8)


def test_validator_reports_single_edge_deletion(toy_instance):
    rep, truth, _ = toy_instance
    adj = rep.adjacency.copy()
    i, j = 0, 12
    assert adj[i, j] == 1.0
    adj[i, j] = adj[j, i] = 0.0
    broken = repsc.Graph(adj, allows_self_loops=True)
    report = repsc.validate_regular_representation(broken, truth)
    assert not report.ok
    assert sorted(report.violating_nodes) == [i, j]


def test_validator_accepts_report_on_sampled_rep():
    rep, membership = repsc.sample_planted_partition_rep_graph(50, 5, 0.8, 0.2, 3)
    report = repsc.validate_regular_representation(rep, membership)
    assert not report.ok
    assert report.violations


def test_sample_rpp_degenerate_probabilities(toy_instance):
    rep, truth, _ = toy_instance
    complete = repsc.sample_rpp(
        repsc.RppParams(assignment=truth, rep_graph=rep, p=1, q=1, r=1, s=1), 0
    )
    assert np.array_equal(complete.adjacency, np.ones((24, 24)) - np.eye(24))
    empty = repsc.sample_rpp(
        repsc.RppParams(assignment=truth, rep_graph=rep, p=0, q=0, r=0, s=0), 0
    )
    assert not empty.adjacency.any()


def test_sample_rpp_shape_and_determinism(toy_instance):
    _, _, params = toy_instance
    g1 = repsc.sample_rpp(params, 42)
    g2 = repsc.sample_rpp(params, 42)
    g3 = repsc.sample_rpp(params, 43)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert not np.array_equal(g1.adjacency, g3.adjacency)
    assert np.array_equal(g1.adjacency, g1.adjacency.T)
    assert not np.diag(g1.adjacency).any()


def test_sample_rpp_case_frequencies():
    # Empirical edge frequency per (same-cluster, represented) case over 20
    # seeds at the reference configuration, within 0.02 of nominal.
    rep, truth = repsc.build_d_regular_rep_graph(1200, 5, 40)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    same = truth.labels[:, None] == truth.labels[None, :]
    represented = rep.adjacency > 0.0
    upper = np.triu(np.ones((1200, 1200), dtype=bool), k=1)
    cases = {
        "p": same & represented & upper,
        "q": ~same & represented & upper,
        "r": same & ~represented & upper,
        "s": ~same & ~represented & upper,
    }
    totals = {name: 0.0 for name in cases}
    for seed in range(20):
        adj = repsc.sample_rpp(params, seed).adjacency
        for name, mask in cases.items():
            totals[name] += adj[mask].mean()
    for name, mask in cases.items():
        assert abs(totals[name] / 20 - SWEEP_PROBS[name]) < 0.02


def test_planted_rep_degenerate_cases():
    cliques, membership = repsc.sample_planted_partition_rep_graph(12, 3, 1.0, 0.0, 0)
    expected = np.kron(np.eye(3), np.ones((4, 4)))
    assert np.array_equal(cliques.adjacency, expected)
    assert membership.labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    allones, _ = repsc.sample_planted_partition_rep_graph(12, 3, 1.0, 1.0, 0)
    assert np.array_equal(allones.adjacency, np.ones((12, 12)))


def test_planted_rep_densities_and_determinism():
    within_total = 0.0
    across_total = 0.0
    for seed in range(10):
        rep, membership = repsc.sample_planted_partition_rep_graph(1000, 5, 0.8, 0.2, seed)
        same = membership.labels[:, None] == membership.labels[None, :]
        upper = np.triu(np.ones((1000, 1000), dtype=bool), k=1)
        within_total += rep.adjacency[same & upper].mean()
        across_total += rep.adjacency[~same & upper].mean()
    assert abs(within_total / 10 - 0.8) < 0.02
    assert abs(across_total / 10 - 0.2) < 0.02
    a1, _ = repsc.sample_planted_partition_rep_graph(100, 5, 0.8, 0.2, 9)
    a2, _ = repsc.sample_planted_partition_rep_graph(100, 5, 0.8, 0.2, 9)
    assert np.array_equal(a1.adjacency, a2.adjacency)
    assert np.all(np.diag(a1.adjacency) == 1.0)
    with pytest.raises(repsc.DivisibilityError):
        repsc.sample_planted_partition_rep_graph(10, 3, 0.8, 0.2, 0)


def test_expected_adjacency_collapses_when_probabilities_equal(toy_instance):
    rep, truth, _ = toy_instance
    params = repsc.RppParams(assignment=truth, rep_graph=rep, p=0.3, q=0.3, r=0.3, s=0.3)
    expected = repsc.expected_adjacency(params)
    assert np.allclose(expected, 0.3 * (np.ones((24, 24)) - np.eye(24)))


def test_expected_adjacency_matches_per_pair_cases(toy_instance):
    rep, truth, params = toy_instance
    expected = repsc.expected_adjacency(params)
    n = truth.n
    for i in range(n):
        assert expected[i, i] == 0.0
        for j in range(n):
            if i == j:
                continue
            same = truth.labels[i] == truth.labels[j]
            represented = rep.adjacency[i, j] == 1.0
            if same and represented:
                nominal = params.p
            elif represented:
                nominal = params.q
            elif same:
                nominal = params.r
            else:
                nominal = params.s
            assert expected[i, j] == pytest.approx(nominal, abs=1e-12)


def elementwise_case_probabilities(params):
    """Each pair's edge probability from the model's formula, entry by entry."""
    labels = params.assignment.labels
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    rep = params.rep_graph.adjacency
    return rep * (params.q + (params.p - params.q) * same) + (1.0 - rep) * (
        params.s + (params.r - params.s) * same
    )


@pytest.mark.parametrize("probs", [SWEEP_PROBS, dict(p=0.9, q=0.37, r=0.1 + 0.2, s=0.0),
                                   dict(p=1.0, q=1.0, r=1e-300, s=1e-300)])
@pytest.mark.parametrize("kind", ["d_regular", "planted"])
def test_case_table_lookup_equals_the_elementwise_formula(kind, probs):
    # The lookup must reproduce every probability bit for bit, so a sample
    # drawn from it is the sample the formula gives.
    if kind == "d_regular":
        rep, truth = repsc.build_d_regular_rep_graph(60, 3, 6)
    else:
        rep, _ = repsc.sample_planted_partition_rep_graph(60, 6, 0.8, 0.2, 4)
        truth = repsc.ClusterAssignment(np.random.default_rng(4).integers(0, 3, 60), 3)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **probs)
    got = repsc.graphs._case_probabilities(params)
    assert got.dtype == np.float64
    assert np.array_equal(got, elementwise_case_probabilities(params))


def test_expected_adjacency_constant_row_sums(toy_instance):
    _, _, params = toy_instance
    expected = repsc.expected_adjacency(params)
    lambda1, _ = repsc.closed_form_eigenvalues(params)
    assert np.allclose(expected.sum(axis=1), lambda1 - params.p, atol=1e-9)


def test_graph_round_trip(tmp_path, toy_instance):
    rep, truth, params = toy_instance
    sampled = repsc.sample_rpp(params, 5)
    for graph in (rep, sampled):
        path = tmp_path / "g.edges"
        repsc.write_graph(graph, path)
        back = repsc.read_graph(path)
        assert np.array_equal(back.adjacency, graph.adjacency)
        assert back.allows_self_loops == graph.allows_self_loops


def test_graph_read_errors(tmp_path):
    bad_header = tmp_path / "h.edges"
    # The header is exactly the two fields n=<N> and diag=<0|1>.
    for header in ("nodes 4", "n=3 diag=0 extra", "n=3", "3 0", "diag=0 n=3", "n=3 flag=0",
                   "n=3 diag=0=1"):
        bad_header.write_text(f"{header}\n0 1\n")
        with pytest.raises(repsc.MalformedLineError) as exc:
            repsc.read_graph(bad_header)
        assert exc.value.line_number == 1
    bad_line = tmp_path / "l.edges"
    bad_line.write_text("n=4 diag=0\n0 1 2\n")
    with pytest.raises(repsc.MalformedLineError) as exc:
        repsc.read_graph(bad_line)
    assert exc.value.line_number == 2
    out_of_range = tmp_path / "r.edges"
    out_of_range.write_text("n=4 diag=0\n0 7\n")
    with pytest.raises(repsc.IndexOutOfRangeError):
        repsc.read_graph(out_of_range)
    # int() would read n=1_0 as 10, the Arabic-Indic and fullwidth digits as 4 and 0.
    for text, line_number in (("n=-1 diag=0\n", 1), ("n=4 diag=0\n0 1\n\n1 1\n", 4),
                              ("n=1_0 diag=0\n", 1), ("n=\u0664 diag=0\n", 1),
                              ("n=4 diag=\uff10\n", 1), ("n=40 diag=0\n0 1\n0 1_0\n", 3),
                              ("n=4 diag=0\n\u0661 2\n", 2)):
        bad = tmp_path / "bad.edges"
        bad.write_text(text)
        with pytest.raises(repsc.MalformedLineError) as exc:
            repsc.read_graph(bad)
        assert exc.value.line_number == line_number


def test_assignment_round_trip(tmp_path):
    a = repsc.ClusterAssignment(np.array([0, 2, 1, 1, 0]), 3)
    path = tmp_path / "labels.txt"
    repsc.write_assignment(a, path)
    b = repsc.read_assignment(path)
    assert np.array_equal(a.labels, b.labels)
    assert b.k == 3
    # Empty top clusters survive; a file without the k line still parses.
    repsc.write_assignment(repsc.ClusterAssignment(np.array([0, 0]), 3), path)
    assert path.read_text() == "# k = 3\n0\n0\n"
    assert repsc.read_assignment(path).k == 3
    path.write_text("# old file\n0\n1\n")
    assert repsc.read_assignment(path).k == 2
    for text in ("0\nx\n", "# k = x\n0\n", "# k = 2\n0\n2\n"):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(repsc.MalformedLineError):
            repsc.read_assignment(bad)


@pytest.mark.parametrize("text, line", [
    ("# k = 2\n0\n-1\n", 3),         # negative label
    ("0\n-1\n1\n", 2),               # negative label, no k line
    ("0\n1_0\n", 2),                  # int() would read 10
    ("0\n\u0661\n", 2),              # int() would read 1 (Arabic-Indic digit)
    ("0\n1.0\n", 2),
    ("0\n1 1\n", 2),
    ("# k = 1_0\n0\n", 1),
    ("# k = 2\n0\n\n# note\n2\n", 5),  # not below k
    ("# k = 3\n# k = 2\n0\n1\n", 2),   # a second k line, even one the labels fit
    ("# k = 2\n0\n# k = 2\n1\n", 3),   # a second k line, even an equal one
    (f"0\n{2**63}\n", 2),             # does not fit the int64 label array
])
def test_read_assignment_names_the_bad_line(tmp_path, text, line):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    with pytest.raises(repsc.MalformedLineError) as info:
        repsc.read_assignment(path)
    assert info.value.line_number == line


@pytest.mark.parametrize("read", [repsc.read_graph, repsc.read_assignment])
def test_a_file_that_is_not_utf8_is_named(tmp_path, read):
    path = tmp_path / "undecodable"
    path.write_bytes(b"n=2 diag=0\n\xff\n")
    with pytest.raises(UnicodeDecodeError, match=f"in file {re.escape(str(path))}$"):
        read(path)


def test_read_assignment_takes_signed_ascii_decimals(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# k = +3\n+0\n  2  \n01\n")
    read = repsc.read_assignment(path)
    assert read.k == 3 and read.labels.tolist() == [0, 2, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.booleans(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_graph_and_assignment_round_trip_property(n, self_loops, empty_top, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.4, k=0 if self_loops else 1)
    graph = repsc.Graph((upper | upper.T).astype(np.float64), allows_self_loops=self_loops)
    labels = rng.integers(0, 4, size=n)
    # k may exceed max label + 1: the highest clusters are then empty.
    assignment = repsc.ClusterAssignment(labels, int(labels.max()) + 1 + empty_top)
    with tempfile.TemporaryDirectory() as tmp:
        repsc.write_graph(graph, Path(tmp) / "g.edges")
        back = repsc.read_graph(Path(tmp) / "g.edges")
        repsc.write_assignment(assignment, Path(tmp) / "labels.txt")
        read = repsc.read_assignment(Path(tmp) / "labels.txt")
    assert np.array_equal(back.adjacency, graph.adjacency)
    assert back.allows_self_loops == self_loops
    assert np.array_equal(read.labels, assignment.labels) and read.k == assignment.k


# The samplers' and expected_adjacency's formulas as they stood when each
# built its whole N x N intermediate at once: the references the row-strip
# forms must reproduce byte for byte.
def whole_matrix_case_probabilities(params):
    rep = np.array([[0.0, 0.0], [1.0, 1.0]])
    same = np.array([[0.0, 1.0], [0.0, 1.0]])
    table = rep * (params.q + (params.p - params.q) * same) + (1.0 - rep) * (
        params.s + (params.r - params.s) * same
    )
    labels = params.assignment.labels
    case = params.rep_graph.adjacency.astype(np.uint8)
    case <<= 1
    case |= labels[:, None] == labels[None, :]
    return table.ravel().take(case)


def whole_matrix_symmetric_draw(prob, seed):
    n = prob.shape[0]
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < prob, k=1)
    return upper | upper.T


EDGE_PROBABILITIES = st.sampled_from([0.0, 1.0, 0.5, 0.1 + 0.2, 1e-300, 0.999])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 90), self_loops=st.booleans(), k=st.integers(1, 4),
       probs=st.lists(EDGE_PROBABILITIES, min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, self_loops=True, k=1, probs=[1.0, 1.0, 1.0, 1.0], seed=0)
@example(n=2, self_loops=False, k=2, probs=[1.0, 0.0, 1.0, 0.0], seed=1)
@example(n=33, self_loops=True, k=3, probs=[0.0, 0.0, 0.0, 0.0], seed=2)
def test_rpp_strips_equal_the_whole_matrix_formulas(n, self_loops, k, probs, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.5, k=0 if self_loops else 1)
    rep = repsc.Graph((upper | upper.T).astype(np.float64), allows_self_loops=self_loops)
    truth = repsc.ClusterAssignment(rng.integers(0, k, size=n), k)
    p, q, r, s = sorted(probs, reverse=True)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, p=p, q=q, r=r, s=s)
    probability = whole_matrix_case_probabilities(params)
    sample = repsc.sample_rpp(params, seed).adjacency
    assert sample.tobytes() == whole_matrix_symmetric_draw(probability, seed).tobytes()
    np.fill_diagonal(probability, 0.0)
    expected = repsc.expected_adjacency(params)
    assert expected.flags.c_contiguous and expected.tobytes() == probability.tobytes()
    # The Laplacian, whole and by row strips, has the bits of
    # diag(degrees) - A, signed zeros included, for a bool A those of its
    # float copy; its product with columns X equals (diag(degrees) - A) @ X.
    x = np.random.default_rng(seed).standard_normal((n, 3))
    for a in (sample, rep.adjacency, expected):
        weights = a.astype(np.float64)
        degrees = weights.sum(axis=1)
        reference = np.diag(degrees) - weights
        assert repsc.graphs._laplacian(a)[1].tobytes() == reference.tobytes()
        for rows in repsc.linalg.row_blocks(n):
            strip = repsc.graphs._laplacian(a[rows], rows.start)[1]
            assert strip.tobytes() == reference[rows].tobytes()
        product = repsc.graphs._laplacian_product(a, degrees, x)
        scale = 1.0 + np.abs(reference).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(product - reference @ x).max() <= 1e-13 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 90), groups=st.integers(1, 5), p_in=EDGE_PROBABILITIES,
       p_out=EDGE_PROBABILITIES, seed=st.integers(0, 2**32 - 1))
@example(n=1, groups=1, p_in=1.0, p_out=0.0, seed=0)
@example(n=2, groups=2, p_in=0.0, p_out=1.0, seed=3)
def test_planted_r_strips_equal_the_whole_matrix_draw(n, groups, p_in, p_out, seed):
    n -= n % groups
    if n == 0:
        n = groups
    rep, membership = repsc.sample_planted_partition_rep_graph(n, groups, p_in, p_out, seed)
    same = membership.labels[:, None] == membership.labels[None, :]
    reference = whole_matrix_symmetric_draw(np.where(same, p_in, p_out), seed)
    np.fill_diagonal(reference, 1.0)
    assert rep.adjacency.tobytes() == reference.tobytes()


# In units of one N x N float64 matrix, at N = 600: the matrix returned and
# row-strip temporaries. The whole probability matrix, uniforms and boolean
# triangles built at once would read 2.1-2.4.
DENSE_N = 600


@pytest.mark.parametrize("stage", ["sample_rpp", "sample_planted_partition_rep_graph",
                                   "expected_adjacency"])
def test_dense_graph_stages_hold_one_matrix(stage):
    rep, truth = repsc.build_d_regular_rep_graph(DENSE_N, 5, 40)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    run = {
        "sample_rpp": lambda: repsc.sample_rpp(params, 1),
        "sample_planted_partition_rep_graph":
            lambda: repsc.sample_planted_partition_rep_graph(DENSE_N, 60, 0.8, 0.2, 1),
        "expected_adjacency": lambda: repsc.expected_adjacency(params),
    }[stage]
    assert traced_peak(run) <= 1.25 * DENSE_N * DENSE_N * 8


def test_graph_inputs_give_one_read_only_bool_adjacency():
    # Bool, integer and float 0/1 entries store the same bool matrix. A bool
    # input is kept itself and made read-only; any other input is checked
    # and copied, and is neither modified nor made read-only.
    pattern = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    stored = []
    for dtype in (bool, np.uint8, np.int64, np.float32, np.float64):
        a = pattern.astype(dtype)
        before = a.copy()
        g = repsc.Graph(a, allows_self_loops=True)
        assert g.adjacency.dtype == bool and not g.adjacency.flags.writeable
        if dtype is bool:
            assert g.adjacency is a
        else:
            assert a.flags.writeable and a.tobytes() == before.tobytes()
            assert not np.shares_memory(g.adjacency, a)
        stored.append(g.adjacency)
    for adjacency in stored:
        assert np.array_equal(adjacency, pattern.astype(bool))
    listed = repsc.Graph([[0, 1], [1, 0]])
    assert listed.adjacency.dtype == bool and listed.adjacency.tolist() == [[False, True],
                                                                            [True, False]]


@pytest.mark.parametrize("clone", [lambda graphs: pickle.loads(pickle.dumps(graphs, protocol=4)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copied_graph_stays_read_only_and_keeps_its_memo(clone, eigensolves):
    # Both make writable arrays; a pool worker clusters on its parent's solves.
    rep, truth = repsc.build_d_regular_rep_graph(24, 2, 6)
    graph = repsc.sample_rpp(repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS), 0)
    labels = repsc.urepsc(graph, rep, 2).assignment.labels
    solved = len(eigensolves)
    copies = clone((graph, rep))
    for original, twin in zip((graph, rep), copies):
        with pytest.raises(ValueError, match="read-only"):
            twin.adjacency[0, 5] = True
        assert len(twin._memo) == len(original._memo) > 0
        kept = [array for value in twin._memo.values() for array in kept_arrays(value)]
        assert kept and not any(array.flags.writeable for array in kept)
    assert np.array_equal(repsc.urepsc(*copies, 2).assignment.labels, labels)
    assert len(eigensolves) == solved


@pytest.mark.parametrize("entry", [2.0, 0.5, -1.0])
def test_graph_rejects_entries_other_than_zero_and_one(entry):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = entry
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        repsc.Graph(a)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_entries(entry):
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = entry
    with pytest.raises(ValueError, match="adjacency contains non-finite entries"):
        repsc.Graph(a)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_graph_rejects_bad_shapes_asymmetry_and_self_loops(dtype):
    with pytest.raises(ValueError, match="adjacency must be square"):
        repsc.Graph(np.zeros((2, 3), dtype=dtype))
    with pytest.raises(ValueError, match="adjacency must be 2-dimensional"):
        repsc.Graph(np.zeros(3, dtype=dtype))
    with pytest.raises(ValueError, match="adjacency must be exactly symmetric"):
        repsc.Graph(np.array([[0, 1], [0, 0]], dtype=dtype))
    # The symmetry check runs strip by strip; the only asymmetric pair here
    # lies across two strips.
    n = 70
    a = np.zeros((n, n), dtype=dtype)
    a[3, n - 2] = 1
    with pytest.raises(ValueError, match="adjacency must be exactly symmetric"):
        repsc.Graph(a)
    with pytest.raises(ValueError, match="self-loops present but allows_self_loops is False"):
        repsc.Graph(np.eye(2, dtype=dtype))
    assert repsc.Graph(np.eye(2, dtype=dtype), allows_self_loops=True).n == 2


def hub_graphs(n=400):
    """A planted two-cluster G with node 0 joined to every other node
    (degree n - 1) and a 300-regular R: every count here overflows 8 bits."""
    rng = np.random.default_rng(24)
    same = (np.arange(n) < n // 2)[:, None] == (np.arange(n) < n // 2)[None, :]
    upper = np.triu(rng.random((n, n)) < np.where(same, 0.6, 0.05), 1)
    upper[0, 1:] = True
    sim = repsc.Graph(upper | upper.T)
    rep, truth = repsc.build_d_regular_rep_graph(n, 2, 300)
    return sim, rep, truth


def test_bool_adjacency_arithmetic_equals_the_float_formulas(monkeypatch):
    sim, rep, truth = hub_graphs()
    n = sim.n
    assert sim.degrees[0] == n - 1 and np.all(rep.degrees == 300)
    x = np.random.default_rng(7).standard_normal((n, 3))
    for graph in (sim, rep):
        weights = graph.adjacency.astype(np.float64)
        degrees = weights.sum(axis=1)
        laplacian = np.diag(degrees) - weights
        # Integer counts: byte-equal.
        assert graph.degrees.dtype == np.float64
        assert graph.degrees.tobytes() == degrees.tobytes()
        whole = _laplacian(graph.adjacency)
        assert whole[0].tobytes() == degrees.tobytes()
        assert whole[1].tobytes() == laplacian.tobytes()
        for rows in row_blocks(n):
            strip = _laplacian(graph.adjacency[rows], rows.start)[1]
            assert strip.tobytes() == laplacian[rows].tobytes()
        # Strip products: equal up to rounding.
        product = _laplacian_product(graph.adjacency, graph.degrees, x)
        scale = 1.0 + np.abs(laplacian).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(product - laplacian @ x).max() <= 1e-12 * scale
        onehot = truth.onehot()
        assert _laplacian_product(graph.adjacency, graph.degrees, onehot).tobytes() \
            == (laplacian @ onehot).tobytes()
    # R's null threshold t, from its degrees, is what its solve receives.
    tols, solve = [], repsc.clustering.null_side_eig
    monkeypatch.setattr(repsc.clustering, "null_side_eig",
                        lambda m, tol, rank=None: tols.append(tol) or solve(m, tol, rank))
    repsc.clustering._rep_spectrum(rep, None)
    weights = rep.adjacency.astype(np.float64)
    assert tols == [RANK_REL_TOL * n * np.abs(weights).sum(axis=1).max()]
    assert list(rep._memo) == [("picked", None)]  # solves only, no threshold entry

    report = repsc.validate_regular_representation(rep, truth)
    assert report.ok and (report.degree, report.neighbors_per_cluster) == (300, 150)
    # One edge fewer between clusters: nodes 0 and j have 299 neighbors and
    # 149 in the other cluster, as the float formulas count them.
    j = int(np.flatnonzero(rep.adjacency[0] & (truth.labels == 1))[0])
    cut = rep.adjacency.copy()
    cut[0, j] = cut[j, 0] = False
    report = repsc.validate_regular_representation(repsc.Graph(cut, allows_self_loops=True),
                                                   truth)
    counts = cut.astype(np.float64) @ truth.onehot()
    assert report.degree == 300 and report.violating_nodes == [0, j]
    assert "node 0: degree 299 differs from modal degree 300" in report.violations
    assert f"node 0: {counts[0, 1]:g} representatives in cluster 1, expected 150" \
        in report.violations and counts[0, 1] == 149.0

    predicted = random_assignment(np.random.default_rng(3), n, 2)
    score = repsc.score_partition(sim, rep, predicted, truth)
    raw = repsc.score_partition(sim.adjacency.astype(np.float64), rep, predicted, truth)
    assert score.rcut == pytest.approx(raw.rcut, rel=1e-12, abs=0.0)
    assert score.ncut == pytest.approx(raw.ncut, rel=1e-12, abs=0.0)
    rep_counts = weights @ predicted.onehot()
    balance = rep_counts.min(axis=1) / rep_counts.max(axis=1)
    residual = rep_counts / predicted.sizes - (weights.sum(axis=1) / n)[:, None]
    assert score.avg_balance == float(balance.mean())
    assert score.min_balance == float(balance.min())
    assert score.max_representation_residual == float(np.abs(residual).max())


@pytest.mark.parametrize("name", sorted(experiments.ALGORITHMS))
def test_algorithms_label_a_graph_as_its_float_matrix(name):
    sim, rep, _ = hub_graphs()
    given = {"rep_graph": rep, "rank": sim.n // 10, "groups": 2}
    raw = {"rep_graph": rep.adjacency.astype(np.float64), "rank": sim.n // 10, "groups": 2}
    algorithm = experiments.ALGORITHMS[name]
    names = inspect.signature(algorithm).parameters
    on_graph = algorithm(sim, k=2, **{key: given[key] for key in given if key in names})
    on_matrix = algorithm(sim.adjacency.astype(np.float64), k=2,
                          **{key: raw[key] for key in raw if key in names})
    assert np.array_equal(on_graph.assignment.labels, on_matrix.assignment.labels)


def builder_inputs(tmp_path):
    """Builders of every Graph the package makes, at N = BUILDER_N, each
    with its inputs made beforehand."""
    n = BUILDER_N
    rep, truth = repsc.build_d_regular_rep_graph(n, 5, 40)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    sim = repsc.sample_rpp(params, 1)
    path = tmp_path / "rep.txt"
    repsc.write_graph(repsc.build_d_regular_rep_graph(n, 5, 10)[0], path)
    rng = np.random.default_rng(5)
    lines = [f"{layer} {i} {j} {w:.3f}" for layer in (1, 2, 3) for i in range(n)
             for j, w in zip(rng.integers(0, n, 6), rng.random(6))]
    net = repsc.parse_multiplex_text("\n".join(lines))
    layers = [repsc.knn_layer_graph(net, t, 5) for t in range(3)]
    return {
        "sample_rpp": lambda: repsc.sample_rpp(params, 1),
        "sample_planted_partition_rep_graph":
            lambda: repsc.sample_planted_partition_rep_graph(n, 60, 0.8, 0.2, 1)[0],
        "build_d_regular_rep_graph": lambda: repsc.build_d_regular_rep_graph(n, 5, 40)[0],
        "read_graph": lambda: repsc.read_graph(path),
        "_knn_union": lambda: multiplex._knn_union(net, range(3), 5, True),
        "aggregate_layers": lambda: repsc.aggregate_layers(layers, force_diagonal=True),
        "drop_isolated_nodes": lambda: repsc.drop_isolated_nodes(sim, rep)[0],
    }


BUILDER_N = 600


@pytest.mark.parametrize("builder", ["sample_rpp", "sample_planted_partition_rep_graph",
                                     "build_d_regular_rep_graph", "read_graph", "_knn_union",
                                     "aggregate_layers", "drop_isolated_nodes"])
def test_builders_make_no_float_matrix(builder, tmp_path):
    # In N x N float64 units at N = 600, each builder holds its bool result
    # (1/8; drop_isolated_nodes returns two) and strip-sized temporaries,
    # and its Graph keeps one byte per entry. A float64 adjacency read at
    # least 1 and kept 8 N^2 bytes.
    build = builder_inputs(tmp_path)[builder]
    n = BUILDER_N
    assert build().adjacency.dtype == bool
    assert traced_peak(build) <= 0.3 * n * n * 8
    kept = []
    assert traced_retained(lambda: kept.append(build())) <= 1.05 * n * n
