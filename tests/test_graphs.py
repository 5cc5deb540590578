"""Graph types, the two samplers, the regular builder, serialization."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repsc
from conftest import REGULAR_INSTANCES, SWEEP_PROBS, traced_peak


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
    (lambda k: repsc.canonical_y_vectors(10, k), 0),
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
    return (upper | upper.T).astype(np.float64)


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
    # diag(degrees) - A, signed zeros included; its product with columns X
    # equals (diag(degrees) - A) @ X.
    x = np.random.default_rng(seed).standard_normal((n, 3))
    for a in (sample, rep.adjacency, expected):
        degrees = a.sum(axis=1)
        reference = np.diag(degrees) - a
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
