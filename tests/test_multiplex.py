"""Multiplex edge-list parsing and the layer-reduction protocol."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repsc
from repsc.multiplex import _unique_rows

SAMPLE = """\
# genetic interaction layers, 1-based node ids
1 1 2 0.5
1 2 3 1.5
2 1 3 2.0
2 3 4 1.0
"""


def test_parse_basic_and_layer_matrix():
    net = repsc.parse_multiplex_text(SAMPLE, index_base=1)
    assert net.n == 4
    assert net.num_layers == 2
    assert net.layer_ids == (1, 2)
    first = net.layer_matrix(0)
    assert first[0, 1] == 0.5 and first[1, 2] == 1.5
    assert first.sum() == 2.0
    second = net.layer_matrix(1)
    assert second[0, 2] == 2.0 and second[2, 3] == 1.0
    with pytest.raises(repsc.LayerOutOfRangeError):
        net.layer_matrix(2)


def test_parse_sums_duplicate_edges():
    net = repsc.parse_multiplex_text("7 0 1 1.0\n7 0 1 2.5\n")
    assert net.layer_matrix(0)[0, 1] == 3.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e17, 1e17, allow_subnormal=False), min_size=1, max_size=6))
def test_parse_sums_duplicates_in_file_order(weights):
    # A second edge between the duplicates must not disturb their sum.
    lines = [f"1 0 1 {w!r}\n1 1 0 1.0" for w in weights]
    net = repsc.parse_multiplex_text("\n".join(lines) + "\n")
    src, dst, summed = net.layers[0]
    assert src.tolist() == [0, 1] and dst.tolist() == [1, 0]
    running = functools.reduce(operator.add, weights, 0.0)
    assert summed[0] == running
    assert summed[1] == float(len(weights))


def test_parse_sum_is_not_reordered():
    # Summed in file order, 1e16 absorbs the 1.0 before -1e16 cancels it.
    net = repsc.parse_multiplex_text("1 0 1 1e16\n1 0 1 1.0\n1 0 1 -1e16\n")
    assert net.layer_matrix(0)[0, 1] == 0.0


def unique_rows_reference(rows):
    edges, inverse = np.unique(rows, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1)


# Small ranges make duplicate rows likely; the extremes check signed order.
key_part = st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(key_part, st.integers(0, 4), st.integers(0, 4)), min_size=1,
                max_size=40))
def test_unique_rows_matches_np_unique(keys):
    rows = np.array(keys, dtype=np.int64)
    edges, inverse = _unique_rows(rows)
    ref_edges, ref_inverse = unique_rows_reference(rows)
    assert edges.dtype == ref_edges.dtype and np.array_equal(edges, ref_edges)
    assert inverse.dtype == ref_inverse.dtype and np.array_equal(inverse, ref_inverse)


def test_parse_skips_comments_and_blanks():
    text = "\n# header\n\n3 0 1 1.0\n   \n# trailing\n"
    net = repsc.parse_multiplex_text(text)
    assert net.num_layers == 1 and net.layer_ids == (3,)


def test_parse_malformed_lines():
    with pytest.raises(repsc.MalformedLineError) as info:
        repsc.parse_multiplex_text("1 0 1 1.0\n1 0 1\n")
    assert info.value.line_number == 2
    with pytest.raises(repsc.MalformedLineError):
        repsc.parse_multiplex_text("1 0 one 1.0\n")
    with pytest.raises(repsc.MalformedLineError):
        repsc.parse_multiplex_text("1 0 1 inf\n")
    with pytest.raises(repsc.NoLayersError):
        repsc.parse_multiplex_text("# only comments\n")


def test_parse_index_handling():
    with pytest.raises(repsc.IndexOutOfRangeError):
        repsc.parse_multiplex_text("1 0 1 1.0\n", index_base=1)
    names = ("a", "b", "c")
    net = repsc.parse_multiplex_text("1 0 2 1.0\n", names=names)
    assert net.n == 3 and net.node_names == names
    with pytest.raises(repsc.IndexOutOfRangeError):
        repsc.parse_multiplex_text("1 0 3 1.0\n", names=names)
    with pytest.raises(repsc.IndexOutOfRangeError):
        repsc.parse_multiplex_text(f"{2**63} 0 1 1.0\n")


def test_parse_from_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(SAMPLE)
    net = repsc.parse_multiplex(path, index_base=1)
    assert net.n == 4


def test_node_names_length_checked():
    with pytest.raises(repsc.SizeMismatchError):
        repsc.MultiplexNetwork(
            n=3, layers=((np.array([0]), np.array([1]), np.array([1.0])),),
            layer_ids=(1,), node_names=("a", "b"),
        )


def test_load_node_names(tmp_path):
    blanks = tmp_path / "blanks.txt"
    blanks.write_text("alpha\n\nbeta\n")
    assert repsc.load_node_names(blanks) == ("alpha", "beta")
    path = tmp_path / "names.txt"
    path.write_text("x\ny\nz\n")
    assert repsc.load_node_names(path) == ("x", "y", "z")
    assert repsc.load_node_names(str(path)) == ("x", "y", "z")


def test_readers_take_a_path_and_never_guess(tmp_path):
    missing = tmp_path / "missing.txt"
    for reader in (repsc.load_node_names, repsc.parse_multiplex):
        with pytest.raises(FileNotFoundError):
            reader(missing)
        with pytest.raises(FileNotFoundError):
            reader(str(missing))
    # A string is a path even when it looks like file content.
    with pytest.raises(FileNotFoundError):
        repsc.parse_multiplex("1 0 1 1.0\n")


def test_knn_keeps_strongest_neighbors():
    # Node 0 has three weighted neighbors; with k=2 it keeps the two largest.
    text = "1 0 1 5.0\n1 0 2 3.0\n1 0 3 1.0\n1 4 0 2.0\n"
    net = repsc.parse_multiplex_text(text)
    g = repsc.knn_layer_graph(net, 0, 2)
    # Union symmetrization: node 4 selected node 0, so 0-4 exists even though
    # node 0 never picked 4.
    assert g.adjacency[0, 1] == 1.0
    assert g.adjacency[0, 2] == 1.0
    assert g.adjacency[0, 3] == 0.0
    assert g.adjacency[0, 4] == 1.0
    assert np.array_equal(g.adjacency, g.adjacency.T)


def test_knn_breaks_ties_toward_lower_index():
    text = "1 0 1 1.0\n1 0 2 1.0\n1 0 3 1.0\n"
    net = repsc.parse_multiplex_text(text)
    g = repsc.knn_layer_graph(net, 0, 1)
    assert g.adjacency[0, 1] == 1.0
    assert g.adjacency[0, 2] == 0.0 and g.adjacency[0, 3] == 0.0


def test_knn_large_k_keeps_everything():
    net = repsc.parse_multiplex_text(SAMPLE, index_base=1)
    g = repsc.knn_layer_graph(net, 0, 10)
    assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 2] == 1.0
    with pytest.raises(ValueError):
        repsc.knn_layer_graph(net, 0, 0)
    for layer in (-1, 2):
        with pytest.raises(repsc.LayerOutOfRangeError):
            repsc.knn_layer_graph(net, layer, 1)


def test_knn_ignores_self_weights():
    net = repsc.parse_multiplex_text("1 0 0 9.0\n1 0 1 1.0\n")
    g = repsc.knn_layer_graph(net, 0, 1)
    assert g.adjacency[0, 0] == 0.0
    assert g.adjacency[0, 1] == 1.0


def test_layer_id_ranges_follow_the_file_numbering():
    # Layer ids 10 and 30 (gap at 20): ranges select by id, skipping gaps.
    net = repsc.parse_multiplex_text("10 0 1 1.0\n30 1 2 1.0\n")
    assert repsc.layer_positions_for_id_range(net, 10, 10) == [0]
    assert repsc.layer_positions_for_id_range(net, 10, 30) == [0, 1]
    assert repsc.layer_positions_for_id_range(net, 5, 25) == [0]
    with pytest.raises(repsc.LayerOutOfRangeError):
        repsc.layer_positions_for_id_range(net, 11, 29)


def test_aggregate_or_and_diagonal():
    a = repsc.Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = repsc.Graph(np.zeros((2, 2)))
    combined = repsc.aggregate_layers([a, b])
    assert np.array_equal(combined.adjacency, a.adjacency)
    rep = repsc.aggregate_layers([b], force_diagonal=True)
    assert np.array_equal(rep.adjacency, np.eye(2))
    assert rep.allows_self_loops
    # OR is commutative: order never matters.
    assert np.array_equal(
        repsc.aggregate_layers([a, rep]).adjacency,
        repsc.aggregate_layers([rep, a]).adjacency,
    )
    with pytest.raises(repsc.NoLayersError):
        repsc.aggregate_layers([])
    with pytest.raises(repsc.SizeMismatchError):
        repsc.aggregate_layers([a, repsc.Graph(np.zeros((3, 3)))])


def test_aggregate_takes_layers_from_a_generator():
    rng = np.random.default_rng(3)
    layers = []
    for _ in range(4):
        upper = np.triu(rng.random((6, 6)) < 0.3, k=1)
        layers.append(repsc.Graph((upper | upper.T).astype(np.float64)))
    for force_diagonal in (False, True):
        from_list = repsc.aggregate_layers(layers, force_diagonal=force_diagonal)
        from_generator = repsc.aggregate_layers((g for g in layers), force_diagonal=force_diagonal)
        assert np.array_equal(from_generator.adjacency, from_list.adjacency)
        assert from_generator.allows_self_loops == from_list.allows_self_loops == force_diagonal
    with pytest.raises(repsc.NoLayersError):
        repsc.aggregate_layers(g for g in [])
    with pytest.raises(repsc.SizeMismatchError):
        repsc.aggregate_layers(g for g in [layers[0], repsc.Graph(np.zeros((3, 3)))])


def test_drop_isolated_requires_company_in_both_graphs():
    sim = np.zeros((4, 4))
    sim[0, 1] = sim[1, 0] = 1.0
    sim[2, 3] = sim[3, 2] = 1.0
    rep = np.eye(4)
    rep[0, 1] = rep[1, 0] = 1.0  # nodes 2,3 only have their self-loop
    kept_sim, kept_rep, kept = repsc.drop_isolated_nodes(
        repsc.Graph(sim), repsc.Graph(rep, allows_self_loops=True)
    )
    assert kept.tolist() == [0, 1]
    assert kept_sim.n == 2 and kept_rep.n == 2
    assert kept_rep.adjacency[0, 1] == 1.0
    with pytest.raises(repsc.SizeMismatchError):
        repsc.drop_isolated_nodes(repsc.Graph(sim), repsc.Graph(np.eye(3), True))


def knn_reference(lines, n, layer_id, k):
    """The per-row algorithm: dense weights summed line by line, then each
    row sorted by (-weight, index) in Python."""
    w = np.zeros((n, n))
    for lid, src, dst, weight in lines:
        if lid == layer_id:
            w[src, dst] += weight
    np.fill_diagonal(w, 0.0)
    selected = np.zeros((n, n), dtype=bool)
    for i in range(n):
        candidates = np.flatnonzero(w[i] != 0.0)
        order = sorted(candidates, key=lambda j: (-w[i, j], j))
        selected[i, order[:k]] = True
    return (selected | selected.T).astype(np.float64)


@st.composite
def multiplex_lines(draw):
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    # Few distinct weights: ties, zeros, negatives, and duplicates summing to 0.
    weight = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    lines = draw(st.lists(st.tuples(st.sampled_from([2, 5, 9]), node, node, weight),
                          min_size=1, max_size=30))
    return n, lines


@settings(max_examples=150, deadline=None)
@given(multiplex_lines(), st.integers(1, 8))
def test_knn_matches_the_per_row_reference(case, k):
    n, lines = case
    text = "".join(f"{lid} {src} {dst} {w!r}\n" for lid, src, dst, w in lines)
    net = repsc.parse_multiplex_text(text, names=[str(i) for i in range(n)])
    assert net.layer_ids == tuple(sorted({lid for lid, *_ in lines}))
    for t, layer_id in enumerate(net.layer_ids):
        g = repsc.knn_layer_graph(net, t, k)
        assert np.array_equal(g.adjacency, knn_reference(lines, n, layer_id, k))
