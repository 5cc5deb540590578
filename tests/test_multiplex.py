"""Multiplex edge-list parsing and the layer-reduction protocol."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repsc
from conftest import traced_peak
from repsc.errors import IndexOutOfRangeError, MalformedLineError, NoLayersError
from repsc.multiplex import _group_rows


def layer_matrix(net, layer):
    """Dense directed weight matrix of one layer (by 0-based position)."""
    src, dst, weight = repsc.multiplex._layer_edges(net, layer)
    w = np.zeros((net.n, net.n))
    w[src, dst] = weight
    return w


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
    first = layer_matrix(net, 0)
    assert first[0, 1] == 0.5 and first[1, 2] == 1.5
    assert first.sum() == 2.0
    second = layer_matrix(net, 1)
    assert second[0, 2] == 2.0 and second[2, 3] == 1.0
    with pytest.raises(repsc.LayerOutOfRangeError):
        layer_matrix(net, 2)


def test_parse_sums_duplicate_edges():
    net = repsc.parse_multiplex_text("7 0 1 1.0\n7 0 1 2.5\n")
    assert layer_matrix(net, 0)[0, 1] == 3.5


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
    assert layer_matrix(net, 0)[0, 1] == 0.0


def unique_rows_reference(rows):
    edges, inverse = np.unique(rows, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1)


# Small ranges make duplicate rows likely; gapped ids (multiples of 1000,
# negative layers included) and values near 2**62 make wide packed digits;
# the extremes overflow the packed key, so the lexsort fallback runs.
key_part = st.one_of(st.integers(-3, 3), st.integers(-4, 4).map(lambda v: 1000 * v),
                     st.integers(2**62 - 2, 2**62 + 2), st.integers(-2**63, 2**63 - 1))
node_part = st.one_of(st.integers(0, 4), st.integers(0, 4).map(lambda v: 1000 * v),
                      st.integers(2**62 - 2, 2**62 + 2), st.integers(0, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(key_part, node_part, node_part), min_size=1, max_size=40))
def test_unique_rows_matches_np_unique(keys):
    rows = np.array(keys, dtype=np.int64)
    firsts, inverse = _group_rows(tuple(rows.T))
    edges = rows[firsts]
    ref_edges, ref_inverse = unique_rows_reference(rows)
    assert edges.dtype == ref_edges.dtype and np.array_equal(edges, ref_edges)
    assert inverse.dtype == ref_inverse.dtype and np.array_equal(inverse, ref_inverse)


@pytest.mark.parametrize("keys, packed", [
    # Spans 7 * 5 * 5: one packed key.
    ([(3, 0, 4), (-3, 4, 0), (3, 0, 4), (0, 2, 2)], True),
    # Spans 2 * 1 * (2**62 - 1): the packed range still fits int64.
    ([(1, 7, 2**62 - 2), (0, 7, 0), (1, 7, 0), (0, 7, 2**62 - 2)], True),
    # Spans 2 * 1 * 2**62 = 2**63, one past the largest int64.
    ([(1, 7, 2**62 - 1), (0, 7, 0), (1, 7, 0), (0, 7, 2**62 - 1)], False),
    # Spans 2 * 2 * 2**62 = 2**64: the key would overflow.
    ([(1, 1, 2**62 - 1), (0, 0, 0), (1, 1, 2**62 - 1), (0, 1, 5)], False),
    # One column alone spans 2**64.
    ([(-2**63, 0, 0), (2**63 - 1, 0, 0), (-2**63, 0, 0)], False),
])
def test_unique_rows_packs_the_key_unless_it_would_overflow(monkeypatch, keys, packed):
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or lexsort(k))
    rows = np.array(keys, dtype=np.int64)
    firsts, inverse = _group_rows(tuple(rows.T))
    edges = rows[firsts]
    ref_edges, ref_inverse = unique_rows_reference(rows)
    assert np.array_equal(edges, ref_edges) and np.array_equal(inverse, ref_inverse)
    assert lexsorts == ([] if packed else [1])


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


# -- the table reader against the per-line loop it replaced ------------------


def parse_reference(text, index_base=0, names=None):
    """The per-line parser: split, int() and float() on every line."""
    keys, weights = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedLineError(lineno, f"expected 'layer_id src dst weight', got {raw!r}")
        try:
            layer_id, src, dst = int(parts[0]), int(parts[1]), int(parts[2])
            weight = float(parts[3])
        except ValueError:
            raise MalformedLineError(lineno, f"non-numeric field in {raw!r}")
        if not math.isfinite(weight):
            raise MalformedLineError(lineno, f"non-finite weight in {raw!r}")
        src -= index_base
        dst -= index_base
        if src < 0 or dst < 0:
            raise IndexOutOfRangeError(
                f"line {lineno}: node index below 0 after subtracting index_base={index_base}")
        if names is not None and max(src, dst) >= len(names):
            raise IndexOutOfRangeError(
                f"line {lineno}: node index {max(src, dst)} but only {len(names)} names were given")
        keys.append((layer_id, src, dst))
        weights.append(weight)
    if not keys:
        raise NoLayersError("multiplex input contains no edges")
    try:
        rows = np.array(keys, dtype=np.int64)
    except OverflowError:
        raise IndexOutOfRangeError("a layer id or node index does not fit in 64 bits")
    firsts, inverse = _group_rows(tuple(rows.T))
    edges = rows[firsts]
    summed = np.bincount(inverse, weights=weights, minlength=len(edges))
    layer_of, src, dst = edges.T
    ids, starts = np.unique(layer_of, return_index=True)
    bounds = zip(starts, [*starts[1:], len(edges)])
    layers = tuple((src[a:b], dst[a:b], summed[a:b]) for a, b in bounds)
    node_names = tuple(names) if names is not None else None
    n = len(node_names) if node_names is not None else int(edges[:, 1:].max()) + 1
    return repsc.MultiplexNetwork(n=n, layers=layers, layer_ids=tuple(ids.tolist()),
                                  node_names=node_names)


def assert_same_network(got, want):
    assert got.n == want.n
    assert got.layer_ids == want.layer_ids
    assert got.node_names == want.node_names
    assert len(got.layers) == len(want.layers)
    for got_layer, want_layer in zip(got.layers, want.layers):
        for g, w in zip(got_layer, want_layer):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def parse_outcome(parse, text, **kwargs):
    """The network, or the error's class and line number."""
    try:
        return parse(text, **kwargs)
    except repsc.RepscError as exc:
        return type(exc), getattr(exc, "line_number", None)


blank = st.sampled_from(["", " ", "\t", "  \t "])
gap = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def valid_files(draw):
    """Edge lines with comments and blanks interleaved, random whitespace,
    '+' signs, duplicate (layer, src, dst) lines, an index base and names."""
    index_base = draw(st.sampled_from([0, 1]))
    n = draw(st.integers(1, 6))
    node = st.integers(index_base, index_base + n - 1)
    layer = st.sampled_from([-3, 0, 2, 7, 2**40])
    weight = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]))
    edges = draw(st.lists(st.tuples(layer, node, node, weight), min_size=1, max_size=25))
    lines = []
    for layer_id, src, dst, w in edges:
        while draw(st.booleans()):
            lines.append(draw(st.one_of(blank, st.builds("{}# {}".format, blank,
                                                         st.text("ab #1", max_size=8)))))
        sign = st.sampled_from(["", "+"])
        ints = [draw(sign if v >= 0 else st.just("")) + str(v) for v in (layer_id, src, dst)]
        number = draw(st.sampled_from([repr(w), f"{w:.4f}", f"{w:e}"]))
        if not number.startswith("-"):
            number = draw(sign) + number
        fields = [*ints, number]
        lines.append(draw(blank) + "".join(f + draw(gap) for f in fields[:-1]) + fields[-1]
                     + draw(blank))
    names = tuple(f"n{i}" for i in range(n + draw(st.integers(0, 2)))) \
        if draw(st.booleans()) else None
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), index_base, names


@settings(max_examples=300, deadline=None)
@given(valid_files())
@example(("1 0 1 1.0", 0, None))
@example(("# header\n\n  3\t1 2 -0.5  \n", 1, ("a", "b")))
def test_parse_equals_the_per_line_reference(case):
    text, index_base, names = case
    got = repsc.parse_multiplex_text(text, index_base=index_base, names=names)
    assert_same_network(got, parse_reference(text, index_base=index_base, names=names))


def large_file_lines(size=25_000, seed=20):
    """``size`` random edge lines over nodes 1 to 299, then a tenth of them
    again (so duplicates are summed), with comments and blank lines
    interleaved."""
    rng = np.random.default_rng(seed)
    layer = rng.integers(1, 40, size)
    src, dst = rng.integers(1, 300, size), rng.integers(1, 300, size)
    weight = rng.exponential(1.0, size)
    lines = [f"{a} {b} {c} {w!r}" for a, b, c, w in
             zip(layer.tolist(), src.tolist(), dst.tolist(), weight.tolist())]
    lines += lines[: size // 10]
    for at in range(0, len(lines), 997):
        lines.insert(at, "# block" if at % 2 else "")
    return lines


def test_parse_equals_the_reference_on_a_large_file():
    text = "\n".join(large_file_lines()) + "\n"
    for index_base in (0, 1):
        assert_same_network(repsc.parse_multiplex_text(text, index_base=index_base),
                            parse_reference(text, index_base=index_base))


def test_parse_a_one_line_file():
    net = repsc.parse_multiplex_text("4 2 0 1.5")
    assert_same_network(net, parse_reference("4 2 0 1.5"))
    assert net.n == 3 and net.layer_ids == (4,)
    assert [a.tolist() for a in net.layers[0]] == [[2], [0], [1.5]]


PREAMBLE = "# header\n\n   \n1 1 2 1.0\n\t# indented comment\n"  # a bad line lands on 6


@pytest.mark.parametrize("bad, kwargs, error", [
    ("1 0 1", {}, MalformedLineError),
    ("1 0 1 1.0 9", {}, MalformedLineError),
    ("1 0 1 1.0 # inline", {}, MalformedLineError),
    ("1 0 x 1.0", {}, MalformedLineError),
    ("1.0 0 1 1.0", {}, MalformedLineError),
    ("1 0 1 one", {}, MalformedLineError),
    ("1 0 1 nan", {}, MalformedLineError),
    ("1 0 1 -inf", {}, MalformedLineError),
    ("1 0 1 1e999", {}, MalformedLineError),
    ("1 -1 1 1.0", {}, IndexOutOfRangeError),
    ("1 1 0 1.0", {"index_base": 1}, IndexOutOfRangeError),
    ("1 0 5 1.0", {"names": ("a", "b", "c")}, IndexOutOfRangeError),
    (f"1 0 {2**70} 1.0", {"names": ("a", "b", "c")}, IndexOutOfRangeError),
])
def test_each_error_names_its_line_as_the_reference_does(bad, kwargs, error):
    text = PREAMBLE + bad + "\n1 2 1 2.0\n"
    want = parse_outcome(parse_reference, text, **kwargs)
    assert want == (error, 6 if error is MalformedLineError else None)
    with pytest.raises(error) as info:
        repsc.parse_multiplex_text(text, **kwargs)
    assert str(info.value) == str(pytest.raises(error, parse_reference, text, **kwargs).value)
    assert "line 6" in str(info.value)


@pytest.mark.parametrize("fields", [
    [f"{2**63}", "0", "1"], [f"{-2**63 - 1}", "0", "1"], ["1", f"{2**63}", "1"],
    ["1", "0", f"{2**64}"],
])
def test_a_value_outside_64_bits_names_its_line(fields):
    text = PREAMBLE + " ".join(fields) + " 1.0\n"
    with pytest.raises(IndexOutOfRangeError, match="line 6: a layer id or node index "
                                                   "does not fit in 64 bits"):
        repsc.parse_multiplex_text(text)
    with pytest.raises(IndexOutOfRangeError, match="does not fit in 64 bits"):
        parse_reference(text)


@pytest.mark.parametrize("first, second", [
    ("1 -1 0 1.0", "1 0 x 1.0"),    # a range error before a reader error
    ("1 0 x 1.0", "1 -1 0 1.0"),    # a reader error before a range error
    ("1 0 1 inf", "1 0 1"),         # a column check before a token count
    ("1 0 1", "1 0 1 inf"),
    ("1 0 9 1.0", "1 0 1 1.0 2"),   # the names bound before a token count
    (f"1 0 {2**63} 1.0", "1 -1 0 1.0"),
])
def test_the_first_bad_line_in_file_order_wins(first, second):
    text = f"1 0 1 1.0\n# c\n{first}\n\n{second}\n"
    names = tuple("abc")
    with pytest.raises(repsc.RepscError) as info:
        repsc.parse_multiplex_text(text, names=names)
    assert "line 3" in str(info.value)
    if f"{2**63}" not in first:
        want = parse_outcome(parse_reference, text, names=names)
        assert (type(info.value), getattr(info.value, "line_number", None)) == want


@pytest.mark.parametrize("bad", [
    "1_000 0 1 1.0", "1 0 1_0 1.0", "1 0 1 1_0.5",
    "١ 0 1 1.0", "1 ٢ 1 1.0", "1 0 1 ١.٥", "1 0 1 １",
])
def test_underscores_and_non_ascii_digits_are_malformed(bad):
    # Python's int() and float() read these; the documented grammar does not.
    text = "# c\n1 0 1 1.0\n" + bad + "\n"
    parse_reference(text)
    with pytest.raises(MalformedLineError) as info:
        repsc.parse_multiplex_text(text)
    assert info.value.line_number == 3


TOKENS = ["0", "1", "+2", "-3", "007", "-0", "1.5", ".5", "5.", "-1e5", "1E+2", "1e", "e1",
          ".", "+", "-", "++1", "inf", "-Infinity", "NaN", "nan(1)", "infinit", "0x10", "1,5",
          "4j", "1.5d3", "#", "a", "\x00", "1\x00", f"{2**63 - 1}", f"{2**63}", f"{-2**63}",
          f"{-2**63 - 1}"]
SEPARATORS = [" ", "\t", "\xa0", "　", "\x1f", "\x0b", "\x85", " "]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=5),
       st.lists(st.sampled_from(SEPARATORS), min_size=6, max_size=6),
       st.sampled_from([0, 1]))
def test_the_reader_and_the_reporter_agree_with_the_reference(tokens, seps, index_base):
    # Every line the per-line reference reads parses to the same network;
    # every line it rejects raises the same class at the same line. The
    # exceptions are values outside 64 bits, which are now rejected before
    # index_base is subtracted and name their line.
    line = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    text = "1 0 1 1.0\n" + line + "\n"
    want = parse_outcome(parse_reference, text, index_base=index_base)
    got = parse_outcome(repsc.parse_multiplex_text, text, index_base=index_base)
    if any(t in (f"{2**63}", f"{-2**63 - 1}") for t in tokens) and \
            got == (IndexOutOfRangeError, None):
        return
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_network(got, want)


# -- the file reader against the text reader ---------------------------------


@pytest.fixture(scope="module")
def write_file(tmp_path_factory):
    """Write a text to a file, line breaks as given, and return its path."""
    path = tmp_path_factory.mktemp("multiplex") / "edges.txt"

    def write(text):
        path.write_text(text, newline="")
        return path

    return write


def parse_both(write_file, text, **kwargs):
    """The outcome of ``parse_multiplex_text`` on ``text``, after asserting
    that ``parse_multiplex`` of a file holding ``text`` has the same one."""
    from_text = parse_outcome(repsc.parse_multiplex_text, text, **kwargs)
    from_file = parse_outcome(repsc.parse_multiplex, write_file(text), **kwargs)
    if isinstance(from_text, tuple):
        assert from_file == from_text
    else:
        assert_same_network(from_file, from_text)
    return from_text


@settings(max_examples=150, deadline=None)
@given(valid_files())
@example(("1 0 1 1.0", 0, None))
@example(("# header\n\n  3\t1 2 -0.5  \n", 1, ("a", "b")))
def test_the_file_reader_equals_the_per_line_reference(write_file, case):
    text, index_base, names = case
    got = parse_both(write_file, text, index_base=index_base, names=names)
    assert_same_network(got, parse_reference(text, index_base=index_base, names=names))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=5),
       st.lists(st.sampled_from(SEPARATORS), min_size=6, max_size=6),
       st.sampled_from([0, 1]))
def test_the_file_reader_agrees_with_the_text_reader_on_every_token_line(
        write_file, tokens, seps, index_base):
    line = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    parse_both(write_file, "1 0 1 1.0\n" + line + "\n", index_base=index_base)


def test_the_file_reader_on_a_one_line_file_and_a_large_file(write_file):
    assert_same_network(parse_both(write_file, "4 2 0 1.5"), parse_reference("4 2 0 1.5"))
    text = "\n".join(large_file_lines()) + "\n"
    for index_base in (0, 1):
        assert_same_network(parse_both(write_file, text, index_base=index_base),
                            parse_reference(text, index_base=index_base))


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_each_line_break_splits_a_file_as_it_splits_the_text(write_file, brk):
    # Enough lines that the file is read in several pieces, every other one
    # ended by ``brk``: a physical line of the file then holds two lines.
    lines = large_file_lines(4000, seed=21)
    text = "".join(line + (brk if i % 2 else "\n") for i, line in enumerate(lines))
    assert_same_network(parse_both(write_file, text, index_base=1),
                        parse_reference(text, index_base=1))
    # A bad line is named by its number in text.splitlines(), past the pieces.
    count = len(text.splitlines())
    for after in ("", brk):
        bad = text + "1 0 x 1.0" + brk + "1 1 2 1.0" + after
        assert parse_both(write_file, bad, index_base=1) == (MalformedLineError, count + 1)
    assert parse_both(write_file, text + brk + "7 0 1 1.0", index_base=1) == \
        (IndexOutOfRangeError, None)


@pytest.mark.parametrize("piece_chars", range(1, 24))
def test_a_block_edge_anywhere_splits_no_line(write_file, monkeypatch, piece_chars):
    # Block edges fall inside each line, each "\r\n" and the bad line,
    # which the second read still names.
    monkeypatch.setattr(repsc.multiplex, "_PIECE_CHARS", piece_chars)
    text = "1 0 1 1.0\n1 2 3 4\r\n# note\r\n2 10 3 0.5\n2 3 10 1\r\n"
    assert_same_network(parse_both(write_file, text), parse_reference(text))
    assert parse_both(write_file, text + "1 0 x 1.0\r\n2 1 1 1\n") == (MalformedLineError, 6)


# Characters a piece holds in the tests whose layers straddle many pieces.
SMALL_PIECE_CHARS = 300


@pytest.mark.filterwarnings("error")
def test_layer_buckets_across_many_pieces_equal_the_reference_on_a_large_file(
        write_file, monkeypatch):
    # Each layer's lines and their duplicates straddle many pieces. A piece
    # with a comment goes to numpy's reader through _body, the others as
    # split; pieces of only comments or only blanks never reach the reader,
    # which would warn.
    monkeypatch.setattr(repsc.multiplex, "_PIECE_CHARS", SMALL_PIECE_CHARS)
    text = "\n".join(["# comment"] * 40 + [" "] * 400 + large_file_lines()) + "\n"
    assert_same_network(parse_both(write_file, text, index_base=1),
                        parse_reference(text, index_base=1))
    calls = {}

    def counting(name, call):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return call(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "loadtxt", counting("read", np.loadtxt))
    monkeypatch.setattr(repsc.multiplex, "_body", counting("_body", repsc.multiplex._body))
    repsc.parse_multiplex(write_file(text), index_base=1)
    assert calls["read"] > 1000 and 10 < calls["_body"] < calls["read"] / 10


@settings(max_examples=150, deadline=None)
@given(valid_files())
@example(("1 0 1 1.0", 0, None))
def test_layer_buckets_across_many_pieces_equal_the_per_line_reference(write_file, case):
    text, index_base, names = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repsc.multiplex, "_PIECE_CHARS", SMALL_PIECE_CHARS)
        got = parse_both(write_file, text, index_base=index_base, names=names)
    assert_same_network(got, parse_reference(text, index_base=index_base, names=names))


# Traced bytes a parse may hold at its peak per line of the file. The parse
# holds each edge line once, as a 24-byte row in its layer's bucket, plus
# the grouping of one layer, so the peak falls with the number of layers: a
# file whose lines interleave 39 layers (or its text, beyond the text
# itself) stays under PARSE_BYTES_PER_LINE, a file of 60 contiguous layers
# (the benchmark's shape) under CONTIGUOUS_BYTES_PER_LINE, also through the
# whole reduction, and a file of one layer, which groups every row at once,
# under ONE_LAYER_BYTES_PER_LINE.
PARSE_BYTES_PER_LINE = 48
CONTIGUOUS_BYTES_PER_LINE = 32
ONE_LAYER_BYTES_PER_LINE = 96


def test_the_file_reader_holds_memory_for_the_table_not_the_text(write_file):
    lines = large_file_lines(50_000, seed=22)
    path = write_file("\n".join(lines) + "\n")
    assert traced_peak(lambda: repsc.parse_multiplex(path)) < PARSE_BYTES_PER_LINE * len(lines)


def test_the_text_reader_holds_no_more_than_the_file_reader_beyond_its_text():
    lines = large_file_lines(50_000, seed=22)
    text = "\n".join(lines) + "\n"
    assert traced_peak(lambda: repsc.parse_multiplex_text(text)) < \
        PARSE_BYTES_PER_LINE * len(lines)


def contiguous_layer_lines(layers, nodes=600, out_edges=8, seed=23):
    """``out_edges`` lines from every node to random nodes, with exponential
    weights, one layer after the other."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(nodes), out_edges).tolist()
    lines = ["# layer_id src dst weight"]
    for layer in range(1, layers + 1):
        dst = rng.integers(0, nodes, len(src)).tolist()
        weight = rng.exponential(1.0, len(src)).tolist()
        lines += [f"{layer} {a} {b} {w:.4f}" for a, b, w in zip(src, dst, weight)]
    return lines


def test_a_file_of_contiguous_layers_is_parsed_and_reduced_in_32_bytes_a_line(write_file):
    lines = contiguous_layer_lines(60)
    path = write_file("\n".join(lines) + "\n")
    bound = CONTIGUOUS_BYTES_PER_LINE * len(lines)
    assert traced_peak(lambda: repsc.parse_multiplex(path)) < bound
    assert traced_peak(lambda: repsc.build_working_graphs(path, (1, 30), (31, 60), 5)) < bound


def test_a_one_layer_file_stays_within_the_worst_case_bound(write_file):
    lines = contiguous_layer_lines(1, out_edges=80)
    path = write_file("\n".join(lines) + "\n")
    assert traced_peak(lambda: repsc.parse_multiplex(path)) < \
        ONE_LAYER_BYTES_PER_LINE * len(lines)


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


def test_knn_breaks_ties_as_the_reference_on_a_large_layer():
    # Integer weights summed over duplicate lines: a layer of hundreds of
    # entries with many ties, which an unstable sort would reorder.
    rng = np.random.default_rng(24)
    n = 30
    lines = [(1, *rng.integers(0, n, 2).tolist(), float(rng.choice([-1, 0, 1, 2])))
             for _ in range(4000)]
    text = "".join(f"{lid} {src} {dst} {w!r}\n" for lid, src, dst, w in lines)
    net = repsc.parse_multiplex_text(text, names=[str(i) for i in range(n)])
    for k in (1, 3, 8):
        assert np.array_equal(repsc.knn_layer_graph(net, 0, k).adjacency,
                              knn_reference(lines, n, 1, k))


# -- build_working_graphs against the public pipeline it fuses ---------------


def seeded_multiplex_text(seed, n=40, layer_ids=(1, 2, 4, 7, 8, 9), lines=900):
    """Random edge lines, 1-based node ids, with duplicate (summed) lines,
    self-weights, zero and negative weights; nodes n - 3 to n never occur."""
    rng = np.random.default_rng(seed)
    out = ["# seeded multiplex file"]
    for _ in range(lines):
        layer = rng.choice(layer_ids)
        src, dst = rng.integers(1, n - 3, size=2)
        weight = float(rng.choice([0.0, -1.0, 0.5, 1.0, 2.0, rng.exponential()]))
        out.append(f"{layer} {src} {dst} {weight!r}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("knn_k", [1, 3, 50])
def test_working_graphs_equal_the_per_layer_pipeline(tmp_path, seed, knn_k):
    path = tmp_path / "multiplex.txt"
    path.write_text(seeded_multiplex_text(seed))
    names = [f"node{i}" for i in range(40)]
    net = repsc.parse_multiplex(path, index_base=1, names=names)
    rep_ids, sim_ids = (1, 4), (5, 9)

    def aggregate(layer_ids, force_diagonal):
        positions = repsc.layer_positions_for_id_range(net, *layer_ids)
        return repsc.aggregate_layers([repsc.knn_layer_graph(net, t, knn_k) for t in positions],
                                      force_diagonal=force_diagonal)

    rep, sim = aggregate(rep_ids, True), aggregate(sim_ids, False)
    for drop, want in ((True, repsc.drop_isolated_nodes(sim, rep)),
                       (False, (sim, rep, np.arange(sim.n)))):
        got = repsc.build_working_graphs(path, rep_ids, sim_ids, knn_k, index_base=1,
                                         drop_isolated=drop, names=names)
        assert drop is False or want[2].size < net.n  # some node is dropped
        for g, w in zip(got[:2], want[:2]):
            assert g.adjacency.dtype == w.adjacency.dtype
            assert np.array_equal(g.adjacency, w.adjacency)
            assert g.allows_self_loops == w.allows_self_loops
        assert got[2].dtype == want[2].dtype and np.array_equal(got[2], want[2])
