"""Multiplex edge-list ingestion and reduction to two working graphs.

A multiplex network file describes one weighted directed graph per layer
with lines ``layer_id src dst weight``: three ASCII decimal integers and a
finite float, with ``#`` comment lines and blank lines skipped. It is read
in blocks of whole lines, whose rows are kept per layer, and each layer is
grouped alone, so no table of the whole file is ever held. The reduction
protocol used for real data builds, per layer, an undirected
nearest-neighbor graph (each node keeps its strongest neighbors, then
edges are symmetrized by union) without a dense weight matrix, aggregates
a range of layers by entrywise OR, and finally drops nodes that end up
isolated. Each step is its own function, so the protocol stays
inspectable and re-composable; ``build_working_graphs`` fuses them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    ConfigError,
    IndexOutOfRangeError,
    LayerOutOfRangeError,
    MalformedLineError,
    NoLayersError,
    SizeMismatchError,
    _naming_file,
)
from .graphs import _FLOAT_FIELD, _INT_FIELD, Graph

_EDGE = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])
_ROW = np.dtype([("layer", np.int64), *_EDGE.descr])
_INT64 = np.iinfo(np.int64)
# A line is skipped when its first non-blank character is missing or '#'.
_HEAD = operator.itemgetter(slice(1))
_SKIPPED_HEADS = frozenset(("", "#"))
# Characters of text read, split and filtered at a time.
_PIECE_CHARS = 1 << 16


@dataclass(frozen=True)
class MultiplexNetwork:
    """Parsed multiplex network.

    ``layers[t]`` is a ``(src, dst, weight)`` triple of equal-length arrays
    (int64, int64, float64): the edges of the layer at 0-based position t,
    sorted by (src, dst), with the weights of duplicate (src, dst) lines
    summed in file order. ``layer_ids[t]`` is the id the file used for that
    layer (ids are remapped to contiguous 0-based positions in ascending
    order).
    """

    n: int
    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    layer_ids: tuple[int, ...]
    node_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.node_names is not None and len(self.node_names) != self.n:
            raise SizeMismatchError(
                f"{len(self.node_names)} names for {self.n} nodes"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def _layer_edges(net: MultiplexNetwork, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not (0 <= layer < net.num_layers):
        raise LayerOutOfRangeError(f"layer {layer} out of range [0, {net.num_layers})")
    return net.layers[layer]


def load_node_names(path) -> tuple[str, ...]:
    """Read a node-name sidecar file: one name per line, blanks skipped."""
    with _naming_file(path):
        return tuple(line.strip() for line in Path(path).read_text().splitlines() if line.strip())


def parse_multiplex(path, index_base: int = 0, names=None) -> MultiplexNetwork:
    """``parse_multiplex_text`` of the file at ``path`` (FileNotFoundError if
    missing), read as a stream of blocks of whole lines, and a second time
    only to name a bad line."""
    with _naming_file(path), Path(path).open() as handle:
        def pieces():
            handle.seek(0)
            return _whole_lines(iter(functools.partial(handle.read, _PIECE_CHARS), ""))
        return _parse_pieces(pieces, index_base, names)


def parse_multiplex_text(text: str, index_base: int = 0, names=None) -> MultiplexNetwork:
    """Parse ``layer_id src dst weight`` lines into a MultiplexNetwork.

    Lines that are blank or whose first non-blank character is ``#`` are
    skipped; every other line holds exactly four whitespace-separated
    fields: three ASCII decimal integers with an optional sign and a float
    weight (``inf`` and ``nan`` are read, then rejected as non-finite). A
    ``#`` after the fields is not a comment. ``index_base`` is subtracted
    from node indices, so files counting nodes from 1 parse with
    index_base=1. Node count is inferred as the largest adjusted index plus
    one, unless ``names`` (a sequence of node names) is given, in which case
    the count is len(names) and every edge index must fall below it.
    Duplicate (layer, src, dst) triples have their weights summed in file
    order.

    The lines are those of ``text.splitlines()``. No Python code runs per
    line on a valid file; on a bad one, the first bad line in file order
    raises.

    Raises:
        MalformedLineError: wrong token count, a non-numeric field or a
            non-finite weight, with the 1-based line number.
        IndexOutOfRangeError: node index negative after base adjustment, at
            least len(names) when names are given, or a layer id or node
            index outside 64 bits; the message names the line.
        NoLayersError: no edges at all.
    """
    def pieces():
        return _whole_lines(text[start:start + _PIECE_CHARS]
                            for start in range(0, len(text), _PIECE_CHARS))
    return _parse_pieces(pieces, index_base, names)


def _whole_lines(chunks: Iterable[str]):
    """The text of ``chunks`` in pieces of whole lines: each chunk with the
    unfinished line before it, cut after its last ``"\\n"``, which ends
    every two-character line break (``"\\r\\n"``) too."""
    rest = ""
    for chunk in chunks:
        text = rest + chunk
        end = text.rfind("\n") + 1
        yield text[:end]
        rest = text[end:]
    yield rest


def _body(pieces: Iterable[str]):
    """Lazily, per piece of a text: the 1-based numbers and the text of its
    lines that are not skipped. The lines are those of ``str.splitlines`` of
    the whole text when every piece but the last ends with a line break.
    Built-in maps, so no Python code runs per line."""
    start = 1
    for piece in pieces:
        lines = piece.splitlines()
        heads = map(_HEAD, map(str.lstrip, lines))
        kept = list(map(operator.not_, map(_SKIPPED_HEADS.__contains__, heads)))
        yield itertools.compress(itertools.count(start), kept), itertools.compress(lines, kept)
        start += len(lines)


def _parse_pieces(pieces, index_base: int, names) -> MultiplexNetwork:
    """``parse_multiplex_text`` of the text that ``pieces()`` yields piece by
    piece; ``pieces`` is called a second time only to name a bad line."""
    buckets = _layer_rows(pieces, index_base, names)
    if not buckets:
        raise NoLayersError("multiplex input contains no edges")
    ids = sorted(buckets)
    layers = tuple(_summed(np.frombuffer(buckets.pop(i), _EDGE)) for i in ids)
    node_names = tuple(names) if names is not None else None
    n = len(node_names) if node_names is not None else \
        max(int(nodes.max()) for layer in layers for nodes in layer[:2]) + 1
    return MultiplexNetwork(n=n, layers=layers, layer_ids=tuple(ids), node_names=node_names)


def _layer_rows(pieces, index_base: int, names) -> dict[int, bytearray]:
    """Per layer id, the checked rows of its lines as packed ``_EDGE`` bytes
    in file order, index_base subtracted."""
    # int64 arithmetic wraps, so subtracting index_base modulo 2**64 gives
    # the exact adjusted index (in range, by the checks) for any index_base.
    base = (int(index_base) - _INT64.min) % 2**64 + _INT64.min
    buckets = {}
    for piece in pieces():
        # numpy's reader skips blank lines, not comments, and warns on none.
        lines = list(next(_body((piece,)))[1]) if "#" in piece else piece.splitlines()
        if not lines or piece.isspace():
            continue
        try:
            table = np.loadtxt(lines, dtype=_ROW, comments=None, ndmin=1)
        except ValueError:
            table = None
        if table is None or not _columns_pass(table, index_base, names):
            numbered = itertools.chain.from_iterable(itertools.starmap(zip, _body(pieces())))
            _raise_first_bad_line(numbered, index_base, names)
        table["src"] -= base
        table["dst"] -= base
        table = table[np.argsort(table["layer"], kind="stable")]
        ids, starts = np.unique(table["layer"], return_index=True)
        for layer_id, rows in zip(ids.tolist(), np.split(table[list(_EDGE.names)], starts[1:])):
            buckets.setdefault(layer_id, bytearray()).extend(rows.astype(_EDGE))
    return buckets


def _summed(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One layer's rows grouped by (src, dst), in sorted order, each group's
    weights summed in file order (as a running sum over the lines would)."""
    src, dst = edges["src"], edges["dst"]
    firsts, inverse = _group_rows((src, dst))
    summed = np.bincount(inverse, weights=edges["weight"], minlength=len(firsts))
    return src[firsts], dst[firsts], summed


def _group_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """For equal-length int64 columns, the index of the first of each group
    of equal rows, the groups sorted by (column 0, 1, ...), and each row's
    group.

    Each column, shifted to start at 0, is one digit of a mixed-radix int64
    key with column 0 the most significant, so one stable argsort of the key
    orders the rows. Only when the key's range would not fit in int64 does a
    stable lexsort over the columns order them instead. A row starts a
    group when its key (or row) differs from the one before it in sorted
    order.
    """
    lo = [int(column.min()) for column in columns]
    spans = [int(column.max()) - a + 1 for column, a in zip(columns, lo)]
    if math.prod(spans) <= _INT64.max:
        key = columns[0] - lo[0]
        for column, a, span in zip(columns[1:], lo[1:], spans[1:]):
            # In place; a sum past int64 wraps, and the final key fits.
            key *= span
            key += column
            key -= a
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        del key
        starts = np.ones(len(order), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    else:
        order = np.lexsort(columns[::-1])
        starts = np.zeros(len(order), dtype=bool)
        starts[0] = True
        for column in columns:
            ordered = column[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
    # The group of each row in sorted order, scattered back to file order.
    ranks = np.cumsum(starts, out=ordered)
    ranks -= 1
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = ranks
    return order[starts], inverse


def _columns_pass(table: np.ndarray, index_base: int, names) -> bool:
    """Whether every weight is finite and every adjusted node index lies in
    [0, len(names)), or in int64 when no names are given."""
    nodes = (table["src"], table["dst"])
    lo = int(min(column.min() for column in nodes))
    hi = int(max(column.max() for column in nodes))
    bound = len(names) if names is not None else _INT64.max + 1
    finite = bool(np.isfinite(table["weight"]).all())
    return finite and index_base <= lo and hi - index_base < bound


def _raise_first_bad_line(numbered_lines, index_base: int, names) -> NoReturn:
    """Raise the error of the first line, in file order, that breaks the
    grammar or a range check of ``parse_multiplex_text``.

    Runs only after the table read or a column check has failed, so some
    line does: the field patterns accept exactly the tokens numpy's reader
    converts.
    """
    for lineno, raw in numbered_lines:
        parts = raw.split()
        if len(parts) != 4:
            raise MalformedLineError(
                lineno, f"expected 'layer_id src dst weight', got {raw!r}"
            )
        *keys, weight = parts
        if not (all(map(_INT_FIELD.fullmatch, keys)) and _FLOAT_FIELD.fullmatch(weight)):
            raise MalformedLineError(lineno, f"non-numeric field in {raw!r}")
        if not math.isfinite(float(weight)):
            raise MalformedLineError(lineno, f"non-finite weight in {raw!r}")
        layer_id, src, dst = map(int, keys)
        if min(src, dst) < index_base:
            raise IndexOutOfRangeError(
                f"line {lineno}: node index below 0 after subtracting "
                f"index_base={index_base}"
            )
        adjusted = max(src, dst) - index_base
        if names is not None and adjusted >= len(names):
            raise IndexOutOfRangeError(
                f"line {lineno}: node index {adjusted} but only "
                f"{len(names)} names were given"
            )
        if not all(_INT64.min <= v <= _INT64.max for v in (layer_id, src, dst, adjusted)):
            raise IndexOutOfRangeError(
                f"line {lineno}: a layer id or node index does not fit in 64 bits"
            )
    raise AssertionError("unreachable: the table reader rejected a valid line")


def layer_positions_for_id_range(net: MultiplexNetwork, lo: int, hi: int) -> list[int]:
    """Positions of the layers whose file ids fall in the inclusive [lo, hi].

    Layer ranges in configs and on the command line use the ids as written
    in the file (the FAO recipe "layers 1-182" means exactly those ids), not
    the remapped 0-based positions, and gaps in the file's numbering are
    simply skipped.
    """
    positions = [t for t, layer_id in enumerate(net.layer_ids) if lo <= layer_id <= hi]
    if not positions:
        raise LayerOutOfRangeError(
            f"no layers with ids in [{lo}, {hi}]; the file has ids "
            f"{net.layer_ids[:10]}{'...' if len(net.layer_ids) > 10 else ''}"
        )
    return positions


def _knn_selection(net: MultiplexNetwork, layer: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The directed (src, dst) pairs of one layer's nearest-neighbor step:
    each node's k neighbors of largest weight, ties toward the lower index,
    self-weights and zero weights ignored."""
    src, dst, weight = _layer_edges(net, layer)
    keep = (src != dst) & (weight != 0.0)
    src, dst, weight = src[keep], dst[keep], weight[keep]
    # Group by source; within a source, descending weight, then ascending
    # neighbor index (stable sorts of rows sorted by (src, dst)). Each
    # source keeps the first k entries of its group.
    order = np.argsort(-weight, kind="stable")
    order = order[np.argsort(src[order], kind="stable")]
    src, dst = src[order], dst[order]
    top = np.arange(src.size) - np.searchsorted(src, src) < k
    return src[top], dst[top]


def _knn_union(net: MultiplexNetwork, layers: Iterable[int], k: int,
               self_loops: bool) -> Graph:
    """The OR of the nearest-neighbor graphs of ``layers``: every layer's
    selection is stored both ways into one adjacency. With ``self_loops``
    the diagonal is set to ones (every node represents itself)."""
    adjacency = np.zeros((net.n, net.n), dtype=bool)
    for layer in layers:
        src, dst = _knn_selection(net, layer, k)
        adjacency[src, dst] = adjacency[dst, src] = True
    if self_loops:
        np.fill_diagonal(adjacency, True)
    return Graph(adjacency, allows_self_loops=self_loops)


def knn_layer_graph(net: MultiplexNetwork, layer: int, k: int) -> Graph:
    """Undirected nearest-neighbor graph of one layer.

    Every node selects its k neighbors of largest weight (ties broken toward
    the lower node index; self-weights ignored; nodes with fewer than k
    weighted neighbors keep all of them), and the selections are symmetrized
    by union: an edge exists when either endpoint selected the other.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _knn_union(net, [layer], k, False)


def aggregate_layers(graphs: Iterable[Graph], force_diagonal: bool = False) -> Graph:
    """Entrywise OR of the adjacency matrices, taken one graph at a time.

    ``graphs`` may be any iterable, a generator included, so a caller that
    builds the layers lazily never holds them all. With ``force_diagonal``
    the diagonal is set to all ones, which is how a representation graph is
    finished (every node represents itself). The OR makes the operation
    commutative and associative, so the layer order never matters.
    """
    combined = None
    self_loops = force_diagonal
    for g in graphs:
        if combined is None:
            combined = g.adjacency.copy()
        elif g.n != combined.shape[0]:
            raise SizeMismatchError(
                f"layer graphs over {combined.shape[0]} and {g.n} nodes cannot be combined")
        else:
            np.logical_or(combined, g.adjacency, out=combined)
        self_loops = self_loops or g.allows_self_loops
    if combined is None:
        raise NoLayersError("no layer graphs to aggregate")
    if force_diagonal:
        np.fill_diagonal(combined, True)
    return Graph(combined, allows_self_loops=self_loops)


def drop_isolated_nodes(similarity: Graph, representation: Graph
                        ) -> tuple[Graph, Graph, np.ndarray]:
    """Remove nodes with no neighbor besides themselves in either graph.

    A self-loop does not count as company: a node whose only connection is
    its own diagonal entry is isolated. Both graphs are reduced to the same
    kept node set so indices stay aligned; the returned array maps new
    indices to the original ones.
    """
    if similarity.n != representation.n:
        raise SizeMismatchError(
            f"graphs cover {similarity.n} and {representation.n} nodes"
        )
    def offdiag_degree(g: Graph) -> np.ndarray:
        return g.degrees - np.diag(g.adjacency)

    kept = np.flatnonzero((offdiag_degree(similarity) > 0) & (offdiag_degree(representation) > 0))
    sim = Graph(similarity.adjacency[np.ix_(kept, kept)], similarity.allows_self_loops)
    rep = Graph(representation.adjacency[np.ix_(kept, kept)], representation.allows_self_loops)
    return sim, rep, kept


def build_working_graphs(path, rep_layers: tuple[int, int], sim_layers: tuple[int, int],
                         knn_k: int, index_base: int = 0, drop_isolated: bool = True,
                         names=None) -> tuple[Graph, Graph, np.ndarray]:
    """Reduce a multiplex edge list to the similarity and representation graphs.

    Parses the file at ``path``, applies the nearest-neighbor reduction to
    every layer, aggregates each inclusive layer-id range by union (the
    representation range with its diagonal forced to ones) and, with
    ``drop_isolated``, removes the nodes isolated in either graph.

    Returns:
        (similarity, representation, kept), where ``kept`` maps the new node
        indices to the original ones.

    Raises:
        ConfigError when ``knn_k`` is below 1 (before the file is read).
    """
    if knn_k < 1:
        raise ConfigError(f"knn_k must be at least 1, got {knn_k}")
    net = parse_multiplex(path, index_base=index_base, names=names)
    rep = _knn_union(net, layer_positions_for_id_range(net, *rep_layers), knn_k, True)
    sim = _knn_union(net, layer_positions_for_id_range(net, *sim_layers), knn_k, False)
    del net  # the drop step's copies reuse its memory
    if drop_isolated:
        return drop_isolated_nodes(sim, rep)
    return sim, rep, np.arange(sim.n)
