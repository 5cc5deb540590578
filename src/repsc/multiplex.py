"""Multiplex edge-list ingestion and reduction to two working graphs.

A multiplex network file describes one weighted directed graph per layer
with lines ``layer_id src dst weight``. The reduction protocol used for
real data builds, per layer, an undirected nearest-neighbor graph (each
node keeps its strongest neighbors, then edges are symmetrized by union),
aggregates a range of layers by entrywise OR, and finally drops nodes that
end up isolated. Each of those steps is its own function here so the
protocol stays inspectable and re-composable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    LayerOutOfRangeError,
    MalformedLineError,
    NoLayersError,
    SizeMismatchError,
)
from .graphs import Graph


@dataclass(frozen=True)
class MultiplexNetwork:
    """Parsed multiplex network.

    ``layers[t]`` is a sorted tuple of (src, dst, weight) triples with
    duplicate (src, dst) pairs already summed; ``layer_ids[t]`` is the id the
    file used for that layer (ids are remapped to contiguous 0-based
    positions in ascending order).
    """

    n: int
    layers: tuple[tuple[tuple[int, int, float], ...], ...]
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

    def layer_matrix(self, layer: int) -> np.ndarray:
        """Dense directed weight matrix of one layer (by 0-based position)."""
        if not (0 <= layer < self.num_layers):
            raise LayerOutOfRangeError(
                f"layer {layer} out of range [0, {self.num_layers})"
            )
        w = np.zeros((self.n, self.n))
        for src, dst, weight in self.layers[layer]:
            w[src, dst] += weight
        return w


def load_node_names(source) -> tuple[str, ...]:
    """Read a node-name sidecar file: one name per line, blanks skipped."""
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and Path(source).exists()):
        text = Path(source).read_text()
    else:
        text = source
    return tuple(line.strip() for line in text.splitlines() if line.strip())


def parse_multiplex(source, index_base: int = 0, names=None) -> MultiplexNetwork:
    """Parse ``layer_id src dst weight`` lines into a MultiplexNetwork.

    ``source`` is a path or a string of file content. Lines that are blank
    or start with ``#`` are skipped. ``index_base`` is subtracted from node
    indices, so files counting nodes from 1 parse with index_base=1. Node
    count is inferred as the largest adjusted index plus one, unless
    ``names`` (a sequence of node names) is given, in which case the count
    is len(names) and every edge index must fall below it. Duplicate
    (layer, src, dst) triples have their weights summed.

    Raises:
        MalformedLineError: wrong token count or non-numeric fields, with
            the 1-based line number.
        IndexOutOfRangeError: node index negative after base adjustment, or
            at least len(names) when names are given.
        NoLayersError: no edges at all.
    """
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and Path(source).exists()):
        text = Path(source).read_text()
    else:
        text = source
    weights: dict[int, dict[tuple[int, int], float]] = {}
    max_node = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedLineError(
                lineno, f"expected 'layer_id src dst weight', got {raw!r}"
            )
        try:
            layer_id = int(parts[0])
            src = int(parts[1])
            dst = int(parts[2])
            weight = float(parts[3])
        except ValueError:
            raise MalformedLineError(lineno, f"non-numeric field in {raw!r}")
        if not np.isfinite(weight):
            raise MalformedLineError(lineno, f"non-finite weight in {raw!r}")
        src -= index_base
        dst -= index_base
        if src < 0 or dst < 0:
            raise IndexOutOfRangeError(
                f"line {lineno}: node index below 0 after subtracting "
                f"index_base={index_base}"
            )
        if names is not None and max(src, dst) >= len(names):
            raise IndexOutOfRangeError(
                f"line {lineno}: node index {max(src, dst)} but only "
                f"{len(names)} names were given"
            )
        max_node = max(max_node, src, dst)
        weights.setdefault(layer_id, {}).setdefault((src, dst), 0.0)
        weights[layer_id][(src, dst)] += weight
    if not weights:
        raise NoLayersError("multiplex input contains no edges")
    layer_ids = tuple(sorted(weights))
    layers = tuple(
        tuple((src, dst, w) for (src, dst), w in sorted(weights[lid].items()))
        for lid in layer_ids
    )
    node_names = tuple(names) if names is not None else None
    n = len(node_names) if node_names is not None else max_node + 1
    return MultiplexNetwork(n=n, layers=layers, layer_ids=layer_ids,
                            node_names=node_names)


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


def knn_layer_graph(net: MultiplexNetwork, layer: int, k: int) -> Graph:
    """Undirected nearest-neighbor graph of one layer.

    Every node selects its k neighbors of largest weight (ties broken toward
    the lower node index; self-weights ignored; nodes with fewer than k
    weighted neighbors keep all of them), and the selections are symmetrized
    by union: an edge exists when either endpoint selected the other.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = net.layer_matrix(layer)
    n = net.n
    np.fill_diagonal(w, 0.0)
    selected = np.zeros((n, n), dtype=bool)
    for i in range(n):
        candidates = np.flatnonzero(w[i] != 0.0)
        if candidates.size == 0:
            continue
        # Sort by descending weight, then ascending index; take the top k.
        order = sorted(candidates, key=lambda j: (-w[i, j], j))
        for j in order[:k]:
            selected[i, j] = True
    adjacency = (selected | selected.T).astype(np.float64)
    return Graph(adjacency, allows_self_loops=False)


def aggregate_layers(graphs: list[Graph] | tuple[Graph, ...], force_diagonal: bool = False) -> Graph:
    """Entrywise OR of the adjacency matrices.

    With ``force_diagonal`` the diagonal is set to all ones, which is how a
    representation graph is finished (every node represents itself). The OR
    makes the operation commutative and associative, so the layer order
    never matters.
    """
    if not graphs:
        raise NoLayersError("no layer graphs to aggregate")
    n = graphs[0].n
    combined = np.zeros((n, n), dtype=bool)
    for g in graphs:
        if g.n != n:
            raise SizeMismatchError(f"layer graphs over {n} and {g.n} nodes cannot be combined")
        combined |= g.adjacency.astype(bool)
    adjacency = combined.astype(np.float64)
    self_loops = any(g.allows_self_loops for g in graphs)
    if force_diagonal:
        np.fill_diagonal(adjacency, 1.0)
        self_loops = True
    return Graph(adjacency, allows_self_loops=self_loops)


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
        return g.adjacency.sum(axis=1) - np.diag(g.adjacency)

    kept = np.flatnonzero((offdiag_degree(similarity) > 0) & (offdiag_degree(representation) > 0))
    sim = Graph(similarity.adjacency[np.ix_(kept, kept)], similarity.allows_self_loops)
    rep = Graph(representation.adjacency[np.ix_(kept, kept)], representation.allows_self_loops)
    return sim, rep, kept


def build_working_graphs(source, rep_layers: tuple[int, int], sim_layers: tuple[int, int],
                         knn_k: int, index_base: int = 0, drop_isolated: bool = True,
                         names=None) -> tuple[Graph, Graph, np.ndarray]:
    """Reduce a multiplex edge list to the similarity and representation graphs.

    Parses ``source``, applies the nearest-neighbor reduction to every layer,
    aggregates each inclusive layer-id range by union (the representation
    range with its diagonal forced to ones) and, with ``drop_isolated``,
    removes the nodes isolated in either graph.

    Returns:
        (similarity, representation, kept), where ``kept`` maps the new node
        indices to the original ones.
    """
    net = parse_multiplex(source, index_base=index_base, names=names)

    def aggregate(layer_ids: tuple[int, int], force_diagonal: bool) -> Graph:
        positions = layer_positions_for_id_range(net, *layer_ids)
        parts = [knn_layer_graph(net, t, knn_k) for t in positions]
        return aggregate_layers(parts, force_diagonal=force_diagonal)

    rep = aggregate(rep_layers, True)
    sim = aggregate(sim_layers, False)
    if drop_isolated:
        return drop_isolated_nodes(sim, rep)
    return sim, rep, np.arange(sim.n)
