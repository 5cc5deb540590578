"""Seeded synthetic multiplex network shaped like the FAO trade network.

The FAO network has one weighted directed layer per traded product, heavy-
tailed weights, and country groups that trade mostly among themselves. The
generator plants two partitions over the nodes: representation layers (the
lower id range) connect nodes of the same group, similarity layers (the upper
id range) connect nodes of the same community. A few nodes have no
similarity edges at all, so the program's isolated-node reduction has work.
Weights are exponential. The output is the ``layer_id src dst weight`` text
format that ``repsc.parse_multiplex`` reads, with 0-based node indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class MultiplexShape:
    nodes: int = 600
    rep_layers: int = 30
    sim_layers: int = 30
    out_edges: int = 8
    communities: int = 5
    groups: int = 10
    p_within: float = 0.8
    isolated: int = 12

    @property
    def rep_range(self) -> str:
        return f"1..{self.rep_layers}"

    @property
    def sim_range(self) -> str:
        return f"{self.rep_layers + 1}..{self.rep_layers + self.sim_layers}"


def _pick_targets(rng, sources, labels, active, p_within):
    """One target per source: a same-label active node with probability
    ``p_within``, otherwise any active node."""
    order = active[np.argsort(labels[active], kind="stable")]
    counts = np.bincount(labels[active], minlength=labels.max() + 1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    own = labels[sources]
    within = order[starts[own] + (rng.random(sources.size) * counts[own]).astype(np.int64)]
    anywhere = active[rng.integers(active.size, size=sources.size)]
    return np.where(rng.random(sources.size) < p_within, within, anywhere)


def generate(seed: int, shape: MultiplexShape = MultiplexShape()) -> tuple[str, np.ndarray]:
    """Return the file text and the planted community of every node."""
    rng = np.random.default_rng([seed, 20210508])
    n = shape.nodes
    communities = rng.permutation(np.arange(n) % shape.communities)
    groups = rng.permutation(np.arange(n) % shape.groups)
    everyone = np.arange(n)
    connected = np.sort(rng.permutation(n)[shape.isolated:])
    lines = ["# layer_id src dst weight (synthetic, seed %d)" % seed]
    for layer_id in range(1, shape.rep_layers + shape.sim_layers + 1):
        is_rep = layer_id <= shape.rep_layers
        labels = groups if is_rep else communities
        active = everyone if is_rep else connected
        sources = np.repeat(active, shape.out_edges)
        targets = _pick_targets(rng, sources, labels, active, shape.p_within)
        weights = rng.exponential(1.0, size=sources.size)
        keep = sources != targets
        lines.extend(
            f"{layer_id} {s} {t} {w:.4f}"
            for s, t, w in zip(sources[keep].tolist(), targets[keep].tolist(),
                               weights[keep].tolist())
        )
    return "\n".join(lines) + "\n", communities


def write(path: Path, seed: int, shape: MultiplexShape = MultiplexShape()) -> int:
    """Write the network for ``seed`` to ``path`` unless an identical one is
    there already; return its number of edge lines."""
    text, _ = generate(seed, shape)
    edge_lines = text.count("\n") - 1
    if path.is_file() and path.read_text() == text:
        return edge_lines
    partial = path.with_name(path.name + f".{os.getpid()}.part")
    partial.write_text(text)
    partial.replace(path)
    return edge_lines
