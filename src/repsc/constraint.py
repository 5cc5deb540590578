"""Representation constraint: balance scores, residuals, indicator matrices.

A representation graph R says who is entitled to speak for whom: the
representatives of node i are its R-neighbors (including i itself when the
diagonal is set). A partition treats node i fairly when i's representatives
are split across clusters in proportion to cluster sizes, so that no cluster
over- or under-represents i's view. The functions here quantify how far a
partition is from that ideal and build the scaled indicator matrices that
connect cuts to traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyClusterError, SizeMismatchError, ZeroVolumeClusterError
from .graphs import ClusterAssignment, Graph, _adjacency_product, as_adjacency
from .linalg import as_float_matrix, matmul


@dataclass(frozen=True)
class BalanceReport:
    """Per-node representation balance and its aggregates.

    Balance of node i is the smallest ratio between representative counts of
    any two clusters, so 1 means i's representatives are split evenly and 0
    means some cluster holds representatives of i while another holds none.
    Nodes without any representative are assigned balance 1 (nothing to
    skew). A positive count against a zero count yields balance 0.
    """

    per_node_balance: np.ndarray
    average_balance: float
    min_balance: float


def _representative_counts(rep_graph: Graph, assignment: ClusterAssignment) -> np.ndarray:
    if rep_graph.n != assignment.n:
        raise SizeMismatchError(
            f"representation graph has {rep_graph.n} nodes, assignment has {assignment.n}"
        )
    return _adjacency_product(rep_graph.adjacency, assignment.onehot())


def node_balance(rep_graph: Graph, assignment: ClusterAssignment) -> BalanceReport:
    """Balance of every node's representatives across the clusters."""
    return _balance(_representative_counts(rep_graph, assignment))


def _balance(counts: np.ndarray) -> BalanceReport:
    """``node_balance`` from the representative counts R onehot."""
    smallest = counts.min(axis=1)
    largest = counts.max(axis=1)
    balance = np.divide(smallest, largest, out=np.ones_like(smallest), where=largest > 0.0)
    return BalanceReport(
        per_node_balance=balance,
        average_balance=float(balance.mean()),
        min_balance=float(balance.min()),
    )


def representation_residual(rep_graph: Graph, assignment: ClusterAssignment) -> np.ndarray:
    """How far each (node, cluster) pair is from proportional representation.

    Entry (i, k) is the share of cluster k made up of i's representatives
    minus the share of the whole graph made up of i's representatives. All
    zeros means every cluster looks, from i's point of view, like a scaled
    copy of the population.
    """
    return _residual(rep_graph, assignment, _representative_counts(rep_graph, assignment))


def _residual(rep_graph: Graph, assignment: ClusterAssignment, counts: np.ndarray) -> np.ndarray:
    """``representation_residual`` from the representative counts R onehot."""
    sizes = assignment.sizes.astype(np.float64)
    if np.any(sizes == 0):
        raise EmptyClusterError("assignment contains an empty cluster")
    rep_degree = rep_graph.degrees
    return counts / sizes[None, :] - (rep_degree / assignment.n)[:, None]


def linear_constraint_norm(embedding, rep_graph_or_matrix) -> float:
    """Frobenius norm of R (I - 11^T/N) H for an embedding H.

    Vanishing of this quantity is the linear sufficient condition for the
    proportional-representation property: any partition whose scaled
    indicator matrix lies in the null space of the centered representation
    matrix has zero representation residual. The converse is not guaranteed
    and is deliberately not assumed anywhere in this package.
    """
    h = as_float_matrix(embedding, "embedding")
    r = as_adjacency(rep_graph_or_matrix)
    if r.shape[0] != h.shape[0]:
        raise SizeMismatchError(
            f"embedding has {h.shape[0]} rows, representation matrix has {r.shape[0]}"
        )
    centered = h - h.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(_adjacency_product(r, centered)))


def build_indicator_h(assignment: ClusterAssignment) -> np.ndarray:
    """Size-scaled cluster indicator: column k is 1/sqrt(|C_k|) on C_k.

    Satisfies H^T H = I, and trace(H^T L H) equals the ratio cut.
    """
    sizes = assignment.sizes.astype(np.float64)
    if np.any(sizes == 0):
        raise EmptyClusterError("assignment contains an empty cluster")
    return assignment.onehot() / np.sqrt(sizes)[None, :]


def build_indicator_t(assignment: ClusterAssignment, degrees) -> np.ndarray:
    """Volume-scaled cluster indicator: column k is 1/sqrt(vol(C_k)) on C_k.

    Satisfies T^T D T = I for D = diag(degrees), and trace(T^T L T) equals
    the normalized cut.
    """
    deg = np.asarray(degrees, dtype=np.float64)
    if deg.ndim != 1 or deg.shape[0] != assignment.n:
        raise SizeMismatchError(
            f"degrees must be a vector of length {assignment.n}, got shape {deg.shape}"
        )
    onehot = assignment.onehot()
    volumes = matmul(deg, onehot)
    if np.any(volumes <= 0.0):
        raise ZeroVolumeClusterError(
            f"cluster volumes must be positive, got {volumes.tolist()}"
        )
    return onehot / np.sqrt(volumes)[None, :]
