"""Partition quality and agreement metrics.

Both cuts come from one product of the adjacency with the cluster
indicators (``_cuts``), and each keeps its own check: it is computed
combinatorially from edge weights and again as a Laplacian trace through its
scaled indicator matrix (H for the ratio cut, T for the normalized cut). The
trace is formed from node-by-k products (``_trace_form``), so scoring holds
no node-by-node array. The two routes must agree to near machine precision;
a disagreement means a bug, so it raises instead of silently returning
either value.

Accuracy and the mistake fraction count the nodes kept under the best
relabeling of the predicted clusters: a maximum-weight matching on the K×K
confusion matrix, found exactly by ``_max_weight_matching`` in integer
arithmetic, so the module needs nothing from scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import (_balance, _representative_counts, _residual, build_indicator_h,
                         build_indicator_t)
from .errors import SizeMismatchError, ZeroVolumeClusterError
from .graphs import (ClusterAssignment, Graph, _adjacency_product, _degrees, _laplacian_product,
                     as_adjacency)
from .linalg import matmul

DUAL_FORM_TOL = 1e-9


def _check_dual(name: str, combinatorial: float, trace_form: float) -> float:
    if abs(combinatorial - trace_form) > DUAL_FORM_TOL * (1.0 + abs(combinatorial)):
        raise AssertionError(
            f"{name}: combinatorial value {combinatorial!r} and trace value "
            f"{trace_form!r} disagree; this is a bug"
        )
    return combinatorial


def _trace_form(a: np.ndarray, degrees: np.ndarray, x: np.ndarray) -> float:
    """trace(X^T L X) for L = D - A, from the N-by-k product L X."""
    return float(np.einsum("ik,ik->", x, _laplacian_product(a, degrees, x)))


def _cuts(graph, assignment: ClusterAssignment) -> tuple[float, float | None]:
    """Ratio cut and normalized cut (None when a cluster has zero volume).

    Each is checked against its own trace form, trace(H^T L H) and
    trace(T^T L T).
    """
    a = as_adjacency(graph)
    if a.shape[0] != assignment.n:
        raise SizeMismatchError(f"graph has {a.shape[0]} nodes, assignment has {assignment.n}")
    h = build_indicator_h(assignment)
    onehot = assignment.onehot()
    degrees = _degrees(a)
    volumes = matmul(degrees, onehot)
    # Weight leaving each cluster: its volume minus its internal weight.
    leaving = volumes - np.einsum("ik,ik->k", onehot, _adjacency_product(a, onehot))
    rcut = _check_dual("ratio_cut", float(np.sum(leaving / assignment.sizes)),
                       _trace_form(a, degrees, h))
    if np.any(volumes <= 0.0):
        return rcut, None
    t = build_indicator_t(assignment, degrees)
    ncut = _check_dual("normalized_cut", float(np.sum(leaving / volumes)),
                       _trace_form(a, degrees, t))
    return rcut, ncut


def ratio_cut(graph, assignment: ClusterAssignment) -> float:
    """Sum over clusters of (weight leaving the cluster) / (cluster size).

    Raises EmptyClusterError when a cluster has no node. The value is
    checked against trace(H^T L H) with the size-scaled indicator H.
    """
    return _cuts(graph, assignment)[0]


def normalized_cut(graph, assignment: ClusterAssignment) -> float:
    """Sum over clusters of (weight leaving the cluster) / (cluster volume).

    Raises EmptyClusterError when a cluster has no node and
    ZeroVolumeClusterError when a cluster has no edge weight at all. The
    value is checked against trace(T^T L T) with the volume-scaled
    indicator T.
    """
    ncut = _cuts(graph, assignment)[1]
    if ncut is None:
        raise ZeroVolumeClusterError("a cluster has zero volume; the normalized cut is undefined")
    return ncut


def _max_weight_matching(weights: np.ndarray) -> int:
    """Largest total weight of a perfect matching in a square integer matrix.

    The shortest-augmenting-path Hungarian method (Jonker and Volgenant,
    Computing 38, 1987) on the costs -weights, O(K^3) for K rows. Each phase
    adds one row; each step of a phase scans every column at once, then moves
    the potentials by the smallest reduced cost. Potentials stay int64, so
    the optimum is exact. Column 0 of the padded arrays is a virtual column
    that holds the row being added; ``row_of[j] == 0`` means column j is free.
    """
    k = weights.shape[0]
    cost = np.zeros((k + 1, k + 1), dtype=np.int64)
    cost[1:, 1:] = -weights
    u = np.zeros(k + 1, dtype=np.int64)
    v = np.zeros(k + 1, dtype=np.int64)
    row_of = np.zeros(k + 1, dtype=np.intp)
    way = np.zeros(k + 1, dtype=np.intp)
    for i in range(1, k + 1):
        row_of[0] = i
        col = 0
        slack = np.full(k + 1, np.iinfo(np.int64).max)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v
            better = ~used & (reduced < slack)
            slack[better] = reduced[better]
            way[better] = col
            free = np.flatnonzero(~used)
            col = free[np.argmin(slack[free])]
            delta = slack[col]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[free] -= delta
        # Flip the alternating path back to the virtual column.
        while col != 0:
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    return int(weights[row_of[1:] - 1, np.arange(k)].sum())


def _agreement(truth: ClusterAssignment, predicted: ClusterAssignment) -> tuple[float, float]:
    """(mistake_fraction, accuracy_nodes), both from one best relabeling."""
    if truth.n != predicted.n:
        raise SizeMismatchError(f"assignments cover {truth.n} and {predicted.n} nodes")
    if truth.k != predicted.k:
        raise SizeMismatchError(
            f"assignments use {truth.k} and {predicted.k} clusters; relabeling "
            "across different cluster counts is not defined here"
        )
    confusion = np.zeros((truth.k, truth.k), dtype=np.int64)
    np.add.at(confusion, (truth.labels, predicted.labels), 1)
    matched = _max_weight_matching(confusion)
    return 2.0 * (truth.n - matched) / truth.n, matched / truth.n


def mistake_fraction(truth: ClusterAssignment, predicted: ClusterAssignment) -> float:
    """Minimum over cluster relabelings of the indicator-matrix mismatch.

    Counts differing entries between the two n-by-k membership matrices
    after the best permutation of predicted labels, divided by n. A node in
    the wrong cluster flips two entries, so the value lies in [0, 2]. The
    best permutation is found by maximum-weight matching on the confusion
    matrix, which minimizes the mismatch exactly.
    """
    return _agreement(truth, predicted)[0]


def accuracy_nodes(truth: ClusterAssignment, predicted: ClusterAssignment) -> float:
    """Fraction of nodes placed correctly under the best cluster relabeling."""
    return _agreement(truth, predicted)[1]


@dataclass(frozen=True)
class PartitionScore:
    """Bundle of quality and fairness numbers for one partition.

    ``ncut`` is None when some cluster has zero volume; ``balance_over_rcut``
    is None when the ratio cut is zero (nothing to divide by);
    ``mistake_fraction`` and ``accuracy`` are None when no reference
    partition was supplied.
    """

    rcut: float
    ncut: float | None
    mistake_fraction: float | None
    accuracy: float | None
    avg_balance: float
    min_balance: float
    max_representation_residual: float
    balance_over_rcut: float | None


def score_partition(graph, rep_graph: Graph, predicted: ClusterAssignment,
                    truth: ClusterAssignment | None = None) -> PartitionScore:
    """Evaluate a partition against a similarity graph and representation
    graph. The representative counts R onehot, which ``node_balance`` and
    ``representation_residual`` each compute, are computed once."""
    rcut, ncut = _cuts(graph, predicted)
    counts = _representative_counts(rep_graph, predicted)
    balance = _balance(counts)
    max_residual = float(np.abs(_residual(rep_graph, predicted, counts)).max())
    mistakes, accuracy = _agreement(truth, predicted) if truth is not None else (None, None)
    return PartitionScore(
        rcut=rcut,
        ncut=ncut,
        mistake_fraction=mistakes,
        accuracy=accuracy,
        avg_balance=balance.average_balance,
        min_balance=balance.min_balance,
        max_representation_residual=max_residual,
        balance_over_rcut=balance.average_balance / rcut if rcut > 0.0 else None,
    )
