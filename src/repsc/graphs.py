"""Graph types, random graph models, and plain-text serialization.

The package works with undirected 0/1 graphs stored dense, one bool per
entry: a ``Graph``'s adjacency A is never held as float64. Float arithmetic
with A goes through ``_float_rows``, which converts one row strip at a
time, so its degrees (``_degrees``), its products with columns
(``_adjacency_product``, ``_laplacian_product``) and its Laplacian's rows
(``_laplacian``) hold strip-sized float temporaries, not a float copy of A.
A raw float matrix, such as an expected adjacency, is read as it is.

Two generative models are provided: a deterministic builder for regular
representation graphs in which every node has the same number of
representatives in every cluster, and the four-probability
planted-partition sampler that couples edge probabilities to both cluster
co-membership and representation co-membership ("same cluster &
represented", "different cluster & represented", and the two
non-represented cases).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DegreeRangeError,
    DivisibilityError,
    IndexOutOfRangeError,
    MalformedLineError,
    SizeMismatchError,
)
from .linalg import as_float_matrix, ensure_symmetric, matmul, row_blocks

# An integer field of the text formats: ASCII decimal digits with an optional
# sign. int() alone would also take '1_0', padding and other scripts' digits.
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
# A real field: the tokens numpy's reader converts, which are ASCII decimal
# integers and the decimal, inf and nan spellings of Python's float() without
# underscores. float() alone would also take '0_5' and other scripts' digits.
_FLOAT_FIELD = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))"
)


def _parse_int(text: str) -> int:
    """``text`` as an ``_INT_FIELD`` integer; ValueError for anything else."""
    if not _INT_FIELD.fullmatch(text):
        raise ValueError(f"expected an ASCII decimal integer, got {text!r}")
    return int(text)


def _parse_float(text: str) -> float:
    """``text`` as a ``_FLOAT_FIELD`` number; ValueError for anything else."""
    if not _FLOAT_FIELD.fullmatch(text):
        raise ValueError(f"expected an ASCII decimal number, got {text!r}")
    return float(text)


def _exactly_symmetric(a: np.ndarray) -> bool:
    """Whether square ``a`` equals its transpose, compared row strip against
    column strip, so only strip-sized masks are made."""
    return all(np.array_equal(a[rows], a[:, rows].T) for rows in row_blocks(a.shape[0]))


def _check_k(k) -> None:
    """Raise ValueError unless the cluster count ``k`` is a positive Python
    or numpy integer; a bool or a float, even a whole one, is not one."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with a dense 0/1 adjacency matrix, stored as a
    read-only bool array (one byte per entry).

    ``allows_self_loops`` distinguishes representation graphs (where the
    diagonal is meaningful and usually all ones) from similarity graphs
    (diagonal forced to zero). ``Graph(a)`` keeps a bool ``a`` itself,
    without a copy, and makes it read-only: pass ``a.copy()`` to keep a
    writable array. Any other ``a`` (float or integer entries 0 and 1) is
    checked and stored as a bool copy, and is neither modified nor made
    read-only. For float arithmetic on the entries use
    ``g.adjacency.astype(float)``. A Graph never changes, so the clustering
    code keeps what it solves on a Graph, R's solves included, in
    ``_memo``. Graphs compare and hash by identity, so a Graph can key such
    a memo.
    """

    adjacency: np.ndarray
    allows_self_loops: bool = False

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.dtype != bool:
            a = as_float_matrix(a, "adjacency")
        elif a.ndim != 2:
            raise ValueError(f"adjacency must be 2-dimensional, got shape {a.shape}")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got {a.shape}")
        if not _exactly_symmetric(a):
            raise ValueError("adjacency must be exactly symmetric")
        if a.dtype != bool:
            # The two masks are disjoint; counting each in turn holds one of them.
            if np.count_nonzero(a == 0.0) + np.count_nonzero(a == 1.0) != a.size:
                raise ValueError("adjacency entries must be 0 or 1")
            a = a != 0.0
        if not self.allows_self_loops and np.any(np.diag(a)):
            raise ValueError("self-loops present but allows_self_loops is False")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Row sums as float64 counts; a self-loop counts once."""
        return _degrees(self.adjacency)

    @cached_property
    def _memo(self) -> dict:
        """Deterministic results computed on this graph, for as long as it
        lives. ``clustering._solve`` keeps each solution's k-means points,
        spectrum and warnings here, keyed by what built the problem,
        ``fair_sc_baseline`` keeps each group discovery on its R, and
        ``clustering._rep_spectrum`` keeps R's null threshold ("null_tol")
        and, for each rank and for the exact constraint (rank None), one
        select solve (("picked", rank): the node-by-w eigenvectors of the
        narrower side, w at most about N/2, and whether they are the null
        side; for the exact constraint usually the null block, the
        eigenvectors with |lambda| near zero, w far below N). No entry is
        node-by-node, and
        every kept array owns exactly its own bytes, never a slice of a
        larger buffer such as LAPACK's eigenvector output."""
        return {}


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of n nodes into k clusters, labels in [0, k).

    Clusters may be empty (a constant prediction against a K=2 reference is
    a legitimate thing to score); operations that cannot tolerate an empty
    cluster raise EmptyCluster/ZeroVolumeCluster errors themselves.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        raw = np.asarray(self.labels)
        if raw.ndim != 1 or raw.size == 0 or raw.dtype.kind not in "biuf":
            raise ValueError("labels must be a non-empty 1-d integer array")
        _check_k(self.k)
        if raw.dtype.kind == "f":
            fractional = raw[raw != np.trunc(raw)]
            if fractional.size:
                raise ValueError(f"labels must be exact integers, got {fractional[0]!r}")
        if raw.min() < 0 or raw.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", raw.astype(np.int64))

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def onehot(self) -> np.ndarray:
        """n-by-k 0/1 membership matrix."""
        out = np.zeros((self.n, self.k))
        out[np.arange(self.n), self.labels] = 1.0
        return out


def contiguous_assignment(n: int, k: int) -> ClusterAssignment:
    """Equal-size clusters of consecutive node indices; requires an integer
    k >= 1 that divides n."""
    _check_k(k)
    if n % k != 0:
        raise DivisibilityError(f"cluster count {k} must divide node count {n}")
    return ClusterAssignment(np.repeat(np.arange(k), n // k), k)


def check_probabilities(ordered: bool = False, **values: float) -> None:
    """Raise ValueError unless every value lies in [0, 1] (NaN never does).

    With ``ordered`` the values must also be non-increasing in the order
    given, as in the planted-partition model's 1 >= p >= q >= r >= s >= 0.
    """
    probs = list(values.values())
    pairs = zip(probs, probs[1:]) if ordered else ()
    if not (all(1.0 >= prob >= 0.0 for prob in probs) and all(hi >= lo for hi, lo in pairs)):
        rule = " >= ".join(["1", *values, "0"]) if ordered else f"{', '.join(values)} in [0, 1]"
        got = " ".join(f"{name}={value}" for name, value in values.items())
        raise ValueError(f"need {rule}, got {got}")


@dataclass(frozen=True)
class RppParams:
    """Parameters of the representation-aware planted-partition model.

    ``assignment`` is the ground-truth partition, ``rep_graph`` the
    representation graph R. Edge probabilities must satisfy
    1 >= p >= q >= r >= s >= 0: p applies to same-cluster represented pairs,
    q to cross-cluster represented pairs, r to same-cluster non-represented
    pairs and s to the remaining pairs.
    """

    assignment: ClusterAssignment
    rep_graph: Graph
    p: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        if self.rep_graph.n != self.assignment.n:
            raise SizeMismatchError(
                f"representation graph has {self.rep_graph.n} nodes, "
                f"assignment has {self.assignment.n}"
            )
        check_probabilities(ordered=True, p=self.p, q=self.q, r=self.r, s=self.s)

    @property
    def n(self) -> int:
        return self.assignment.n

    @property
    def k(self) -> int:
        return self.assignment.k


def build_d_regular_rep_graph(n: int, k: int, d: int) -> tuple[Graph, ClusterAssignment]:
    """Deterministic regular representation graph plus its ground truth.

    Returns (graph, assignment) where the assignment is the contiguous
    equal-size split of n nodes into k clusters and the graph satisfies,
    for that assignment: every diagonal entry is 1, every row sums to d,
    and every node has exactly d/k neighbors in every cluster (its
    self-loop counts toward its own cluster).

    Construction is circulant within each cluster-pair block: node i of a
    cluster connects to a fixed window of positions in the other cluster,
    and blocks below the diagonal are transposes of their mirror block, so
    regularity is exact.

    Raises:
        DivisibilityError: k does not divide n or d, or the within-cluster
            block is infeasible by parity (d/k even with odd cluster size
            forces an odd total degree on an odd number of nodes).
        DegreeRangeError: d outside [k, n] or d/k exceeding the cluster size.
        ValueError: k is not a positive integer.
    """
    _check_k(k)
    if not (k <= d <= n):
        raise DegreeRangeError(f"degree d={d} must satisfy k <= d <= n (k={k}, n={n})")
    if n % k != 0:
        raise DivisibilityError(f"k={k} must divide n={n}")
    if d % k != 0:
        raise DivisibilityError(f"k={k} must divide d={d}")
    m = n // k  # cluster size
    c = d // k  # neighbors per cluster, including the self-loop
    if c > m:
        raise DegreeRangeError(f"d/k={c} exceeds cluster size n/k={m}")
    if c % 2 == 0 and m % 2 != 0:
        raise DivisibilityError(
            f"no symmetric within-cluster block exists for even d/k={c} and odd "
            f"cluster size n/k={m} (handshake parity)"
        )

    # Within-cluster block: symmetric circulant containing offset 0 (the
    # self-loop). Odd c uses offsets {0, +-1, ..., +-(c-1)/2}; even c swaps
    # one paired offset for the self-paired offset m/2.
    if c % 2 == 1:
        offsets = [0] + [o for j in range(1, (c - 1) // 2 + 1) for o in (j, m - j)]
    else:
        offsets = [0] + [o for j in range(1, (c - 2) // 2 + 1) for o in (j, m - j)]
        offsets.append(m // 2)
    within = np.zeros((m, m), dtype=bool)
    idx = np.arange(m)
    for o in offsets:
        within[idx, (idx + o) % m] = True

    # Cross-cluster block for an ordered pair (a, b) with a < b: node i picks
    # the window i..i+c-1 (mod m) in cluster b; the (b, a) block is the
    # transpose, which preserves the per-node count because the block is
    # circulant.
    cross = np.zeros((m, m), dtype=bool)
    for o in range(c):
        cross[idx, (idx + o) % m] = True

    adjacency = np.empty((n, n), dtype=bool)
    for a in range(k):
        for b in range(k):
            block = within if a == b else (cross if a < b else cross.T)
            adjacency[a * m:(a + 1) * m, b * m:(b + 1) * m] = block
    return Graph(adjacency, allows_self_loops=True), contiguous_assignment(n, k)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of checking the regular-representation assumption.

    ``degree`` is the modal row sum (the d the graph is closest to
    satisfying) and ``neighbors_per_cluster`` its per-cluster share when that
    is an integer. ``violating_nodes`` lists each offending node once.
    """

    ok: bool
    degree: int | None
    neighbors_per_cluster: int | None
    diagonal_ok: bool
    regular_ok: bool
    per_cluster_ok: bool
    violations: list[str] = field(default_factory=list)
    violating_nodes: list[int] = field(default_factory=list)


def validate_regular_representation(rep_graph: Graph, assignment: ClusterAssignment) -> RegularityReport:
    """Check full diagonal, d-regularity, and equal per-cluster representation.

    Never raises on a bad graph; every deviation is reported with the nodes
    involved so callers can see exactly what breaks.
    """
    if rep_graph.n != assignment.n:
        raise SizeMismatchError(
            f"graph has {rep_graph.n} nodes, assignment has {assignment.n}"
        )
    a = rep_graph.adjacency
    k = assignment.k
    violations: list[str] = []
    bad_nodes: set[int] = set()

    diag_bad = np.flatnonzero(~np.diag(a))
    for i in diag_bad:
        violations.append(f"node {i}: diagonal entry is {int(a[i, i])}, expected 1")
        bad_nodes.add(int(i))
    diagonal_ok = diag_bad.size == 0

    row_sums = _degrees(a).astype(np.int64)
    values, counts = np.unique(row_sums, return_counts=True)
    degree = int(values[np.argmax(counts)])
    deg_bad = np.flatnonzero(row_sums != degree)
    for i in deg_bad:
        violations.append(f"node {i}: degree {row_sums[i]} differs from modal degree {degree}")
        bad_nodes.add(int(i))
    regular_ok = deg_bad.size == 0

    per_cluster_ok = True
    neighbors_per_cluster = None
    if degree % k != 0:
        violations.append(f"modal degree {degree} is not divisible by cluster count {k}")
        per_cluster_ok = False
    else:
        neighbors_per_cluster = degree // k
        counts_nk = _adjacency_product(a, assignment.onehot())
        bad_pairs = np.argwhere(counts_nk != neighbors_per_cluster)
        for i, cluster in bad_pairs:
            violations.append(
                f"node {i}: {counts_nk[i, cluster]:g} representatives in cluster "
                f"{cluster}, expected {neighbors_per_cluster}"
            )
            bad_nodes.add(int(i))
        per_cluster_ok = bad_pairs.size == 0

    ok = diagonal_ok and regular_ok and per_cluster_ok
    return RegularityReport(
        ok=ok,
        degree=degree,
        neighbors_per_cluster=neighbors_per_cluster,
        diagonal_ok=diagonal_ok,
        regular_ok=regular_ok,
        per_cluster_ok=per_cluster_ok,
        violations=violations,
        violating_nodes=sorted(bad_nodes),
    )


def _case_probabilities(params: RppParams, rows: slice = slice(None)) -> np.ndarray:
    """Edge probabilities of the node pairs in ``rows`` (all rows by
    default; the diagonal is included and the caller discards it).

    The model's formula is evaluated once per case, into a 2x2 table indexed
    by (represented, same cluster), and every pair looks its case up, so each
    entry has the bits the formula gives entry by entry. Only the rows asked
    for are indexed: a row strip holds a strip-sized case index.
    """
    rep = np.array([[0.0, 0.0], [1.0, 1.0]])
    same = np.array([[0.0, 1.0], [0.0, 1.0]])
    table = rep * (params.q + (params.p - params.q) * same) + (1.0 - rep) * (
        params.s + (params.r - params.s) * same
    )
    labels = params.assignment.labels
    case = params.rep_graph.adjacency[rows].astype(np.uint8)
    case <<= 1
    case |= labels[rows, None] == labels[None, :]
    return table.ravel().take(case)


def _symmetric_draw(n: int, probabilities, seed) -> np.ndarray:
    """Symmetric bool matrix with a False diagonal: pair i < j is an edge
    when u[i, j] < prob[i, j], for one seeded n x n uniform matrix u.

    ``probabilities(rows)`` returns prob's rows. u is drawn in the row strips
    of ``row_blocks``, which read the generator exactly as one (n, n) draw
    does, and each strip is compared straight into the result; its lower
    part then takes the mirror of the finished strips above it. Only the
    result (one byte per entry) and strip-sized temporaries are held.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, n), dtype=bool)
    for rows in row_blocks(n):
        strip = out[rows]
        np.less(rng.random(strip.shape), probabilities(rows), out=strip)
        strip[:, :rows.start] = out[:rows.start, rows].T
        corner = np.triu(strip[:, rows], 1)
        np.logical_or(corner, corner.T, out=strip[:, rows])
    return out


def sample_rpp(params: RppParams, seed) -> Graph:
    """Draw a similarity graph from the representation-aware planted partition.

    Each unordered pair i < j is an independent Bernoulli draw with the case
    probability for that pair; there are no self-loops. The uniforms of one
    seeded n x n matrix are read in row strips and only the upper triangle is
    consumed, so the sample is a bit-reproducible function of (params, seed).
    """
    return Graph(_symmetric_draw(params.n, lambda rows: _case_probabilities(params, rows), seed),
                 allows_self_loops=False)


def sample_planted_partition_rep_graph(
    n: int, groups: int, p_in: float, p_out: float, seed
) -> tuple[Graph, ClusterAssignment]:
    """Planted-partition representation graph over equal contiguous groups.

    Pairs inside a group connect with probability p_in, pairs across groups
    with p_out, and the diagonal is forced to 1 so every node represents
    itself. Returns the graph and the group assignment used.
    """
    check_probabilities(p_in=p_in, p_out=p_out)
    membership = contiguous_assignment(n, groups)
    labels = membership.labels
    adjacency = _symmetric_draw(
        n, lambda rows: np.where(labels[rows, None] == labels[None, :], p_in, p_out), seed)
    np.fill_diagonal(adjacency, True)
    return Graph(adjacency, allows_self_loops=True), membership


def expected_adjacency(params: RppParams) -> np.ndarray:
    """Expected similarity matrix of the model, with the diagonal zeroed.

    Off the diagonal this equals the per-pair edge probability. The diagonal
    convention matches the analysis: the raw expectation matrix carries p on
    the diagonal and this function returns it shifted by -p * I, which has
    the same eigenvectors with eigenvalues shifted by p. For a regular
    representation graph the row sums are constant. The matrix is filled row
    strip by row strip, so it is the one N-by-N array made.
    """
    n = params.n
    atilde = np.empty((n, n))
    for rows in row_blocks(n):
        atilde[rows] = _case_probabilities(params, rows)
    np.fill_diagonal(atilde, 0.0)
    return atilde


def _float_rows(a: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of the adjacency ``a`` as float64: a bool (``Graph``)
    strip converted into a fresh array, a float matrix's rows as they are
    (a view). This is the one place that makes a float64 view of an
    adjacency; its callers read a bool A strip by strip, so no whole float
    copy of it is made."""
    strip = a[rows]
    return strip.astype(np.float64) if strip.dtype == bool else strip


def _degrees(a: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency (or row strip) ``a`` as float64: exact
    counts for a bool A, summed in float64 so no small integer type can
    wrap, and the float row sums of a float matrix."""
    return a.sum(axis=1, dtype=np.float64)


def _adjacency_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A X for node-by-k columns X. A bool A is multiplied one row strip of
    ``_float_rows`` at a time, into one node-by-k result; a float matrix
    takes one ``matmul``. On 0/1 columns, such as cluster indicators, every
    entry is an exact integer either way."""
    if a.dtype != bool:
        return matmul(a, x)
    out = np.empty((a.shape[0], x.shape[1]))
    for rows in row_blocks(a.shape[0]):
        matmul(_float_rows(a, rows), x, out=out[rows])
    return out


def _laplacian(a: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, L = diag(degrees) - A) of the row strip ``a`` of a dense
    adjacency A whose first row is row ``start`` (all of A by default), for
    a dense eigensolve; products with L are ``_laplacian_product``'s.

    The degrees are ``a``'s row sums (``_degrees``). L is 0 - A with the
    degrees added on the diagonal, which has the bits of diag(degrees) - A;
    a bool strip's float conversion is fresh, so it is negated in place.
    """
    degrees = _degrees(a)
    strip = _float_rows(a)
    laplacian = np.subtract(0.0, strip, out=strip if a.dtype == bool else None)
    diagonal = np.arange(a.shape[0])
    laplacian[diagonal, diagonal + start] += degrees
    return degrees, laplacian


def _laplacian_product(a: np.ndarray, degrees: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L X = D X - A X for L = diag(degrees) - A and node-by-k columns X,
    from one node-by-k product with A (``_adjacency_product``, overwritten
    by the result)."""
    product = _adjacency_product(a, x)
    return np.subtract(degrees[:, None] * x, product, out=product)


def as_adjacency(graph_or_matrix) -> np.ndarray:
    """Accept a Graph or any symmetric real matrix and return the dense
    array: a Graph's bool adjacency, or the matrix's symmetrized float64
    copy.

    Real-valued matrices are allowed wherever a graph is expected so that
    expected-case (population) inputs flow through the same code paths.
    """
    if isinstance(graph_or_matrix, Graph):
        return graph_or_matrix.adjacency
    return ensure_symmetric(graph_or_matrix, "adjacency")


def write_graph(graph: Graph, path) -> None:
    """Write the documented edge-list format: ``n=<N> diag=<0|1>`` header,
    then one ``i j`` line (0-based, i <= j) per stored edge."""
    lines = [f"n={graph.n} diag={1 if graph.allows_self_loops else 0}"]
    rows, cols = np.nonzero(np.triu(graph.adjacency))
    lines.extend(f"{i} {j}" for i, j in zip(rows, cols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path) -> Graph:
    """Parse the edge-list format written by write_graph; its numbers are
    ASCII decimal integers, as in the assignment and multiplex grammars, and
    its header is exactly the two fields ``n=<N> diag=<0|1>``."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise MalformedLineError(1, "empty graph file")
    try:
        (n_key, _, n_text), (diag_key, _, diag_text) = (
            field.partition("=") for field in lines[0].split())
        n, diag = _parse_int(n_text), _parse_int(diag_text)
        if (n_key, diag_key) != ("n", "diag") or diag not in (0, 1) or n < 0:
            raise ValueError
    except ValueError:
        raise MalformedLineError(1, f"expected header 'n=<N> diag=<0|1>', got {lines[0]!r}")
    adjacency = np.zeros((n, n), dtype=bool)
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise MalformedLineError(lineno, f"expected 'i j', got {line!r}")
        try:
            i, j = _parse_int(parts[0]), _parse_int(parts[1])
        except ValueError:
            raise MalformedLineError(lineno, f"non-integer endpoint in {line!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"line {lineno}: endpoint out of [0, {n})")
        if i == j and not diag:
            raise MalformedLineError(lineno, f"self-loop {line!r} under diag=0")
        adjacency[i, j] = adjacency[j, i] = True
    return Graph(adjacency, allows_self_loops=bool(diag))


def write_assignment(assignment: ClusterAssignment, path) -> None:
    """A ``# k = K`` line, then one 0-based cluster label per line, node order."""
    lines = [f"# k = {assignment.k}", *(str(x) for x in assignment.labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_assignment(path) -> ClusterAssignment:
    """Parse the assignment format; k comes from a ``# k = K`` line if any.

    Without such a line (files written before it existed) k is the largest
    label plus one; a second one raises MalformedLineError, as does a label
    that is not an integer, is negative, or is not below k, naming its line.
    Other ``#`` lines and blank lines are skipped. Labels and k are ASCII
    decimal integers with an optional sign, as in the multiplex grammar.
    """
    labels, label_lines = [], []
    k = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            key, sep, value = stripped[1:].partition("=")
            if sep and key.strip() == "k":
                if k is not None:
                    raise MalformedLineError(lineno, f"a second k line {line!r}; k is {k}")
                if not _INT_FIELD.fullmatch(value.strip()):
                    raise MalformedLineError(lineno, f"expected an integer k, got {line!r}")
                k = int(value)
            continue
        if not stripped:
            continue
        if not _INT_FIELD.fullmatch(stripped):
            raise MalformedLineError(lineno, f"expected an integer label, got {line!r}")
        labels.append(int(stripped))
        label_lines.append(lineno)
    if not labels:
        raise MalformedLineError(1, "assignment file contains no labels")
    # Without a k line, a label need only fit the int64 label array.
    bound = k if k is not None else 2**63 - 1
    for lineno, label in zip(label_lines, labels):
        if not 0 <= label < bound:
            raise MalformedLineError(lineno, f"label {label} is outside [0, {bound})")
    arr = np.asarray(labels, dtype=np.int64)
    return ClusterAssignment(arr, int(arr.max()) + 1 if k is None else k)
