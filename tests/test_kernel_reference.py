"""The restricted-eigensolver kernel against dense reference formulas.

Every reference here is built inside the test from scipy primitives: the
constraint null space from an SVD of R (I - 11^T/N) (or of the explicitly
rebuilt rank-r truncation of R), and each variant's embedding from the
textbook formula (the D^{-1/2} A D^{-1/2} Laplacian for nsc, Q^{-1}
whitening with Q = (Y^T D Y)^{1/2} for nrepsc). The kernel's two arms, on a
basis Y of the constraint space and on a basis W of its complement, are
also checked against each other.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import repsc
from repsc import clustering
from repsc.clustering import ONES_IN_NULL_ATOL, RANK_REL_TOL, constraint_null_basis
from repsc.linalg import _fix_signs, matmul, null_side_eig, sym_eig
from conftest import group_basis

PROJECTOR_ATOL = 1e-8


def regular_rep(rng, n=24):
    k = int(rng.choice([2, 3]))
    d = int(rng.choice([k * 2, k * 4]))
    rep, _ = repsc.build_d_regular_rep_graph(n, k, d)
    return rep.adjacency.astype(float)


def block_rep(rng, n=24):
    labels = rng.integers(0, int(rng.integers(2, 6)), size=n)
    return (labels[:, None] == labels[None, :]).astype(float)


def irregular_rep(rng, n=24):
    upper = np.triu(rng.random((n, n)) < 0.12, 1)
    adjacency = (upper | upper.T).astype(float)
    adjacency[np.diag_indices(n)] = rng.random(n) < 0.5
    return adjacency


def spiked_rep(rng, n=24):
    # Random eigenvectors with a planted null space, so 1 has a component in
    # null(R) and the basis must drop one null direction.
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = rng.standard_normal(n)
    values[: int(rng.integers(2, 8))] = 0.0
    return (q * values) @ q.T


REP_KINDS = {"regular": regular_rep, "block": block_rep, "irregular": irregular_rep,
             "spiked": spiked_rep}


def centered(r):
    n = r.shape[0]
    return r - np.outer(r.sum(axis=1), np.full(n, 1.0 / n))


def reference_null_basis(r, center=True):
    """Null space of R (I - 11^T/N), or of R itself without ``center``, by SVD.

    Singular values up to RANK_REL_TOL * N * ||R||_2 count as zero: scaled
    by R rather than by the centered product, so that a product that is zero
    up to rounding (R = c 11^T, say) keeps its whole null space.
    """
    n = r.shape[0]
    sym = (r + r.T) / 2.0
    _, sigma, vh = scipy.linalg.svd(centered(sym) if center else sym)
    return vh[sigma <= RANK_REL_TOL * n * np.linalg.norm(r, 2)].T


def truncated(r, rank):
    """Rank-``rank`` rebuild keeping the eigenpairs of largest |lambda|."""
    values, vectors = scipy.linalg.eigh(r)
    keep = np.argsort(-np.abs(values), kind="stable")[:rank]
    return (vectors[:, keep] * values[keep]) @ vectors[:, keep].T


def unique_truncation_ranks(r, k):
    """Ranks in [1, n - k] at which the truncation is unique (no tie at the cut)."""
    magnitude = np.sort(np.abs(scipy.linalg.eigvalsh(r)))[::-1]
    scale = max(magnitude[0], 1.0)
    return [rank for rank in range(1, r.shape[0] - k + 1)
            if magnitude[rank - 1] - magnitude[rank] > 1e-6 * scale]


def assert_same_projector(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a @ a.T - b @ b.T)) <= PROJECTOR_ATOL


def assert_valid_basis(basis, r):
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
    assert np.linalg.norm(centered(r) @ basis) <= 1e-8 * (1.0 + np.linalg.norm(r))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(REP_KINDS)), seed=st.integers(0, 2**32 - 1))
@example(kind="spiked", seed=0)
def test_null_basis_matches_svd_reference(kind, seed):
    r = REP_KINDS[kind](np.random.default_rng(seed))
    basis = constraint_null_basis(r)
    assert_valid_basis(basis, r)
    assert_same_projector(basis, reference_null_basis(r))
    # Where 1 leans into null(R), the Householder branch drops one null
    # direction: the basis is 1 plus dim null(R) - 1 columns, not 1 plus all.
    null_r = reference_null_basis(r, center=False)
    leans = np.linalg.norm(null_r.T @ np.full(r.shape[0], r.shape[0] ** -0.5)) > ONES_IN_NULL_ATOL
    assert basis.shape[1] == null_r.shape[1] + (0 if leans else 1)
    assert leans or kind != "spiked"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(REP_KINDS)), seed=st.integers(0, 2**32 - 1))
@example(kind="block", seed=0)
def test_interval_null_block_matches_svd_reference(kind, seed):
    # The exact constraint bisects for R's null eigenvalues over [-t, t]:
    # their N x m eigenvectors alone when 2 (m + 1) <= N, and the N - m
    # eigenvectors that are not null when the block is wider (the block
    # kind: at most 5 groups of 24 nodes).
    r = REP_KINDS[kind](np.random.default_rng(seed))
    n = r.shape[0]
    null_r = reference_null_basis(r, center=False)
    vectors, null = clustering._rep_spectrum(r, None)
    if 2 * (null_r.shape[1] + 1) <= n:
        assert null and vectors.shape == null_r.shape
    else:
        assert not null and vectors.shape == (n, n - null_r.shape[1]) and kind != "spiked"
    assert np.allclose(vectors.T @ vectors, np.eye(vectors.shape[1]), atol=1e-10)
    projector = vectors @ vectors.T
    if not null:
        projector = np.eye(n) - projector
    assert np.max(np.abs(projector - null_r @ null_r.T)) <= PROJECTOR_ATOL
    if kind != "spiked":
        # A Graph R keeps the same solve of the same matrix: the same bytes.
        rep = repsc.Graph(r.copy(), allows_self_loops=True)
        assert np.array_equal(constraint_null_basis(rep), constraint_null_basis(r))
        assert rep._memo[("picked", None)][1] == null


def test_interval_null_block_of_the_zero_matrix_is_everything():
    # t = RANK_REL_TOL * N * ||R||_inf is 0, and a band needs a positive
    # bound: R = 0 takes the select solve over every eigenvalue, which
    # finds no eigenvector that is not null.
    for n in (1, 4, 7):
        vectors, null = clustering._rep_spectrum(np.zeros((n, n)), None)
        assert vectors.shape == (n, 0) and not null
        rep = repsc.Graph(np.zeros((n, n)))
        assert constraint_null_basis(rep).shape == (n, n)
        assert not rep._memo[("picked", None)][1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(REP_KINDS)), seed=st.integers(0, 2**32 - 1))
def test_rank_null_basis_matches_rebuilt_truncation(kind, seed):
    rng = np.random.default_rng(seed)
    r = REP_KINDS[kind](rng)
    ranks = unique_truncation_ranks(r, 2)
    if not ranks:
        return
    rank = int(rng.choice(ranks))
    approx = truncated(r, rank)
    basis = constraint_null_basis(r, rank=rank)
    assert_valid_basis(basis, approx)
    assert_same_projector(basis, reference_null_basis(approx))
    assert basis.shape[1] >= r.shape[0] - rank


def test_rank_one_truncation_of_regular_rep_is_unconstrained():
    # Regular R keeps d 11^T/N at rank 1, and d 11^T/N (I - 11^T/N) = 0: the
    # constraint is void. A rebuilt product is rounding noise, which a
    # relative SVD cutoff mistakes for structure.
    rep, _ = repsc.build_d_regular_rep_graph(24, 2, 6)
    assert constraint_null_basis(rep, rank=1).shape == (24, 24)


def test_rank_ties_keep_earlier_position():
    # |-3| = |3|: the stable order keeps the eigenvalue listed first (-3).
    r = np.diag([3.0, -3.0, 1.0, 0.5])
    basis = constraint_null_basis(r, rank=1)
    expected = reference_null_basis(np.diag([0.0, -3.0, 0.0, 0.0]))
    assert_same_projector(basis, expected)


def test_rank_counts_kept_null_pairs():
    # A kept eigenpair at zero is null too: rank 3 of a rank-2 matrix.
    r = np.diag([2.0, 1.0, 0.0, 0.0])
    assert_same_projector(constraint_null_basis(r, rank=3), constraint_null_basis(r))


def test_null_basis_deterministic_and_sign_fixed():
    rng = np.random.default_rng(5)
    for kind in sorted(REP_KINDS):
        r = REP_KINDS[kind](rng)
        first = constraint_null_basis(r)
        assert np.array_equal(first, constraint_null_basis(r.copy()))
        for j in range(first.shape[1]):
            lead = first[np.abs(first[:, j]) > 1e-12, j]
            assert lead.size == 0 or lead[0] > 0


# -- R's select solve against its full decomposition ---------------------------


def full_null_mask(r, rank):
    """R's full ``sym_eig`` and the null mask the constraint reads from it:
    |lambda| <= t, and with ``rank`` every eigenpair outside the ``rank`` of
    largest |lambda| (ties kept in ascending position)."""
    values, vectors = sym_eig(r)
    magnitude = np.abs(values)
    null = magnitude <= RANK_REL_TOL * r.shape[0] * np.abs(r).sum(axis=1).max()
    if rank is not None:
        null[np.argsort(-magnitude, kind="stable")[rank:]] = True
    return values, vectors, null


def reference_arms(r, rank):
    """Both of ``clustering._basis``'s arms, Y and W, from R's full
    decomposition, as they were formed before the select solve: Y from the
    null eigenvectors, W from the kept ones."""
    _, vectors, null = full_null_mask(r, rank)
    n = r.shape[0]
    overlap = np.full(n, n ** -0.5) @ vectors
    leans = np.linalg.norm(overlap[null]) > ONES_IN_NULL_ATOL
    return (clustering._null_basis(vectors[:, null]),
            clustering._split_ones(vectors[:, ~null], overlap[~null], drop=not leans))


def block_r():
    # Groups of 6, 9, 12, 15 and 18 consecutive nodes, so the eigenvalues
    # that are not null (the group sizes) are distinct: the tridiagonal of
    # this R splits into many blocks, each of a zero eigenvalue but for one
    # per group.
    labels = np.repeat(np.arange(5), [6, 9, 12, 15, 18])
    return (labels[:, None] == labels[None, :]).astype(float)


def tied_r():
    # |-3| = |3| at the cut of rank 1 and of rank 3 (ranks by |lambda|: 3,
    # 3, 2, 2, 1, ...), with both solvers exact on it: a permuted direct sum
    # of 2 x 2 blocks [[0, c], [c, 0]] and a diagonal.
    r = scipy.linalg.block_diag([[0.0, 3.0], [3.0, 0.0]], [[0.0, 2.0], [2.0, 0.0]],
                                np.diag([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]))
    perm = np.random.default_rng(4).permutation(r.shape[0])
    return r[np.ix_(perm, perm)]


SELECT_CASES = {  # name: (R, ranks to pick for; None is the exact constraint)
    "planted": (lambda: repsc.sample_planted_partition_rep_graph(120, 6, 0.8, 0.2, 3)[0]
                .adjacency, (None, 12, 60, 100)),
    "block": (block_r, (None, 2, 5)),
    "zero": (lambda: np.zeros((9, 9)), (None, 3)),
    "tie": (tied_r, (None, 1, 3)),
}


@pytest.mark.parametrize("name", SELECT_CASES)
def test_select_solve_matches_the_full_decomposition(name):
    make, ranks = SELECT_CASES[name]
    r = make()
    n = r.shape[0]
    for rank in ranks:
        values, vectors, null = full_null_mask(r, rank)
        tol = RANK_REL_TOL * n * np.abs(r).sum(axis=1).max()
        picked, on_null = null_side_eig(r, tol, rank)
        # The narrower side: the null positions for a rank whose truncation
        # keeps more than half of R, the kept ones otherwise; for the exact
        # constraint, the null positions when 2 (m + 1) <= N.
        nulls = np.count_nonzero(null)
        assert on_null == (2 * nulls < n if rank is not None else 2 * (nulls + 1) <= n)
        held = vectors[:, null if on_null else ~null]
        assert picked.shape == held.shape
        assert np.max(np.abs(picked @ picked.T - held @ held.T), initial=0.0) <= 1e-10
        assert np.allclose(picked.T @ picked, np.eye(held.shape[1]), atol=1e-12)
        for j in range(held.shape[1]):
            lead = picked[np.abs(picked[:, j]) > 1e-12, j]
            assert lead[0] > 0
        assert picked.base is None or picked.base.nbytes == picked.nbytes
    # The eigenvalues the select solve reads: dsterf of R's tridiagonal.
    _, diagonal, offdiagonal, _, _ = scipy.linalg.lapack.dsytrd(r.copy(), lower=1)
    tridiagonal, _ = scipy.linalg.lapack.dsterf(diagonal, offdiagonal)
    assert np.allclose(tridiagonal, values, atol=1e-12 * max(1.0, np.abs(values).max()))
    if name == "block":  # LAPACK's bisection sees T split into blocks
        count, _, blocks, _, _ = scipy.linalg.lapack.dstebz(diagonal, offdiagonal, 0, 0.0, 0.0,
                                                            1, n, 0.0, "E")
        assert blocks[:count].max() > 1
    if name == "tie":  # the tie is real in both solves' eigenvalues
        for spectrum in (values, tridiagonal):
            assert spectrum[0] == -spectrum[-1] and spectrum[1] == -spectrum[-2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.integers(8, 79).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.sampled_from([max(1, n // 10), n // 3, n // 2]))))
@example(case=(31, 15, 11))
@example(case=(25, 10, 2))
def test_a_group_block_r_takes_its_select_solve_at_every_rank(case):
    # On some group-block R's, bisection lists two close eigenvalues of one
    # block of the tridiagonal out of order (2.0 before 1.9999999999999998),
    # and inverse iteration wants them ascending within their block.
    n, groups, rank = case
    labels = np.arange(n) % groups
    r = (labels[:, None] == labels[None, :]).astype(float)
    vectors, null = clustering._rep_spectrum(r, rank)
    _, _, mask = full_null_mask(r, rank)
    assert vectors.shape == (n, np.count_nonzero(mask == null))
    assert np.allclose(vectors.T @ vectors, np.eye(vectors.shape[1]), atol=1e-10)
    image = r @ vectors  # the columns span an invariant subspace of R
    assert np.abs(image - vectors @ (vectors.T @ image)).max(initial=0.0) <= 1e-9 * n


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("leans", [False, True])
@pytest.mark.parametrize("rank", [None, "half"])
def test_a_null_half_of_r_takes_the_arm_of_the_solved_side(n, leans, rank):
    # floor(N/2) null dimensions, so Y and W are about as wide: _basis takes
    # the arm of the side R's select solve holds (Y for the null side),
    # whether or not 1 has a part in null(R), and it is at most one column
    # wider than the other arm. It matches the full decomposition.
    rng = np.random.default_rng(n + 2 * leans)
    start = rng.standard_normal((n, n))
    if not leans:
        start[:, 0] = 1.0
    q, _ = np.linalg.qr(start)
    nulls = n // 2
    values = np.zeros(n)
    values[:n - nulls] = rng.uniform(1.0, 2.0, n - nulls) * rng.choice([-1.0, 1.0], n - nulls)
    r = (q * values) @ q.T
    r = (r + r.T) / 2.0
    rank = None if rank is None else n - nulls
    expected_y, expected_w = reference_arms(r, rank)
    assert expected_y.shape[1] + expected_w.shape[1] == n
    _, null = clustering._rep_spectrum(r, rank)
    basis, complement = clustering._basis(np.zeros((n, n)), 2, r, rank)
    assert (basis is not None) == null and (complement is None) == null
    got, expected = (basis, expected_y) if null else (complement, expected_w)
    assert got.shape == expected.shape
    assert got.shape[1] <= min(expected_y.shape[1], expected_w.shape[1]) + 1
    assert np.max(np.abs(got @ got.T - expected @ expected.T)) <= 1e-10
    assert_same_projector(constraint_null_basis(r, rank=rank),
                          reference_null_basis(truncated(r, rank) if rank else r))


# -- the group constraint in closed form ---------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(labels=st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_group_basis_spans_the_block_constraint(labels):
    # The baseline's Y, written down from the labels, spans the null space of
    # the centered N x N block matrix of the same groups.
    for grouping in (labels, list(range(len(labels))), [0] * len(labels)):
        _, dense = np.unique(grouping, return_inverse=True)  # no empty group
        groups = repsc.ClusterAssignment(dense, int(dense.max()) + 1)
        block = (dense[:, None] == dense[None, :]).astype(float)
        basis = group_basis(groups)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert_same_projector(basis, constraint_null_basis(repsc.Graph(block, True)))
        assert basis.shape[1] == 1 + groups.n - groups.k
        for j in range(basis.shape[1]):
            lead = basis[np.abs(basis[:, j]) > 1e-12, j]
            assert lead.size == 0 or lead[0] > 0


def test_group_basis_skips_empty_groups():
    # Labels 1 and 3 name no node: the basis is that of the two used groups.
    sparse = group_basis(repsc.ClusterAssignment(np.array([2, 0, 2, 2, 0]), 4))
    dense = group_basis(repsc.ClusterAssignment(np.array([1, 0, 1, 1, 0]), 2))
    assert sparse.shape == (5, 4)
    assert np.array_equal(sparse, dense)


# -- variant embeddings against the formulas they replaced -------------------


def random_graph(rng, n=24):
    # Weighted, connected (dense) graph: the bottom eigenvalues are distinct.
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
    return upper + upper.T


def bottom(matrix, k):
    values, vectors = scipy.linalg.eigh(matrix)
    return values[:k], vectors[:, :k], values


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def reference_embedding(name, a, r, k, rank):
    """The embedding each variant computed before the shared kernel."""
    degrees = a.sum(axis=1)
    laplacian = np.diag(degrees) - a
    if name == "usc":
        return bottom(laplacian, k)
    if name == "nsc":
        inv_root = 1.0 / np.sqrt(degrees)
        values, vectors, spectrum = bottom(np.eye(len(a)) - inv_root[:, None] * a * inv_root, k)
        return values, unit_rows(vectors), spectrum
    if name == "fair_sc_baseline":
        labels = repsc.usc(r, BASELINE_GROUPS).assignment.labels
        basis = reference_null_basis((labels[:, None] == labels[None, :]).astype(float))
    else:
        basis = reference_null_basis(truncated(r, rank) if rank else r)
    reduced = basis.T @ laplacian @ basis
    if name in ("urepsc", "urepsc_approx", "fair_sc_baseline"):
        values, vectors, spectrum = bottom((reduced + reduced.T) / 2.0, k)
        return values, basis @ vectors, spectrum
    restricted_degree = basis.T @ (degrees[:, None] * basis)
    q_values, q_vectors = scipy.linalg.eigh(restricted_degree)
    inv_root = (q_vectors / np.sqrt(q_values)) @ q_vectors.T
    whitened = inv_root @ reduced @ inv_root
    values, vectors, spectrum = bottom((whitened + whitened.T) / 2.0, k)
    return values, basis @ inv_root @ vectors, spectrum


BASELINE_GROUPS = 3

# Each variant's instances are drawn from the seed of its position here.
VARIANTS = {
    "nrepsc": lambda g, r, k, rank: repsc.nrepsc(g, r, k),
    "nrepsc_approx": lambda g, r, k, rank: repsc.nrepsc_approx(g, r, k, rank),
    "nsc": lambda g, r, k, rank: repsc.nsc(g, k),
    "urepsc": lambda g, r, k, rank: repsc.urepsc(g, r, k),
    "urepsc_approx": lambda g, r, k, rank: repsc.urepsc_approx(g, r, k, rank),
    "usc": lambda g, r, k, rank: repsc.usc(g, k),
    # The group-constrained solve; its reference rebuilds the discovered
    # groups' block matrix and takes its null space by SVD.
    "fair_sc_baseline": lambda g, r, k, rank: repsc.fair_sc_baseline(g, r, k,
                                                                     groups=BASELINE_GROUPS),
}


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_embedding_matches_old_formula(name):
    rng = np.random.default_rng(list(VARIANTS).index(name))
    checked = 0
    for trial in range(30):
        kind = sorted(REP_KINDS)[trial % len(REP_KINDS)]
        r = REP_KINDS[kind](rng)
        a = random_graph(rng)
        k = int(rng.integers(2, 4))
        rank = None
        if name.endswith("_approx"):
            ranks = unique_truncation_ranks(r, k)
            if not ranks:
                continue
            rank = int(rng.choice(ranks))
        values, embedding, spectrum = reference_embedding(name, a, r, k, rank)
        if spectrum.shape[0] < k:
            with pytest.raises(repsc.NullSpaceTooSmallError):
                VARIANTS[name](a, r, k, rank)
            continue
        if spectrum.shape[0] > k and spectrum[k] - spectrum[k - 1] < 1e-6:
            continue  # the bottom-k subspace is not unique
        result = VARIANTS[name](a, r, k, rank)
        assert np.allclose(result.spectrum_used, values, atol=1e-9)
        # Same rows up to an orthogonal change of coordinates: the row Gram
        # matrices agree (k-means sees only distances between rows).
        gram = result.embedding @ result.embedding.T
        assert np.max(np.abs(gram - embedding @ embedding.T)) <= 1e-7
        checked += 1
    assert checked >= 10


def test_nsc_rows_unchanged_from_normalized_laplacian():
    rng = np.random.default_rng(11)
    a = random_graph(rng, 30)
    _, expected, _ = reference_embedding("nsc", a, None, 3, None)
    got = repsc.nsc(a, 3).embedding
    # Distinct eigenvalues: equal up to column signs.
    signs = np.sign(np.sum(got * expected, axis=0))
    assert np.allclose(got, expected * signs, atol=1e-9)


def test_normalized_embedding_is_degree_orthonormal():
    rng = np.random.default_rng(12)
    r = regular_rep(rng)
    a = random_graph(rng)
    for result in (repsc.nrepsc(a, r, 2), repsc.nrepsc_approx(a, r, 2, 4)):
        gram = result.embedding.T @ (a.sum(axis=1)[:, None] * result.embedding)
        assert np.allclose(gram, np.eye(2), atol=1e-9)


# -- the kernel's two arms: a basis Y of the constraint space or W of its complement


def planted_truncation():
    # A planted R's all-ones direction leans into the null space of its
    # rank-6 truncation: W whitens all six kept eigenvectors.
    rep, _ = repsc.sample_planted_partition_rep_graph(60, 6, 0.8, 0.2, 0)
    return rep, 6, constraint_null_basis(rep, rank=6), 6


def regular_truncation():
    # 1 is the kept eigenvector of eigenvalue d, so a Householder step drops
    # it from the five kept ones (rank 5 cuts between distinct |lambda|).
    rep, _ = repsc.build_d_regular_rep_graph(60, 3, 12)
    return rep, 5, constraint_null_basis(rep, rank=5), 4


def rank_beyond_the_null_space():
    # Rank 7 of a rank-4 block R keeps three null eigenpairs, which stay in
    # the constraint space; W is the four groups' contrasts.
    labels = np.arange(60) % 4
    block = (labels[:, None] == labels[None, :]).astype(float)
    return block, 7, constraint_null_basis(block, rank=7), 3


def groups_with_empty_ones():
    groups = repsc.ClusterAssignment(np.arange(60) % 3 * 2, 6)  # 1, 3 and 5 are empty
    return groups, None, group_basis(groups), 2


def one_group():
    groups = repsc.ClusterAssignment(np.zeros(60, dtype=np.int64), 1)
    return groups, None, group_basis(groups), 0


ARM_CASES = {case.__name__: case for case in (planted_truncation, regular_truncation,
                                              rank_beyond_the_null_space,
                                              groups_with_empty_ones, one_group)}


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("case", ARM_CASES)
def test_complement_arm_matches_basis_arm(case, normalized):
    rep, rank, basis, width = ARM_CASES[case]()
    graph = random_graph(np.random.default_rng(7), 60)
    k = 3
    # W is the narrower description here, so _basis picks it.
    none, complement = clustering._basis(graph, k, rep, rank)
    assert none is None and complement.shape == (60, width)
    assert np.allclose(complement.T @ complement, np.eye(width), atol=1e-12)
    assert basis.shape[1] + width == 60 and np.abs(basis.T @ complement).max(initial=0.0) <= 1e-12
    x, spectrum, warnings = clustering._embed(graph, k, basis, normalized)
    got, got_spectrum, got_warnings = clustering._embed(graph, k, None, normalized, complement)
    assert got_warnings == warnings == ()
    assert np.abs(got_spectrum - spectrum).max() <= 1e-10
    assert np.abs(got @ got.T - x @ x.T).max() <= 1e-10


# -- the basis arm against the whole-Laplacian formula it replaced ------------


def whole_laplacian_basis_arm(graph, k, basis, normalized):
    """``_embed``'s Y arm as it stood when it restricted a whole N x N
    Laplacian: Y^T L Y as (Y^T L) Y, with L = diag(degrees) - A."""
    a = repsc.graphs.as_adjacency(graph)
    degrees = a.sum(axis=1)
    reduced = matmul(matmul(basis.T, np.diag(degrees) - a), basis)
    reduced = (reduced + reduced.T) / 2.0
    if normalized:  # the generalized problem (Y^T L Y, Y^T D Y)
        weight = matmul(basis.T, degrees[:, None] * basis)
        values, vectors = scipy.linalg.eigh(reduced, (weight + weight.T) / 2.0,
                                            subset_by_index=[0, min(k, len(reduced) - 1)])
        _fix_signs(vectors)
    else:
        values, vectors = sym_eig(reduced, count=k + 1)
    return matmul(basis, vectors[:, :k]), values[:k], clustering._gap_warnings(values, k)


# The benchmark's d-regular grid, and a toy one with a narrow null block.
BASIS_ARM_SWEEPS = {
    "benchmark": "n_values = 600, 900\nk_values = 5\nd_values = 40\n",
    "toy": "n_values = 24\nk_values = 2\nd_values = 4, 8\n",
}


@pytest.mark.parametrize("grid", BASIS_ARM_SWEEPS)
def test_basis_arm_matches_the_whole_laplacian_formula_on_the_sweep(grid, tmp_path, monkeypatch):
    # Forming Y^T L Y from the N x m product L Y changes its rounding only:
    # every Y-arm spectrum of the sweep agrees with the whole-Laplacian
    # formula within 1e-12 of its scale, and k-means finds the same
    # partitions on both embeddings.
    embed, kmeans = clustering._embed, clustering.kmeans
    checked, labels = [], []

    def reference(graph, k, basis=None, normalized=False, complement=None):
        got = embed(graph, k, basis, normalized, complement)
        if basis is None:
            return got
        want = whole_laplacian_basis_arm(graph, k, basis, normalized)
        assert np.abs(got[1] - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
        assert got[2] == want[2]
        checked.append(normalized)
        return want

    def recording(points, k, cfg):
        fit = kmeans(points, k, cfg)
        labels[-1].append(fit.labels)
        return fit

    monkeypatch.setattr(clustering, "kmeans", recording)
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(clustering, "_embed", reference)
        labels.append([])
        result = repsc.run_experiment(repsc.parse_config_text(
            "mode = d_regular_sweep\nalgorithms = urepsc, nrepsc\ntrials = 2\n"
            + BASIS_ARM_SWEEPS[grid] + f"out = {tmp_path / str(patched)}\n"))
        assert result.error_count == 0
    assert sorted(set(checked)) == [False, True]
    plain, whole = labels
    assert len(plain) == len(whole) == len(result.rows)
    assert all(np.array_equal(a, b) for a, b in zip(plain, whole))
