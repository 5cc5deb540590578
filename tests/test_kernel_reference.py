"""The restricted-eigensolver kernel against dense reference formulas.

Every reference here is built inside the test from scipy primitives: the
constraint null space from an SVD of R (I - 11^T/N) (or of the explicitly
rebuilt rank-r truncation of R), and each variant's embedding from the
textbook formula (the D^{-1/2} A D^{-1/2} Laplacian for nsc, Q^{-1}
whitening with Q = (Y^T D Y)^{1/2} for nrepsc).
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import repsc
from repsc.clustering import constraint_null_basis
from repsc.linalg import RANK_REL_TOL

PROJECTOR_ATOL = 1e-8


def regular_rep(rng, n=24):
    k = int(rng.choice([2, 3]))
    d = int(rng.choice([k * 2, k * 4]))
    rep, _ = repsc.build_d_regular_rep_graph(n, k, d)
    return rep.adjacency


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


def reference_null_basis(r):
    """Null space of R (I - 11^T/N) by SVD.

    Singular values up to RANK_REL_TOL * N * ||R||_2 count as zero: scaled
    by R rather than by the centered product, so that a product that is zero
    up to rounding (R = c 11^T, say) keeps its whole null space.
    """
    n = r.shape[0]
    _, sigma, vh = scipy.linalg.svd(centered((r + r.T) / 2.0))
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
def test_null_basis_matches_svd_reference(kind, seed):
    r = REP_KINDS[kind](np.random.default_rng(seed))
    basis = constraint_null_basis(r)
    assert_valid_basis(basis, r)
    assert_same_projector(basis, reference_null_basis(r))


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
    basis = reference_null_basis(truncated(r, rank) if rank else r)
    reduced = basis.T @ laplacian @ basis
    if name in ("urepsc", "urepsc_approx"):
        values, vectors, spectrum = bottom((reduced + reduced.T) / 2.0, k)
        return values, basis @ vectors, spectrum
    restricted_degree = basis.T @ (degrees[:, None] * basis)
    q_values, q_vectors = scipy.linalg.eigh(restricted_degree)
    inv_root = (q_vectors / np.sqrt(q_values)) @ q_vectors.T
    whitened = inv_root @ reduced @ inv_root
    values, vectors, spectrum = bottom((whitened + whitened.T) / 2.0, k)
    return values, basis @ inv_root @ vectors, spectrum


VARIANTS = {
    "usc": lambda g, r, k, rank: repsc.usc(g, k),
    "nsc": lambda g, r, k, rank: repsc.nsc(g, k),
    "urepsc": lambda g, r, k, rank: repsc.urepsc(g, r, k),
    "nrepsc": lambda g, r, k, rank: repsc.nrepsc(g, r, k),
    "urepsc_approx": lambda g, r, k, rank: repsc.urepsc_approx(g, r, k, rank),
    "nrepsc_approx": lambda g, r, k, rank: repsc.nrepsc_approx(g, r, k, rank),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_embedding_matches_old_formula(name):
    rng = np.random.default_rng(sorted(VARIANTS).index(name))
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
