"""Closed-form expected-case spectra and bound shapes."""

import logging
import math

import numpy as np
import pytest

import repsc
from repsc.clustering import constraint_null_basis
from repsc.theory import ExpectedSpectrum

from conftest import REGULAR_INSTANCES, SWEEP_PROBS, traced_peak


def make_params(n, k, d, p, q, r, s):
    rep, truth = repsc.build_d_regular_rep_graph(n, k, d)
    return repsc.RppParams(assignment=truth, rep_graph=rep, p=p, q=q, r=r, s=s)


def test_closed_form_uniform_probabilities_collapse():
    params = make_params(12, 2, 4, 0.3, 0.3, 0.3, 0.3)
    lambda1, lambda_rest = repsc.closed_form_eigenvalues(params)
    assert lambda1 == pytest.approx(0.3 * 12)
    assert lambda_rest == pytest.approx(0.0, abs=1e-15)


def test_closed_form_reference_configurations():
    large = make_params(1200, 5, 40, **SWEEP_PROBS)
    assert repsc.closed_form_eigenvalues(large) == pytest.approx((152.0, 24.0))
    small = make_params(24, 2, 6, **SWEEP_PROBS)
    assert repsc.closed_form_eigenvalues(small) == pytest.approx((4.8, 1.2))


@pytest.mark.parametrize("n,k,d", [(24, 2, 6), (60, 2, 4), (60, 3, 6), (120, 4, 8)])
def test_closed_form_matches_dense_eigensolve(n, k, d):
    params = make_params(n, k, d, **SWEEP_PROBS)
    lambda1, lambda_rest = repsc.closed_form_eigenvalues(params)
    raw = repsc.expected_adjacency(params) + params.p * np.eye(n)
    # The all-ones vector and every cluster-contrast vector are exact
    # eigenvectors of the raw expectation matrix.
    basis = repsc.canonical_y_vectors(n, k)
    ones = basis[:, 0]
    assert np.max(np.abs(raw @ ones - lambda1 * ones)) <= 1e-9 * (1 + abs(lambda1))
    for j in range(1, k):
        contrast = basis[:, j]
        assert np.max(np.abs(raw @ contrast - lambda_rest * contrast)) <= 1e-9 * (
            1 + abs(lambda_rest)
        )
    # Row sums are constant, so the all-ones direction is the Perron vector
    # and lambda1 tops the spectrum.
    spectrum = np.linalg.eigvalsh((raw + raw.T) / 2.0)
    assert spectrum[-1] == pytest.approx(lambda1, rel=1e-7)


def test_closed_form_rejects_irregular_rep_graph():
    rep, truth = repsc.sample_planted_partition_rep_graph(12, 2, 0.7, 0.3, 3)
    params = repsc.RppParams(assignment=truth, rep_graph=rep, **SWEEP_PROBS)
    with pytest.raises(repsc.AssumptionViolatedError):
        repsc.closed_form_eigenvalues(params)


def test_canonical_y_vectors_small_case():
    basis = repsc.canonical_y_vectors(4, 2)
    assert np.allclose(basis[:, 0], 0.5)
    assert np.allclose(basis[:, 1], [0.5, 0.5, -0.5, -0.5])


def explicit_canonical_y_vectors(n, k):
    """The loop canonical_y_vectors ran before it shared the contrast formula."""
    m = n // k
    basis = np.zeros((n, k))
    basis[:, 0] = 1.0 / math.sqrt(n)
    for j in range(1, k):
        remaining = k - j
        scale = 1.0 / math.sqrt(m * remaining * (remaining + 1))
        basis[(j - 1) * m:j * m, j] = remaining * scale
        basis[j * m:, j] = -scale
    return basis


@pytest.mark.parametrize("n,k", sorted({(n, k) for n, k, _ in REGULAR_INSTANCES}))
def test_canonical_y_vectors_equal_the_explicit_loop_bit_for_bit(n, k):
    basis = repsc.canonical_y_vectors(n, k)
    assert basis.tobytes() == explicit_canonical_y_vectors(n, k).tobytes()


def test_canonical_y_vectors_orthonormal_and_cluster_constant():
    basis = repsc.canonical_y_vectors(24, 4)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    for j in range(4):
        blocks = basis[:, j].reshape(4, 6)
        assert np.allclose(blocks, blocks[:, :1])  # constant within clusters
    with pytest.raises(repsc.DivisibilityError):
        repsc.canonical_y_vectors(10, 3)


def test_canonical_y_vectors_satisfy_constraint(toy_instance):
    rep, _, _ = toy_instance
    null_basis = constraint_null_basis(rep)
    projector = null_basis @ null_basis.T
    basis = repsc.canonical_y_vectors(24, 2)
    leftover = basis - projector @ basis
    assert np.max(np.abs(leftover)) <= 1e-9


def test_expected_spectrum_toy_values(toy_instance):
    _, _, params = toy_instance
    spec = repsc.expected_spectrum(params)
    assert spec.lambda1 == pytest.approx(4.8)
    assert spec.lambda_rest == pytest.approx(1.2)
    assert spec.mu[0] == pytest.approx(0.0, abs=1e-9)
    assert spec.mu[1] == pytest.approx(4.8 - 1.2, rel=1e-9)
    assert np.all(np.diff(spec.mu) >= -1e-12)
    assert spec.gamma > 0.0
    degree = spec.lambda1 - params.p
    assert np.allclose(spec.mu_normalized, spec.mu / degree)
    assert spec.gamma_normalized == pytest.approx(spec.gamma / degree)
    # lambda_bar is the smallest raw-expectation eigenvalue.
    raw = repsc.expected_adjacency(params) + params.p * np.eye(24)
    assert repsc.lambda_bar(params) == pytest.approx(float(np.linalg.eigvalsh(raw)[0]), abs=1e-9)


def test_expected_degrees_are_constant(toy_instance):
    _, _, params = toy_instance
    centered = repsc.expected_adjacency(params)
    degrees = centered.sum(axis=1)
    assert np.allclose(degrees, 4.8 - 0.4, atol=1e-12)


def test_restricted_directions_beyond_cluster_space_sit_above_gap(toy_instance):
    rep, _, params = toy_instance
    spec = repsc.expected_spectrum(params)
    raw = repsc.expected_adjacency(params) + params.p * np.eye(24)
    null_basis = constraint_null_basis(rep)
    cluster_space = repsc.canonical_y_vectors(24, 2)
    # Orthonormal basis of the constraint null space minus the cluster space.
    projected = null_basis - cluster_space @ (cluster_space.T @ null_basis)
    q, r_factor = np.linalg.qr(projected)
    keep = np.abs(np.diag(r_factor)) > 1e-10
    residual_basis = q[:, keep]
    rng = np.random.default_rng(81)
    for _ in range(100):
        coeffs = rng.standard_normal(residual_basis.shape[1])
        w = residual_basis @ coeffs
        w /= np.linalg.norm(w)
        rayleigh = float(w @ raw @ w)
        assert rayleigh <= spec.lambda_rest - spec.gamma + 1e-7


def test_expected_spectrum_degenerate_gap_warning(caplog):
    params = make_params(24, 2, 6, 0.3, 0.3, 0.3, 0.3)
    with caplog.at_level(logging.WARNING, logger="repsc.theory"):
        spec = repsc.expected_spectrum(params)
    assert spec.gamma == pytest.approx(0.0, abs=1e-9)
    assert any("degenerate" in record.message for record in caplog.records)
    with pytest.raises(repsc.ZeroGapError):
        repsc.misclustering_bound_shape(params, spectrum=spec)


def dummy_spectrum(gamma, lambda1=152.0, gamma_normalized=None):
    degree = lambda1 - 0.4
    return ExpectedSpectrum(
        lambda1=lambda1,
        lambda_rest=24.0,
        mu=np.array([0.0, 128.0]),
        gamma=gamma,
        mu_normalized=np.array([0.0, 128.0 / degree]),
        gamma_normalized=gamma / degree if gamma_normalized is None else gamma_normalized,
    )


def test_bound_shape_formulas():
    params = make_params(1200, 5, 40, **SWEEP_PROBS)
    spec = dummy_spectrum(gamma=24.0)
    shape = repsc.misclustering_bound_shape(params, epsilon=0.0, spectrum=spec)
    log_term = 2.0 * 0.4 * 1200 * math.log(1200)
    assert shape.unnormalized == pytest.approx(log_term / 24.0**2)
    factor = (8.0 * math.sqrt(5) / spec.gamma_normalized + 1.0) ** 2
    assert shape.normalized == pytest.approx(32.0 * log_term * factor / 151.6**2)


def test_bound_shape_scaling():
    params = make_params(1200, 5, 40, **SWEEP_PROBS)
    base = repsc.misclustering_bound_shape(params, spectrum=dummy_spectrum(24.0))
    doubled_gap = repsc.misclustering_bound_shape(params, spectrum=dummy_spectrum(48.0))
    assert doubled_gap.unnormalized == pytest.approx(base.unnormalized / 4.0)
    wider = repsc.misclustering_bound_shape(params, epsilon=2.0, spectrum=dummy_spectrum(24.0))
    assert wider.unnormalized == pytest.approx(base.unnormalized * 2.0)


def test_bound_shape_infinite_gap_and_rejections():
    params = make_params(24, 2, 6, **SWEEP_PROBS)
    spec = dummy_spectrum(math.inf, lambda1=4.8, gamma_normalized=math.inf)
    shape = repsc.misclustering_bound_shape(params, spectrum=spec)
    assert shape.unnormalized == 0.0
    log_term = 2.0 * 0.4 * 24 * math.log(24)
    assert shape.normalized == pytest.approx(32.0 * log_term / 4.4**2)
    with pytest.raises(ValueError):
        repsc.misclustering_bound_shape(params, epsilon=-0.1, spectrum=spec)
    with pytest.raises(repsc.ZeroGapError):
        repsc.misclustering_bound_shape(params, spectrum=dummy_spectrum(0.0))


def test_expected_case_inputs_convenience():
    params, matrix = repsc.expected_case_inputs(24, 2, 6, **SWEEP_PROBS)
    assert params.n == 24 and params.k == 2
    assert np.allclose(matrix, repsc.expected_adjacency(params))
    assert np.allclose(np.diag(matrix), 0.0)


def test_expected_spectrum_on_a_fresh_r_holds_three_matrices():
    # In N x N float64 units at N = 600, R included: the bool R (1/8), then
    # R's null solve (its float copy of R, tridiagonalized in place, and
    # N x 39 blocks), then the expected Laplacian, each about 1.2 next to
    # R. Reads 1.42; R's interval solve with an N-column eigenvector buffer
    # read 2.27, and 3.14 with a float64 R. The expected adjacency and a
    # separate Laplacian held next to R and the solve would read about 5.05.
    n = 600
    peak = traced_peak(lambda: repsc.expected_spectrum(make_params(n, 5, 40, **SWEEP_PROBS)))
    assert peak <= 1.75 * n * n * 8
