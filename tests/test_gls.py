"""Design assembly, Kronecker-factored GLS, and the iterated loading fit."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from tvload.errors import (
    NumericError,
    ParameterError,
    RankDeficiencyError,
    ShapeError,
)
from tvload.factors import FactorEstimate, make_panel, pca_factors, standardize
from tvload.gls import (
    build_design,
    common_component,
    fit_iterative,
    gls_step,
    loadings_from_coeffs,
    read_coefficients_csv,
    regularize_covariance,
    residual_cov,
    write_coefficients_csv,
    write_covariance_csv,
    write_loadings_csv,
)
from tvload.wavelet import evaluate_basis, reconstruct, select_resolution


def _factors(F):
    F = np.asarray(F, dtype=float)
    return FactorEstimate(F=F, eigenvalues=np.zeros(F.shape[1]), method="pca",
                          r=F.shape[1])


def _random_instance(rng, T=32, N=4, r=2, J=3):
    basis = evaluate_basis("haar", J, T)
    F = rng.normal(size=(T, r))
    beta = rng.normal(size=(N, r, 2**J))
    Lambda = loadings_from_coeffs(beta, basis)
    Y = np.einsum("tmi,ti->tm", Lambda, F)
    return basis, _factors(F), beta, Lambda, make_panel(Y)


# ---------------------------------------------------------------- design


def test_design_with_unit_factor_is_the_basis():
    basis = evaluate_basis("haar", 3, 32)
    d = build_design(_factors(np.ones((32, 1))), basis)
    assert np.array_equal(d.Psi, basis.B)


def test_design_shape_512x64():
    basis = evaluate_basis("haar", 5, 512)
    F = np.random.default_rng(0).normal(size=(512, 2))
    assert build_design(_factors(F), basis).Psi.shape == (512, 64)


def test_design_single_entry():
    rng = np.random.default_rng(1)
    basis = evaluate_basis("d8", 2, 16)
    F = rng.normal(size=(16, 3))
    d = build_design(_factors(F), basis)
    # block of factor 2, grid row 3, basis column c
    for c in range(4):
        assert d.Psi[3, 4 + c] == basis.B[3, c] * F[3, 1]


def test_design_grid_mismatch():
    basis = evaluate_basis("haar", 2, 16)
    with pytest.raises(ShapeError):
        build_design(_factors(np.ones((8, 1))), basis)


# ---------------------------------------------------------------- gls step


def test_gls_identity_weight_equals_per_series_ols():
    rng = np.random.default_rng(2)
    basis, fac, _, _, panel = _random_instance(rng)
    panel = make_panel(panel.values + 0.1 * rng.normal(size=panel.values.shape))
    d = build_design(fac, basis)
    beta = gls_step(panel, d, np.eye(panel.N))
    for m in range(panel.N):
        ols, *_ = np.linalg.lstsq(d.Psi, panel.values[:, m], rcond=None)
        assert_allclose(beta[m].ravel(), ols, atol=1e-9)


def test_gls_recovers_exact_model():
    rng = np.random.default_rng(3)
    basis, fac, beta_true, _, panel = _random_instance(rng)
    d = build_design(fac, basis)
    gamma = np.diag(rng.uniform(0.5, 1.5, panel.N))
    beta = gls_step(panel, d, gamma)
    assert_allclose(beta, beta_true, atol=1e-9)


def test_gls_matches_brute_force_dense_oracle():
    # (N, T, r, J) = (3, 16, 1, 2) with a dense Toeplitz weight, solved by
    # materializing the full 48x12 Theta and 48x48 Sigma in the test
    rng = np.random.default_rng(4)
    T, N, J = 16, 3, 2
    basis = evaluate_basis("haar", J, T)
    fac = _factors(rng.normal(size=(T, 1)))
    panel = make_panel(rng.normal(size=(T, N)))
    gamma = scipy.linalg.toeplitz(0.6 ** np.arange(N))
    d = build_design(fac, basis)

    theta = np.kron(np.eye(N), d.Psi)
    sigma = np.kron(gamma, np.eye(T))
    z = panel.values.T.ravel()
    si = np.linalg.inv(sigma)
    oracle = np.linalg.solve(theta.T @ si @ theta, theta.T @ si @ z)

    beta = gls_step(panel, d, gamma)
    assert_allclose(beta.ravel(), oracle, atol=1e-8)


def test_gls_dense_override_agrees_with_kronecker_path():
    rng = np.random.default_rng(5)
    T, N = 16, 3
    basis = evaluate_basis("haar", 2, T)
    fac = _factors(rng.normal(size=(T, 1)))
    panel = make_panel(rng.normal(size=(T, N)))
    gamma = scipy.linalg.toeplitz(0.4 ** np.arange(N))
    d = build_design(fac, basis)
    fast = gls_step(panel, d, gamma)
    dense = gls_step(panel, d, gamma, sigma_full=np.kron(gamma, np.eye(T)))
    assert_allclose(fast, dense, atol=1e-8)


def test_kronecker_identity_against_dense_materialization():
    rng = np.random.default_rng(6)
    T, N = 16, 3
    basis = evaluate_basis("haar", 2, T)
    d = build_design(_factors(rng.normal(size=(T, 1))), basis)
    gamma = scipy.linalg.toeplitz(0.5 ** np.arange(N))
    theta = np.kron(np.eye(N), d.Psi)
    sigma_inv = np.linalg.inv(np.kron(gamma, np.eye(T)))
    dense = theta.T @ sigma_inv @ theta
    fast = np.kron(np.linalg.inv(gamma), d.Psi.T @ d.Psi)
    assert_allclose(dense, fast, atol=1e-10)


def test_gls_ols_orthogonality():
    rng = np.random.default_rng(7)
    basis, fac, _, _, clean = _random_instance(rng)
    panel = make_panel(clean.values + rng.normal(size=clean.values.shape))
    d = build_design(fac, basis)
    beta = gls_step(panel, d, np.eye(panel.N))
    for m in range(panel.N):
        resid = panel.values[:, m] - d.Psi @ beta[m].ravel()
        assert np.max(np.abs(d.Psi.T @ resid)) <= 1e-8


def test_gls_reports_offending_columns_when_singular():
    rng = np.random.default_rng(8)
    T = 16
    basis = evaluate_basis("haar", 2, T)
    F = np.column_stack([rng.normal(size=T), np.zeros(T)])  # dead factor
    d = build_design(_factors(F), basis)
    panel = make_panel(rng.normal(size=(T, 2)))
    with pytest.raises(RankDeficiencyError) as err:
        gls_step(panel, d, np.eye(2))
    assert "factor 2" in str(err.value)


def test_design_solve_matches_lstsq_on_an_ill_conditioned_design():
    rng = np.random.default_rng(12)
    T, r, N = 2048, 3, 5
    basis = evaluate_basis("d8", select_resolution(T), T)
    d = build_design(_factors(np.cumsum(rng.normal(size=(T, r)), axis=0)), basis)
    gram = d.Psi.T @ d.Psi
    cond = np.linalg.cond(gram)
    assert cond > 1e3  # random-walk factors
    Y = d.Psi @ rng.normal(size=(d.Psi.shape[1], N)) + rng.normal(size=(T, N))
    beta = d.solve(Y)
    ref = np.linalg.lstsq(d.Psi, Y, rcond=None)[0].T.reshape(beta.shape)
    assert np.linalg.norm(beta - ref) <= 1e-10 * np.linalg.norm(ref)
    assert abs(d.gram_condition - cond) <= 1e-8 * cond


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_design_is_rejected_before_factorization(monkeypatch, bad):
    rng = np.random.default_rng(13)
    F = rng.normal(size=(16, 2))
    F[3, 1] = bad
    d = build_design(_factors(F), evaluate_basis("haar", 2, 16))

    def factorize(*args, **kwargs):
        raise AssertionError("a non-finite Gram matrix reached the factorization")

    monkeypatch.setattr(np.linalg, "cholesky", factorize)
    with pytest.raises(NumericError, match="non-finite") as err:
        d.solve(rng.normal(size=(16, 2)))
    assert not isinstance(err.value, RankDeficiencyError)


def test_gls_validates_gamma():
    rng = np.random.default_rng(9)
    basis, fac, _, _, panel = _random_instance(rng)
    d = build_design(fac, basis)
    with pytest.raises(ShapeError):
        gls_step(panel, d, np.eye(3))
    bad = np.eye(panel.N)
    bad[0, 1] = 0.5
    with pytest.raises(ParameterError):
        gls_step(panel, d, bad)
    with pytest.raises(NumericError):
        gls_step(panel, d, -np.eye(panel.N))
    with pytest.raises(ParameterError, match="finite"):
        gls_step(panel, d, np.diag(np.full(panel.N, np.inf)))


def test_rss_never_increases_with_resolution():
    rng = np.random.default_rng(10)
    T = 64
    F = rng.normal(size=(T, 2))
    panel = make_panel(rng.normal(size=(T, 5)))
    prev = None
    for J in (2, 3, 4):
        basis = evaluate_basis("haar", J, T)
        d = build_design(_factors(F), basis)
        beta = gls_step(panel, d, np.eye(5))
        rss = 0.0
        for m in range(5):
            resid = panel.values[:, m] - d.Psi @ beta[m].ravel()
            rss += float(resid @ resid)
        if prev is not None:
            assert rss <= prev + 1e-9
        prev = rss


# ---------------------------------------------------------------- reconstruction


def test_loadings_zero_coefficients():
    basis = evaluate_basis("haar", 2, 8)
    assert np.array_equal(loadings_from_coeffs(np.zeros((3, 2, 4)), basis),
                          np.zeros((8, 3, 2)))


def test_loadings_scale_coefficient_only():
    basis = evaluate_basis("haar", 2, 8)
    beta = np.zeros((2, 1, 4))
    beta[0, 0, 0] = 0.5
    Lambda = loadings_from_coeffs(beta, basis)
    assert_allclose(Lambda[:, 0, 0], 0.5)
    assert np.array_equal(Lambda[:, 1, 0], np.zeros(8))


def test_loadings_match_per_curve_reconstruction():
    rng = np.random.default_rng(11)
    basis = evaluate_basis("d8", 3, 48)
    beta = rng.normal(size=(4, 2, 8))
    Lambda = loadings_from_coeffs(beta, basis)
    for m in range(4):
        for n in range(2):
            assert_allclose(Lambda[:, m, n], reconstruct(beta[m, n], basis),
                            atol=0.0)


# ---------------------------------------------------------------- residual cov


def test_residual_cov_zero_for_exact_fit():
    rng = np.random.default_rng(12)
    basis, fac, beta, Lambda, panel = _random_instance(rng)
    G = residual_cov(panel, Lambda, fac)
    assert np.max(np.abs(G)) <= 1e-12


def test_residual_cov_hand_case():
    # residuals e_1 = (1, 0), e_2 = (0, 1) against a zero model
    panel = make_panel(np.eye(2) + 0.0)
    Lambda = np.zeros((2, 2, 1))
    fac = _factors(np.ones((2, 1)))
    assert_allclose(residual_cov(panel, Lambda, fac), 0.5 * np.eye(2), atol=0.0)


def test_residual_cov_matches_loop_oracle():
    rng = np.random.default_rng(13)
    basis, fac, _, Lambda, clean = _random_instance(rng)
    panel = make_panel(clean.values + rng.normal(size=clean.values.shape))
    G = residual_cov(panel, Lambda, fac)
    T, N = panel.values.shape
    oracle = np.zeros((N, N))
    for t in range(T):
        e = panel.values[t] - Lambda[t] @ fac.F[t]
        oracle += np.outer(e, e)
    assert_allclose(G, oracle / T, atol=1e-12)
    assert_allclose(G, G.T, atol=0.0)
    assert np.linalg.eigvalsh(G)[0] >= -1e-12


# ---------------------------------------------------------------- common component


def test_common_component_cases():
    rng = np.random.default_rng(14)
    basis, fac, _, Lambda, panel = _random_instance(rng)
    assert np.array_equal(common_component(np.zeros_like(Lambda), fac),
                          np.zeros((panel.T, panel.N)))
    ones = np.ones((panel.T, panel.N, 1))
    f1 = _factors(fac.F[:, :1])
    X = common_component(ones, f1)
    for m in range(panel.N):
        assert np.array_equal(X[:, m], fac.F[:, 0])


def test_common_component_matches_loop_oracle():
    rng = np.random.default_rng(15)
    basis, fac, _, Lambda, panel = _random_instance(rng)
    X = common_component(Lambda, fac)
    T, N = panel.values.shape
    for t in range(T):
        for m in range(N):
            assert abs(X[t, m] - Lambda[t, m] @ fac.F[t]) <= 1e-12


# ---------------------------------------------------------------- regularization


def test_regularize_passes_well_conditioned_matrix_through():
    G = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(regularize_covariance(G), G)


def test_regularize_fixes_singular_matrix():
    G = np.ones((4, 4))  # rank one
    R = regularize_covariance(G)
    w = np.linalg.eigvalsh(R)
    assert w[0] > 0
    assert_allclose(np.diag(R), np.diag(G))  # shrink preserves the diagonal


def test_regularize_force_shrink_applies_at_least_once():
    G = 0.5 * np.ones((3, 3)) + 0.5 * np.eye(3)
    R = regularize_covariance(G, force_shrink=True)
    assert not np.allclose(R, G)
    assert np.linalg.eigvalsh(R)[0] > 0


def test_regularize_handles_all_zero_residuals():
    R = regularize_covariance(np.zeros((3, 3)))
    assert np.linalg.eigvalsh(R)[0] > 0


# ---------------------------------------------------------------- iteration


def test_fit_noiseless_recovery_in_two_iterations():
    rng = np.random.default_rng(16)
    basis, fac, beta, Lambda, panel = _random_instance(rng, T=64, N=5, r=2, J=3)
    fit = fit_iterative(panel, fac, basis)
    assert fit.converged
    assert fit.n_iter <= 2
    assert np.max(np.abs(fit.Lambda - Lambda)) <= 1e-6


def test_fit_sur_collapse_second_delta_below_tolerance():
    # Kronecker weight + identical regressors: iteration 2 reproduces
    # iteration 1, so the first recorded delta already meets the threshold
    rng = np.random.default_rng(17)
    basis, fac, _, _, clean = _random_instance(rng, T=48, N=6, r=1, J=2)
    panel = make_panel(clean.values + rng.normal(size=clean.values.shape))
    fit = fit_iterative(panel, fac, basis, delta=1e-6)
    assert fit.n_iter == 2
    assert fit.deltas[0] < 1e-6
    assert fit.converged


def test_fit_invariants():
    rng = np.random.default_rng(18)
    basis, fac, _, _, clean = _random_instance(rng, T=32, N=4, r=2, J=2)
    panel = make_panel(clean.values + 0.5 * rng.normal(size=clean.values.shape))
    fit = fit_iterative(panel, fac, basis)
    assert fit.beta.size == 4 * 2 * 4  # 2^J * N * r parameters
    recon = loadings_from_coeffs(fit.beta, basis)
    assert np.max(np.abs(fit.Lambda - recon)) <= 1e-12
    assert_allclose(fit.Gamma_e, fit.Gamma_e.T, atol=0.0)
    assert np.linalg.eigvalsh(fit.Gamma_e)[0] >= -1e-12
    assert all(d >= 0.0 and np.isfinite(d) for d in fit.deltas)


def test_fit_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(19)
    basis, fac, _, _, panel = _random_instance(rng)
    fit = fit_iterative(panel, fac, basis, max_iter=1)
    assert not fit.converged
    assert fit.n_iter == 1
    assert fit.deltas == ()


def test_fit_parameter_validation():
    rng = np.random.default_rng(20)
    basis, fac, _, _, panel = _random_instance(rng)
    with pytest.raises(ParameterError):
        fit_iterative(panel, fac, basis, delta=0.0)
    with pytest.raises(ParameterError):
        fit_iterative(panel, fac, basis, max_iter=0)


# ---------------------------------------------------------------- artifacts


def test_coefficients_csv_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    basis, fac, _, _, panel = _random_instance(rng)
    fit = fit_iterative(panel, fac, basis)
    path = tmp_path / "coef.csv"
    write_coefficients_csv(fit, panel, basis, path)
    beta = read_coefficients_csv(path, panel.series_ids, basis, fit.beta.shape[1])
    assert np.array_equal(beta, fit.beta)  # .17g round-trips exactly


def test_loadings_and_covariance_csv_headers(tmp_path):
    rng = np.random.default_rng(22)
    basis, fac, _, _, panel = _random_instance(rng, T=16, N=2, r=1, J=2)
    fit = fit_iterative(panel, fac, basis)
    lp = tmp_path / "load.csv"
    cp = tmp_path / "cov.csv"
    write_loadings_csv(fit, panel, lp)
    write_covariance_csv(fit.Gamma_e, panel.series_ids, cp)
    lines = lp.read_text().splitlines()
    assert lines[0] == "t,series,factor,lambda_hat"
    assert len(lines) == 1 + 16 * 2 * 1
    cov_lines = cp.read_text().splitlines()
    assert cov_lines[0] == "series,s1,s2"
    assert float(cov_lines[1].split(",")[1]) == fit.Gamma_e[0, 0]
