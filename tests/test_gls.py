"""Design assembly, Kronecker-factored GLS, and the iterated loading fit."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tvload.gls
import tvload.wavelet
from tvload.errors import (
    NumericError,
    ParameterError,
    RankDeficiencyError,
    ShapeError,
)
from tvload.factors import FactorEstimate, make_panel, pca_factors, standardize
from tvload.gls import (
    GlsFit,
    build_design,
    fit_iterative,
    gls_step,
    loading_rows,
    read_coefficients_csv,
    write_coefficients_csv,
    write_covariance_csv,
    write_loadings_csv,
)
from tvload.sim import DgpConfig, simulate_dgp
from tvload.wavelet import evaluate_basis, expand_runs, select_resolution

from reference import common_component, loadings_from_coeffs


def _factors(F):
    F = np.asarray(F, dtype=float)
    return FactorEstimate(F=F, eigenvalues=np.zeros(F.shape[1]), method="pca")


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


@pytest.mark.parametrize("family,T", [("haar", 1000), ("d8", 64), ("d8", 1000)])
def test_gls_reports_offending_columns_of_a_dense_path_design(family, T):
    rng = np.random.default_rng(15)
    basis = evaluate_basis(family, 3, T)
    F = np.column_stack([rng.normal(size=(T, 2)), np.zeros(T)])  # dead factor 3
    d = build_design(_factors(F), basis)
    with pytest.raises(RankDeficiencyError) as err:
        d.solve(rng.normal(size=(T, 2)))
    assert "rank 16 of 24" in str(err.value)
    assert "factor 3" in str(err.value)
    assert "factor 1" not in str(err.value) and "factor 2" not in str(err.value)


def _cell_design(d):
    """Phi: one column F_i * 1{cell k} per factor and Haar cell, factor-major."""
    cells = expand_runs(np.eye(len(d.basis.run_lengths)), d.basis.run_lengths)
    return (d.F[:, :, None] * cells[:, None, :]).reshape(len(d.F), -1)


def _reported_design(d):
    """The columns a rank report names: Phi's on a Haar basis, Psi's on d8."""
    return _cell_design(d) if d.basis.family == "haar" else d.Psi


def _named_columns(message, d):
    """The columns of ``_reported_design(d)`` that a rank-deficiency message
    names, as indices."""
    lengths = d.basis.run_lengths.tolist()
    ends = np.cumsum(lengths).tolist()
    cells = ([f"cell t={e - n + 1}..{e}" for e, n in zip(ends, lengths)]
             if d.basis.family == "haar"
             else [f"column (j={j}, k={k})" for j, k in d.basis.column_index])
    labels = [f"factor {i + 1} x {c}" for i in range(d.r) for c in cells]
    named = re.findall(r"factor \d+ x (?:cell t=\d+\.\.\d+|column \(j=-?\d+, k=\d+\))",
                       message)
    return [labels.index(label) for label in named]


def _deficient_design(family, T, case, seed=3, J=2):
    """A rank-deficient design: a factor twice, a factor zero on the first half
    of the grid, or f - 0.5 g beside f and g; and the generator after it."""
    rng = np.random.default_rng(seed)
    f, g = rng.normal(size=(2, T))
    if case == "collinear":
        F = np.column_stack([f, 2.0 * f])
    elif case == "half-dead":
        g[: T // 2] = 0.0
        F = np.column_stack([f, g])
    else:
        F = np.column_stack([f, g, f - 0.5 * g])
    return build_design(_factors(F), evaluate_basis(family, J, T)), rng


def _rank_case(family, T, case, seed=3, J=2):
    tail = "" if (seed, J) == (3, 2) else f"-seed{seed}-J{J}"
    return pytest.param(family, T, case, seed, J, id=f"{family}-{T}-{case}{tail}")


# a factor that is zero on the first half of the grid leaves a d8 design of
# full rank: no d8 column is a multiple of another on the second half.  The
# last four d8 designs are exactly singular, yet Psi'Psi, as rounded, has a
# Cholesky factor
RANK_CASES = [_rank_case(family, T, case)
              for family, T in [("haar", 256), ("haar", 250), ("d8", 256)]
              for case in ["collinear", "half-dead", "combination"]
              if (family, case) != ("d8", "half-dead")] + [
    _rank_case("d8", 256, "collinear", 38, 2), _rank_case("d8", 256, "collinear", 38, 3),
    _rank_case("d8", 256, "combination", 36, 2), _rank_case("d8", 256, "combination", 38, 2)]


@pytest.mark.parametrize("family,T,case,seed,J", RANK_CASES)
def test_the_named_columns_are_the_ones_the_kept_columns_reproduce(family, T, case, seed, J):
    # where the null space leaves a choice, any named set must leave a
    # full-rank design of the reported rank once dropped: a set of
    # (factor, cell) columns of Phi on Haar, whose span is Psi's, and of
    # columns of Psi on d8.  Every case makes its last factor of the others,
    # so only that factor's columns are named
    d, rng = _deficient_design(family, T, case, seed, J)
    with pytest.raises(RankDeficiencyError) as err:
        d.solve(rng.normal(size=(T, 2)))
    message = str(err.value)
    rank = int(re.search(r"rank (\d+) of", message).group(1))
    columns = _reported_design(d)
    dropped = _named_columns(message, d)
    kept = np.delete(columns, dropped, axis=1)
    assert len(dropped) == columns.shape[1] - rank
    assert min(dropped) >= (d.r - 1) * columns.shape[1] // d.r
    assert np.linalg.matrix_rank(kept) == kept.shape[1] == np.linalg.matrix_rank(columns)
    assert np.linalg.matrix_rank(d.Psi) == rank


@pytest.mark.parametrize("family,T,case,seed,J", RANK_CASES)
def test_the_named_columns_do_not_depend_on_the_null_basis(family, T, case, seed, J):
    # the null space through the Gram matrix's eigenvectors (Phi'Phi, the
    # cell Gram, on Haar; Psi'Psi on d8), through the design's singular
    # vectors, and rotated: each names the same columns
    d, rng = _deficient_design(family, T, case, seed, J)
    columns = _reported_design(d)
    w, V = np.linalg.eigh(columns.T @ columns)
    null = V[:, w < 1e-10 * w.max()].T
    named = tvload.gls._reproduced_columns(null)
    assert named == tvload.gls._reproduced_columns(np.linalg.svd(columns)[2][-len(null):])
    for _ in range(5):
        Q = np.linalg.qr(rng.normal(size=(len(null), len(null))))[0]
        assert tvload.gls._reproduced_columns(Q @ null) == named


# the grid ranges of the four J=2 Haar cells
HAAR_CELLS = {256: ["1..64", "65..128", "129..192", "193..256"],
              250: ["1..62", "63..125", "126..187", "188..250"]}


@pytest.mark.parametrize("family,T", [("haar", 256), ("haar", 250)])
def test_a_half_dead_factor_names_its_later_repeated_and_its_dead_column(family, T):
    # the second factor is zero on the first half of the grid, which is the
    # first two of the four cells, so its columns on those cells are dead
    d, rng = _deficient_design(family, T, "half-dead")
    with pytest.raises(RankDeficiencyError) as err:
        d.solve(rng.normal(size=(T, 2)))
    first, second = HAAR_CELLS[T][:2]
    assert str(err.value).endswith(f"(rank 6 of 8); offending columns: factor 2 x cell "
                                   f"t={first}, factor 2 x cell t={second}")


@pytest.mark.parametrize("family,T", [("haar", 256), ("haar", 250), ("d8", 256)])
def test_a_combination_of_earlier_factors_names_all_of_its_columns(family, T):
    d, rng = _deficient_design(family, T, "combination")
    with pytest.raises(RankDeficiencyError) as err:
        d.solve(rng.normal(size=(T, 2)))
    if family == "haar":
        columns = ", ".join(f"factor 3 x cell t={cell}" for cell in HAAR_CELLS[T])
    else:
        columns = ", ".join(f"factor 3 x column (j={j}, k={k})" for j, k in d.basis.column_index)
    assert str(err.value).endswith(f"offending columns: {columns}")


def test_a_rank_report_builds_no_psi():
    # the report reads the eigenvectors of the 64 cell Grams, 2 x 2 here, not Psi
    rng = np.random.default_rng(19)
    T, J = 8760, 6
    f = rng.normal(size=T)
    d = build_design(_factors(np.column_stack([f, 2.0 * f])), evaluate_basis("haar", J, T))
    Y = rng.normal(size=(T, 2))
    psi_bytes = T * 2 * 2**J * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(RankDeficiencyError, match=r"rank 64 of 128"):
            d.solve(Y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "Psi" not in vars(d)
    assert peak < psi_bytes / 4


# ---------------------------------------------------------------- Haar blocks


def _check_against_the_dense_design(d, Y):
    """``solve`` and ``fitted`` build no Psi and match ``lstsq`` and Psi beta on
    it; returns Psi."""
    beta = d.solve(Y)
    fitted = d.fitted(beta)
    assert "Psi" not in d.__dict__  # neither built Psi
    Psi = d.Psi
    ref = np.linalg.lstsq(Psi, Y, rcond=None)[0].T.reshape(beta.shape)
    assert np.linalg.norm(beta - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = Psi @ beta.reshape(Y.shape[1], -1).T
    assert np.max(np.abs(fitted - ref)) <= 1e-12 * np.max(np.abs(ref))
    return Psi


@pytest.mark.parametrize("T", [512, 2048])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_haar_block_products_match_the_dense_design(T, r):
    # one r x r regression per dyadic cell gives the least-squares fit on Psi
    rng = np.random.default_rng(16)
    basis = evaluate_basis("haar", select_resolution(T), T)
    d = build_design(_factors(np.cumsum(rng.normal(size=(T, r)), axis=0)), basis)
    _check_against_the_dense_design(d, rng.normal(size=(T, 7)))


def test_haar_fit_on_a_dyadic_grid_never_builds_psi():
    rng = np.random.default_rng(17)
    basis, fac, _, _, panel = _random_instance(rng, T=64, J=3)
    d = build_design(fac, basis)
    fit_iterative(panel, fac, basis, design=d)
    assert d.gram_condition > 1.0
    assert "Psi" not in d.__dict__


@pytest.mark.parametrize("T", [1000, 8760])
def test_a_haar_fit_on_a_grid_that_2j_does_not_divide_builds_neither_b_nor_psi(T):
    # unequal runs are padded to the longest, so the per-run sums serve them
    rng = np.random.default_rng(19)
    N, r = 3, 2
    tvload.wavelet._cached_basis.cache_clear()  # a basis no other test has read B of
    basis = evaluate_basis("haar", select_resolution(T), T)
    assert len(set(basis.run_lengths.tolist())) == 2
    fac = _factors(rng.normal(size=(T, r)))
    panel = make_panel(rng.normal(size=(T, N)))
    d = build_design(fac, basis)
    fit = fit_iterative(panel, fac, basis, design=d)
    fit.Gamma_e, fit.Lambda_rows
    assert "B" not in vars(basis)
    assert "Psi" not in vars(d)
    Psi = d.Psi
    ref = np.linalg.lstsq(Psi, panel.values, rcond=None)[0].T.reshape(fit.beta.shape)
    assert np.linalg.norm(fit.beta - ref) <= 1e-12 * np.linalg.norm(ref)


def _hourly_inputs():
    """Five years of hourly data: N=20, T=43,800, r=2, J=8."""
    rng = np.random.default_rng(20)
    T, N, r = 43800, 20, 2
    return make_panel(rng.normal(size=(T, N))), _factors(rng.normal(size=(T, r))), 8


def test_an_hourly_haar_basis_and_fit_peak_under_three_panels():
    # the dense basis alone would be 12.8 panels
    panel, fac, J = _hourly_inputs()
    T = panel.T
    tvload.wavelet._cached_basis.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = evaluate_basis("haar", J, T)
        fit = fit_iterative(panel, fac, basis)
        fit.Gamma_e, fit.Lambda_rows
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert T * 2**J * 8 > 12 * panel.values.nbytes
    assert peak < 3 * panel.values.nbytes


def test_an_hourly_haar_basis_fit_and_residual_covariance_peak_under_one_and_a_half_panels():
    # the fitted panel, and the residuals of the pass-2 weight and of Gamma_e,
    # are formed one slab at a time, so no second T x N panel is held
    panel, fac, J = _hourly_inputs()
    tvload.wavelet._cached_basis.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = evaluate_basis("haar", J, panel.T)
        fit_iterative(panel, fac, basis).Gamma_e
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * panel.values.nbytes


def test_an_hourly_haar_fit_peaks_under_half_a_panel():
    # one r x r regression per cell: no (r 2^J)^2 Gram matrix, and the per-cell
    # sums and the fitted panel go a chunk of cells at a time
    panel, fac, J = _hourly_inputs()
    basis = evaluate_basis("haar", J, panel.T)  # held outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_iterative(panel, fac, basis)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * panel.values.nbytes


def test_an_hourly_d8_fit_peaks_under_one_panel():
    panel, fac, J = _hourly_inputs()
    basis = evaluate_basis("d8", J, panel.T)  # 13 panels, held outside the measurement
    try:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_iterative(panel, fac, basis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        tvload.wavelet._cached_basis.cache_clear()
    assert peak < panel.values.nbytes


@pytest.mark.parametrize("family,T,J,r", [
    pytest.param("haar", 1000, 5, 2, id="haar-1000"),
    pytest.param("haar", 32, 5, 1, id="haar-32"),  # Psi is square, so one factor
    pytest.param("d8", 512, 5, 2, id="d8-512"),
    pytest.param("d8", 1000, 5, 2, id="d8-1000"),
    pytest.param("d8", 2000, 6, 2, id="d8-2000"),
])
def test_other_designs_solve_without_psi_and_match_lstsq(family, T, J, r):
    # Haar cells of unequal length (T=1000) are padded to the longest, and at
    # T=2^J each cell is one point.  d8 takes the slabs: T=1000 and 2000 leave
    # a short last slab, and at T=2000 (2^J = 64) Psi'Y and the fitted panel
    # take four
    rng = np.random.default_rng(18)
    basis = evaluate_basis(family, J, T)
    d = build_design(_factors(rng.normal(size=(T, r))), basis)
    Y = rng.normal(size=(T, 4))
    Psi = _check_against_the_dense_design(d, Y)
    if family == "d8":  # the slab sums behind the eigendecomposition and the solve
        for got, ref in ((d._gram(), Psi.T @ Psi), (d._cross(Y), Psi.T @ Y)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family,T", [("haar", 256), ("haar", 200), ("d8", 256)])
def test_fitted_panel_is_psi_times_the_coefficients(family, T):
    rng = np.random.default_rng(25)
    basis = evaluate_basis(family, 3, T)
    fac = _factors(rng.normal(size=(T, 2)))
    beta = rng.normal(size=(5, 2, basis.n_columns))
    got = build_design(fac, basis).fitted(beta)
    ref = common_component(loadings_from_coeffs(beta, basis), fac.F)
    assert got.shape == (T, 5)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family,T", [("d8", 2048), ("haar", 2048), ("haar", 1000)],
                         ids=["d8-2048", "haar-2048", "haar-1000"])
def test_design_solve_matches_lstsq_on_an_ill_conditioned_design(family, T):
    rng = np.random.default_rng(12)
    r, N = 3, 5
    basis = evaluate_basis(family, select_resolution(T), T)
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
    # eigh factors every design: Haar's cell Grams, d8's Psi'Psi
    rng = np.random.default_rng(13)
    F = rng.normal(size=(16, 2))
    F[3, 1] = bad

    def factorize(*args, **kwargs):
        raise AssertionError("a non-finite Gram matrix reached the factorization")

    monkeypatch.setattr(np.linalg, "eigh", factorize)
    for family in ("haar", "d8"):
        d = build_design(_factors(F), evaluate_basis(family, 2, 16))
        with pytest.raises(NumericError, match="non-finite") as err:
            d.solve(rng.normal(size=(16, 2)))
        assert not isinstance(err.value, RankDeficiencyError)


@pytest.mark.parametrize("family,T,J", [("haar", 1024, 5), ("haar", 1000, 5), ("d8", 512, 5)],
                         ids=["haar-1024", "haar-1000", "d8-512"])
def test_a_design_is_decomposed_once(monkeypatch, family, T, J):
    # one eigh of the Gram blocks decides the rank, gives gram_condition and
    # keeps the inverse every solve reuses, and a rank report reads it too
    rng = np.random.default_rng(14)
    basis = evaluate_basis(family, J, T)
    calls = dict.fromkeys(["eigh", "cholesky", "inv", "svd"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    F = rng.normal(size=(T, 2))
    d = build_design(_factors(F), basis)
    d.solve(rng.normal(size=(T, 3)))
    d.solve(rng.normal(size=(T, 3)))
    assert d.gram_condition > 1.0
    assert calls == {"eigh": 1, "cholesky": 0, "inv": 0, "svd": 0}
    d = build_design(_factors(np.column_stack([F[:, 0], 2.0 * F[:, 0]])), basis)
    with pytest.raises(RankDeficiencyError, match="factor 2"):
        d.solve(rng.normal(size=(T, 3)))
    assert calls == {"eigh": 2, "cholesky": 0, "inv": 0, "svd": 0}


# At J = 0 (P = 2 columns) the rule lambda > lambda_max * P * eps lets about 3
# in 2000 exactly collinear designs through, on either family
@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["haar", "d8"]), T=st.integers(64, 512), J=st.integers(1, 3),
       c=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1), seed=st.integers(0, 2**32 - 1))
def test_exactly_collinear_factors_always_name_the_second(family, T, J, c, seed):
    f = np.random.default_rng(seed).normal(size=T)
    d = build_design(_factors(np.column_stack([f, c * f])), evaluate_basis(family, J, T))
    with pytest.raises(RankDeficiencyError) as err:
        d.solve(f[:, None])
    p = d.basis.n_columns
    assert _named_columns(str(err.value), d) == list(range(p, 2 * p))


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


def test_a_diagonal_weight_is_checked_by_its_diagonal(monkeypatch):
    rng = np.random.default_rng(9)
    basis, fac, _, _, panel = _random_instance(rng)
    d = build_design(fac, basis)
    for entry in (0.0, -0.0, -1.0):
        weight = np.eye(panel.N)
        weight[1, 1] = entry
        with pytest.raises(NumericError, match="not positive definite"):
            gls_step(panel, d, weight)
    expected = d.solve(panel.values)

    def cholesky(a):
        raise AssertionError("a diagonal weight was factorized")

    # the smallest positive diagonal is positive definite, and needs no factor
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    weight = np.diag(np.full(panel.N, 5e-324))
    assert np.array_equal(gls_step(panel, d, weight), expected)


def test_gls_symmetry_check_is_allclose_at_the_tolerance_edge():
    # |g - g'| <= 1e-10 + 1e-5 |g'|: an absolute edge near 0, a relative one
    # near 0.3, approached from both sides down to single ulps
    rng = np.random.default_rng(14)
    basis, fac, _, _, panel = _random_instance(rng)
    d = build_design(fac, basis)
    verdicts = []
    for value in (0.0, 0.3, -0.3):
        edge = 1e-10 + 1e-5 * abs(value)
        steps = [edge * s for s in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0)]
        for step in steps + [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]:
            gamma = 2.0 * np.eye(panel.N)
            gamma[1, 0] = value
            gamma[0, 1] = value + step
            expected = np.allclose(gamma, gamma.T, atol=1e-10)
            try:
                gls_step(panel, d, gamma)
                accepted = True
            except ParameterError:
                accepted = False
            assert accepted == expected, (value, step)
            verdicts.append(expected)
    assert True in verdicts and False in verdicts


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


def test_loadings_reject_coefficients_of_another_width():
    basis = evaluate_basis("haar", 2, 8)
    for beta in (np.ones((1, 1, 5)), np.ones((1, 4))):
        with pytest.raises(ShapeError):
            loading_rows(beta, basis)


def test_loadings_match_per_curve_reconstruction():
    rng = np.random.default_rng(11)
    basis = evaluate_basis("d8", 3, 48)
    beta = rng.normal(size=(4, 2, 8))
    Lambda = loadings_from_coeffs(beta, basis)
    for m in range(4):
        for n in range(2):
            assert_allclose(Lambda[:, m, n], basis.B @ beta[m, n], atol=0.0)


def _basis_product(beta, basis):
    T, p = basis.B.shape
    return (basis.B @ beta.reshape(-1, p).T).reshape(T, *beta.shape[:2])


def test_haar_field_on_a_dyadic_grid_is_exactly_block_constant():
    rng = np.random.default_rng(12)
    T, N, r, J = 2048, 100, 3, 6
    basis = evaluate_basis("haar", J, T)
    beta = rng.normal(size=(N, r, 2**J))
    Lambda = loadings_from_coeffs(beta, basis)
    bits = Lambda.reshape(T, -1).view(np.uint64)
    assert len(np.unique(bits, axis=0)) == 2**J
    blocks = bits.reshape(2**J, T // 2**J, -1)
    assert (blocks == blocks[:, :1]).all()
    ref = _basis_product(beta, basis)
    assert np.max(np.abs(Lambda - ref)) <= 1e-15 * np.max(np.abs(Lambda))


@pytest.mark.parametrize("family,T,J", [("d8", 512, 5), ("d8", 777, 4), ("d8", 64, 0),
                                        ("d8", 64, 1)])
def test_other_fields_are_the_basis_product_bit_for_bit(family, T, J):
    rng = np.random.default_rng(13)
    basis = evaluate_basis(family, J, T)
    # runs of one point at every J, a constant basis (J = 0) included
    assert basis.run_lengths.tolist() == [1] * T and basis.run_rows is basis.B
    beta = rng.normal(size=(6, 2, 2**J))
    assert np.array_equal(loadings_from_coeffs(beta, basis), _basis_product(beta, basis))


@pytest.mark.parametrize("T,J", [(777, 5), (1000, 5), (200, 3), (8760, 6)])
def test_haar_field_on_any_grid_is_exactly_constant_on_each_run(T, J):
    # 2^J runs, one per interval ((k-1)/2^J, k/2^J] of the grid t/T
    rng = np.random.default_rng(14)
    basis = evaluate_basis("haar", J, T)
    assert len(basis.run_lengths) == 2**J
    assert set(basis.run_lengths.tolist()) == {T // 2**J, -(-T // 2**J)}
    assert np.array_equal(np.repeat(basis.run_rows, basis.run_lengths, axis=0), basis.B)
    beta = rng.normal(size=(6, 2, 2**J))
    Lambda = loadings_from_coeffs(beta, basis)
    bits = Lambda.reshape(T, -1).view(np.uint64)
    assert len(np.unique(bits, axis=0)) == 2**J
    firsts = np.repeat(np.cumsum(basis.run_lengths) - basis.run_lengths, basis.run_lengths)
    assert (bits == bits[firsts]).all()
    ref = _basis_product(beta, basis)
    assert np.max(np.abs(Lambda - ref)) <= 1e-15 * np.max(np.abs(Lambda))


def test_a_d8_field_is_its_run_rows_without_a_copy():
    # every run of a d8 basis is one point long, so reading Lambda copies nothing
    rng = np.random.default_rng(15)
    T, N, r = 64, 4, 2
    basis = evaluate_basis("d8", 3, T)
    assert basis.run_lengths.tolist() == [1] * T and basis.run_rows is basis.B
    fac = _factors(rng.normal(size=(T, r)))
    fit = fit_iterative(make_panel(rng.normal(size=(T, N))), fac, basis)
    rows = fit.Lambda_rows
    assert rows.shape == (T, N, r)
    assert fit.Lambda is rows


# ---------------------------------------------------------------- residual cov


def _gamma_e(panel, fac, basis, beta):
    """The residual covariance of the fit with coefficients beta."""
    return GlsFit(beta, build_design(fac, basis), panel).Gamma_e


def test_residual_cov_zero_for_exact_fit():
    rng = np.random.default_rng(12)
    basis, fac, beta, Lambda, panel = _random_instance(rng)
    G = _gamma_e(panel, fac, basis, beta)
    assert np.max(np.abs(G)) <= 1e-12


def test_residual_cov_hand_case():
    # residuals e_1 = (1, 0), e_2 = (0, 1) against a zero model
    panel = make_panel(np.eye(2) + 0.0)
    fac = _factors(np.ones((2, 1)))
    G = _gamma_e(panel, fac, evaluate_basis("haar", 0, 2), np.zeros((2, 1, 1)))
    assert_allclose(G, 0.5 * np.eye(2), atol=0.0)


def test_residual_cov_matches_loop_oracle():
    rng = np.random.default_rng(13)
    basis, fac, beta, Lambda, clean = _random_instance(rng)
    panel = make_panel(clean.values + rng.normal(size=clean.values.shape))
    G = _gamma_e(panel, fac, basis, beta)
    T, N = panel.values.shape
    oracle = np.zeros((N, N))
    for t in range(T):
        e = panel.values[t] - Lambda[t] @ fac.F[t]
        oracle += np.outer(e, e)
    assert_allclose(G, oracle / T, atol=1e-12)
    assert_allclose(G, G.T, atol=0.0)
    assert np.linalg.eigvalsh(G)[0] >= -1e-12


@pytest.mark.parametrize("family,T,J", [("haar", 512, 5), ("haar", 777, 5), ("d8", 512, 4)])
def test_fit_residual_covariance_is_that_of_the_least_squares_residuals(family, T, J):
    rng = np.random.default_rng(26)
    N, r = 6, 2
    basis = evaluate_basis(family, J, T)
    F = rng.normal(size=(T, r))
    Y = F @ rng.normal(size=(r, N)) + rng.normal(size=(T, N))
    fit = fit_iterative(make_panel(Y), _factors(F), basis)
    # an independent least-squares fit on Psi = [B * F_1 | ... | B * F_r]
    Psi = np.hstack([basis.B * F[:, [i]] for i in range(r)])
    E = Y - Psi @ np.linalg.lstsq(Psi, Y, rcond=None)[0]
    ref = E.T @ E / T
    assert np.max(np.abs(fit.Gamma_e - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family,T,J", [("haar", 512, 5), ("haar", 777, 5), ("d8", 512, 4)])
def test_a_fit_over_many_slabs_is_the_fit_over_one(monkeypatch, family, T, J):
    # 64 values a slab: one run a chunk on Haar, 4 grid points a slab on d8
    rng = np.random.default_rng(27)
    N, r = 6, 2
    basis = evaluate_basis(family, J, T)
    F = rng.normal(size=(T, r))
    panel = make_panel(F @ rng.normal(size=(r, N)) + rng.normal(size=(T, N)))
    whole = fit_iterative(panel, _factors(F), basis)
    assert len(list(whole.design.fitted_slabs(whole.beta))) == 1
    X, G = whole.design.fitted(whole.beta), whole.Gamma_e
    monkeypatch.setattr(tvload.gls, "_SLAB_VALUES", 64)
    sliced = fit_iterative(panel, _factors(F), basis)
    assert len(list(sliced.design.fitted_slabs(sliced.beta))) >= 32
    assert np.max(np.abs(sliced.beta - whole.beta)) <= 1e-12 * np.max(np.abs(whole.beta))
    assert np.max(np.abs(sliced.design.fitted(whole.beta) - X)) <= 1e-14 * np.max(np.abs(X))
    assert np.max(np.abs(sliced.Gamma_e - G)) <= 1e-14 * np.max(np.abs(G))


# ---------------------------------------------------------------- common component


def test_common_component_cases():
    # the fitted panel is the common component of the coefficients' field
    rng = np.random.default_rng(14)
    basis, fac, beta, _, panel = _random_instance(rng)
    design = build_design(fac, basis)
    assert np.array_equal(design.fitted(np.zeros_like(beta)), np.zeros((panel.T, panel.N)))
    unit = np.zeros_like(beta)
    unit[:, 0, 0] = 1.0  # the scale coefficient: lambda = 1 on factor 1, 0 on factor 2
    X = design.fitted(unit)
    for m in range(panel.N):
        assert np.array_equal(X[:, m], fac.F[:, 0])


def test_common_component_matches_loop_oracle():
    rng = np.random.default_rng(15)
    basis, fac, beta, Lambda, panel = _random_instance(rng)
    X = build_design(fac, basis).fitted(beta)
    assert np.max(np.abs(X - common_component(Lambda, fac.F))) <= 1e-12
    T, N = panel.values.shape
    for t in range(T):
        for m in range(N):
            assert abs(X[t, m] - Lambda[t, m] @ fac.F[t]) <= 1e-12


# ---------------------------------------------------------------- iteration


def test_fit_noiseless_recovery_in_two_iterations():
    rng = np.random.default_rng(16)
    basis, fac, beta, Lambda, panel = _random_instance(rng, T=64, N=5, r=2, J=3)
    fit = fit_iterative(panel, fac, basis)
    assert np.max(np.abs(fit.Lambda - Lambda)) <= 1e-6


def test_fit_sur_collapse_second_delta_below_tolerance():
    # Kronecker weight + identical regressors: pass 2 reproduces pass 1
    rng = np.random.default_rng(17)
    basis, fac, _, _, clean = _random_instance(rng, T=48, N=6, r=1, J=2)
    panel = make_panel(clean.values + rng.normal(size=clean.values.shape))
    fit = fit_iterative(panel, fac, basis)
    design = build_design(fac, basis)
    assert np.array_equal(fit.beta, gls_step(panel, design, np.eye(panel.N)))


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


def _count_calls(monkeypatch, names):
    """Count the calls to the named gls functions, and to ``DesignBlock.fitted_slabs``."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        owner = tvload.gls.DesignBlock if name == "fitted_slabs" else tvload.gls
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def test_fit_keeps_the_first_pass_covariance_when_nothing_moves(monkeypatch):
    rng = np.random.default_rng(20)
    basis, fac, _, _, clean = _random_instance(rng)
    panel = make_panel(clean.values + 0.5 * rng.normal(size=clean.values.shape))
    calls = _count_calls(monkeypatch, ["fitted_slabs", "loading_rows"])
    fit = fit_iterative(panel, fac, basis)
    # the one pass over the fitted slabs so far is pass 1's, for the pass-2 weight
    assert calls == {"fitted_slabs": 1, "loading_rows": 0}
    gamma = fit.Gamma_e
    assert fit.Gamma_e is gamma and fit.Lambda is fit.Lambda
    assert calls == {"fitted_slabs": 2, "loading_rows": 1}
    design = build_design(fac, basis)
    E = panel.values - design.fitted(gls_step(panel, design, np.eye(panel.N)))
    assert np.array_equal(gamma, E.T @ E / panel.T)


def _wide_fit_inputs():
    rng = np.random.default_rng(23)
    T, N, r = 2048, 100, 3
    F = rng.normal(size=(T, r))
    panel = standardize(make_panel(F @ rng.normal(size=(r, N)) + rng.normal(size=(T, N))))
    return panel, pca_factors(panel, r), evaluate_basis("haar", 6, T)


def test_fit_peaks_under_twice_the_loading_field():
    panel, fac, basis = _wide_fit_inputs()
    fit_iterative(panel, fac, basis)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit = fit_iterative(panel, fac, basis)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * fit.Lambda.nbytes


def test_d8_fit_peaks_under_the_size_of_psi():
    rng = np.random.default_rng(26)
    T, N, r = 2048, 20, 2
    F = rng.normal(size=(T, r))
    panel = standardize(make_panel(F @ rng.normal(size=(r, N)) + rng.normal(size=(T, N))))
    fac = pca_factors(panel, r)
    basis = evaluate_basis("d8", select_resolution(T), T)
    psi_bytes = T * r * basis.n_columns * 8
    fit_iterative(panel, fac, basis)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_iterative(panel, fac, basis)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < psi_bytes


def test_kronecker_fit_builds_one_field_from_two_solves(monkeypatch):
    panel, fac, basis = _wide_fit_inputs()
    calls = _count_calls(monkeypatch, ["gls_step", "loading_rows", "fitted_slabs"])
    fit = fit_iterative(panel, fac, basis)
    assert calls == {"gls_step": 2, "loading_rows": 0, "fitted_slabs": 1}
    field = fit.Lambda
    assert fit.Lambda is field
    # the field is the fit's run rows spread over the grid, built once
    assert calls == {"gls_step": 2, "loading_rows": 1, "fitted_slabs": 1}
    assert len(fit.Lambda_rows) == basis.n_columns
    assert np.array_equal(field, loadings_from_coeffs(fit.beta, basis))


def test_extracted_factor_residual_covariance_has_rank_n_minus_r():
    # F = Z W lies in the span of the panel, and Haar's scale column puts every
    # factor path in the span of Psi, so the residuals annihilate W
    N, T, r = 20, 1024, 2
    panel = standardize(make_panel(simulate_dgp(DgpConfig(N=N, T=T, r=r, seed=7)).Y))
    fac = pca_factors(panel, r)
    fit = fit_iterative(panel, fac, evaluate_basis("haar", select_resolution(T), T))
    w = np.linalg.eigvalsh(fit.Gamma_e)
    assert np.sum(w < 1e-12 * w[-1]) == r
    assert w[r] > 1e-6 * w[-1]


def test_fit_flags_a_second_pass_that_moves(monkeypatch):
    # the Kronecker weight cancels, so only a perturbed solver can move pass 2
    rng = np.random.default_rng(19)
    basis, fac, _, _, clean = _random_instance(rng)
    # noise keeps the residual variances above rounding level
    panel = make_panel(clean.values + 0.5 * rng.normal(size=clean.values.shape))
    weights = []

    def moving_step(panel, design, gamma_e, sigma_full=None):
        weights.append(gamma_e)
        return gls_step(panel, design, gamma_e, sigma_full) + 0.01 * (len(weights) - 1)

    monkeypatch.setattr(tvload.gls, "gls_step", moving_step)
    fit = fit_iterative(panel, fac, basis)
    assert len(weights) == 2
    assert np.array_equal(weights[0], np.eye(panel.N))
    # pass 2 weighs each series by its pass-1 residual variance
    first_beta = gls_step(panel, build_design(fac, basis), weights[0])
    E = panel.values - common_component(loadings_from_coeffs(first_beta, basis), fac.F)
    variance = (E ** 2).sum(axis=0) / panel.T
    assert np.count_nonzero(weights[1] - np.diag(np.diag(weights[1]))) == 0
    assert_allclose(np.diag(weights[1]), variance, rtol=1e-12, atol=0.0)
    # the fit is pass 2's, and its covariance that of pass 2's residuals
    assert np.array_equal(fit.beta, first_beta + 0.01)
    assert np.array_equal(fit.Lambda, loadings_from_coeffs(fit.beta, basis))
    E = panel.values - common_component(fit.Lambda, fac.F)
    assert_allclose(fit.Gamma_e, E.T @ E / panel.T, rtol=0.0,
                    atol=1e-12 * np.max(np.abs(fit.Gamma_e)))


def test_second_pass_weighs_an_exactly_fitted_series_by_one(monkeypatch):
    # an all-zero series has zero coefficients and zero residuals
    rng = np.random.default_rng(24)
    basis, fac, _, _, clean = _random_instance(rng)
    values = clean.values + rng.normal(size=clean.values.shape)
    values[:, 1] = 0.0
    panel = make_panel(values)
    weights = []

    def recorded_step(panel, design, gamma_e, sigma_full=None):
        weights.append(gamma_e)
        return gls_step(panel, design, gamma_e, sigma_full)

    monkeypatch.setattr(tvload.gls, "gls_step", recorded_step)
    fit = fit_iterative(panel, fac, basis)
    variance = np.diag(weights[1])
    assert variance[1] == 1.0
    assert np.all(variance > 0.0) and np.count_nonzero(variance == 1.0) == 1
    assert np.all(fit.beta[1] == 0.0)


# ---------------------------------------------------------------- artifacts


def test_coefficients_csv_round_trip(tmp_path):
    # rows are labelled with the fit's ids, columns with the (j, k) of its basis
    rng = np.random.default_rng(21)
    basis, fac, _, _, panel = _random_instance(rng)
    fits = [fit_iterative(panel, fac, basis)]
    ids = ["a,b", 'say "hi"', 'c,"d"', "s4", "s5"]
    for family, T, J in [("haar", 512, 5), ("haar", 777, 5), ("d8", 512, 4)]:
        F = rng.normal(size=(T, 2))
        Y = F @ rng.normal(size=(2, len(ids))) + rng.normal(size=(T, len(ids)))
        fits.append(fit_iterative(make_panel(Y, ids), _factors(F), evaluate_basis(family, J, T)))
    for k, fit in enumerate(fits):
        path = tmp_path / f"coef{k}.csv"
        write_coefficients_csv(fit, path)
        beta = read_coefficients_csv(path, fit.panel.series_ids, fit.design.basis,
                                     fit.beta.shape[1])
        assert np.array_equal(beta, fit.beta), k  # .17g round-trips exactly


def test_a_coefficient_named_twice_is_rejected(tmp_path):
    rng = np.random.default_rng(21)
    basis, fac, _, _, panel = _random_instance(rng)
    fit = fit_iterative(panel, fac, basis)
    path = tmp_path / "coef.csv"
    write_coefficients_csv(fit, path)
    lines = path.read_text().splitlines(keepends=True)
    # a later line naming the first coefficient again would overwrite it
    path.write_text("".join([*lines, lines[1].rsplit(",", 1)[0] + ",123.0\n"]))
    with pytest.raises(ShapeError, match=r"\('s1', '1', '-1', '0'\) appears twice"):
        read_coefficients_csv(path, panel.series_ids, basis, fit.beta.shape[1])


def test_loadings_and_covariance_csv_headers(tmp_path):
    rng = np.random.default_rng(22)
    basis, fac, _, _, panel = _random_instance(rng, T=16, N=2, r=1, J=2)
    fit = fit_iterative(panel, fac, basis)
    lp = tmp_path / "load.csv"
    cp = tmp_path / "cov.csv"
    write_loadings_csv(fit, lp)
    write_covariance_csv(fit, cp)
    lines = lp.read_text().splitlines()
    assert lines[0] == "t,series,factor,lambda_hat"
    assert len(lines) == 1 + 16 * 2 * 1
    cov_lines = cp.read_text().splitlines()
    assert cov_lines[0] == "series,s1,s2"
    assert float(cov_lines[1].split(",")[1]) == fit.Gamma_e[0, 0]
