"""Panel handling, principal-component and lag-covariance factor extraction."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tvload.errors import (
    DegenerateSeriesError,
    MissingDataError,
    NumericError,
    ParameterError,
    ShapeError,
)
from tvload.factors import (
    FactorSelection,
    first_difference,
    generalized_covariance,
    make_panel,
    nonstationary_factors,
    pca_factors,
    read_panel_csv,
    restore_level,
    scale_only,
    select_num_factors,
    standardize,
    write_panel_csv,
)
from tvload.gls import build_design, gls_step
from tvload.sim import DgpConfig, simulate_dgp
from tvload.wavelet import evaluate_basis

from reference import common_component, loadings_from_coeffs


def _random_panel(rng, T, N):
    return make_panel(rng.normal(size=(T, N)))


# ---------------------------------------------------------------- panels


def test_make_panel_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        make_panel(np.ones(5))
    with pytest.raises(ShapeError):
        make_panel(np.ones((1, 4)))
    with pytest.raises(ShapeError):
        make_panel(np.ones((4, 2)), series_ids=("a",))


def test_make_panel_rejects_non_finite_cells():
    vals = np.ones((4, 2))
    vals[2, 1] = np.nan
    with pytest.raises(MissingDataError):
        make_panel(vals)


def test_panel_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    p = make_panel(rng.normal(size=(6, 3)), series_ids=("x", "y", "z"))
    path = tmp_path / "p.csv"
    write_panel_csv(p, path)
    q = read_panel_csv(path)
    assert q.series_ids == ("x", "y", "z")
    assert np.array_equal(q.values, p.values)  # .17g is lossless for float64


def test_reading_a_panel_peaks_under_two_and_a_half_times_its_values(tmp_path):
    # the cells are parsed into one packed buffer, not a list of Python floats
    rng = np.random.default_rng(1)
    path = tmp_path / "p.csv"
    write_panel_csv(make_panel(rng.normal(size=(2048, 100))), path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        panel = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert panel.values.shape == (2048, 100)
    assert peak <= 2.5 * panel.values.nbytes


def test_read_panel_csv_rejects_duplicate_series_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,a,b,a\n1,1.0,2.0,3.0\n2,4.0,5.0,6.0\n")
    with pytest.raises(ParameterError, match="duplicate series id 'a'"):
        read_panel_csv(path)


@pytest.mark.parametrize("bad", [" a", "a ", "a\t", "\na", "a/b", "/", "a\0b"])
def test_make_panel_rejects_series_ids_that_cannot_round_trip(bad):
    # a header read strips ids, and bootstrap writes plot_<id>_factor<k>.csv
    with pytest.raises(ParameterError, match="series id " + re.escape(repr(bad))):
        make_panel(np.ones((4, 2)), series_ids=("b", bad))


def test_read_panel_csv_reports_missing_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a,b\n1,1.0,2.0\n2,,3.0\n3,4.0,oops\n")
    with pytest.raises(MissingDataError) as err:
        read_panel_csv(path)
    assert "row 3" in str(err.value)
    assert "row 4" in str(err.value)


# ---------------------------------------------------------------- standardize


def test_standardize_small_column():
    p = make_panel(np.array([[1.0, 9.0], [2.0, 9.5], [3.0, 8.5]]))
    s = standardize(p)
    assert_allclose(s.values[:, 0], [-1.0, 0.0, 1.0])
    assert_allclose(s.means, [2.0, 9.0])
    assert_allclose(s.sds, [1.0, 0.5])


def test_standardize_is_idempotent():
    rng = np.random.default_rng(1)
    p = _random_panel(rng, 30, 4)
    s = standardize(p)
    assert standardize(s) is s
    # the in-place division rounds as (values - means) / sds
    assert np.array_equal(s.values, (p.values - s.means) / s.sds)
    # a rescaled panel carries scales but no means, so it is still centered
    scaled = scale_only(_random_panel(rng, 30, 4))
    centered = standardize(scaled)
    assert centered is not scaled
    assert_allclose(centered.values.mean(axis=0), 0.0, atol=1e-12)


def test_standardize_names_constant_series():
    p = make_panel(np.column_stack([np.arange(4.0), np.full(4, 5.0)]),
                   series_ids=("ok", "flat"))
    with pytest.raises(DegenerateSeriesError) as err:
        standardize(p)
    assert "flat" in str(err.value)


def test_scale_only_keeps_levels():
    rng = np.random.default_rng(2)
    p = make_panel(rng.normal(loc=10.0, size=(50, 3)))
    s = scale_only(p)
    assert_allclose(s.values.std(axis=0, ddof=1), 1.0)
    # not centered: the level survives the rescale
    assert np.all(s.values.mean(axis=0) > 1.0)
    with pytest.raises(DegenerateSeriesError):
        scale_only(make_panel(np.column_stack([np.arange(4.0), np.ones(4)])))


def test_first_difference_shrinks_grid():
    p = make_panel(np.arange(10.0).reshape(5, 2))
    d = first_difference(p)
    assert d.T == 4
    assert_allclose(d.values, 2.0)
    with pytest.raises(ShapeError):
        first_difference(make_panel(np.ones((2, 2)) + np.eye(2)))


# ---------------------------------------------------------------- pca


def test_pca_rank_one_panel_recovers_factor():
    rng = np.random.default_rng(3)
    f = rng.normal(size=200)
    lam = rng.normal(size=8)
    est = pca_factors(make_panel(np.outer(f, lam)), 1)
    corr = np.corrcoef(est.F[:, 0], f)[0, 1]
    assert abs(corr) >= 1.0 - 1e-12


def test_pca_factor_normalization():
    rng = np.random.default_rng(4)
    p = standardize(_random_panel(rng, 64, 10))
    est = pca_factors(p, 3)
    assert_allclose(est.F.T @ est.F / p.T, np.eye(3), atol=1e-8)
    assert est.method == "pca"


def test_pca_matches_dense_eigendecomposition_oracle():
    # 4x3 integer panel against a full T x T symmetric eigensolve
    Y = np.array(
        [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    )
    T, N = Y.shape
    w, V = np.linalg.eigh(Y @ Y.T / (N * T))
    order = np.argsort(w)[::-1]
    V = V[:, order]
    est = pca_factors(make_panel(Y), 2)
    for i in range(2):
        oracle = np.sqrt(T) * V[:, i]
        diff = min(
            np.max(np.abs(est.F[:, i] - oracle)),
            np.max(np.abs(est.F[:, i] + oracle)),
        )
        assert diff <= 1e-10


def test_pca_sign_convention_is_deterministic():
    rng = np.random.default_rng(5)
    p = standardize(_random_panel(rng, 40, 6))
    est = pca_factors(p, 2)
    for i in range(2):
        lead = np.argmax(np.abs(est.F[:, i]))
        assert est.F[lead, i] > 0


def test_pca_r_out_of_range():
    p = make_panel(np.random.default_rng(6).normal(size=(10, 4)))
    with pytest.raises(ParameterError):
        pca_factors(p, 0)
    with pytest.raises(ParameterError):
        pca_factors(p, 5)


def test_pca_gram_duality():
    # leading eigenvalues agree between the T x T and N x N problems
    rng = np.random.default_rng(7)
    Y = standardize(_random_panel(rng, 50, 12)).values
    T, N = Y.shape
    big = np.sort(np.linalg.eigvalsh(Y @ Y.T / (N * T)))[::-1][:N]
    small = np.sort(np.linalg.eigvalsh(Y.T @ Y / (N * T)))[::-1]
    assert_allclose(big, small, atol=1e-9)


def test_pca_spectrum_invariant_under_orthogonal_row_mixing():
    rng = np.random.default_rng(8)
    p = standardize(_random_panel(rng, 24, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(24, 24)))
    rotated = make_panel(Q @ p.values)
    a = pca_factors(p, 2).eigenvalues
    b = pca_factors(rotated, 2).eigenvalues
    assert_allclose(a, b, atol=1e-10)


def test_pca_trace_objective_beats_random_candidates():
    rng = np.random.default_rng(9)
    p = standardize(_random_panel(rng, 40, 8))
    est = pca_factors(p, 2)
    G = p.values @ p.values.T
    best = np.trace(est.F.T @ G @ est.F)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.normal(size=(40, 2)))
        cand = np.sqrt(p.T) * Q
        assert np.trace(cand.T @ G @ cand) <= best + 1e-8


# ---------------------------------------------------------------- level restore


def _leveled_rank_r_panel(rng, T, N, r):
    # exact rank-r panel whose factors have a nonzero sample mean
    F0 = rng.normal(size=(T, r)) + np.array([3.0, -2.0])[:r]
    lam = rng.normal(size=(N, r))
    return make_panel(F0 @ lam.T)


def _stage_two_residual(panel, est):
    basis = evaluate_basis("haar", 1, panel.T)
    beta = gls_step(panel, build_design(est, basis), np.eye(panel.N))
    fitted = common_component(loadings_from_coeffs(beta, basis), est.F)
    return float(np.max(np.abs(panel.values - fitted)))


@pytest.mark.parametrize("T, N", [(64, 8), (8, 12)])  # both Gram branches
def test_restore_level_gives_exact_stage_two_fit_on_raw_panel(T, N):
    rng = np.random.default_rng(20)
    panel = _leveled_rank_r_panel(rng, T, N, 2)
    work = standardize(panel)
    centered = pca_factors(work, 2)
    leveled = restore_level(work, centered)
    scale = float(np.max(np.abs(panel.values)))
    # centered scores leave the constant Lambda * mean(F) unexplained
    assert _stage_two_residual(panel, centered) > 1e-2 * scale
    assert _stage_two_residual(panel, leveled) <= 1e-10 * scale
    assert leveled.method == "pca" and leveled.r == 2
    assert np.array_equal(leveled.eigenvalues, centered.eigenvalues)


@pytest.mark.parametrize("T, N", [(64, 8), (8, 12)])
def test_restore_level_applies_the_pca_loading_map_to_the_scaled_panel(T, N):
    rng = np.random.default_rng(21)
    panel = make_panel(rng.normal(loc=5.0, size=(T, N)))
    work = standardize(panel)
    est = pca_factors(work, 3)
    Z = work.values
    W = Z.T @ est.F / (N * T * est.eigenvalues[:3])
    assert_allclose(Z @ W, est.F, atol=1e-10)
    leveled = restore_level(work, est)
    assert_allclose(leveled.F, panel.values / work.sds @ W, atol=1e-10)
    # the scores shift by a constant row; their sample covariance is unchanged
    assert_allclose(leveled.F - leveled.F.mean(axis=0), est.F, atol=1e-10)


def test_restore_level_validation():
    rng = np.random.default_rng(22)
    panel = make_panel(rng.normal(size=(8, 12)))
    work = standardize(panel)
    est = pca_factors(work, 2)
    dead = replace(est, eigenvalues=np.concatenate([[0.0], est.eigenvalues[1:]]))
    with pytest.raises(NumericError):
        restore_level(work, dead)
    with pytest.raises(ParameterError):
        restore_level(panel, pca_factors(panel, 2))  # never centered
    with pytest.raises(ParameterError):
        restore_level(work, nonstationary_factors(work, 2))


# ---------------------------------------------------------------- lag covariance


def test_generalized_covariance_constant_panel_is_zero():
    p = make_panel(np.tile([3.0, -1.0], (8, 1)) + 1e-9 * np.eye(8, 2))
    C = generalized_covariance(p, 1)
    assert np.max(np.abs(C)) <= 1e-12


def test_generalized_covariance_k0_equals_scaled_sample_covariance():
    rng = np.random.default_rng(10)
    p = _random_panel(rng, 37, 5)
    C = generalized_covariance(p, 0)
    dev = p.values - p.values.mean(axis=0)
    assert_allclose(C, dev.T @ dev / p.T**3, atol=1e-15)
    assert_allclose(C, np.cov(p.values.T, ddof=0) / p.T**2, atol=1e-15)


def test_generalized_covariance_hand_panel_k1():
    # 3x2 panel, k=1: brute-force T^-3 scaled cross products
    Y = np.array([[1.0, 2.0], [3.0, 5.0], [2.0, 4.0]])
    p = make_panel(Y)
    T = 3
    dev = Y - Y.mean(axis=0)
    raw = sum(np.outer(dev[t - 1], dev[t]) for t in range(1, T)) / T**3
    C = generalized_covariance(p, 1)
    assert_allclose(C, (raw + raw.T) / 2.0, atol=1e-15)


def test_generalized_covariance_lag_bound():
    p = make_panel(np.random.default_rng(11).normal(size=(6, 2)))
    with pytest.raises(ParameterError):
        generalized_covariance(p, 6)


def test_nonstationary_factors_recover_random_walk():
    rng = np.random.default_rng(12)
    f = np.cumsum(rng.normal(size=400))
    lam = rng.uniform(0.5, 1.5, size=10)
    est = nonstationary_factors(make_panel(np.outer(f, lam)), 1)
    corr = np.corrcoef(est.F[:, 0], f)[0, 1]
    assert abs(corr) >= 0.9999
    assert est.method == "lag_covariance"


def test_nonstationary_factor_weights_are_orthonormal():
    rng = np.random.default_rng(13)
    p = _random_panel(rng, 60, 6)
    est = nonstationary_factors(p, 2, k=1)
    # recover the eigenvector block: F = Y L with L orthonormal
    L, *_ = np.linalg.lstsq(p.values, est.F, rcond=None)
    assert_allclose(L.T @ L, np.eye(2), atol=1e-10)


def test_nonstationary_leading_eigenvalue_shrinks_for_noise():
    # i.i.d. noise has no common stochastic trend: the T^-3-scaled lag
    # covariance collapses as T grows
    rng = np.random.default_rng(14)
    ratios = []
    for _ in range(100):
        small = nonstationary_factors(
            make_panel(rng.normal(size=(200, 10))), 1
        ).eigenvalues[0]
        big = nonstationary_factors(
            make_panel(rng.normal(size=(2000, 10))), 1
        ).eigenvalues[0]
        ratios.append(small / big)
    assert np.mean(ratios) > 5.0


# ---------------------------------------------------------------- selection


def test_select_two_noiseless_factors():
    rng = np.random.default_rng(15)
    F = rng.normal(size=(512, 2))
    lam = rng.normal(size=(20, 2))
    sel = select_num_factors(make_panel(F @ lam.T), 6)
    assert sel.r == 2


def test_select_two_noisy_factors_skips_trivial_plateau():
    # small c always yields a stable plateau at r_max; the rule must not
    # report it when an informative plateau exists
    rng = np.random.default_rng(15)
    F = rng.normal(size=(512, 2))
    lam = rng.normal(size=(20, 2))
    Y = F @ lam.T + 0.5 * rng.normal(size=(512, 20))
    sel = select_num_factors(make_panel(Y), 6)
    assert sel.r == 2
    assert any(iv[2] == 6 for iv in sel.intervals)  # the trivial one exists


def test_the_plateau_width_is_the_chosen_plateaus():
    # the trivial plateau at r_max is the widest, and r = 2 has two plateaus
    intervals = ((0.01, 1.0, 6, 0.99), (1.2, 1.5, 2, 0.3), (2.0, 2.1, 2, 0.1))
    grid = np.zeros(3)
    sel = FactorSelection(r=2, r_max=6, c_grid=grid, r_full=grid, r_sub=grid[None],
                          variance=grid, ic_full=grid[:, None], intervals=intervals)
    assert sel.plateau_width == 0.3


def test_select_on_a_standardized_panel_matches_the_panel_as_read():
    # estimate hands selection its standardized panel, which selection takes as is
    rng = np.random.default_rng(18)
    Y = rng.normal(size=(256, 2)) @ rng.normal(size=(2, 15)) + 0.5 * rng.normal(size=(256, 15))
    p = make_panel(3.0 + Y * rng.uniform(0.5, 2.0, 15))
    got, ref = select_num_factors(standardize(p)), select_num_factors(p)
    assert got.r == ref.r == 2
    assert got.intervals == ref.intervals
    assert np.array_equal(got.r_sub, ref.r_sub)
    assert np.array_equal(got.ic_full, ref.ic_full)


def test_select_zero_factors_for_pure_noise():
    rng = np.random.default_rng(16)
    sel = select_num_factors(make_panel(rng.normal(size=(256, 20))), 5)
    assert sel.r == 0


def test_select_diagnostics_shapes():
    rng = np.random.default_rng(17)
    sel = select_num_factors(make_panel(rng.normal(size=(128, 10))), 4)
    assert sel.c_grid.shape == sel.variance.shape == sel.r_full.shape
    assert sel.ic_full.shape == (sel.c_grid.size, 5)
    assert all(lo <= hi for lo, hi, _, _ in sel.intervals)


def test_select_parameter_validation():
    p = make_panel(np.random.default_rng(18).normal(size=(32, 6)))
    with pytest.raises(ParameterError):
        select_num_factors(p, 6)  # r_max must stay below min(N, T)


def test_select_hands_out_a_read_only_penalty_grid():
    p = make_panel(np.random.default_rng(18).normal(size=(32, 6)))
    sel = select_num_factors(p, 3)
    assert np.array_equal(sel.c_grid, np.linspace(0.01, 3.0, 60))
    with pytest.raises(ValueError):
        sel.c_grid[0] = 1.0
    assert select_num_factors(p, 3).c_grid[0] == 0.01


def test_select_first_difference_handles_random_walk_panel():
    rng = np.random.default_rng(19)
    F = np.cumsum(rng.normal(size=(400, 1)), axis=0)
    lam = rng.uniform(0.5, 1.5, size=(15, 1))
    Y = F @ lam.T + 0.3 * rng.normal(size=(400, 15))
    sel = select_num_factors(make_panel(Y), 5, first_difference_panel=True)
    assert sel.r == 1


@pytest.mark.parametrize("T", [512, 1024])
def test_select_on_simulated_integrated_and_stationary_panels(T):
    # PANIC (Bai and Ng 2004): integrated factors are counted on the
    # differenced panel; stationary ones on the levels
    def chosen(theta, differenced):
        return [select_num_factors(
            make_panel(simulate_dgp(DgpConfig(N=20, T=T, r=2, theta=(theta, theta),
                                              seed=seed)).Y),
            first_difference_panel=differenced).r for seed in range(20)]

    assert chosen(1.0, True).count(2) >= 19
    for theta in (0.0, 0.5):
        assert chosen(theta, False).count(2) >= 19
