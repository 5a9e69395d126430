"""Residual bootstrap bands: degenerate cases, determinism, nesting, coverage."""

import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tvload.bootstrap as bt
import tvload.gls
from tvload.bootstrap import residual_bootstrap, write_bands_csv, write_plot_csv
from tvload.errors import ParameterError, RankDeficiencyError
from tvload.factors import FactorEstimate, make_panel
from tvload.gls import GlsFit, build_design, fit_iterative
from tvload.sim import DgpConfig, simulate_dgp
from tvload.wavelet import evaluate_basis, select_resolution

from reference import loadings_from_coeffs


def _true_factor_estimate(F):
    return FactorEstimate(F=F, eigenvalues=np.zeros(F.shape[1]), method="pca")


def _noisy_fit(seed, T=64, N=5, r=1, J=3, noise=1.0, family="haar"):
    rng = np.random.default_rng(seed)
    basis = evaluate_basis(family, J, T)
    F = rng.normal(size=(T, r))
    beta = rng.normal(size=(N, r, 2**J))
    Lambda = loadings_from_coeffs(beta, basis)
    Y = np.einsum("tmi,ti->tm", Lambda, F) + noise * rng.normal(size=(T, N))
    panel = make_panel(Y)
    fac = _true_factor_estimate(F)
    return panel, fac, basis, fit_iterative(panel, fac, basis)


def _draw_panel(panel, fit, fac, seed, b):
    """Bootstrap panel b: the fitted panel Psi beta plus whole residual rows
    resampled with the draw's own RNG."""
    X_hat = fit.design.fitted(fit.beta)
    E = panel.values - X_hat
    idx = np.random.default_rng([seed, b]).integers(0, E.shape[0], size=E.shape[0])
    return make_panel(X_hat + E[idx], panel.series_ids)


def _reference_bands(panel, fit, fac, basis, B, level, seed):
    """The per-draw rule, one full refit each: refit every bootstrap panel
    with fit_iterative, stack the loading fields, np.quantile."""
    draws = [fit_iterative(_draw_panel(panel, fit, fac, seed, b), fac, basis).Lambda
             for b in range(1, B + 1)]
    stack = np.stack(draws, axis=0)
    return np.quantile(stack, [(1.0 - level) / 2.0, (1.0 + level) / 2.0],
                       axis=0, method="linear")


# ---------------------------------------------------------------- degenerate


def test_zero_residual_fit_collapses_the_bands():
    panel, fac, basis, fit = _noisy_fit(0, noise=0.0)
    bands = residual_bootstrap(panel, fit, fac, basis, B=20, seed=1)
    assert np.max(bands.upper - bands.lower) <= 1e-10
    assert_allclose(bands.lower, fit.Lambda, atol=1e-10)


def test_band_ordering_and_nesting():
    panel, fac, basis, fit = _noisy_fit(1)
    wide = residual_bootstrap(panel, fit, fac, basis, B=40, level=0.95, seed=2)
    narrow = residual_bootstrap(panel, fit, fac, basis, B=40, level=0.90, seed=2)
    assert np.all(wide.lower <= wide.upper)
    # same seed, same draws: 90% bands sit inside the 95% bands pointwise
    assert np.all(wide.lower <= narrow.lower)
    assert np.all(narrow.upper <= wide.upper)


# ---------------------------------------------------------------- determinism


def test_identical_seeds_give_identical_bands():
    panel, fac, basis, fit = _noisy_fit(2)
    a = residual_bootstrap(panel, fit, fac, basis, B=15, seed=7)
    b = residual_bootstrap(panel, fit, fac, basis, B=15, seed=7)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
    c = residual_bootstrap(panel, fit, fac, basis, B=15, seed=8)
    assert not np.array_equal(a.lower, c.lower)


@pytest.mark.parametrize("n_threads", [2, 3, 4, 13])
def test_thread_pool_matches_serial_execution(n_threads):
    # B = 13 stripes unevenly over 2, 3 and 4 workers, and one draw a worker at
    # 13; a short switch interval interleaves the workers' writes to the store
    panel, fac, basis, fit = _noisy_fit(3)
    serial = residual_bootstrap(panel, fit, fac, basis, B=13, seed=5, n_threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = residual_bootstrap(panel, fit, fac, basis, B=13, seed=5, n_threads=n_threads)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.lower, pooled.lower)
    assert np.array_equal(serial.upper, pooled.upper)


@pytest.mark.parametrize("B, n_threads, tasks", [(12, 3, 3), (2, 4, 2)])
def test_each_worker_gets_one_striped_task(monkeypatch, B, n_threads, tasks):
    panel, fac, basis, fit = _noisy_fit(4)
    submitted = []
    submit = bt.ThreadPoolExecutor.submit

    def counted(pool, fn, /, *args, **kwargs):
        submitted.append(args)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(bt.ThreadPoolExecutor, "submit", counted)
    residual_bootstrap(panel, fit, fac, basis, B=B, seed=2, n_threads=n_threads)
    assert len(submitted) == tasks


# ---------------------------------------------------------------- fixed-factor path


@pytest.mark.parametrize("family, T, N, r, J", [
    ("haar", 64, 5, 2, 3),
    ("d8", 64, 5, 2, 3),
    ("haar", 16, 24, 1, 2),  # T < N: the residual covariance is singular
])
def test_fixed_factor_bands_match_the_per_draw_refits(family, T, N, r, J):
    panel, fac, basis, fit = _noisy_fit(10, T=T, N=N, r=r, J=J, family=family)
    bands = residual_bootstrap(panel, fit, fac, basis, B=30, level=0.9, seed=4)
    lo, hi = _reference_bands(panel, fit, fac, basis, B=30, level=0.9, seed=4)
    tol = 1e-12 * np.max(np.abs(fit.Lambda))
    assert np.max(np.abs(bands.lower - lo)) <= tol
    assert np.max(np.abs(bands.upper - hi)) <= tol


def test_a_draw_makes_its_two_solves_and_builds_no_field(monkeypatch):
    panel, fac, basis, fit = _noisy_fit(14, T=64, N=5, r=2)
    calls = dict.fromkeys(["gls_step", "loading_rows", "fitted_slabs"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        owner = tvload.gls.DesignBlock if name == "fitted_slabs" else tvload.gls
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    B = 12
    residual_bootstrap(panel, fit, fac, basis, B=B, seed=3, n_threads=2)
    # one pass over the fitted slabs for the point estimate's fitted panel, one
    # per draw for its pass-2 weight, and no loading field at all
    assert calls == {"gls_step": 2 * B, "loading_rows": 0, "fitted_slabs": B + 1}


def test_draws_keep_coefficients_not_loading_fields():
    # the draws' loading fields alone would take B*T*N*r float64 values
    T, N, r, J, B = 256, 10, 2, 4, 200
    panel, fac, basis, fit = _noisy_fit(13, T=T, N=N, r=r, J=J)
    tracemalloc.start()
    try:
        residual_bootstrap(panel, fit, fac, basis, B=B, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * T * N * r * 8 / 4


@pytest.mark.parametrize("n", [1, 2, 40, 200])
def test_sorted_quantile_is_numpys_linear_quantile(n):
    rng = np.random.default_rng(n)
    tied = rng.integers(-2, 3, size=(30, n)) * 0.5  # few distinct values
    smooth = rng.normal(size=(30, n))
    rows = np.vstack([tied, smooth])
    ordered = np.sort(rows, axis=1)
    for level in (0.5, 0.9, 0.95, 0.99):
        for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0):
            expected = np.quantile(rows, q, axis=1, method="linear")
            got = bt._sorted_quantile(ordered, q)
            assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- failure handling


def test_validation():
    panel, fac, basis, fit = _noisy_fit(5)
    with pytest.raises(ParameterError):
        residual_bootstrap(panel, fit, fac, basis, B=0)
    for level in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ParameterError):
            residual_bootstrap(panel, fit, fac, basis, B=5, level=level)


def test_a_panel_factors_or_basis_not_the_fits_is_rejected():
    # a Haar J=4 fit, and the d8 J=4 basis with as many columns: this once ran
    # and gave bands that held the point estimate at 65% of the grid
    panel, fac, basis, fit = _noisy_fit(1, T=256, N=6, J=4)
    others = [
        (panel, fac, evaluate_basis("d8", 4, 256), "basis d8 J=4 T=256 is not the fit's"),
        (make_panel(panel.values + 1.0), fac, basis, "panel is not"),
        (panel, _true_factor_estimate(2.0 * fac.F), basis, "factors are not"),
    ]
    for other_panel, other_fac, other_basis, message in others:
        with pytest.raises(ParameterError, match=message):
            residual_bootstrap(other_panel, fit, other_fac, other_basis, B=20, seed=1)
    # equal copies are the fit's own
    ref = residual_bootstrap(panel, fit, fac, basis, B=5, seed=1)
    copies = residual_bootstrap(make_panel(panel.values.copy()), fit,
                                _true_factor_estimate(fac.F.copy()), basis, B=5, seed=1)
    assert np.array_equal(copies.lower, ref.lower) and np.array_equal(copies.upper, ref.upper)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_an_unsolvable_design_fails_the_bootstrap_once_per_worker(monkeypatch, n_threads):
    # every draw refits the one design, so the first draw on each worker meets
    # its rank deficiency and ends the bootstrap with the design's own error
    T, N, J, B = 64, 5, 3, 20
    rng = np.random.default_rng(15)
    f = rng.normal(size=(T, 1))
    fac = _true_factor_estimate(np.hstack([f, 2.0 * f]))
    basis = evaluate_basis("haar", J, T)
    panel = make_panel(rng.normal(size=(T, N)))
    fit = GlsFit(rng.normal(size=(N, 2, 2**J)), build_design(fac, basis), panel)
    reports = []
    report = tvload.gls._rank_deficiency

    def counted(*args):
        reports.append(args)
        return report(*args)

    monkeypatch.setattr(tvload.gls, "_rank_deficiency", counted)
    with pytest.raises(RankDeficiencyError, match="factor 2 x cell"):
        residual_bootstrap(panel, fit, fac, basis, B=B, seed=1, n_threads=n_threads)
    assert len(reports) == min(n_threads, B)


# ---------------------------------------------------------------- artifacts


def test_band_csv_layout(tmp_path):
    panel, fac, basis, fit = _noisy_fit(7, T=16, N=2, J=2)
    bands = residual_bootstrap(panel, fit, fac, basis, B=8, seed=2)
    path = tmp_path / "bands.csv"
    write_bands_csv(bands, fit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,series,factor,lower,point,upper,level"
    assert len(lines) == 1 + 16 * 2 * 1
    row = lines[1].split(",")
    assert float(row[4]) == fit.Lambda[0, 0, 0]
    assert float(row[3]) <= float(row[4]) <= float(row[5])


def test_plot_csv_selects_one_curve(tmp_path):
    panel, fac, basis, fit = _noisy_fit(8, T=16, N=3, J=2)
    bands = residual_bootstrap(panel, fit, fac, basis, B=8, seed=2)
    path = tmp_path / "plot.csv"
    write_plot_csv(bands, fit, "s2", 1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,point,lower,upper"
    assert len(lines) == 17
    assert float(lines[3].split(",")[1]) == fit.Lambda[2, 1, 0]
    with pytest.raises(ParameterError):
        write_plot_csv(bands, fit, "nope", 1, tmp_path / "x.csv")
    with pytest.raises(ParameterError):
        write_plot_csv(bands, fit, "s2", 9, tmp_path / "x.csv")


# ---------------------------------------------------------------- statistics


def test_pointwise_coverage_of_the_true_loadings():
    # known-loading DGP, factors held at the truth: the 95% bands should
    # cover the true curves at close to nominal rate on a coarse grid
    T, N = 512, 20
    basis = evaluate_basis("haar", select_resolution(T), T)
    tgrid = np.linspace(0, T - 1, 16).astype(int)
    cov = []
    for rep in range(50):
        ds = simulate_dgp(DgpConfig(N=N, T=T, r=2, seed=(1000, rep)))
        panel = make_panel(ds.Y)
        fac = _true_factor_estimate(ds.F)
        fit = fit_iterative(panel, fac, basis)
        bands = residual_bootstrap(panel, fit, fac, basis, B=100, level=0.95,
                                   seed=rep, n_threads=8)
        inside = (bands.lower[tgrid] <= ds.Lambda[tgrid]) & (
            ds.Lambda[tgrid] <= bands.upper[tgrid]
        )
        cov.append(inside.mean())
    assert 0.85 <= float(np.mean(cov)) <= 1.0


def test_band_width_shrinks_with_sample_size():
    widths = {256: [], 1024: []}
    for T in widths:
        basis = evaluate_basis("haar", select_resolution(T), T)
        for rep in range(50):
            ds = simulate_dgp(DgpConfig(N=10, T=T, r=2, seed=(2000, rep)))
            panel = make_panel(ds.Y)
            fac = _true_factor_estimate(ds.F)
            fit = fit_iterative(panel, fac, basis)
            bands = residual_bootstrap(panel, fit, fac, basis, B=40, seed=rep,
                                       n_threads=8)
            widths[T].append(float(np.median(bands.upper - bands.lower)))
    assert np.median(widths[1024]) < np.median(widths[256])
