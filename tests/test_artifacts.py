"""Byte-level checks of the CSV artifact writers.

Each public ``write_*`` is compared with a reference writer that formats
every value on its own with ``format(float(v), ".17g")``, on values whose
shortest text is awkward (signed zeros, subnormals, huge and tiny floats,
non-terminating fractions, integral floats) and on the smallest shapes.
"""

import numpy as np
import pytest

from tvload.bootstrap import BandSet, write_bands_csv, write_plot_csv
from tvload.cli import _write_factors_csv, main
from tvload.factors import make_panel, read_panel_csv, select_num_factors, write_panel_csv
from tvload.gls import GlsFit, write_coefficients_csv, write_covariance_csv, write_loadings_csv
from tvload.sim import (
    DgpConfig,
    ExperimentReport,
    ToeplitzCov,
    simulate_dgp,
    write_detail_csv,
    write_report_csv,
)
from tvload.wavelet import evaluate_basis

AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 0.1, 1 / 3, -2 / 3,
           1.0, -7.0, 12345678.0, 2.0**53, 0.95, 1.7976931348623157e308)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _awkward(shape, seed):
    """An array that cycles through AWKWARD from a seeded offset."""
    n = int(np.prod(shape))
    start = np.random.default_rng(seed).integers(len(AWKWARD))
    return np.array([AWKWARD[(start + k) % len(AWKWARD)] for k in range(n)]).reshape(shape)


# ---------------------------------------------------------------- reference writers


def _ref_loadings(fit, panel, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lambda_hat\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    fh.write(f"{t + 1},{panel.series_ids[m]},{i + 1},{_fmt(fit.Lambda[t, m, i])}\n")


def _ref_coefficients(fit, panel, basis, path):
    N, r, _ = fit.beta.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("series,factor,level_j,shift_k,beta\n")
        for m in range(N):
            for i in range(r):
                for c, (j, k) in enumerate(basis.column_index):
                    fh.write(f"{panel.series_ids[m]},{i + 1},{j},{k},{_fmt(fit.beta[m, i, c])}\n")


def _ref_covariance(gamma, series_ids, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["series", *series_ids]) + "\n")
        for m, sid in enumerate(series_ids):
            fh.write(",".join([sid, *(_fmt(v) for v in gamma[m])]) + "\n")


def _ref_bands(bands, fit, panel, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lower,point,upper,level\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    fields = [str(t + 1), panel.series_ids[m], str(i + 1),
                              _fmt(bands.lower[t, m, i]), _fmt(fit.Lambda[t, m, i]),
                              _fmt(bands.upper[t, m, i]), _fmt(bands.level)]
                    fh.write(",".join(fields) + "\n")


def _ref_plot(bands, fit, m, i, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,point,lower,upper\n")
        for t in range(fit.Lambda.shape[0]):
            fh.write(f"{t + 1},{_fmt(fit.Lambda[t, m, i])},"
                     f"{_fmt(bands.lower[t, m, i])},{_fmt(bands.upper[t, m, i])}\n")


def _ref_grid(names, values, path):
    """A headed table whose first column is the grid label t = 1..T."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for t in range(values.shape[0]):
            fh.write(",".join([str(t + 1), *(_fmt(v) for v in values[t])]) + "\n")


def _ref_report(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("N,T,theta,cov,family,r2,mse_m\n")
        for rep in reports:
            fh.write(f"{rep.config.N},{rep.config.T},0.5,Toep,{rep.family},"
                     f"{_fmt(rep.r2_mean)},{_fmt(rep.mse_median)}\n")


def _ref_detail(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("N,T,theta,cov,family,replication,r2,mse\n")
        for rep in reports:
            for rep_id, r2, mse in rep.replications:
                fh.write(f"{rep.config.N},{rep.config.T},0.5,Toep,{rep.family},"
                         f"{rep_id},{_fmt(r2)},{_fmt(mse)}\n")


# ---------------------------------------------------------------- tests

# (600, 1, 1) spans more than one block of lines on the one-line-per-row tables
SHAPES = [(2, 1, 1), (2, 3, 2), (16, 1, 3), (8, 4, 1), (64, 5, 2), (600, 1, 1)]


def _fixture(T, N, r, seed):
    basis = evaluate_basis("haar", max(0, int(np.log2(T)) - 1), T)
    panel = make_panel(_awkward((T, N), seed), [f"s{m + 1}" for m in range(N)])
    fit = GlsFit(beta=_awkward((N, r, basis.n_columns), seed + 1),
                 Lambda=_awkward((T, N, r), seed + 2), Gamma_e=_awkward((N, N), seed + 3),
                 n_iter=2, deltas=(1.0, 0.0), converged=True)
    bands = BandSet(level=AWKWARD[seed % len(AWKWARD)], lower=_awkward((T, N, r), seed + 4),
                    upper=_awkward((T, N, r), seed + 5), B=10)
    return panel, basis, fit, bands


@pytest.mark.parametrize("T,N,r", SHAPES)
def test_fit_writers_match_the_per_value_reference(tmp_path, T, N, r):
    panel, basis, fit, bands = _fixture(T, N, r, seed=T + N + r)
    F = fit.Lambda[:, 0, :]
    cases = [
        (lambda p: write_loadings_csv(fit, panel, p), lambda p: _ref_loadings(fit, panel, p)),
        (lambda p: write_coefficients_csv(fit, panel, basis, p),
         lambda p: _ref_coefficients(fit, panel, basis, p)),
        (lambda p: write_covariance_csv(fit.Gamma_e, panel.series_ids, p),
         lambda p: _ref_covariance(fit.Gamma_e, panel.series_ids, p)),
        (lambda p: write_bands_csv(bands, fit, panel, p),
         lambda p: _ref_bands(bands, fit, panel, p)),
        (lambda p: write_plot_csv(bands, fit, panel, panel.series_ids[-1], r, p),
         lambda p: _ref_plot(bands, fit, N - 1, r - 1, p)),
        (lambda p: write_panel_csv(panel, p),
         lambda p: _ref_grid(["t", *panel.series_ids], panel.values, p)),
        (lambda p: _write_factors_csv(p, F),
         lambda p: _ref_grid(["t", *(f"factor_{i + 1}" for i in range(r))], F, p)),
    ]
    for k, (write, reference) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write(got)
        reference(want)
        assert got.read_bytes() == want.read_bytes(), k


@pytest.mark.parametrize("n_reps", [0, 1, 7])
def test_simulate_tables_match_the_per_value_reference(tmp_path, n_reps):
    reports = []
    for c, (N, T) in enumerate([(1, 2), (20, 512)]):
        vals = _awkward((n_reps, 2), seed=c + n_reps)
        reports.append(ExperimentReport(
            config=DgpConfig(N=N, T=T, r=1, theta=(0.5,), noise_cov=ToeplitzCov()),
            family=("haar", "d8")[c], n_reps=n_reps, r2_mean=AWKWARD[c + 6],
            mse_median=AWKWARD[c + 1], median_rep=0,
            replications=tuple((k, float(a), float(b)) for k, (a, b) in enumerate(vals))))
    for write, reference in ((write_report_csv, _ref_report), (write_detail_csv, _ref_detail)):
        write(reports, tmp_path / "got.csv")
        reference(reports, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_ic_table_matches_the_per_value_reference(tmp_path):
    panel_csv = tmp_path / "panel.csv"
    write_panel_csv(make_panel(simulate_dgp(DgpConfig(N=6, T=64, r=2, seed=5)).Y), panel_csv)
    assert main(["select-r", "--input", str(panel_csv), "--output-dir", str(tmp_path / "sel"),
                 "--r-max", "3"]) == 0
    sel = select_num_factors(read_panel_csv(panel_csv), 3)
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("c,r,ic\n")
        for ci, c in enumerate(sel.c_grid):
            for r in range(sel.ic_full.shape[1]):
                fh.write(f"{_fmt(c)},{r},{_fmt(sel.ic_full[ci, r])}\n")
    assert (tmp_path / "sel" / "ic_values.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
