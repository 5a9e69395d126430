"""Byte-level checks of the CSV artifact writers.

Each public ``write_*`` is compared with a reference writer that formats
every value on its own with ``format(float(v), ".17g")``, on values whose
shortest text is awkward (signed zeros, subnormals, huge and tiny floats,
non-terminating fractions, integral floats), on piecewise-constant values
whose repeated rows the writer formats once, and on the smallest shapes.
"""

import csv
import io

import numpy as np
import pytest

from tvload._table import write_table
from tvload.bootstrap import BandSet, write_bands_csv, write_plot_csv
from tvload.cli import _reload_estimate, _write_factors_csv, main
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


def _piecewise(shape, bounds, seed):
    """An array whose rows are constant on each [bounds[k], bounds[k + 1]).

    The first piece is all 0.0 and the second all -0.0, so the rows where
    they meet differ only by the sign of zero; later pieces are awkward.
    """
    out = np.empty(shape)
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        out[a:b] = (0.0, -0.0)[k] if k < 2 else _awkward(shape[1:], seed + k)
    return out


def _id(text) -> str:
    """A field as the ``csv`` module quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# ---------------------------------------------------------------- reference writers


def _ref_loadings(fit, panel, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lambda_hat\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    sid = _id(panel.series_ids[m])
                    fh.write(f"{t + 1},{sid},{i + 1},{_fmt(fit.Lambda[t, m, i])}\n")


def _ref_coefficients(fit, panel, basis, path):
    N, r, _ = fit.beta.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("series,factor,level_j,shift_k,beta\n")
        for m in range(N):
            for i in range(r):
                for c, (j, k) in enumerate(basis.column_index):
                    sid = _id(panel.series_ids[m])
                    fh.write(f"{sid},{i + 1},{j},{k},{_fmt(fit.beta[m, i, c])}\n")


def _ref_covariance(gamma, series_ids, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["series", *map(_id, series_ids)]) + "\n")
        for m, sid in enumerate(series_ids):
            fh.write(",".join([_id(sid), *(_fmt(v) for v in gamma[m])]) + "\n")


def _ref_bands(bands, fit, panel, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lower,point,upper,level\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    fields = [str(t + 1), _id(panel.series_ids[m]), str(i + 1),
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
        fh.write(",".join(map(_id, names)) + "\n")
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


def _assert_fit_writers_match(tmp_path, panel, basis, fit, bands):
    N, r = fit.Lambda.shape[1:]
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


@pytest.mark.parametrize("T,N,r", SHAPES)
def test_fit_writers_match_the_per_value_reference(tmp_path, T, N, r):
    _assert_fit_writers_match(tmp_path, *_fixture(T, N, r, seed=T + N + r))


# Row bounds of the pieces of a piecewise-constant table.  On the one-line-per-row
# tables a block of the writer holds 512 rows: 500..530 straddles its end, and
# the last run, longer than a block, ends on the last row; 530 and 531 are rows
# equal to neither neighbour.
RUNS = {
    "runs": [0, 2, 6, 500, 530, 531, 532, 1100],
    "one run": [0, 40],
    "signed zeros": [0, 1, 2],
}


@pytest.mark.parametrize("bounds", RUNS.values(), ids=RUNS.keys())
def test_fit_writers_match_the_per_value_reference_on_repeated_rows(tmp_path, bounds):
    T, N, r = bounds[-1], 3, 2
    basis = evaluate_basis("haar", 1, T)
    ids = ["a,b", 'say "hi"', "5%s%%"]
    field = lambda seed: _piecewise((T, N, r), bounds, seed)
    panel = make_panel(_piecewise((T, N), bounds, 1), ids)
    fit = GlsFit(beta=_awkward((N, r, basis.n_columns), 2), Lambda=field(3),
                 Gamma_e=_awkward((N, N), 4), n_iter=2, deltas=(1.0, 0.0), converged=True)
    bands = BandSet(level=0.95, lower=field(5), upper=field(6), B=10)
    _assert_fit_writers_match(tmp_path, panel, basis, fit, bands)


@pytest.mark.parametrize("rows", [None, ["x,y", 'q"', "7%", 3]])
def test_edge_shapes_match_the_per_value_reference(tmp_path, rows):
    header, tail = ["a", "b,c"], ["%", "0.95"]
    for n_rows, n_keys in [(0, 2), (4, 0), (1, 2), (1, 1)]:
        values = _awkward((n_rows, n_keys, 3), n_rows + n_keys)
        keys = [("k%", j) for j in range(n_keys)]
        labels = None if rows is None else rows[:n_rows]
        write_table(tmp_path / "got.csv", header, values, keys, rows=labels, tail=tail)
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write('a,"b,c"\n')
            for t in range(n_rows):
                for j, key in enumerate(keys):
                    label = [] if labels is None else [_id(str(labels[t]))]
                    fields = [*label, *map(str, key), *map(_fmt, values[t, j]), *tail]
                    fh.write(",".join(fields) + "\n")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes(), (n_rows, n_keys)
        if n_rows * n_keys == 0:
            assert got == b'a,"b,c"\n'


@pytest.mark.parametrize("family, T", [("haar", 256), ("haar", 200), ("d8", 256)])
def test_estimate_loadings_match_the_per_value_reference(tmp_path, family, T):
    panel_csv = tmp_path / "panel.csv"
    Y = simulate_dgp(DgpConfig(N=4, T=T, r=2, seed=9)).Y
    write_panel_csv(make_panel(Y, ["a,b", 'q"', "7%", "s4"]), panel_csv)
    run = tmp_path / "est"
    assert main(["estimate", "--input", str(panel_csv), "--output-dir", str(run),
                 "--r", "2", "--family", family]) == 0
    panel, _, _, _, fit, _ = _reload_estimate(run)
    _ref_loadings(fit, panel, tmp_path / "want.csv")
    assert (run / "loadings.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
