"""Byte-level checks of the CSV artifact writers.

Each public ``write_*`` is compared with a reference writer that formats
every value on its own with ``format(float(v), ".17g")``, on values whose
shortest text is awkward (signed zeros, subnormals, huge and tiny floats,
non-terminating fractions, integral floats), on fields held once per run of
rows, each run formatted once, and on the smallest shapes.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from tvload import _table
from tvload._table import write_table
from tvload.bootstrap import BandSet, write_bands_csv, write_plot_csv
from tvload.cli import _reload_estimate, main
from tvload.errors import ShapeError
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
from tvload.wavelet import evaluate_basis, expand_runs

AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 0.1, 1 / 3, -2 / 3,
           1.0, -7.0, 12345678.0, 2.0**53, 0.95, 1.7976931348623157e308)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _awkward(shape, seed):
    """An array that cycles through AWKWARD from a seeded offset."""
    n = int(np.prod(shape))
    start = np.random.default_rng(seed).integers(len(AWKWARD))
    return np.array([AWKWARD[(start + k) % len(AWKWARD)] for k in range(n)]).reshape(shape)


def _run_rows(shape, seed):
    """One row per run: the first all 0.0 and the second all -0.0, so the runs
    where they meet differ only by the sign of zero; later rows are awkward."""
    out = np.empty(shape)
    for k in range(shape[0]):
        out[k] = (0.0, -0.0)[k] if k < 2 else _awkward(shape[1:], seed + k)
    return out


def _id(text) -> str:
    """A field as the ``csv`` module quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# ---------------------------------------------------------------- reference writers


def _ref_loadings(fit, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lambda_hat\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    sid = _id(fit.panel.series_ids[m])
                    fh.write(f"{t + 1},{sid},{i + 1},{_fmt(fit.Lambda[t, m, i])}\n")


def _ref_coefficients(fit, path):
    N, r, _ = fit.beta.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("series,factor,level_j,shift_k,beta\n")
        for m in range(N):
            for i in range(r):
                for c, (j, k) in enumerate(fit.design.basis.column_index):
                    sid = _id(fit.panel.series_ids[m])
                    fh.write(f"{sid},{i + 1},{j},{k},{_fmt(fit.beta[m, i, c])}\n")


def _ref_covariance(fit, path):
    series_ids = fit.panel.series_ids
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["series", *map(_id, series_ids)]) + "\n")
        for m, sid in enumerate(series_ids):
            fh.write(",".join([_id(sid), *(_fmt(v) for v in fit.Gamma_e[m])]) + "\n")


def _ref_bands(bands, fit, path):
    T, N, r = fit.Lambda.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,series,factor,lower,point,upper,level\n")
        for t in range(T):
            for m in range(N):
                for i in range(r):
                    fields = [str(t + 1), _id(fit.panel.series_ids[m]), str(i + 1),
                              _fmt(bands.lower[t, m, i]), _fmt(fit.Lambda[t, m, i]),
                              _fmt(bands.upper[t, m, i]), _fmt(bands.level)]
                    fh.write(",".join(fields) + "\n")


def _ref_plot(bands, fit, m, i, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,point,lower,upper\n")
        for t in range(fit.Lambda.shape[0]):
            fh.write(f"{t + 1},{_fmt(fit.Lambda[t, m, i])},"
                     f"{_fmt(bands.lower[t, m, i])},{_fmt(bands.upper[t, m, i])}\n")


def _ref_table(path, header, values, keys, rows, lengths=None):
    """``write_table`` line by line: value row k covers the next ``lengths[k]`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        t = 0
        for k, length in enumerate([1] * len(values) if lengths is None else lengths):
            for _ in range(length):
                for j, key in enumerate(keys):
                    label = [] if rows is None else [_id(str(rows[t]))]
                    fh.write(",".join([*label, *map(str, key), *map(_fmt, values[k, j])]) + "\n")
                t += 1


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


def _fit(beta, rows, Gamma_e, panel, basis):
    """A stand-in for a fit on ``panel`` and ``basis`` that holds the given arrays,
    which a real fit derives from its coefficients, so the writers see values no
    fit would produce.  ``rows`` is the loading field once per run of the basis,
    as a fit holds it; ``Lambda`` spreads it over the grid for the references."""
    return SimpleNamespace(beta=beta, Lambda_rows=rows, Gamma_e=Gamma_e, panel=panel,
                           Lambda=expand_runs(rows, basis.run_lengths),
                           design=SimpleNamespace(basis=basis))


def _bands(level, lower_rows, upper_rows, basis):
    return BandSet(level=level, lower_rows=lower_rows, upper_rows=upper_rows,
                   run_lengths=basis.run_lengths)


def _fixture(T, N, r, seed):
    # runs of two rows, and of two or three on the grid of 600 that 2^8 does not divide
    basis = evaluate_basis("haar", max(0, int(np.log2(T)) - 1), T)
    runs = len(basis.run_lengths)
    panel = make_panel(_awkward((T, N), seed), [f"s{m + 1}" for m in range(N)])
    fit = _fit(beta=_awkward((N, r, basis.n_columns), seed + 1),
               rows=_awkward((runs, N, r), seed + 2), Gamma_e=_awkward((N, N), seed + 3),
               panel=panel, basis=basis)
    bands = _bands(AWKWARD[seed % len(AWKWARD)], _awkward((runs, N, r), seed + 4),
                   _awkward((runs, N, r), seed + 5), basis)
    return fit, bands


def _assert_fit_writers_match(tmp_path, fit, bands):
    N, r = fit.Lambda.shape[1:]
    panel = fit.panel
    cases = [
        (lambda p: write_loadings_csv(fit, p), lambda p: _ref_loadings(fit, p)),
        (lambda p: write_coefficients_csv(fit, p), lambda p: _ref_coefficients(fit, p)),
        (lambda p: write_covariance_csv(fit, p), lambda p: _ref_covariance(fit, p)),
        (lambda p: write_bands_csv(bands, fit, p), lambda p: _ref_bands(bands, fit, p)),
        (lambda p: write_plot_csv(bands, fit, panel.series_ids[-1], r, p),
         lambda p: _ref_plot(bands, fit, N - 1, r - 1, p)),
        (lambda p: write_panel_csv(panel, p),
         lambda p: _ref_grid(["t", *panel.series_ids], panel.values, p)),
    ]
    for k, (write, reference) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write(got)
        reference(want)
        assert got.read_bytes() == want.read_bytes(), k


@pytest.mark.parametrize("T,N,r", SHAPES)
def test_fit_writers_match_the_per_value_reference(tmp_path, T, N, r):
    _assert_fit_writers_match(tmp_path, *_fixture(T, N, r, seed=T + N + r))


# Row bounds of the runs of a stand-in basis.  A block of the writer holds
# 1024 values and labels: 256 rows of the plot table and 85 of the loadings
# table, so the runs 6..500 and 532..1100 each take several blocks, and the
# last ends on the last row; 530 and 531 are runs of one row.  The runs of
# 0.0 and -0.0 meet at row 2, or at row 1 as one-row runs.
RUNS = {
    "runs": [0, 2, 6, 500, 530, 531, 532, 1100],
    "one run": [0, 40],
    "signed zeros": [0, 1, 2],
}


@pytest.mark.parametrize("bounds", RUNS.values(), ids=RUNS.keys())
def test_fit_writers_match_the_per_value_reference_on_repeated_rows(tmp_path, bounds):
    T, N, r = bounds[-1], 3, 2
    columns = evaluate_basis("haar", 1, T).column_index
    basis = SimpleNamespace(T=T, run_lengths=np.diff(bounds), column_index=columns)
    runs = len(bounds) - 1
    ids = ["a,b", 'say "hi"', "5%s%%"]
    panel = make_panel(expand_runs(_run_rows((runs, N), 1), basis.run_lengths), ids)
    fit = _fit(beta=_awkward((N, r, len(columns)), 2), rows=_run_rows((runs, N, r), 3),
               Gamma_e=_awkward((N, N), 4), panel=panel, basis=basis)
    bands = _bands(0.95, _run_rows((runs, N, r), 5), _run_rows((runs, N, r), 6), basis)
    _assert_fit_writers_match(tmp_path, fit, bands)


def test_run_lengths_must_cover_the_row_labels(tmp_path):
    values = np.zeros((2, 1, 1))
    for lengths, rows in [([2, 3], range(1, 5)), ([2, 3], range(1, 7)), ([5], range(1, 6)),
                          ([0, 5], range(1, 6))]:
        with pytest.raises(ShapeError):
            write_table(tmp_path / "t.csv", ["t", "v"], values, rows=rows, run_lengths=lengths)


@pytest.mark.parametrize("rows", [None, ["x,y", 'q"', "7%", 3]])
def test_edge_shapes_match_the_per_value_reference(tmp_path, rows):
    header = ["a", "b,c"]
    for n_rows, n_keys in [(0, 2), (4, 0), (1, 2), (1, 1)]:
        values = _awkward((n_rows, n_keys, 3), n_rows + n_keys)
        keys = [("k%", j) for j in range(n_keys)]
        labels = None if rows is None else rows[:n_rows]
        write_table(tmp_path / "got.csv", header, values, keys, rows=labels)
        _ref_table(tmp_path / "want.csv", 'a,"b,c"', values, keys, labels)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes(), (n_rows, n_keys)
        if n_rows * n_keys == 0:
            assert got == b'a,"b,c"\n'


# (rows, run lengths, keys, value columns): several-row runs with one key and
# with two, one-row runs, no labels, many keys, and wide rows with quoted labels
TABLES = {
    "runs, one key": (range(1, 14), [3, 1, 1, 5, 2, 1], 1, 2),
    "runs, two keys": (range(1, 14), [3, 1, 1, 5, 2, 1], 2, 1),
    "one-row runs": (range(1, 30), None, 3, 2),
    "no labels": (None, [2, 1, 4], 2, 3),
    "many keys": (range(1, 8), [1, 6], 50, 1),
    "wide rows": (["a,b", 'q"', "7%", "s4", 5], None, 1, 40),
}


@pytest.mark.parametrize("cap", ["one", "under a row", "default"])
@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES.keys())
def test_the_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, table, cap):
    rows, lengths, n_keys, n_cols = table
    runs = len(rows) if lengths is None else len(lengths)
    values = _awkward((runs, n_keys, n_cols), runs + n_keys + n_cols)
    keys = [(f"k{j}%", j) for j in range(n_keys)]
    row_values = n_keys * (n_cols + (rows is not None))
    if cap != "default":
        monkeypatch.setattr(_table, "_BLOCK_VALUES", 1 if cap == "one" else row_values - 1)
    write_table(tmp_path / "got.csv", ["h", "v"], values, keys, rows=rows, run_lengths=lengths)
    _ref_table(tmp_path / "want.csv", "h,v", values, keys, rows, lengths)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("family, T", [("haar", 256), ("haar", 200), ("d8", 256)])
def test_estimate_loadings_match_the_per_value_reference(tmp_path, monkeypatch, family, T):
    panel_csv = tmp_path / "panel.csv"
    Y = simulate_dgp(DgpConfig(N=4, T=T, r=2, seed=9)).Y
    write_panel_csv(make_panel(Y, ["a,b", 'q"', "7%", "s4"]), panel_csv)
    run = tmp_path / "est"

    def spread(fit):
        raise AssertionError("estimate spread its loading field over the grid")

    # the artifacts come from the run rows: the T x N x r field is never built
    with monkeypatch.context() as patch:
        patch.setattr(GlsFit, "Lambda", property(spread))
        assert main(["estimate", "--input", str(panel_csv), "--output-dir", str(run),
                     "--r", "2", "--family", family]) == 0
    _, fit, _ = _reload_estimate(run)
    _ref_loadings(fit, tmp_path / "want.csv")
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
