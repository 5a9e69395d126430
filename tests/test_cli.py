"""End-to-end checks of the command-line front end via ``main(argv)``."""

import argparse
import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvload
from tvload.bootstrap import write_bands_csv, write_plot_csv
from tvload.cli import (
    _reload_estimate,
    _resolve_threads,
    _spectrum_diagnostics,
    build_parser,
    main,
)
from tvload.factors import (
    generalized_covariance,
    make_panel,
    nonstationary_factors,
    pca_factors,
    read_panel_csv,
    scale_only,
    select_num_factors,
    standardize,
    write_panel_csv,
)
from tvload.gls import (
    GlsFit,
    build_design,
    fit_iterative,
    write_coefficients_csv,
    write_covariance_csv,
    write_loadings_csv,
)
from tvload.sim import DgpConfig, simulate_dgp
from tvload.wavelet import evaluate_basis


@pytest.fixture()
def panel_csv(tmp_path):
    ds = simulate_dgp(DgpConfig(N=6, T=64, r=2, seed=11))
    path = tmp_path / "panel.csv"
    write_panel_csv(make_panel(ds.Y), path)
    return str(path)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _err(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


# ---------------------------------------------------------------- plumbing


def test_resolve_threads():
    assert _resolve_threads(3) == 3
    assert _resolve_threads(-2) == 1
    assert _resolve_threads(None) >= 1


def test_default_threads_count_the_cpus_the_process_may_run_on(monkeypatch):
    # as under taskset -c 0 on a machine with more CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _resolve_threads(None) == 1
    assert _resolve_threads(3) == 3


@pytest.mark.parametrize("cpus, want", [(8, 8), (None, 1)])
def test_default_threads_fall_back_to_the_cpu_count(monkeypatch, cpus, want):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _resolve_threads(None) == want


_OPTIONS = {
    "estimate": {"--input", "--output-dir", "--family", "--J", "--nonstationary", "--k",
                 "--r", "--r-max"},
    "select-r": {"--input", "--output-dir", "--r-max", "--first-difference"},
    "simulate": {"--input", "--output-dir", "--seed", "--threads", "--J", "--reps"},
    "bootstrap": {"--input", "--output-dir", "--seed", "--threads", "--B", "--level"},
}


def _options(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_OPTIONS)
    return {opt for action in sub.choices[command]._actions
            for opt in action.option_strings} - {"-h", "--help"}


def test_the_parser_exposes_exactly_the_pinned_flags():
    assert {command: _options(command) for command in _OPTIONS} == _OPTIONS
    assert sum(map(len, _OPTIONS.values())) == 24


def test_the_readme_flag_table_matches_the_parser():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0] in _OPTIONS:
            rows[cells[0]] = cells[1].split()
    assert set(rows) == set(_OPTIONS)
    for command, flags in rows.items():
        assert len(flags) == len(set(flags)), command
        assert set(flags) == _options(command), command


def test_library_entry_points_take_only_the_pinned_parameters():
    # the penalty grid and the subpanels are constants
    def params(func):
        return list(inspect.signature(func).parameters)

    assert params(make_panel) == ["values", "series_ids"]
    assert params(select_num_factors) == ["panel", "r_max", "first_difference_panel"]
    assert params(generalized_covariance) == ["panel", "k"]
    assert params(nonstationary_factors) == ["panel", "r", "k"]
    # a fit is its coefficients and its design; Lambda and Gamma_e derive from them
    assert params(GlsFit) == ["beta", "design", "panel", "deltas"]
    # a writer reads the ids, the basis and the field from the fit it is given
    assert params(write_loadings_csv) == ["fit", "path"]
    assert params(write_coefficients_csv) == ["fit", "path"]
    assert params(write_covariance_csv) == ["fit", "path"]
    assert params(write_bands_csv) == ["bands", "fit", "path"]
    assert params(write_plot_csv) == ["bands", "fit", "series", "factor", "path"]


@pytest.mark.parametrize("module", ["tvload", *sorted(
    f"tvload.{info.name}" for info in pkgutil.iter_modules(tvload.__path__))])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("argv", [
    ["select-r", "--B", "3"],
    ["estimate", "--threads", "2"],
    ["estimate", "--seed", "1"],
    ["estimate", "--delta", "1e-6"],
    ["simulate", "--family", "d8"],
    ["simulate", "--max-iter", "2"],
    ["bootstrap", "--J", "3"],
    ["bootstrap", "--delta", "1"],
    ["bootstrap", "--refit-factors"],
    # a prefix of a flag the command does read is not taken as that flag
    ["select-r", "--r", "3"],
    ["simulate", "--r", "2"],
], ids=" ".join)
def test_an_unread_flag_is_a_usage_error(tmp_path, capsys, argv):
    command = argv[0]
    assert _options(command) == _OPTIONS[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(tmp_path), "--output-dir", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def test_commands_leave_scipy_unloaded(tmp_path, panel_csv):
    # scipy serves only the tests
    src = str(Path(tvload.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    scipy_loaded = "any(name.startswith('scipy') for name in sys.modules)"
    code = f"import sys, tvload.cli; sys.exit({scipy_loaded})"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    est = str(tmp_path / "est")
    runs = [
        ["estimate", "--input", panel_csv, "--output-dir", est, "--r", "2", "--J", "3"],
        ["select-r", "--input", panel_csv, "--output-dir", str(tmp_path / "sel"),
         "--r-max", "3"],
        ["bootstrap", "--input", est, "--output-dir", str(tmp_path / "boot"), "--B", "4",
         "--threads", "1"],
        ["simulate", "--input", _grid(tmp_path), "--output-dir", str(tmp_path / "sim"),
         "--reps", "2", "--threads", "1"],
    ]
    code = ("import json, sys, tvload.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert tvload.cli.main(argv) == 0, argv\n"
            f"sys.exit(2 * {scipy_loaded})")
    run = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, timeout=300)
    assert run.returncode == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tvload" in capsys.readouterr().out


# ---------------------------------------------------------------- estimate


def test_estimate_writes_verifiable_artifacts(tmp_path, panel_csv):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out),
                 "--r", "2", "--J", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {"factors.csv", "loadings.csv", "coefficients.csv",
                "residual_covariance.csv", "report.json"}
    assert set(manifest["artifacts"]) == expected
    for name, digest in manifest["artifacts"].items():
        assert _sha(out / name) == digest

    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "estimate"
    assert report["method"] == "PCA"
    assert report["standardization"] == "center-scale"
    assert report["selection"] is None
    assert report["input"]["T"] == 64 and report["input"]["N"] == 6
    assert report["input"]["sha256"] == hashlib.sha256(
        open(panel_csv, "rb").read()).hexdigest()
    assert (out / "factors.csv").read_text().splitlines()[0] == "t,factor_1,factor_2"


def test_estimate_roundtrip_is_bit_exact(tmp_path, panel_csv):
    out = tmp_path / "est"
    main(["estimate", "--input", panel_csv, "--output-dir", str(out),
          "--r", "2", "--J", "3"])
    est, fit, _ = _reload_estimate(str(out))

    ref_work = standardize(read_panel_csv(panel_csv))
    ref_est = pca_factors(ref_work, 2)
    ref_fit = fit_iterative(ref_work, ref_est, evaluate_basis("haar", 3, 64))
    assert np.array_equal(est.F, ref_est.F)
    assert np.array_equal(fit.beta, ref_fit.beta)
    assert np.array_equal(fit.Lambda, ref_fit.Lambda)
    assert np.array_equal(fit.Gamma_e, ref_fit.Gamma_e)


def test_estimate_runs_are_byte_identical(tmp_path, panel_csv):
    for out in ("e1", "e2"):
        assert main(["estimate", "--input", panel_csv, "--output-dir", str(tmp_path / out),
                     "--family", "d8"]) == 0
    names = sorted(os.listdir(tmp_path / "e1"))
    assert names == sorted(os.listdir(tmp_path / "e2"))
    assert "report.json" in names and "manifest.json" in names
    for name in names:
        assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes(), name


def test_estimate_reports_the_conditioning_of_the_design(tmp_path, panel_csv):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out),
                 "--r", "2", "--family", "d8"]) == 0
    est, fit, report = _reload_estimate(str(out))
    Psi = build_design(est, fit.design.basis).Psi
    cond = np.linalg.cond(Psi.T @ Psi)
    assert abs(report["design_gram_condition"] - cond) <= 1e-8 * cond


@pytest.mark.parametrize("nonstationary", [False, True])
def test_estimate_reports_the_eigengap_and_the_factor_variance_share(
        tmp_path, panel_csv, nonstationary):
    out = tmp_path / "est"
    flags = ["--nonstationary"] if nonstationary else []
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out),
                 "--r", "2", "--J", "3", *flags]) == 0
    report = json.loads((out / "report.json").read_text())
    # the spectrum recomputed from the panel, not read back from the report
    panel = read_panel_csv(panel_csv)
    work = scale_only(panel) if nonstationary else standardize(panel)
    S = (generalized_covariance(work, 1) if nonstationary
         else work.values.T @ work.values / (work.N * work.T))
    w = np.linalg.eigvalsh(S)[::-1]
    # the lag covariance is indefinite: a negative lambda_3 leaves no eigengap
    want = {"eigengap": w[1] / w[2] if w[2] > 0 else None,
            "factor_variance_share": w[:2].sum() / w.sum() if w.sum() > 0 else None}
    assert (want["eigengap"] is None) == nonstationary
    for key, value in want.items():
        assert report[key] == (None if value is None else pytest.approx(value, rel=1e-9)), key


def test_spectrum_diagnostics_are_null_without_a_positive_denominator():
    assert _spectrum_diagnostics([4.0, 2.0, 1.0, 1.0], 2) == {
        "eigengap": 2.0, "factor_variance_share": 0.75}
    assert _spectrum_diagnostics([4.0, 2.0, 0.0], 2)["eigengap"] is None
    assert _spectrum_diagnostics([4.0, 2.0, -1.0], 2)["eigengap"] is None
    assert _spectrum_diagnostics([4.0, 2.0], 2)["eigengap"] is None  # no lambda_{r+1}
    assert _spectrum_diagnostics([1.0, -1.0, -2.0], 1) == {
        "eigengap": None, "factor_variance_share": None}


def test_no_environment_variable_sets_the_worker_threads(tmp_path, panel_csv, monkeypatch):
    est, grid = tmp_path / "est", _grid(tmp_path)
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(est),
                 "--r", "2", "--J", "3"]) == 0

    def outputs(tag):
        runs = {"boot": ["bootstrap", "--input", str(est), "--B", "4"],
                "sim": ["simulate", "--input", grid, "--reps", "2"]}
        files = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}_{tag}"
            assert main([*argv, "--output-dir", str(out)]) == 0
            files.update({(name, p.name): p.read_bytes() for p in out.iterdir()})
        return files

    plain = outputs("plain")
    monkeypatch.setenv("TVLOAD_THREADS", "lots")
    assert outputs("env") == plain


def test_reports_record_only_parameters_that_shape_outputs(tmp_path, panel_csv):
    est, sel, boot = tmp_path / "est", tmp_path / "sel", tmp_path / "boot"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(est),
                 "--r", "2", "--J", "3"]) == 0
    assert main(["select-r", "--input", panel_csv, "--output-dir", str(sel)]) == 0
    assert main(["bootstrap", "--input", str(est), "--output-dir", str(boot), "--B", "4",
                 "--threads", "1"]) == 0

    def params(run):
        return set(json.loads((run / "report.json").read_text())["parameters"])

    assert params(est) == {"input", "r", "family", "J", "nonstationary", "k"}
    assert params(sel) == {"input", "r_max", "first_difference"}
    assert params(boot) == {"input", "B", "level", "seed"}

    # estimate runs written before seed, threads, delta, max_iter, d, dprime
    # and first_difference were dropped still reload
    report = json.loads((est / "report.json").read_text())
    report["parameters"].update(seed=0, threads=2, delta=1e-6, max_iter=50, d=1, dprime=1,
                                first_difference=False)
    (est / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    old = tmp_path / "boot_old"
    assert main(["bootstrap", "--input", str(est), "--output-dir", str(old), "--B", "4",
                 "--threads", "1"]) == 0
    assert (old / "bands.csv").read_bytes() == (boot / "bands.csv").read_bytes()


def test_rank_selection_that_finds_no_factor_asks_for_r(tmp_path, capsys):
    path = tmp_path / "noise.csv"
    write_panel_csv(make_panel(np.random.default_rng(0).normal(size=(64, 4))), path)
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out)]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "rank selection found no common factor" in rec["message"]
    assert "pass --r" in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize("shape, argv", [
    ((64, 1), ["estimate"]),
    ((64, 1), ["select-r"]),
    ((3, 10), ["estimate", "--nonstationary"]),
    ((3, 10), ["select-r", "--first-difference"]),
    ((4, 10), ["estimate", "--nonstationary"]),
    ((4, 10), ["select-r", "--first-difference"]),
], ids=str)
def test_the_default_r_max_comes_from_the_panel_the_selection_scans(
        tmp_path, capsys, shape, argv):
    path = tmp_path / "panel.csv"
    write_panel_csv(make_panel(np.random.default_rng(1).normal(size=shape)), path)
    out = tmp_path / "out"
    code = main([argv[0], "--input", str(path), "--output-dir", str(out), *argv[1:]])
    differenced = "--first-difference" in argv or "--nonstationary" in argv
    T, N = shape[0] - differenced, shape[1]
    if code == 0:
        assert min(T, N) >= 2
        report = json.loads((out / "report.json").read_text())
        used = report["parameters"]["r_max"] if argv[0] == "select-r" \
            else report["selection"]["r_max"]
        assert used == min(8, min(T, N) - 1)
        return
    assert code == 1
    message = _err(capsys)["message"]
    assert "r_max" not in message
    assert not out.exists()
    if min(T, N) < 2:
        assert f"N={N}, T={T}" in message
        assert ("pass --r" in message) == (argv[0] == "estimate")


def test_estimate_auto_selects_rank(tmp_path, panel_csv):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection"] == {"r": 2, "r_max": 5}
    assert report["parameters"]["r"] == 2


def test_estimate_rejects_r_max_alongside_r(tmp_path, panel_csv, capsys):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out),
                 "--r", "2", "--r-max", "5"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "--r-max applies only without --r" in rec["message"]
    assert not out.exists()


def test_estimate_nonstationary_selects_the_rank_on_the_differenced_panel(tmp_path):
    # the levels of this random-walk panel select r=4
    path = tmp_path / "rw.csv"
    cfg = DgpConfig(N=20, T=1024, r=2, theta=(1.0, 1.0), seed=5)
    write_panel_csv(make_panel(simulate_dgp(cfg).Y), path)
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out),
                 "--nonstationary"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection"] == {"r": 2, "r_max": 8}
    assert report["method"] == "GeneralizedCovariance(1,1,1)"


def test_estimate_nonstationary_branch(tmp_path, panel_csv):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out),
                 "--nonstationary", "--r", "1", "--J", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "GeneralizedCovariance(1,1,1)"
    assert report["standardization"] == "scale-only"


# ---------------------------------------------------------------- select-r


def test_select_r_reports_the_chosen_rank(tmp_path, panel_csv):
    out = tmp_path / "sel"
    assert main(["select-r", "--input", panel_csv, "--output-dir", str(out),
                 "--r-max", "4"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["chosen_r"] == 2
    assert report["trivial_plateau"] is False
    lines = (out / "ic_values.csv").read_text().splitlines()
    assert lines[0] == "c,r,ic"


# ---------------------------------------------------------------- simulate


def _grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        [{"N": 5, "T": 64, "r": 2, "theta": [0.0, 0.0], "family": "haar"}]))
    return str(path)


def test_simulate_runs_are_byte_identical(tmp_path):
    grid = _grid(tmp_path)
    for out in ("sim1", "sim2"):
        assert main(["simulate", "--input", grid, "--output-dir",
                     str(tmp_path / out), "--reps", "3", "--seed", "9",
                     "--threads", "2"]) == 0
    for name in ("report.csv", "detail.csv", "report.json", "manifest.json"):
        assert (tmp_path / "sim1" / name).read_bytes() == \
            (tmp_path / "sim2" / name).read_bytes()
    header = (tmp_path / "sim1" / "report.csv").read_text().splitlines()[0]
    assert header == "N,T,theta,cov,family,r2,mse_m"


def test_simulate_report_records_why_replications_failed(tmp_path, monkeypatch):
    real = tvload.sim._run_one_rep

    def flaky(config, Lambda, basis, seed, rep):
        if rep == 7:
            raise RuntimeError("replication exploded")
        return real(config, Lambda, basis, seed, rep)

    monkeypatch.setattr(tvload.sim, "_run_one_rep", flaky)
    out = tmp_path / "sim"
    assert main(["simulate", "--input", _grid(tmp_path), "--output-dir", str(out),
                 "--reps", "20", "--threads", "2"]) == 0
    [cell] = json.loads((out / "report.json").read_text())["cells"]
    assert cell["n_failures"] == 1
    assert cell["failures"] == [[7, "RuntimeError('replication exploded')"]]


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_consumes_an_estimate_run(tmp_path, panel_csv):
    est = tmp_path / "est"
    main(["estimate", "--input", panel_csv, "--output-dir", str(est),
          "--r", "2", "--J", "3"])
    for out, threads in (("b1", "1"), ("b2", "2")):
        assert main(["bootstrap", "--input", str(est), "--output-dir",
                     str(tmp_path / out), "--B", "12", "--seed", "4",
                     "--threads", threads]) == 0
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    report = json.loads((b1 / "report.json").read_text())
    assert report["n_failed"] == 0
    manifest = json.loads((b1 / "manifest.json").read_text())
    # one plot file per series x factor on top of bands and the report
    assert len(manifest["artifacts"]) == 2 + 6 * 2
    assert "plot_s1_factor1.csv" in manifest["artifacts"]
    # identical seeds give byte-identical directories, whatever the thread count
    names = sorted(os.listdir(b1))
    assert names == sorted(os.listdir(b2)) == sorted([*manifest["artifacts"], "manifest.json"])
    for name in names:
        assert (b1 / name).read_bytes() == (b2 / name).read_bytes(), name


def test_bootstrap_reads_no_residual_covariance(tmp_path, panel_csv):
    est = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(est),
                 "--r", "2", "--J", "3"]) == 0
    boot = ["bootstrap", "--input", str(est), "--B", "12", "--seed", "4", "--threads", "1"]
    assert main([*boot, "--output-dir", str(tmp_path / "intact")]) == 0
    (est / "residual_covariance.csv").unlink()
    assert main([*boot, "--output-dir", str(tmp_path / "deleted")]) == 0
    names = sorted(os.listdir(tmp_path / "intact"))
    assert names == sorted(os.listdir(tmp_path / "deleted"))
    assert "bands.csv" in names
    for name in names:
        intact = (tmp_path / "intact" / name).read_bytes()
        assert intact == (tmp_path / "deleted" / name).read_bytes(), name


_ID_TEXT = st.text(alphabet='ab,"% ', min_size=1, max_size=5).filter(lambda s: s == s.strip())


@settings(max_examples=15, deadline=None)
@given(ids=st.lists(_ID_TEXT, min_size=2, max_size=3, unique=True))
def test_series_ids_with_commas_and_quotes_round_trip(tmp_path_factory, ids):
    tmp = tmp_path_factory.mktemp("ids")
    ds = simulate_dgp(DgpConfig(N=len(ids), T=32, r=1, seed=4))
    panel_csv = tmp / "panel.csv"
    write_panel_csv(make_panel(ds.Y, ids), panel_csv)
    panel = read_panel_csv(panel_csv)
    assert panel.series_ids == tuple(ids)
    assert np.array_equal(panel.values, ds.Y)

    est = tmp / "est"
    assert main(["estimate", "--input", str(panel_csv), "--output-dir", str(est),
                 "--r", "1", "--J", "2"]) == 0
    factors, fit, _ = _reload_estimate(str(est))
    assert fit.panel.series_ids == tuple(ids)
    ref_est = pca_factors(fit.panel, 1)
    ref = fit_iterative(fit.panel, ref_est, fit.design.basis)
    assert np.array_equal(factors.F, ref_est.F)
    assert np.array_equal(fit.beta, ref.beta)
    assert np.array_equal(fit.Gamma_e, ref.Gamma_e)
    with open(est / "residual_covariance.csv", newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == ["series", *ids]

    out = tmp / "boot"
    assert main(["bootstrap", "--input", str(est), "--output-dir", str(out),
                 "--B", "4", "--threads", "1"]) == 0
    with open(out / "bands.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["series"] for row in rows] == list(ids) * 32
    for sid in ids:
        assert (out / f"plot_{sid}_factor1.csv").exists()


# ---------------------------------------------------------------- failure records


def test_missing_input_flag(capsys):
    assert main(["estimate"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "requires --input" in rec["message"]


def test_nonexistent_input_names_the_path(capsys):
    assert main(["estimate", "--input", "/no/such/panel.csv"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "MissingDataError"
    assert "/no/such/panel.csv" in rec["message"]


def test_duplicate_series_ids_are_reported(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("t,a,a\n" + "".join(f"{t},{t % 3}.5,{t % 5}.25\n" for t in range(1, 17)))
    assert main(["estimate", "--input", str(path), "--output-dir",
                 str(tmp_path / "est"), "--r", "1", "--J", "2"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "duplicate series id 'a'" in rec["message"]
    assert not (tmp_path / "est").exists()


def test_series_ids_that_cannot_round_trip_are_reported(tmp_path, capsys):
    path = tmp_path / "slash.csv"
    path.write_text("t,a/b,c\n" + "".join(f"{t},{t % 3}.5,{t % 5}.25\n" for t in range(1, 17)))
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out),
                 "--r", "1", "--J", "2"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "series id 'a/b'" in rec["message"]
    assert not out.exists()


def test_invalid_level_is_reported(tmp_path, panel_csv, capsys):
    est = tmp_path / "est"
    main(["estimate", "--input", panel_csv, "--output-dir", str(est),
          "--r", "1", "--J", "3"])
    capsys.readouterr()
    assert main(["bootstrap", "--input", str(est), "--output-dir",
                 str(tmp_path / "b"), "--level", "1.2"]) == 1
    assert _err(capsys)["error"] == "ParameterError"
    assert not (tmp_path / "b").exists()


def test_malformed_grid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "grid.json"
    bad.write_text('[{"N": 5,,}]')
    assert main(["simulate", "--input", str(bad), "--output-dir",
                 str(tmp_path / "out")]) == 1
    rec = _err(capsys)
    assert rec["error"] == "JSONDecodeError"
    assert isinstance(rec["line"], int) and isinstance(rec["column"], int)
    assert not (tmp_path / "out").exists()


def test_oversized_r_max_is_rejected(panel_csv, tmp_path, capsys):
    assert main(["select-r", "--input", panel_csv, "--output-dir",
                 str(tmp_path / "sel"), "--r-max", "99"]) == 1
    assert _err(capsys)["error"] == "ParameterError"
    assert not (tmp_path / "sel").exists()


def test_short_grid_is_rejected_before_rank_selection(tmp_path, monkeypatch, capsys):
    path = tmp_path / "short.csv"
    write_panel_csv(make_panel(np.random.default_rng(1).normal(size=(3, 10))), path)

    def select(*args, **kwargs):
        raise AssertionError("rank selection ran on a grid with no wavelet basis")

    monkeypatch.setattr(tvload.cli, "select_num_factors", select)
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out),
                 "--nonstationary"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "grid too short for a wavelet basis" in rec["message"]
    assert not out.exists()


def _damage(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = edit(lines[2])
    path.write_text("".join(lines))


@pytest.mark.parametrize("name, edit, error", [
    ("factors.csv", lambda line: line.rsplit(",", 1)[0] + "\n", "ShapeError"),
    ("factors.csv", lambda line: "", "ShapeError"),
    ("coefficients.csv", lambda line: "zz" + line[line.index(","):], "ShapeError"),
    ("factors.csv", lambda line: re.sub(",[^,]*", ",abc", line, count=1),
     "MissingDataError"),
], ids=["truncated row", "missing row", "unknown series", "non-numeric cell"])
def test_bootstrap_reports_a_damaged_estimate_run(tmp_path, panel_csv, capsys, name, edit, error):
    est = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(est),
                 "--r", "2", "--J", "3"]) == 0
    _damage(est / name, edit)
    capsys.readouterr()
    out = tmp_path / "boot"
    assert main(["bootstrap", "--input", str(est), "--output-dir", str(out), "--B", "4",
                 "--threads", "1"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    rec = json.loads(line)
    assert rec["error"] == error
    assert name in rec["message"]
    assert not out.exists()


def _drop(key):
    def edit(report):
        *path, last = key.split(".")
        for name in path:
            report = report[name]
        del report[last]
    return edit


def _set_J(value):
    def edit(report):
        report["parameters"]["J"] = value
    return edit


_REPORT_KEYS = ["parameters.family", "parameters.J", "parameters.r", "parameters.k",
                "parameters.nonstationary", "parameters", "input.path", "input.sha256",
                "input", "eigenvalues", "deltas"]


@pytest.mark.parametrize("key, edit", [
    *((key, _drop(key)) for key in _REPORT_KEYS),
    ("parameters.J", _set_J("x")),
    ("parameters.J", _set_J(True)),
], ids=[*(f"no {key}" for key in _REPORT_KEYS), "J is a string", "J is a bool"])
def test_bootstrap_reports_a_damaged_estimate_report(tmp_path, panel_csv, capsys, key, edit):
    est = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(est),
                 "--r", "2", "--J", "3"]) == 0
    report = json.loads((est / "report.json").read_text())
    edit(report)
    (est / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    out = tmp_path / "boot"
    assert main(["bootstrap", "--input", str(est), "--output-dir", str(out), "--B", "4",
                 "--threads", "1"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    rec = json.loads(line)
    assert rec["error"] == "ParameterError"
    # a missing object is named by the first key read from it
    assert "report.json" in rec["message"] and f"'{key}" in rec["message"]
    assert not out.exists()


def test_estimate_asks_for_r_when_only_the_trivial_plateau_is_stable(tmp_path, capsys):
    # on this random-walk panel the levels selection falls back to r_max
    path = tmp_path / "rw.csv"
    cfg = DgpConfig(N=20, T=512, r=2, theta=(1.0, 1.0), seed=0)
    write_panel_csv(make_panel(simulate_dgp(cfg).Y), path)
    sel = select_num_factors(read_panel_csv(path))
    assert sel.r == sel.r_max == 8
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out)]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "trivial plateau at r_max=8" in rec["message"]
    assert "pass --r" in rec["message"]
    assert not out.exists()
    # select-r still reports the fallback, and --r still fits
    assert main(["select-r", "--input", str(path), "--output-dir", str(tmp_path / "sel")]) == 0
    report = json.loads((tmp_path / "sel" / "report.json").read_text())
    assert report["chosen_r"] == 8
    assert report["trivial_plateau"] is True
    assert main(["estimate", "--input", str(path), "--output-dir", str(out),
                 "--nonstationary", "--r", "2"]) == 0


def _runs_or_fails_cleanly(argv, out):
    """True if main(argv) exits 0; else it exits 1 with one error record and no out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["artifacts"].items():
            assert _sha(out / name) == digest
        return True
    assert code == 1
    [line] = err.getvalue().splitlines()
    assert set(json.loads(line)) >= {"error", "message"}
    assert not out.exists()
    return False


@settings(max_examples=30, deadline=None)
@given(T=st.integers(2, 40), N=st.integers(1, 4), constant=st.booleans(),
       seed=st.integers(0, 2**16))
def test_panel_edges_give_a_run_or_one_clean_error(tmp_path_factory, T, N, constant, seed):
    tmp = tmp_path_factory.mktemp("edge")
    Y = np.random.default_rng(seed).normal(size=(T, N))
    if constant:
        Y[:, 0] = 1.5
    panel_csv = tmp / "panel.csv"
    write_panel_csv(make_panel(Y), panel_csv)
    est, boot, auto = tmp / "est", tmp / "boot", tmp / "auto"
    _runs_or_fails_cleanly(["estimate", "--input", str(panel_csv), "--output-dir", str(auto)],
                           auto)
    if not _runs_or_fails_cleanly(["estimate", "--input", str(panel_csv), "--output-dir",
                                   str(est), "--r", "1"], est):
        return
    _, fit, _ = _reload_estimate(str(est))
    assert fit.panel.values.shape == (T, N) and fit.Lambda.shape == (T, N, 1)
    if _runs_or_fails_cleanly(["bootstrap", "--input", str(est), "--output-dir", str(boot),
                               "--B", "3", "--threads", "1"], boot):
        with open(boot / "bands.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == T * N
