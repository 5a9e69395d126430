"""End-to-end checks of the command-line front end via ``main(argv)``."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvload
from tvload.cli import _resolve_threads, _reload_estimate, main
from tvload.errors import ParameterError
from tvload.factors import make_panel, pca_factors, read_panel_csv, standardize, write_panel_csv
from tvload.gls import build_design, fit_iterative
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


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("TVLOAD_THREADS", raising=False)
    assert _resolve_threads(3) == 3
    assert _resolve_threads(-2) == 1
    assert _resolve_threads(None) >= 1
    monkeypatch.setenv("TVLOAD_THREADS", "5")
    assert _resolve_threads(None) == 5
    assert _resolve_threads(2) == 2  # explicit flag wins over the environment
    monkeypatch.setenv("TVLOAD_THREADS", "lots")
    with pytest.raises(ParameterError):
        _resolve_threads(None)


def test_commands_leave_scipy_unloaded(tmp_path, panel_csv):
    # scipy serves only the rank-deficiency report, the sigma_full oracle and tests
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
    _, work, basis, est, fit, _ = _reload_estimate(str(out))

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
    _, _, basis, est, _, report = _reload_estimate(str(out))
    Psi = build_design(est, basis).Psi
    cond = np.linalg.cond(Psi.T @ Psi)
    assert abs(report["design_gram_condition"] - cond) <= 1e-8 * cond


def test_estimate_auto_selects_rank(tmp_path, panel_csv):
    out = tmp_path / "est"
    assert main(["estimate", "--input", panel_csv, "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selection"] == {"r": 2, "r_max": 5}
    assert report["parameters"]["r"] == 2


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


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_consumes_an_estimate_run(tmp_path, panel_csv):
    est = tmp_path / "est"
    main(["estimate", "--input", panel_csv, "--output-dir", str(est),
          "--r", "2", "--J", "3"])
    for out in ("b1", "b2"):
        assert main(["bootstrap", "--input", str(est), "--output-dir",
                     str(tmp_path / out), "--B", "12", "--seed", "4",
                     "--threads", "2"]) == 0
    b1 = tmp_path / "b1"
    report = json.loads((b1 / "report.json").read_text())
    assert report["n_failed"] == 0
    manifest = json.loads((b1 / "manifest.json").read_text())
    # one plot file per series x factor on top of bands and the report
    assert len(manifest["artifacts"]) == 2 + 6 * 2
    assert "plot_s1_factor1.csv" in manifest["artifacts"]
    # identical seeds give byte-identical band files
    assert (b1 / "bands.csv").read_bytes() == \
        (tmp_path / "b2" / "bands.csv").read_bytes()


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
    reloaded, work, basis, factors, fit, _ = _reload_estimate(str(est))
    assert reloaded.series_ids == tuple(ids)
    ref_est = pca_factors(work, 1)
    ref = fit_iterative(work, ref_est, basis)
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


def test_series_ids_that_cannot_round_trip_are_reported(tmp_path, capsys):
    path = tmp_path / "slash.csv"
    path.write_text("t,a/b,c\n" + "".join(f"{t},{t % 3}.5,{t % 5}.25\n" for t in range(1, 17)))
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(path), "--output-dir", str(out),
                 "--r", "1", "--J", "2"]) == 1
    rec = _err(capsys)
    assert rec["error"] == "ParameterError"
    assert "series id 'a/b'" in rec["message"]
    assert not out.exists() or not any(out.iterdir())


def test_invalid_level_is_reported(tmp_path, panel_csv, capsys):
    est = tmp_path / "est"
    main(["estimate", "--input", panel_csv, "--output-dir", str(est),
          "--r", "1", "--J", "3"])
    capsys.readouterr()
    assert main(["bootstrap", "--input", str(est), "--output-dir",
                 str(tmp_path / "b"), "--level", "1.2"]) == 1
    assert _err(capsys)["error"] == "ParameterError"


def test_malformed_grid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "grid.json"
    bad.write_text('[{"N": 5,,}]')
    assert main(["simulate", "--input", str(bad), "--output-dir",
                 str(tmp_path / "out")]) == 1
    rec = _err(capsys)
    assert rec["error"] == "JSONDecodeError"
    assert isinstance(rec["line"], int) and isinstance(rec["column"], int)


def test_oversized_r_max_is_rejected(panel_csv, tmp_path, capsys):
    assert main(["select-r", "--input", panel_csv, "--output-dir",
                 str(tmp_path / "sel"), "--r-max", "99"]) == 1
    assert _err(capsys)["error"] == "ParameterError"
