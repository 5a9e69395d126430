"""End-to-end checks of the command-line front end via ``main(argv)``."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvload
from tvload.cli import _resolve_threads, _reload_estimate, main
from tvload.errors import ParameterError
from tvload.factors import make_panel, pca_factors, read_panel_csv, standardize, write_panel_csv
from tvload.gls import fit_iterative
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


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    src = str(Path(tvload.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, tvload.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


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
