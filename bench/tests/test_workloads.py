"""The output checks pass on the program's outputs and catch a changed value.

Each workload runs here at a small size, in process, through ``tvload.cli``.
"""

import csv
import json
from pathlib import Path

import numpy as np

import tvload.cli
from workloads import BootstrapBands, EstimateWide, SimulateGrid, haar_basis, sha256

ROOT = Path(__file__).resolve().parents[2]


class SmallEstimate(EstimateWide):
    N, T, r = 30, 256, 2


class SmallBootstrap(BootstrapBands):
    N, T, r = 6, 128, 2
    draws = 20


class SmallGrid(SimulateGrid):
    reps = 3
    cells = (
        {"N": 8, "T": 128, "r": 2, "theta": [0.5, 0.5], "family": "haar",
         "noise_cov": {"kind": "diag"}},
        {"N": 8, "T": 128, "r": 2, "theta": [0.5, 0.5], "family": "d8",
         "noise_cov": {"kind": "diag"}},
        {"N": 8, "T": 128, "r": 2, "theta": [1.0, 1.0], "family": "haar",
         "noise_cov": {"kind": "toeplitz", "gamma": 0.5}},
    )


def prepare(workload_cls, tmp_path, seed=4):
    workload = workload_cls(seed, tmp_path / "inputs", ROOT)
    workload.inputs.mkdir()
    workload.make_inputs()
    if workload.setup_args() != ["--version"]:
        assert tvload.cli.main(workload.setup_args()) == 0
        assert workload.check_setup() == []
    out = tmp_path / "out"
    assert tvload.cli.main(workload.command_args(out)) == 0
    return workload, out


def change_cell(outdir, name, row, column, change):
    """Rewrite one CSV cell and the manifest hash, so only the value check can object."""
    path = outdir / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = format(change(float(rows[row][column])), ".17g")
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["artifacts"][name] = sha256(path)
    (outdir / "manifest.json").write_text(json.dumps(manifest))


def test_haar_reference_basis_is_orthonormal_on_a_dyadic_grid():
    B, index = haar_basis(4, 64)
    assert B.shape == (64, 16) and index[:3] == [(-1, 0), (0, 0), (1, 0)]
    np.testing.assert_allclose(B.T @ B / 64, np.eye(16), atol=1e-12)


def test_estimate_checks_pass_and_catch_a_changed_coefficient(tmp_path):
    workload, out = prepare(SmallEstimate, tmp_path)
    assert workload.check(out) == []
    change_cell(out, "coefficients.csv", 5, 4, lambda v: v * (1 + 1e-6))
    assert any("coefficients.csv" in p for p in workload.check(out))


def test_estimate_checks_catch_a_changed_loading(tmp_path):
    workload, out = prepare(SmallEstimate, tmp_path)
    change_cell(out, "loadings.csv", 40, 3, lambda v: v + 1e-9)
    assert any("loadings.csv" in p for p in workload.check(out))


def test_bootstrap_checks_pass_and_catch_a_changed_band(tmp_path):
    workload, out = prepare(SmallBootstrap, tmp_path)
    assert workload.check(out) == []
    change_cell(out, "bands.csv", 7, 5, lambda v: v + 1e-6)
    problems = workload.check(out)
    assert any("recomputed bootstrap" in p for p in problems)
    assert any("not a slice of bands.csv" in p for p in problems)


def test_simulate_checks_pass_and_catch_changed_replications(tmp_path):
    workload, out = prepare(SmallGrid, tmp_path)
    assert workload.check(out) == []
    rep = 1 + workload.seed % workload.reps
    change_cell(out, "detail.csv", rep, 7, lambda v: v * (1 + 1e-6))          # haar cell mse
    change_cell(out, "detail.csv", workload.reps + 1, 6, lambda v: v * (1 - 1e-9))  # d8 R^2
    problems = workload.check(out)
    assert any("loading error" in p for p in problems)
    assert any("paired haar and d8" in p for p in problems)
