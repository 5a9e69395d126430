"""The tracer reaches every imported copy of a public name, and undoes itself."""

import json

import numpy as np
import pytest

import tvload.bootstrap
import tvload.cli
import tvload.gls
import tvload.sim
from tracer import Tracer, main
from tvload import DgpConfig, evaluate_basis, make_panel, pca_factors, standardize


@pytest.fixture
def small_fit():
    ds = tvload.sim.simulate_dgp(DgpConfig(N=6, T=64, r=1, seed=3))
    work = standardize(make_panel(ds.Y))
    return work, pca_factors(work, 1), evaluate_basis("haar", 2, 64)


def test_names_imported_into_other_modules_are_traced(small_fit):
    work, est, basis = small_fit
    original = tvload.gls.fit_iterative
    tracer = Tracer()
    tracer.install()
    try:
        for module in (tvload.cli, tvload.sim, tvload.bootstrap):
            module.fit_iterative(work, est, basis)
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.dump()]
    assert names.count("gls.fit_iterative") == 3
    # each fit solves twice, and gls_step is reached through gls's own globals
    assert names.count("gls.gls_step") == 6
    for module in (tvload.gls, tvload.cli, tvload.sim, tvload.bootstrap):
        assert module.fit_iterative is original


def test_pool_thread_spans_take_the_submitting_span_as_parent(small_fit):
    work, est, basis = small_fit
    fit = tvload.gls.fit_iterative(work, est, basis)
    tracer = Tracer()
    tracer.install()
    try:
        tvload.bootstrap.residual_bootstrap(work, fit, est, basis, B=4, n_threads=2)
    finally:
        tracer.uninstall()
    spans = tracer.dump()
    root = [i for i, s in enumerate(spans) if s["name"] == "bootstrap.residual_bootstrap"]
    fits = [s for s in spans if s["name"] == "gls.fit_iterative"]
    assert len(root) == 1 and len(fits) == 4
    assert all(s["parent"] == root[0] for s in fits)
    assert any(s["thread"] != spans[root[0]]["thread"] for s in fits)


def test_traced_command_writes_spans_with_bytes_and_keys(tmp_path):
    ds = tvload.sim.simulate_dgp(DgpConfig(N=5, T=64, r=1, seed=1))
    panel_csv = tmp_path / "panel.csv"
    tvload.factors.write_panel_csv(make_panel(ds.Y), panel_csv)
    spans_json = tmp_path / "spans.json"
    out = tmp_path / "run"
    code = main([str(spans_json), "--", "estimate", "--input", str(panel_csv),
                 "--output-dir", str(out), "--r", "1"])
    assert code == 0
    trace = json.loads(spans_json.read_text())
    spans = trace["spans"]
    assert trace["import_s"] >= 0.0
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    loadings = [s for s in spans if s["name"] == "gls.write_loadings_csv"]
    assert loadings[0]["bytes"] == (out / "loadings.csv").stat().st_size
    basis = [s for s in spans if s["name"] == "wavelet.evaluate_basis"]
    assert basis[0]["key"] == ["haar", 3, 64]
    assert all(s["end"] >= s["start"] for s in spans)
    assert np.isfinite([s["end"] for s in spans]).all()
