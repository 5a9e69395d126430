"""Synthetic panel generation and the Monte Carlo experiment harness."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tvload.sim as sim
from tvload.errors import NumericError, ParameterError, RegistryError, ShapeError, TvloadError
from tvload.factors import (
    make_panel,
    nonstationary_factors,
    pca_factors,
    restore_level,
    scale_only,
    standardize,
)
from tvload.gls import fit_iterative
from tvload.metrics import loading_mse, procrustes_rotation, r2_factors
from tvload.sim import (
    DgpConfig,
    DiagonalUniformCov,
    ToeplitzCov,
    default_grid,
    default_loading_spec,
    gen_noise_cov,
    loading_library,
    read_grid_json,
    run_experiment,
    simulate_dgp,
    write_detail_csv,
    write_report_csv,
)
from tvload.wavelet import evaluate_basis, select_resolution


# ---------------------------------------------------------------- noise covariance


def test_toeplitz_07_n3_exact():
    C = gen_noise_cov(ToeplitzCov(gamma=0.7), 3)
    assert_allclose(
        C, [[1.0, 0.7, 0.49], [0.7, 1.0, 0.7], [0.49, 0.7, 1.0]], atol=1e-15
    )
    # entries are the float evaluation of gamma^|i-j|, nothing else
    assert np.array_equal(C, 0.7 ** np.abs(np.subtract.outer(range(3), range(3))))


def test_toeplitz_zero_is_identity():
    assert np.array_equal(gen_noise_cov(ToeplitzCov(gamma=0.0), 7), np.eye(7))


def test_toeplitz_gamma_range():
    for g in (1.0, -1.0, 1.5):
        with pytest.raises(ParameterError):
            gen_noise_cov(ToeplitzCov(gamma=g), 4)


def test_diagonal_uniform_bounds_and_structure():
    C = gen_noise_cov(DiagonalUniformCov(lo=0.5, hi=1.5), 40, seed=2)
    d = np.diag(C)
    assert np.all((d >= 0.5) & (d <= 1.5))
    assert np.max(np.abs(C - np.diag(d))) == 0.0
    # seeded determinism
    assert np.array_equal(C, gen_noise_cov(DiagonalUniformCov(), 40, seed=2))


def test_diagonal_uniform_validation():
    with pytest.raises(ParameterError):
        gen_noise_cov(DiagonalUniformCov(lo=1.5, hi=0.5), 4)
    with pytest.raises(ParameterError):
        gen_noise_cov(DiagonalUniformCov(lo=-1.0, hi=0.5), 4)


def test_cov_labels():
    assert ToeplitzCov().label() == "Toep"
    assert DiagonalUniformCov().label() == "Diag"


# ---------------------------------------------------------------- loading library


def test_cosine_pinned_value_at_origin():
    u = np.array([0.0, 0.5])
    vals = loading_library("cosine", u, a=0.4, omega=-3.0 * math.pi)
    assert vals[0] == 0.4
    # cos is even: mirrored frequency gives the same curve
    assert_allclose(vals, loading_library("cosine", u, a=0.4, omega=3.0 * math.pi))


def test_sqrt_trend_pinned_value_at_one():
    # 0.6 * (0.7 * sqrt(1) - 0.5 * sin(1.2 pi))
    val = loading_library(
        "sqrt_trend", np.array([1.0]),
        scale=0.6, slope=0.7, sin_amp=-0.5, sin_freq=1.2 * math.pi,
    )[0]
    assert abs(val - 0.5963355756877419) <= 1e-15


def test_constant_everywhere():
    u = np.linspace(0, 1, 9)
    assert np.array_equal(loading_library("constant", u, c=2.5), np.full(9, 2.5))


def test_registry_rejects_unknown_name():
    with pytest.raises(RegistryError) as err:
        loading_library("chirp", np.array([0.5]))
    # the message, not the repr a KeyError would give
    assert str(err.value).startswith("unknown loading function 'chirp'")


def test_registry_rejects_unknown_parameter():
    with pytest.raises(ParameterError):
        loading_library("cosine", np.array([0.5]), amplitude=2.0)


def test_default_spec_covers_every_pair_and_pins_the_examples():
    spec = default_loading_spec(20, 2)
    assert set(spec) == {(m, n) for m in range(1, 21) for n in range(1, 3)}
    name, params = spec[(12, 1)]
    assert name == "cosine" and params["a"] == 0.4
    name, params = spec[(8, 2)]
    assert name == "sqrt_trend" and params["scale"] == 0.6
    # pinned pairs drop out when the grid is too small to contain them
    assert (12, 1) not in default_loading_spec(10, 1)


# ---------------------------------------------------------------- dgp config


def test_config_validation():
    with pytest.raises(ParameterError):
        DgpConfig(N=10, T=64, r=2, theta=(0.5, 1.2))
    with pytest.raises(ParameterError):
        DgpConfig(N=10, T=64, r=2, factor_innovation_sds=(0.9, 1.0))
    with pytest.raises(ShapeError):
        DgpConfig(N=10, T=64, r=2, theta=(0.5,))
    with pytest.raises(ParameterError):
        DgpConfig(N=10, T=64, r=2, loading_spec={(1, 1): ("constant", {})})
    with pytest.raises(ParameterError, match="beyond"):
        # an entry the panel never draws would go unchecked
        DgpConfig(N=1, T=64, r=1, loading_spec={(1, 1): ("constant", {}), (2, 1): ("nope", {})})


def test_config_defaults_resolve():
    cfg = DgpConfig(N=6, T=32, r=3)
    assert cfg.theta == (0.0, 0.0, 0.0)
    assert cfg.factor_innovation_sds == (0.9, 0.7, 0.9)


# ---------------------------------------------------------------- simulate_dgp


def test_simulate_identical_seeds_identical_datasets():
    cfg = DgpConfig(N=8, T=128, r=2, theta=(0.3, 0.9), seed=77)
    a = simulate_dgp(cfg)
    b = simulate_dgp(cfg)
    for x, y in ((a.Y, b.Y), (a.F, b.F), (a.Lambda, b.Lambda), (a.e, b.e)):
        assert np.array_equal(x, y)
    c = simulate_dgp(dataclasses.replace(cfg, seed=78))
    assert not np.array_equal(a.Y, c.Y)


def test_simulate_exact_decomposition():
    ds = simulate_dgp(DgpConfig(N=12, T=256, r=2, theta=(0.5, 1.0), seed=5))
    rebuilt = np.einsum("tmi,ti->tm", ds.Lambda, ds.F) + ds.e
    assert np.max(np.abs(ds.Y - rebuilt)) <= 1e-12


def test_simulate_white_noise_factor_has_no_autocorrelation():
    ds = simulate_dgp(DgpConfig(N=4, T=2048, r=2, theta=(0.0, 0.0), seed=11))
    for k in range(2):
        f = ds.F[:, k]
        rho = np.corrcoef(f[:-1], f[1:])[0, 1]
        assert abs(rho) <= 0.1


def test_simulate_ar_factor_matches_theory():
    # theta = 0.8, sd 0.9: lag-1 autocorrelation ~0.8, variance ~beta^2/(1-theta^2)
    cfg = DgpConfig(N=4, T=4096, r=1, theta=(0.8,),
                    factor_innovation_sds=(0.9,), seed=21)
    f = simulate_dgp(cfg).F[:, 0]
    rho = np.corrcoef(f[:-1], f[1:])[0, 1]
    assert abs(rho - 0.8) <= 0.05
    assert abs(f.var() / (0.81 / (1 - 0.64)) - 1.0) <= 0.15


@pytest.mark.parametrize("theta", [0.0, -0.0, 1e-300, 0.3, 0.8, 0.999, 1.0 - 2.0**-52])
def test_ar1_path_is_lfilter_bit_for_bit(theta):
    from scipy.signal import lfilter

    rng = np.random.default_rng(int(theta * 1e6))
    for n in (1, 2, 17, 612):
        innov = rng.normal(0.0, 0.9, size=n)
        innov[rng.integers(n, size=min(n, 3))] = rng.choice([0.0, -0.0], size=min(n, 3))
        for x in (innov, innov * 1e-300, innov * 1e300):
            want = lfilter([1.0], [1.0, -theta], x)
            assert sim._ar1_path(x, theta).tobytes() == want.tobytes()


def test_simulate_random_walk_variance_grows():
    # dispersion about the known start F_0 = 0: the late-window mean square
    # exceeds the early one for at least one of the walks in nearly every
    # seed (a centered within-window variance would be scale-free 50/50)
    hits = 0
    for s in range(100):
        F = simulate_dgp(DgpConfig(N=2, T=256, r=2, theta=(1.0, 1.0), seed=s)).F
        if any((F[:64, k] ** 2).mean() < (F[192:, k] ** 2).mean() for k in range(2)):
            hits += 1
    assert hits >= 90


def test_simulate_rejects_non_psd_noise(monkeypatch):
    monkeypatch.setattr(sim, "gen_noise_cov",
                        lambda spec, N, seed=0: -np.eye(N))
    with pytest.raises(NumericError):
        simulate_dgp(DgpConfig(N=4, T=32, r=1))


# ---------------------------------------------------------------- experiments


def test_run_experiment_schedule_invariance():
    cfg = DgpConfig(N=6, T=128, r=2)
    serial = run_experiment(cfg, n_reps=6, seed=4, n_threads=1)
    pooled = run_experiment(cfg, n_reps=6, seed=4, n_threads=3)
    assert serial.replications == pooled.replications
    assert serial.r2_mean == pooled.r2_mean
    assert serial.mse_median == pooled.mse_median


def test_run_experiment_report_contents():
    cfg = DgpConfig(N=6, T=128, r=2)
    rep = run_experiment(cfg, family="haar", n_reps=5, seed=1)
    assert rep.n_reps == 5
    assert len(rep.replications) == 5
    assert 0.0 <= rep.r2_mean <= 1.0
    assert rep.mse_median > 0.0
    assert rep.median_rep in {k for k, _, _ in rep.replications}
    mses = sorted(m for _, _, m in rep.replications)
    assert rep.mse_median == mses[2]  # lower-middle convention, odd count


def test_run_experiment_median_rep_is_reproducible():
    cfg = DgpConfig(N=6, T=128, r=2)
    rep = run_experiment(cfg, n_reps=5, seed=9)
    basis = evaluate_basis("haar", select_resolution(128), 128)
    r2, mse = sim._run_one_rep(cfg, sim._loading_field(cfg), basis, 9, rep.median_rep)
    assert mse == rep.mse_median
    assert (rep.median_rep, r2, mse) in rep.replications


@pytest.mark.parametrize("family,T,theta,N", [
    pytest.param("haar", 128, 0.5, 6, id="haar-128-0.5"),
    pytest.param("d8", 96, 1.0, 6, id="d8-96-1.0"),
    pytest.param("haar", 2048, 0.5, 20, id="haar-2048-0.5"),
    pytest.param("haar", 1000, 0.0, 20, id="haar-1000-0.0"),  # runs of unequal length
    pytest.param("d8", 2048, 0.5, 20, id="d8-2048-0.5"),  # the field takes three row slabs
])
def test_run_experiment_equals_a_loop_of_fresh_simulations(family, T, theta, N):
    # the cell's shared loading field and basis, and the replication's loading
    # error read from the fit in row slabs, change no replication's scores
    cfg = DgpConfig(N=N, T=T, r=2, theta=(theta, theta))
    basis = evaluate_basis(family, select_resolution(T), T)
    rep = run_experiment(cfg, family=family, n_reps=4, seed=3, n_threads=2)
    for k, r2, mse in rep.replications:
        ds = simulate_dgp(dataclasses.replace(cfg, seed=(3, k)))
        panel = make_panel(ds.Y)
        if theta < 1.0:
            work = standardize(panel)
            est = restore_level(work, pca_factors(work, 2))
        else:
            est = nonstationary_factors(scale_only(panel), 2)
        aligned = dataclasses.replace(est, F=procrustes_rotation(ds.F, est.F).F_rotated_rescaled)
        fit = fit_iterative(panel, aligned, basis)
        assert r2 == r2_factors(ds.F, aligned.F)
        assert mse == loading_mse(fit.Lambda, ds.Lambda)


def test_shared_loading_field_is_read_only():
    cfg = DgpConfig(N=5, T=64, r=2)
    Lambda = sim._loading_field(cfg)
    with pytest.raises(ValueError):
        Lambda[0, 0, 0] = 1.0
    ds = simulate_dgp(cfg)
    assert np.array_equal(ds.Lambda, Lambda)
    assert not ds.Lambda.flags.writeable


@pytest.mark.parametrize("n_threads", [1, 3])
def test_run_experiment_failure_budget(monkeypatch, n_threads):
    real = sim._run_one_rep

    def flaky(config, Lambda, basis, seed, rep):
        if rep % 2 == 0:
            raise RuntimeError("boom")
        return real(config, Lambda, basis, seed, rep)

    monkeypatch.setattr(sim, "_run_one_rep", flaky)
    with pytest.raises(NumericError) as err:
        run_experiment(DgpConfig(N=6, T=128, r=2), n_reps=6, seed=0, n_threads=n_threads)
    assert "3 of 6 replications failed; first: (2, \"RuntimeError('boom')\")" in str(err.value)


def test_run_experiment_validation():
    with pytest.raises(ParameterError):
        run_experiment(DgpConfig(N=6, T=128, r=2), n_reps=0)


@pytest.mark.parametrize("family,J", [("symlet", None), ("haar", 8)])
def test_a_basis_that_cannot_be_built_fails_the_cell_not_each_replication(
        monkeypatch, family, J):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran without a basis")

    monkeypatch.setattr(sim, "_run_one_rep", never)
    with pytest.raises(ParameterError):
        run_experiment(DgpConfig(N=6, T=128, r=2), family=family, n_reps=3, J=J)


# ---------------------------------------------------------------- grid files


def test_default_grid_families_and_sizes():
    cells = default_grid()
    assert len(cells) == 18
    fams = {f for _, f in cells}
    assert fams == {"haar", "d8"}
    for cfg, _ in cells:
        assert cfg.N == 20 and cfg.T in (512, 1024, 2048)


def test_grid_json_round_trip(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([
        {
            "N": 5, "T": 64, "r": 1, "theta": [1.0], "family": "d8",
            "noise_cov": {"kind": "toeplitz", "gamma": 0.3},
            "factor_innovation_sds": [0.5],
            "loading_spec": {
                f"{m},1": {"name": "constant", "params": {"c": 1.0}}
                for m in range(1, 6)
            },
        }
    ]))
    (cfg, family), = read_grid_json(path)
    assert family == "d8"
    assert cfg.noise_cov == ToeplitzCov(gamma=0.3)
    assert cfg.theta == (1.0,)
    assert cfg.loading_spec[(3, 1)] == ("constant", {"c": 1.0})


def test_grid_json_reports_bad_record_index(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('[{"N": 5, "T": 64}, {"T": 64}]')
    with pytest.raises(ParameterError) as err:
        read_grid_json(path)
    assert "record 1" in str(err.value)


@pytest.mark.parametrize("cell, key", [
    ({"N": 5, "T": 64, "famliy": "d8"}, "'famliy'"),
    ({"N": 5, "T": 64, "thetaa": [0.5, 0.5]}, "'thetaa'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "toeplitz", "gama": 0.2}}, "'gama'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "diag", "gamma": 0.2}}, "'gamma'"),
    ({"N": 2, "T": 64, "r": 1, "theta": [0.5], "loading_spec": {
        "1,1": {"name": "constant", "parms": {"c": 5.0}}, "2,1": {"name": "constant"}}},
     "'parms'"),
    ({"N": 5, "T": 64, "seed": 3}, "--seed"),
    (5, "JSON object"),
    ({"N": 5, "T": 64, "noise_cov": "toeplitz"}, "noise covariance kind"),
    # one spelling per key: a second noise key would be dropped beside noise_cov
    ({"N": 5, "T": 64, "noise_cov": {"kind": "diag"},
      "cov": {"kind": "toeplitz", "gamma": 0.9}}, "'cov'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "toep", "gamma": 0.5}}, "'toep'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "diagonal_uniform"}}, "'diagonal_uniform'"),
], ids=["cell key", "theta typo", "noise_cov key", "key of another kind", "loading_spec key",
        "seed",
        "cell not an object", "noise_cov not an object", "cov beside noise_cov",
        "toep kind", "diagonal_uniform kind"])
def test_grid_json_rejects_unknown_keys(tmp_path, cell, key):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"N": 5, "T": 64}, cell]))
    with pytest.raises(ParameterError) as err:
        read_grid_json(path)
    assert "record 1" in str(err.value) and key in str(err.value)


@pytest.mark.parametrize("cell, key", [
    ({"N": 5, "T": 64.9}, "'T'"),
    ({"N": 5, "T": 64.0}, "'T'"),
    ({"N": 5, "T": 64, "r": True}, "'r'"),
    ({"N": "20", "T": 64}, "'N'"),
    ({"N": 5, "T": 64, "r": 1, "theta": ["0.5"]}, "'theta'"),
    ({"N": 5, "T": 64, "r": 1, "theta": [True]}, "'theta'"),
    ({"N": 5, "T": 64, "r": 1, "theta": 0.5}, "'theta'"),
    ({"N": 5, "T": 64, "r": 1, "factor_innovation_sds": ["0.5"]}, "'factor_innovation_sds'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "toeplitz", "gamma": "0.3"}}, "'gamma'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "diag", "lo": False}}, "'lo'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "diag", "hi": "2"}}, "'hi'"),
    ({"N": 5, "T": 64, "noise_cov": {"kind": "TOEPLITZ"}}, "'TOEPLITZ'"),
    ({"N": 5, "T": 64, "family": "D8"}, "'D8'"),
    ({"N": 5, "T": 64, "family": "HAAR"}, "'HAAR'"),
    ({"N": 2, "T": 64, "r": 1, "loading_spec": {
        "1,1": {"name": "constant"}, " 2 , 1": {"name": "constant"}}}, "' 2 , 1'"),
    ({"N": 2, "T": 64, "r": 1, "loading_spec": {
        "1,1": {"name": "constant"}, "02,1": {"name": "constant"}}}, "'02,1'"),
    ({"N": 2, "T": 64, "r": 1, "loading_spec": {
        "1,1": {"name": "constant"}, "2,1": {"name": "constant", "params": {"c": True}}}},
     "'c'"),
    ({"N": 2, "T": 64, "r": 1, "loading_spec": {
        "1,1": {"name": "constant", "params": {"c": "2.5"}}, "2,1": {"name": "constant"}}},
     "'c'"),
    ({"N": 1, "T": 64, "r": 1, "loading_spec": {"1,1": {"name": 7}}}, "'name'"),
    ({"N": 1, "T": 64, "r": 1, "loading_spec": {"1,1": {"name": "constant", "params": [2.5]}}},
     "'params'"),
    ({"N": 5, "T": 64, "loading_spec": []}, "'loading_spec'"),
    ({"N": 5, "T": 64, "theta": None}, "'theta'"),
], ids=["T a fraction", "T a float", "r a bool", "N a string", "theta a string",
        "theta a bool", "theta a number", "sds a string", "gamma a string", "lo a bool",
        "hi a string", "TOEPLITZ kind", "D8 family", "HAAR family", "spec key with spaces",
        "spec key with a leading zero", "spec param a bool", "spec param a string",
        "spec name a number", "spec params an array", "spec an array", "theta null"])
def test_grid_json_rejects_a_value_it_would_have_to_coerce(tmp_path, cell, key):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"N": 5, "T": 64}, cell]))
    with pytest.raises(ParameterError) as err:
        read_grid_json(path)
    assert "record 1" in str(err.value) and key in str(err.value)


# under the keys N and r sizes stay small: a cell's default loading spec has
# N * r entries, built when the cell is
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["haar", "d8", "toeplitz", "diag", "constant", "1,1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["kind", "name", "params"]),
                      inner, max_size=3),
    max_leaves=6)
_JSON = _SMALL_JSON | st.just(2**1100) | st.lists(st.floats() | st.just(2**1100), max_size=2)
_NOISE = st.fixed_dictionaries({"kind": st.sampled_from(["toeplitz", "diag"])},
                               optional={"gamma": _JSON, "lo": _JSON, "hi": _JSON})
_SPEC = st.dictionaries(
    st.sampled_from(["1,1", "2,1", " 1,1", "01,1", "1,1,1", "1,"]) | st.text(max_size=4),
    st.fixed_dictionaries(
        {"name": st.sampled_from(["constant", "cosine", "nope"]) | _SMALL_JSON},
        optional={"params": st.dictionaries(st.sampled_from(["c", "a", "u", "omega"]), _JSON,
                                            max_size=2) | _SMALL_JSON})
    | _SMALL_JSON,
    max_size=2)
_CELL_VALUES = {"N": _SMALL_JSON, "r": _SMALL_JSON, "T": _JSON, "theta": _JSON,
                "factor_innovation_sds": _JSON, "family": _JSON,
                "noise_cov": _NOISE | _SMALL_JSON, "loading_spec": _SPEC | _SMALL_JSON}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_value_under_a_cell_key_gives_a_cell_or_a_tvload_error(tmp_path_factory, data):
    key = data.draw(st.sampled_from(sorted(_CELL_VALUES)))
    cell = {"N": 1, "T": 8, "r": 1, key: data.draw(_CELL_VALUES[key])}
    path = tmp_path_factory.getbasetemp() / "any_cell.json"
    path.write_text(json.dumps([cell]))
    try:
        cells = read_grid_json(path)
    except TvloadError:
        return
    assert len(cells) == 1


def test_the_readme_grid_example_is_a_grid(tmp_path):
    # the documented example cannot drift from the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"A simulate grid file is a JSON array of cells.*?```json\n(.*?)```",
                           readme, re.S)
    path = tmp_path / "grid.json"
    path.write_text(example)
    assert len(read_grid_json(path)) == len(json.loads(example)) >= 1


def test_grid_json_rejects_non_array(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"N": 5}')
    with pytest.raises(ParameterError):
        read_grid_json(path)


def test_report_csv_formats(tmp_path):
    cfg = DgpConfig(N=5, T=64, r=2, theta=(0.5, 0.5))
    rep = run_experiment(cfg, n_reps=3, seed=2)
    rpath = tmp_path / "report.csv"
    dpath = tmp_path / "detail.csv"
    write_report_csv([rep], rpath)
    write_detail_csv([rep], dpath)
    rlines = rpath.read_text().splitlines()
    assert rlines[0] == "N,T,theta,cov,family,r2,mse_m"
    assert rlines[1].startswith("5,64,0.5,Diag,haar,")
    dlines = dpath.read_text().splitlines()
    assert dlines[0] == "N,T,theta,cov,family,replication,r2,mse"
    assert len(dlines) == 4
