"""Residual bootstrap bands for the fitted loading curves.

Whole cross-section residual vectors are resampled with replacement over the
grid, synthetic panels are refitted with the factors and basis held fixed,
and pointwise quantile bands are read off the refitted loading fields.  Each
draw owns an RNG derived from (seed, draw index), so results do not depend
on execution order and any draw can be reproduced in isolation.

With the factors fixed every draw is the same linear map of its panel, so
one design, factored once, serves all draws.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .errors import NumericError, ParameterError
from .factors import FactorEstimate, Panel, make_panel, nonstationary_factors, pca_factors
from .gls import build_design, common_component, fit_iterative
from .wavelet import WaveletBasis

__all__ = ["BandSet", "residual_bootstrap", "write_bands_csv", "write_plot_csv"]


@dataclass(frozen=True)
class BandSet:
    """Pointwise bootstrap bands for the loading field (shapes T x N x r)."""

    level: float
    lower: np.ndarray
    upper: np.ndarray
    B: int
    failed: tuple[tuple[int, str], ...] = ()


def _one_draw(b, seed, E, X_hat, panel, factors, basis, design, delta, max_iter):
    """Loading field refitted to bootstrap panel b.

    ``design`` is None when the factors are re-extracted from every draw.
    """
    rng = np.random.default_rng([seed, b])
    idx = rng.integers(0, E.shape[0], size=E.shape[0])
    panel_star = make_panel(X_hat + E[idx], panel.series_ids)
    f_star = factors
    if design is None:
        if factors.method == "pca":
            f_star = pca_factors(panel_star, factors.r)
        else:
            f_star = nonstationary_factors(panel_star, factors.r, **factors.params)
    fit_star = fit_iterative(
        panel_star, f_star, basis, delta=delta, max_iter=max_iter, design=design
    )
    return fit_star.Lambda


def _outcome(b, **args):
    """Draw b's loading field, or the exception that ended it."""
    try:
        return _one_draw(b, **args)
    except Exception as exc:  # noqa: BLE001 - failures are data here
        return exc


def _sorted_quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """Quantile q of every row of an ascending-sorted 2-d array.

    Bit for bit ``np.quantile(rows, q, axis=1, method="linear")``: the same
    virtual index, neighbours and lerp, with numpy's clamp to the last order
    statistic.
    """
    n = rows.shape[1]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        lo = hi = n - 1
        t = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        t = virtual - lo
    a, b = rows[:, lo], rows[:, hi]
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def residual_bootstrap(
    panel: Panel,
    fit,
    factors: FactorEstimate,
    basis: WaveletBasis,
    B: int = 100,
    level: float = 0.95,
    seed: int = 0,
    refit_factors: bool = False,
    delta: float = 1e-6,
    max_iter: int = 50,
    n_threads: int = 1,
) -> BandSet:
    """Bootstrap pointwise bands around the estimated loading curves.

    Parameters
    ----------
    panel : Panel
        The panel the fit was computed on.
    fit : GlsFit
        Point estimate whose residuals are resampled.
    factors : FactorEstimate
        Held fixed across draws unless ``refit_factors`` is set.
    basis : WaveletBasis
    B : int
        Number of draws, >= 1.
    level : float
        Band coverage in (0, 1); quantiles (1 - level)/2 and (1 + level)/2
        with linear interpolation.
    seed : int
        Base seed; draw b uses an RNG derived from (seed, b).
    refit_factors : bool
        Experimental: re-extract factors from every synthetic panel with the
        original method.  Off by default.
    delta, max_iter :
        Passed through to the refit.
    n_threads : int
        Draws run in a thread pool when > 1; results are identical to the
        serial order because of per-draw seeding.

    Returns
    -------
    BandSet

    Raises
    ------
    NumericError
        If more than 10% of the draws fail.
    """
    if B < 1:
        raise ParameterError(f"need at least one draw, got B={B}")
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    X_hat = common_component(fit.Lambda, factors)
    E = panel.values - X_hat

    draw = functools.partial(
        _outcome, seed=seed, E=E, X_hat=X_hat, panel=panel, factors=factors, basis=basis,
        design=None if refit_factors else build_design(factors, basis),
        delta=delta, max_iter=max_iter,
    )
    # Curve-major: row k holds every draw of one loading value, so the sort
    # for the quantiles runs along contiguous rows.
    draws = np.empty((fit.Lambda.size, B))
    kept = 0
    failed: list[tuple[int, str]] = []
    pool = ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else None
    with pool or nullcontext():
        # Executor.map yields in submission order and releases each result
        # as it goes, so finished draws do not pile up beside the buffer.
        outcomes = pool.map(draw, range(1, B + 1)) if pool else map(draw, range(1, B + 1))
        for b, outcome in enumerate(outcomes, start=1):
            if isinstance(outcome, Exception):
                failed.append((b, repr(outcome)))
            else:
                draws[:, kept] = outcome.ravel()
                kept += 1
    if len(failed) > 0.1 * B or kept == 0:
        raise NumericError(
            f"{len(failed)} of {B} bootstrap draws failed; first: "
            f"{failed[0] if failed else 'none'}"
        )
    draws = draws[:, :kept]
    draws.sort(axis=1)
    lo = _sorted_quantile(draws, (1.0 - level) / 2.0).reshape(fit.Lambda.shape)
    hi = _sorted_quantile(draws, (1.0 + level) / 2.0).reshape(fit.Lambda.shape)
    return BandSet(level=level, lower=lo, upper=hi, B=B, failed=tuple(failed))


def write_bands_csv(bands: BandSet, fit, panel: Panel, path) -> None:
    """Band table: t,series,factor,lower,point,upper,level."""
    T, N, r = fit.Lambda.shape
    keys = [(sid, i + 1) for sid in panel.series_ids for i in range(r)]
    values = np.stack([bands.lower, fit.Lambda, bands.upper], axis=-1).reshape(T, N * r, 3)
    write_table(path, ["t", "series", "factor", "lower", "point", "upper", "level"],
                values, keys, rows=range(1, T + 1), tail=[format(float(bands.level), ".17g")])


def write_plot_csv(bands: BandSet, fit, panel: Panel, series: str, factor: int, path) -> None:
    """Single-curve plot data: t,point,lower,upper."""
    try:
        m = panel.series_ids.index(series)
    except ValueError:
        raise ParameterError(f"unknown series {series!r}") from None
    i = factor - 1
    if not 0 <= i < fit.Lambda.shape[2]:
        raise ParameterError(f"factor index {factor} outside 1..{fit.Lambda.shape[2]}")
    values = np.stack([fit.Lambda[:, m, i], bands.lower[:, m, i], bands.upper[:, m, i]], axis=-1)
    write_table(path, ["t", "point", "lower", "upper"], values[:, None, :],
                rows=range(1, len(values) + 1))
