"""Residual bootstrap bands for the fitted loading curves.

Whole cross-section residual vectors are resampled with replacement over the
grid, synthetic panels are refitted with the factors and basis held fixed,
and pointwise quantile bands are read off the refitted loading curves.  The
bands are therefore conditional on the factors: on extracted factors they
leave out the extraction error, and cover the true curves less often than
their level says.  Each draw owns an RNG derived from (seed, draw index), so
results do not depend on execution order and any draw can be reproduced in
isolation.

With the factors fixed every draw is the same linear map of its panel, so
one design, factored once, serves all draws, and a draw costs its fit's two
solves.  A refitted curve is the basis times its 2^J wavelet coefficients,
so a draw keeps only those coefficients, N*r*2^J values where its loading
field has T*N*r.  The bands are formed one curve at a time from them, so the
draws take B*N*r*2^J + T*B values at most, not B*T*N*r.  On a Haar basis
with a dyadic grid every curve is constant on its 2^J blocks, so its bands
are formed on the block rows alone.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .errors import NumericError, ParameterError
from .factors import FactorEstimate, Panel, make_panel
from .gls import build_design, fit_iterative
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


def _one_draw(b, seed, E, X_hat, panel, factors, basis, design):
    """Wavelet coefficients, shape (N, r, 2^J), refitted to bootstrap panel b."""
    rng = np.random.default_rng([seed, b])
    idx = rng.integers(0, E.shape[0], size=E.shape[0])
    panel_star = make_panel(X_hat + E[idx], panel.series_ids)
    return fit_iterative(panel_star, factors, basis, design=design).beta


def _outcome(b, **args):
    """Draw b's coefficients, or the exception that ended it."""
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
    n_threads: int = 1,
) -> BandSet:
    """Bootstrap pointwise bands around the estimated loading curves.

    Every draw keeps its wavelet coefficients, not its loading field, and the
    bands are formed one curve at a time from them: the draws take at most
    B*N*r*2^J + T*B float64 values, T/2^J times fewer than the B*T*N*r of
    the draws' loading fields.  The factors are held fixed, so the bands are
    conditional on them.

    Parameters
    ----------
    panel : Panel
        The panel the fit was computed on.
    fit : GlsFit
        Point estimate whose residuals are resampled.
    factors : FactorEstimate
        Held fixed across draws.
    basis : WaveletBasis
    B : int
        Number of draws, >= 1.
    level : float
        Band coverage in (0, 1); quantiles (1 - level)/2 and (1 + level)/2
        with linear interpolation.
    seed : int
        Base seed; draw b uses an RNG derived from (seed, b).
    n_threads : int
        Worker threads of the pool the draws run in (at least one); results
        do not depend on it because of per-draw seeding.

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
    design = build_design(factors, basis)
    X_hat = design.fitted(fit.beta)
    E = panel.values - X_hat

    draw = functools.partial(
        _outcome, seed=seed, E=E, X_hat=X_hat, panel=panel, factors=factors, basis=basis,
        design=design,
    )
    # Curve-major: store[c] holds every draw's coefficients of curve c, one
    # row per draw, so each curve's field comes out of one product with the
    # rows loadings_from_coeffs evaluates: the K = 2^J block rows of a Haar
    # basis on a dyadic grid, whose sorted quantiles are then repeated over
    # each block, else all T rows of the basis.
    N, r, p = fit.beta.shape
    store = np.empty((N * r, B, p))
    kept = 0
    failed: list[tuple[int, str]] = []
    with ThreadPoolExecutor(max_workers=max(1, n_threads)) as pool:
        # Executor.map yields in submission order and releases each result
        # as it goes, so finished draws do not pile up beside the store.
        for b, outcome in enumerate(pool.map(draw, range(1, B + 1)), start=1):
            if isinstance(outcome, Exception):
                failed.append((b, repr(outcome)))
            else:
                store[:, kept] = outcome.reshape(N * r, p)
                kept += 1
    if len(failed) > 0.1 * B or kept == 0:
        raise NumericError(
            f"{len(failed)} of {B} bootstrap draws failed; first: "
            f"{failed[0] if failed else 'none'}"
        )
    A = basis.block_rows
    rows = basis.B if A is None else A
    lo = np.empty((len(rows), N * r))
    hi = np.empty((len(rows), N * r))
    field = np.empty((len(rows), kept))  # curve c in every draw, reused for each c
    for c in range(N * r):
        np.matmul(rows, store[c, :kept].T, out=field)
        field.sort(axis=1)
        lo[:, c] = _sorted_quantile(field, (1.0 - level) / 2.0)
        hi[:, c] = _sorted_quantile(field, (1.0 + level) / 2.0)
    if A is not None:
        lo, hi = (np.repeat(x, basis.T // len(A), axis=0) for x in (lo, hi))
    return BandSet(level=level, lower=lo.reshape(-1, N, r), upper=hi.reshape(-1, N, r),
                   B=B, failed=tuple(failed))


def write_bands_csv(bands: BandSet, fit, path) -> None:
    """Band table: t,series,factor,lower,point,upper,level."""
    T, N, r = fit.Lambda.shape
    keys = [(sid, i + 1) for sid in fit.panel.series_ids for i in range(r)]
    values = np.stack([bands.lower, fit.Lambda, bands.upper], axis=-1).reshape(T, N * r, 3)
    write_table(path, ["t", "series", "factor", "lower", "point", "upper", "level"],
                values, keys, rows=range(1, T + 1), tail=[format(float(bands.level), ".17g")])


def write_plot_csv(bands: BandSet, fit, series: str, factor: int, path) -> None:
    """Single-curve plot data: t,point,lower,upper."""
    try:
        m = fit.panel.series_ids.index(series)
    except ValueError:
        raise ParameterError(f"unknown series {series!r}") from None
    i = factor - 1
    if not 0 <= i < fit.Lambda.shape[2]:
        raise ParameterError(f"factor index {factor} outside 1..{fit.Lambda.shape[2]}")
    values = np.stack([fit.Lambda[:, m, i], bands.lower[:, m, i], bands.upper[:, m, i]], axis=-1)
    write_table(path, ["t", "point", "lower", "upper"], values[:, None, :],
                rows=range(1, len(values) + 1))
