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
one design and the inverses it keeps (of each Haar cell's r x r Gram, or of
d8's Psi'Psi) serve all draws, and a draw costs its fit's two solves.  A refitted curve is the basis times its 2^J wavelet coefficients,
so a draw keeps only those coefficients, N*r*2^J values where its loading
field has T*N*r.  The bands are formed one curve at a time from them, so the
draws take B*N*r*2^J + T*B values at most, not B*T*N*r.  Every curve is
constant on each run of the basis (2^J runs on any Haar grid, T on d8), so
its bands are formed, held and written once per run.

The draws run as one striped task per worker: of n workers, worker w runs
draws w + 1, w + 1 + n, w + 1 + 2n, ..., and each draw writes its
coefficients into its own column of one store, so a draw of well under a
millisecond pays for no future of its own, and the bands are the same bits
for any worker count.  Every draw refits the same design, so a draw fails
only where that design cannot be solved, and then every draw would: a
worker stops at its first failed draw, and after the join that draw's own
error ends the bootstrap.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import write_table
from .errors import ParameterError
from .factors import FactorEstimate, Panel, make_panel
from .gls import fit_iterative
from .wavelet import WaveletBasis, expand_runs

__all__ = ["BandSet", "residual_bootstrap", "write_bands_csv", "write_plot_csv"]


@dataclass(frozen=True)
class BandSet:
    """Pointwise bootstrap bands for the loading field, held once per basis run.

    ``lower_rows`` and ``upper_rows`` have shape (runs, N, r), and row k
    covers ``run_lengths[k]`` grid points; ``lower`` and ``upper`` are those
    rows spread over the grid, T x N x r, built when first read.
    """

    level: float
    lower_rows: np.ndarray
    upper_rows: np.ndarray
    run_lengths: np.ndarray

    @cached_property
    def lower(self) -> np.ndarray:
        return expand_runs(self.lower_rows, self.run_lengths)

    @cached_property
    def upper(self) -> np.ndarray:
        return expand_runs(self.upper_rows, self.run_lengths)


def _one_draw(b, seed, E, X_hat, panel, factors, basis, design):
    """Wavelet coefficients, shape (N, r, 2^J), refitted to bootstrap panel b."""
    rng = np.random.default_rng([seed, b])
    idx = rng.integers(0, E.shape[0], size=E.shape[0])
    panel_star = make_panel(X_hat + E[idx], panel.series_ids)
    return fit_iterative(panel_star, factors, basis, design=design).beta


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


def _check_is_the_fits(panel: Panel, factors: FactorEstimate, basis: WaveletBasis, fit) -> None:
    """Raise ``ParameterError`` unless the panel, factors and basis are the fit's
    own, or equal to them; draws on any other would give wrong bands."""
    own = fit.design.basis
    if basis is not own and (basis.family, basis.J, basis.T) != (own.family, own.J, own.T):
        raise ParameterError(
            f"basis {basis.family.value} J={basis.J} T={basis.T} is not the fit's "
            f"({own.family.value} J={own.J} T={own.T})")
    if panel is not fit.panel and not np.array_equal(panel.values, fit.panel.values):
        raise ParameterError("panel is not the one the fit was computed on")
    if factors.F is not fit.design.F and not np.array_equal(factors.F, fit.design.F):
        raise ParameterError("factors are not the ones the fit was computed on")


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
        The factors of the fit's design, held fixed across draws.
    basis : WaveletBasis
        The basis of the fit's design.
    B : int
        Number of draws, >= 1.
    level : float
        Band coverage in (0, 1); quantiles (1 - level)/2 and (1 + level)/2
        with linear interpolation.
    seed : int
        Base seed, >= 0; draw b uses an RNG derived from (seed, b).
    n_threads : int
        Worker threads, >= 1.  min(n_threads, B) tasks are submitted, and
        task w runs draws w + 1, w + 1 + n_threads, ...; per-draw seeding and
        the draw-order store make the bands the same bits for any value.

    Returns
    -------
    BandSet

    Raises
    ------
    ParameterError
        If a parameter is out of range, or the panel, the factors or the
        basis is not the fit's, before any draw runs.
    RankDeficiencyError
        A ``NumericError``: if the fit's design cannot be solved.  Every
        draw refits that design, so the first draw on each worker raises it
        and no band is formed.
    """
    if B < 1:
        raise ParameterError(f"need at least one draw, got B={B}")
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if n_threads < 1:
        raise ParameterError(f"need at least one worker thread, got n_threads={n_threads}")
    _check_is_the_fits(panel, factors, basis, fit)
    design = fit.design
    X_hat = design.fitted(fit.beta)
    E = panel.values - X_hat

    # Curve-major: store[c] holds every draw's coefficients of curve c, one
    # row per draw, so each curve's field comes out of one product with the
    # basis's run rows, the rows loading_rows evaluates.
    N, r, p = fit.beta.shape
    store = np.empty((N * r, B, p))

    def stripe(first: int) -> None:
        for b in range(first, B + 1, n_threads):
            beta = _one_draw(b, seed, E, X_hat, panel, factors, basis, design)
            store[:, b - 1] = beta.reshape(N * r, p)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        tasks = [pool.submit(stripe, first) for first in range(1, min(n_threads, B) + 1)]
    for task in tasks:
        task.result()
    rows = basis.run_rows
    lo = np.empty((len(rows), N * r))
    hi = np.empty((len(rows), N * r))
    field = np.empty((len(rows), B))  # curve c in every draw, reused for each c
    for c in range(N * r):
        np.matmul(rows, store[c].T, out=field)
        field.sort(axis=1)
        lo[:, c] = _sorted_quantile(field, (1.0 - level) / 2.0)
        hi[:, c] = _sorted_quantile(field, (1.0 + level) / 2.0)
    return BandSet(level=level, lower_rows=lo.reshape(-1, N, r), upper_rows=hi.reshape(-1, N, r),
                   run_lengths=basis.run_lengths)


def write_bands_csv(bands: BandSet, fit, path) -> None:
    """Band table: t,series,factor,lower,point,upper,level, written from the run rows."""
    runs, N, r = fit.Lambda_rows.shape
    keys = [(sid, i + 1) for sid in fit.panel.series_ids for i in range(r)]
    level = np.full_like(bands.lower_rows, bands.level)
    values = np.stack([bands.lower_rows, fit.Lambda_rows, bands.upper_rows, level], axis=-1)
    write_table(path, ["t", "series", "factor", "lower", "point", "upper", "level"],
                values.reshape(runs, N * r, 4), keys, rows=range(1, fit.design.basis.T + 1),
                run_lengths=bands.run_lengths)


def write_plot_csv(bands: BandSet, fit, series: str, factor: int, path) -> None:
    """Single-curve plot data: t,point,lower,upper, written from the run rows."""
    if series not in fit.panel.series_ids:
        raise ParameterError(f"unknown series {series!r}")
    m = fit.panel.series_ids.index(series)
    i = factor - 1
    if not 0 <= i < fit.Lambda_rows.shape[2]:
        raise ParameterError(f"factor index {factor} outside 1..{fit.Lambda_rows.shape[2]}")
    values = np.stack([fit.Lambda_rows[:, m, i], bands.lower_rows[:, m, i],
                       bands.upper_rows[:, m, i]], axis=-1)
    write_table(path, ["t", "point", "lower", "upper"], values[:, None, :],
                rows=range(1, fit.design.basis.T + 1), run_lengths=bands.run_lengths)
