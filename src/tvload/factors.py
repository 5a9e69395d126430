"""Panels and first-stage factor extraction.

A panel is a T x N matrix of observations on a common time grid.  Factors are
extracted either by principal components (stationary data) or from the
eigenvectors of a normalized lag covariance (integrated data), and the number
of factors can be chosen by an information criterion swept over its penalty
constant with a subsample-stability rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._table import read_table, write_table
from .errors import (
    DegenerateSeriesError,
    MissingDataError,
    NumericError,
    ParameterError,
    ShapeError,
)

__all__ = [
    "Panel",
    "FactorEstimate",
    "FactorSelection",
    "make_panel",
    "read_panel_csv",
    "write_panel_csv",
    "standardize",
    "first_difference",
    "pca_factors",
    "restore_level",
    "generalized_covariance",
    "nonstationary_factors",
    "select_num_factors",
]


@dataclass(frozen=True)
class Panel:
    """Observed panel: ``values[t, m]`` is series m at grid point t."""

    values: np.ndarray
    series_ids: tuple[str, ...]
    means: np.ndarray | None = None
    sds: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


def make_panel(values, series_ids=None) -> Panel:
    """Validate raw values and wrap them in a Panel."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"panel must be 2-d, got shape {values.shape}")
    T, N = values.shape
    if T < 2:
        raise ShapeError(f"panel needs at least 2 grid points, got T={T}")
    if N < 1:
        raise ShapeError("panel needs at least one series")
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        spots = ", ".join(f"(t={t + 1}, series={m + 1})" for t, m in bad[:10])
        raise MissingDataError(f"panel contains {bad.shape[0]} non-finite cells: {spots}")
    if series_ids is None:
        series_ids = tuple(f"s{m + 1}" for m in range(N))
    else:
        series_ids = tuple(str(s) for s in series_ids)
        if len(series_ids) != N:
            raise ShapeError(
                f"{len(series_ids)} series ids for {N} columns"
            )
        seen: set[str] = set()
        for sid in series_ids:
            if sid in seen:
                raise ParameterError(f"duplicate series id {sid!r}")
            # a CSV header read strips ids, and bootstrap names a file after each id
            if sid != sid.strip() or "/" in sid or "\0" in sid:
                raise ParameterError(
                    f"series id {sid!r} cannot round-trip: it has leading or trailing "
                    "whitespace, '/' or NUL"
                )
            seen.add(sid)
    return Panel(values=values, series_ids=series_ids)


def read_panel_csv(path) -> Panel:
    """Read a panel from CSV: first column is the grid label, one column per series.

    Any empty or non-numeric cell is reported as missing data together with
    its row and column; there is no imputation.
    """
    header, _, values = read_table(path)
    return make_panel(values, [h.strip() for h in header[1:]])


def write_panel_csv(panel: Panel, path) -> None:
    """Write a panel to CSV with an integer grid column."""
    write_table(path, ["t", *panel.series_ids], panel.values[:, None, :],
                rows=range(1, panel.T + 1))


def _series_sds(panel: Panel, verb: str) -> np.ndarray:
    """Sample standard deviation of every series; constant series raise."""
    sds = panel.values.std(axis=0, ddof=1)
    dead = np.flatnonzero(sds <= 0.0)
    if dead.size:
        names = ", ".join(panel.series_ids[m] for m in dead[:10])
        raise DegenerateSeriesError(f"zero-variance series cannot be {verb}: {names}")
    return sds


def standardize(panel: Panel) -> Panel:
    """Center each series and scale it to unit sample standard deviation.

    Idempotent: a panel that carries centering means, which only this
    function sets, is returned as is.  Constant series cannot be scaled and
    raise ``DegenerateSeriesError``.
    """
    if panel.means is not None:
        return panel
    means = panel.values.mean(axis=0)
    sds = _series_sds(panel, "standardized")
    vals = panel.values - means
    vals /= sds
    return replace(panel, values=vals, means=means, sds=sds)


def scale_only(panel: Panel) -> Panel:
    """Rescale each series to unit sample standard deviation, keeping its level.

    Used in front of the lag-covariance extractor: that estimator demeans
    internally when forming its covariance, but the factor paths it returns
    must retain the level, so the panel is not centered here.  Constant
    series raise ``DegenerateSeriesError``.
    """
    sds = _series_sds(panel, "rescaled")
    return replace(panel, values=panel.values / sds, sds=sds)


def first_difference(panel: Panel) -> Panel:
    """Difference each series once; the grid shrinks by one point."""
    if panel.T < 3:
        raise ShapeError(f"panel too short to difference: T={panel.T}")
    vals = np.diff(panel.values, axis=0)
    return make_panel(vals, panel.series_ids)


@dataclass(frozen=True)
class FactorEstimate:
    """Extracted common factors.

    ``F`` is T x r; ``eigenvalues`` is the full descending spectrum of the
    matrix that was diagonalized; ``method`` records how F was obtained.
    """

    F: np.ndarray
    eigenvalues: np.ndarray
    method: str
    r: int
    params: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return self.F.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (deterministic signs)."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, i]))
        if out[lead, i] < 0:
            out[:, i] = -out[:, i]
    return out


def _eigh_descending(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the symmetric matrix S in descending order, with their vectors."""
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def pca_factors(panel: Panel, r: int) -> FactorEstimate:
    """Principal-component factors normalized so that F'F = T * I_r.

    The eigenproblem of (NT)^-1 Y Y' is solved on the smaller of the two
    Gram matrices (T x T or N x N); factors are sqrt(T) times the leading
    eigenvectors, with each eigenvector's largest-magnitude entry positive.

    Parameters
    ----------
    panel : Panel
    r : int
        Number of factors, 1 <= r <= min(N, T).

    Returns
    -------
    FactorEstimate
    """
    Y = panel.values
    T, N = Y.shape
    if not 1 <= r <= min(N, T):
        raise ParameterError(f"r={r} outside 1..min(N,T)={min(N, T)}")
    w, V = _eigh_descending(Y @ Y.T / (N * T) if T <= N else Y.T @ Y / (N * T))
    if T <= N:
        vecs = _fix_signs(V[:, :r])
    else:
        lead = w[:r]
        if np.any(lead <= 0.0):
            raise NumericError(
                f"panel rank below r={r}: leading eigenvalues {lead}"
            )
        vecs = _fix_signs(Y @ V[:, :r] / np.sqrt(N * T * lead))
    F = math.sqrt(T) * vecs
    return FactorEstimate(F=F, eigenvalues=w, method="pca", r=r)


def restore_level(work: Panel, est: FactorEstimate) -> FactorEstimate:
    """Principal-component scores of the scaled but uncentered panel.

    ``est`` is ``pca_factors(work, r)`` on a panel ``work`` returned by
    ``standardize``.  In both Gram branches its scores are F = Z W, linear
    in the centered panel Z through the loading map
    W = Z'F / (N T lambda_{1..r}).  Applying the same map to the scaled
    panel Y / sd = Z + 1 (mean / sd)' gives

        F_level = F + 1 (mean / sd)' W,

    which keeps the level that centering removed.  Regressing the raw panel
    on these scores absorbs Lambda(t) mean(F) instead of leaving it in the
    residual.  The eigenvectors are unchanged; the scores no longer satisfy
    F'F = T * I_r.

    Raises
    ------
    ParameterError
        If ``work`` carries no centering means and scales, or ``est`` is not
        a principal-component estimate on the same grid.
    NumericError
        If a leading eigenvalue is not positive (panel rank below r).
    """
    if work.means is None or work.sds is None:
        raise ParameterError("restoring the level needs a panel returned by standardize")
    if est.method != "pca" or est.T != work.T:
        raise ParameterError(
            f"need principal-component factors on T={work.T}, "
            f"got method={est.method!r} on T={est.T}"
        )
    lead = est.eigenvalues[: est.r]
    if np.any(lead <= 0.0):
        raise NumericError(f"panel rank below r={est.r}: leading eigenvalues {lead}")
    W = work.values.T @ est.F / (work.N * work.T * lead)
    return replace(est, F=est.F + (work.means / work.sds) @ W)


def generalized_covariance(panel: Panel, k: int) -> np.ndarray:
    """Normalized lag-k covariance for integrated panels, symmetrized.

    Computes T^-3 * sum_{t=k+1..T} (Y_{t-k} - Ybar)(Y_t - Ybar)' and returns
    the symmetric part (C + C')/2.  The T^-3 scale suits I(1) factors, whose
    cross products grow like T^3; a scale only rescales the eigenvalues and
    leaves the eigenvectors, and so the factors, unchanged.

    Parameters
    ----------
    panel : Panel
    k : int
        Lag, 0 <= k < T.
    """
    Y = panel.values
    T = Y.shape[0]
    if not 0 <= k < T:
        raise ParameterError(f"lag k={k} outside 0..T-1={T - 1}")
    Z = Y - Y.mean(axis=0)
    C = Z[: T - k].T @ Z[k:]
    C *= float(T) ** -3
    return 0.5 * (C + C.T)


def nonstationary_factors(panel: Panel, r: int, k: int = 1) -> FactorEstimate:
    """Factors for integrated panels from the lag-covariance eigenvectors.

    The r leading orthonormal eigenvectors L of the symmetrized normalized
    lag covariance give the factor estimate F = Y L.

    Parameters
    ----------
    panel : Panel
    r : int
        Number of factors, 1 <= r <= N.
    k : int
        Lag of the covariance.
    """
    Y = panel.values
    N = Y.shape[1]
    if not 1 <= r <= N:
        raise ParameterError(f"r={r} outside 1..N={N}")
    w, V = _eigh_descending(generalized_covariance(panel, k))
    F = Y @ _fix_signs(V[:, :r])
    return FactorEstimate(F=F, eigenvalues=w, method="lag_covariance", r=r, params={"k": k})


@dataclass(frozen=True)
class FactorSelection:
    """Outcome of the penalty-swept information criterion.

    ``r_max`` is the largest candidate the scan used; ``r_sub[s, i]`` is the
    minimizer on subsample s at penalty constant ``c_grid[i]``; ``intervals``
    lists the zero-variance plateaus as (c_lo, c_hi, r, width) tuples, widest
    first; ``plateau_width`` is the width of the one the selection chose.
    """

    r: int
    r_max: int
    c_grid: np.ndarray
    r_full: np.ndarray
    r_sub: np.ndarray
    variance: np.ndarray
    ic_full: np.ndarray
    intervals: tuple[tuple[float, float, int, float], ...]

    @property
    def plateau_width(self) -> float:
        # the chosen plateau is the widest of its r, and intervals lists the widest first
        return next(width for _, _, r, width in self.intervals if r == self.r)


def _ic_minimizers(values: np.ndarray, r_max: int, c_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (argmin over r per c, IC table) for one panel of values."""
    T, N = values.shape
    side = values @ values.T if T <= N else values.T @ values
    w = np.linalg.eigvalsh(side / (N * T))[::-1]
    w = np.clip(w, 0.0, None)
    if w[0] > 0:
        # eigenvalue dust below the leading value's machine precision is
        # rank-deficiency noise; zero it so exact low-rank panels give V = 0
        w[w < w[0] * 1e-12] = 0.0
    # V(r) = average squared residual of the rank-r fit = trailing eigenvalue mass
    tail = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    V = tail[: r_max + 1]
    penalty = (N + T) / (N * T) * math.log(min(N, T))
    r_idx = np.arange(r_max + 1)
    with np.errstate(divide="ignore"):
        logV = np.log(V)
    ic = logV[None, :] + np.outer(c_grid, r_idx) * penalty
    return np.argmin(ic, axis=1), ic


# The penalty constants of the sweep, and the nested subpanels it runs on:
# _N_SUBSAMPLES of them, from _MIN_FRACTION of the panel up to all of it.
# Every FactorSelection hands out the grid itself, so it is read-only.
_C_GRID = np.linspace(0.01, 3.0, 60)
_C_GRID.flags.writeable = False
_N_SUBSAMPLES = 10
_MIN_FRACTION = 0.5


def select_num_factors(
    panel: Panel,
    r_max: int | None = None,
    first_difference_panel: bool = False,
) -> FactorSelection:
    """Choose the number of factors by penalty sweep plus subsample stability.

    The criterion IC(r) = log V(r) + c * r * ((N+T)/(NT)) * log(min(N,T)) is
    minimized over r = 0..r_max for every penalty constant c on a grid of 60
    points on [0.01, 3], and on 10 nested subpanels whose share of the panel
    grows from one half to the whole.  The chosen r is the value that stays
    constant over the widest c-interval on which all subsamples agree (zero
    across-subsample variance).

    Parameters
    ----------
    panel : Panel
    r_max : int, optional
        Largest candidate, 1 <= r_max < min(N, T) of the panel the scan runs
        on (after differencing); defaults to min(8, min(N, T) - 1).
    first_difference_panel : bool
        Difference the panel once before selection (integrated data).

    Returns
    -------
    FactorSelection
    """
    work = panel
    if first_difference_panel:
        work = first_difference(work)
    work = standardize(work)
    T, N = work.values.shape
    if min(N, T) < 2:
        panel_kind = "differenced panel" if first_difference_panel else "panel"
        raise ParameterError(f"rank selection needs at least 2 series and 2 periods; "
                             f"the {panel_kind} has N={N}, T={T}")
    if r_max is None:
        r_max = min(8, min(N, T) - 1)
    if not 1 <= r_max < min(N, T):
        raise ParameterError(f"r_max={r_max} outside 1..min(N,T)-1={min(N, T) - 1}")

    r_sub = np.empty((_N_SUBSAMPLES, _C_GRID.size), dtype=int)
    for s, f in enumerate(np.linspace(_MIN_FRACTION, 1.0, _N_SUBSAMPLES)):
        Ts = max(2, int(round(f * T)))
        Ns = max(1, int(round(f * N)))
        sub = work.values[:Ts, :Ns]
        r_sub[s], ic_full = _ic_minimizers(sub, min(r_max, min(Ns, Ts) - 1), _C_GRID)
    # the last subpanel is the full panel
    r_full = r_sub[-1]
    variance = r_sub.var(axis=0)

    # zero-variance plateaus of constant r, widest c-range first
    intervals: list[tuple[float, float, int, float]] = []
    runs = itertools.groupby(range(_C_GRID.size), key=lambda i: (variance[i] == 0.0, r_full[i]))
    for (stable, r), run in runs:
        if stable:
            c = _C_GRID[list(run)]
            intervals.append((float(c[0]), float(c[-1]), int(r), float(c[-1] - c[0])))
    if not intervals:
        raise NumericError(
            "no penalty interval with subsample-stable selection; "
            "inspect the criterion surface (r_sub) directly"
        )
    intervals.sort(key=lambda iv: (-iv[3], iv[0]))
    # a plateau at r_max as c -> 0 is the under-penalization artifact, not a
    # selection: every panel produces it once c is small enough.  Prefer the
    # widest non-trivial plateau and keep the trivial one only as a fallback.
    informative = [iv for iv in intervals if iv[2] != r_max]
    chosen = informative[0] if informative else intervals[0]
    return FactorSelection(
        r=chosen[2],
        r_max=r_max,
        c_grid=_C_GRID,
        r_full=r_full,
        r_sub=r_sub,
        variance=variance,
        ic_full=ic_full,
        intervals=tuple(intervals),
    )
