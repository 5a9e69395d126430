"""Panels and first-stage factor extraction.

A panel is a T x N matrix of observations on a common time grid.  Factors are
extracted either by principal components (stationary data) or from the
eigenvectors of a normalized lag covariance (integrated data), and the number
of factors can be chosen by an information criterion swept over its penalty
constant with a subsample-stability rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._table import write_table
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
    standardized: bool = False
    means: np.ndarray | None = None
    sds: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


def make_panel(values, series_ids=None, standardized: bool = False,
               means=None, sds=None) -> Panel:
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
    return Panel(values=values, series_ids=series_ids, standardized=standardized,
                 means=None if means is None else np.asarray(means, float),
                 sds=None if sds is None else np.asarray(sds, float))


def read_panel_csv(path) -> Panel:
    """Read a panel from CSV: first column is the grid label, one column per series.

    Any empty or non-numeric cell is reported as missing data together with
    its row and column; there is no imputation.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingDataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ShapeError(f"{path}: need a label column plus at least one series")
        series_ids = tuple(h.strip() for h in header[1:])
        rows: list[list[float]] = []
        bad: list[tuple[int, str]] = []
        for i, rec in enumerate(reader):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                raise ShapeError(
                    f"{path}: row {i + 2} has {len(rec)} fields, expected {len(header)}"
                )
            vals = []
            for c, cell in enumerate(rec[1:]):
                txt = cell.strip()
                try:
                    v = float(txt) if txt else float("nan")
                except ValueError:
                    v = float("nan")
                if not math.isfinite(v):
                    bad.append((i + 2, series_ids[c]))
                vals.append(v)
            rows.append(vals)
    if bad:
        spots = ", ".join(f"(row {r}, column {c})" for r, c in bad[:10])
        raise MissingDataError(
            f"{path}: {len(bad)} missing or non-numeric cells: {spots}"
        )
    return make_panel(np.asarray(rows, dtype=float), series_ids)


def write_panel_csv(panel: Panel, path) -> None:
    """Write a panel to CSV with an integer grid column."""
    write_table(path, ["t", *panel.series_ids], panel.values[:, None, :],
                rows=range(1, panel.T + 1))


def standardize(panel: Panel) -> Panel:
    """Center each series and scale it to unit sample standard deviation.

    Idempotent: a panel already flagged as standardized is returned as is.
    Constant series cannot be scaled and raise ``DegenerateSeriesError``.
    """
    if panel.standardized:
        return panel
    means = panel.values.mean(axis=0)
    sds = panel.values.std(axis=0, ddof=1)
    dead = np.flatnonzero(sds <= 0.0)
    if dead.size:
        names = ", ".join(panel.series_ids[m] for m in dead[:10])
        raise DegenerateSeriesError(f"zero-variance series cannot be standardized: {names}")
    vals = (panel.values - means) / sds
    return replace(panel, values=vals, standardized=True, means=means, sds=sds)


def scale_only(panel: Panel) -> Panel:
    """Rescale each series to unit sample standard deviation, keeping its level.

    Used in front of the lag-covariance extractor: that estimator demeans
    internally when forming its covariance, but the factor paths it returns
    must retain the level, so the panel is not centered here.  Constant
    series raise ``DegenerateSeriesError``.
    """
    sds = panel.values.std(axis=0, ddof=1)
    dead = np.flatnonzero(sds <= 0.0)
    if dead.size:
        names = ", ".join(panel.series_ids[m] for m in dead[:10])
        raise DegenerateSeriesError(f"zero-variance series cannot be rescaled: {names}")
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
    try:
        if T <= N:
            w, V = np.linalg.eigh(Y @ Y.T / (N * T))
        else:
            w, V = np.linalg.eigh(Y.T @ Y / (N * T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
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


def generalized_covariance(panel: Panel, k: int, d: int, dprime: int) -> np.ndarray:
    """Normalized lag-k covariance for integrated panels, symmetrized.

    Computes T^-(2d+d') * sum_{t=k+1..T} (Y_{t-k} - Ybar)(Y_t - Ybar)' and
    returns the symmetric part (C + C')/2.

    Parameters
    ----------
    panel : Panel
    k : int
        Lag, 0 <= k < T.
    d, dprime : int
        Nonnegative normalization orders; the scale factor is T^-(2d+d').
    """
    Y = panel.values
    T = Y.shape[0]
    if not 0 <= k < T:
        raise ParameterError(f"lag k={k} outside 0..T-1={T - 1}")
    if d < 0 or dprime < 0:
        raise ParameterError(f"normalization orders must be nonnegative, got d={d}, d'={dprime}")
    Z = Y - Y.mean(axis=0)
    C = Z[: T - k].T @ Z[k:]
    C *= float(T) ** (-(2 * d + dprime))
    return 0.5 * (C + C.T)


def nonstationary_factors(
    panel: Panel, r: int, k: int = 1, d: int = 1, dprime: int = 1
) -> FactorEstimate:
    """Factors for integrated panels from the lag-covariance eigenvectors.

    The r leading orthonormal eigenvectors L of the symmetrized normalized
    lag covariance give the factor estimate F = Y L.

    Parameters
    ----------
    panel : Panel
    r : int
        Number of factors, 1 <= r <= N.
    k, d, dprime : int
        Lag and normalization orders of the covariance.
    """
    Y = panel.values
    N = Y.shape[1]
    if not 1 <= r <= N:
        raise ParameterError(f"r={r} outside 1..N={N}")
    C = generalized_covariance(panel, k, d, dprime)
    try:
        w, V = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    w = w[order]
    load = _fix_signs(V[:, order][:, :r])
    F = Y @ load
    return FactorEstimate(
        F=F,
        eigenvalues=w,
        method="lag_covariance",
        r=r,
        params={"k": k, "d": d, "dprime": dprime},
    )


@dataclass(frozen=True)
class FactorSelection:
    """Outcome of the penalty-swept information criterion.

    ``r_sub[s, i]`` is the minimizer on subsample s at penalty constant
    ``c_grid[i]``; ``intervals`` lists the zero-variance plateaus as
    (c_lo, c_hi, r, width) tuples, widest first.
    """

    r: int
    c_grid: np.ndarray
    r_full: np.ndarray
    r_sub: np.ndarray
    variance: np.ndarray
    ic_full: np.ndarray
    intervals: tuple[tuple[float, float, int, float], ...]


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


def select_num_factors(
    panel: Panel,
    r_max: int,
    c_grid=None,
    n_subsamples: int = 10,
    first_difference_panel: bool = False,
    min_fraction: float = 0.5,
) -> FactorSelection:
    """Choose the number of factors by penalty sweep plus subsample stability.

    The criterion IC(r) = log V(r) + c * r * ((N+T)/(NT)) * log(min(N,T)) is
    minimized over r = 0..r_max for every penalty constant c on the grid and
    on a family of nested subpanels.  The chosen r is the value that stays
    constant over the widest c-interval on which all subsamples agree
    (zero across-subsample variance).

    Parameters
    ----------
    panel : Panel
    r_max : int
        Largest candidate, 1 <= r_max < min(N, T).
    c_grid : array-like, optional
        Penalty constants; defaults to 60 points on [0.01, 3].
    n_subsamples : int
        Number of nested subpanels (the last one is the full panel).
    first_difference_panel : bool
        Difference the panel once before selection (integrated data).
    min_fraction : float
        Size of the smallest subpanel relative to the full one.

    Returns
    -------
    FactorSelection
    """
    if c_grid is None:
        c_grid = np.linspace(0.01, 3.0, 60)
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.size == 0:
        raise ParameterError("penalty grid is empty")
    if np.any(c_grid < 0):
        raise ParameterError("penalty constants must be nonnegative")
    if n_subsamples < 1:
        raise ParameterError(f"need at least one subsample, got {n_subsamples}")
    if not 0 < min_fraction <= 1:
        raise ParameterError(f"min_fraction must lie in (0, 1], got {min_fraction}")

    work = panel
    if first_difference_panel:
        work = first_difference(work)
    work = standardize(work)
    T, N = work.values.shape
    if not 1 <= r_max < min(N, T):
        raise ParameterError(f"r_max={r_max} outside 1..min(N,T)-1={min(N, T) - 1}")

    fracs = np.linspace(min_fraction, 1.0, n_subsamples)
    r_sub = np.empty((n_subsamples, c_grid.size), dtype=int)
    ic_full = None
    for s, f in enumerate(fracs):
        Ts = max(2, int(round(f * T)))
        Ns = max(1, int(round(f * N)))
        sub = work.values[:Ts, :Ns]
        r_hat, ic = _ic_minimizers(sub, min(r_max, min(Ns, Ts) - 1), c_grid)
        r_sub[s] = r_hat
        if f == 1.0 or s == n_subsamples - 1:
            ic_full = ic
    r_full = r_sub[-1]
    variance = r_sub.var(axis=0)

    # zero-variance plateaus of constant r, widest c-range first
    intervals: list[tuple[float, float, int, float]] = []
    i = 0
    while i < c_grid.size:
        if variance[i] == 0.0:
            j = i
            while (
                j + 1 < c_grid.size
                and variance[j + 1] == 0.0
                and r_full[j + 1] == r_full[i]
            ):
                j += 1
            intervals.append(
                (float(c_grid[i]), float(c_grid[j]), int(r_full[i]), float(c_grid[j] - c_grid[i]))
            )
            i = j + 1
        else:
            i += 1
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
        c_grid=c_grid,
        r_full=r_full,
        r_sub=r_sub,
        variance=variance,
        ic_full=ic_full,
        intervals=tuple(intervals),
    )
