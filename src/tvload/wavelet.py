"""Periodic wavelet bases on the unit interval.

Two families are supported: the Haar system, evaluated in closed form, and the
8-tap Daubechies extremal-phase system, tabulated by the cascade algorithm and
periodized to [0, 1].  A basis is held in run-length form on the grid
u = t/T, t = 1..T: one row per run of consecutive grid points that share it,
and the number of grid points each run covers.  The columns are the scale
function followed by the wavelets in (level, shift) order.

A Haar basis is constant on each dyadic cell ((c-1)/2^J, c/2^J], so it has
2^J runs on any grid, equal where 2^J divides T and of unequal lengths
elsewhere, and it is evaluated at one grid point per cell.  A d8 basis is T
runs of one point at every J, so its run rows are the dense matrix itself;
a Haar basis builds the dense T x 2^J matrix only when it is read.  A field
evaluated on the basis is held and written once per run, and
``expand_runs`` spreads it over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError, ParameterError

__all__ = [
    "WaveletFamily",
    "WaveletBasis",
    "select_resolution",
    "haar_eval",
    "evaluate_basis",
    "expand_runs",
]

_SQRT2 = math.sqrt(2.0)

# 8-tap Daubechies extremal-phase scaling filter, normalized so sum(h) = sqrt(2)
# and sum(h^2) = 1.  Support of the scaling function is [0, 7].
_D8_H = np.array(
    [
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ]
)

# Quadrature-mirror wavelet filter g_n = (-1)^n h_{7-n}.
_D8_G = np.array([(-1.0) ** n * _D8_H[7 - n] for n in range(8)])

_D8_SUPPORT = 7
# Cascade depth of the Daubechies table behind every d8 basis.
_TABLE_LEVELS = 12


class WaveletFamily(str, Enum):
    """Supported wavelet families."""

    HAAR = "haar"
    DAUBECHIES8 = "d8"


def select_resolution(T: int) -> int:
    """Return the finest detail level J for a grid of T points.

    J is the smallest integer with 2^(J-1) <= sqrt(T) <= 2^J, computed in
    exact integer arithmetic (4^J >= T), so ties such as T = 1024 resolve to
    the smaller J.

    Parameters
    ----------
    T : int
        Number of grid points, at least 4.

    Returns
    -------
    int
        The resolution level J (total basis size 2^J).
    """
    if T < 4:
        raise ParameterError(f"grid too short for a wavelet basis: T={T} < 4")
    J = 0
    while 4**J < T:
        J += 1
    return J


def haar_eval(j: int, k: int, u):
    """Evaluate the periodic Haar wavelet psi_{jk} at points of [0, 1].

    The mother wavelet is +1 on (0, 1/2] and -1 on (1/2, 1], so the grid
    point u = 1 carries a nonzero value and dyadic grids t/T, t = 1..T are
    split exactly in half by every wavelet.

    Parameters
    ----------
    j : int
        Level, j >= 0.
    k : int
        Shift, 0 <= k < 2^j.
    u : float or ndarray
        Evaluation points in [0, 1].

    Returns
    -------
    float or ndarray
        2^(j/2) * psi(2^j u - k).
    """
    if j < 0:
        raise ParameterError(f"haar level must be nonnegative, got j={j}")
    if not 0 <= k < 2**j:
        raise ParameterError(f"haar shift k={k} outside [0, {2**j - 1}] at level j={j}")
    x = (2.0**j) * np.asarray(u, dtype=float) - k
    pos = (x > 0.0) & (x <= 0.5)
    neg = (x > 0.5) & (x <= 1.0)
    out = (2.0 ** (j / 2.0)) * (pos.astype(float) - neg.astype(float))
    if np.isscalar(u):
        return float(out)
    return out


def _cascade_values(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The 8-tap Daubechies scaling function tabulated on a dyadic grid: (x, phi(x)).

    ``x[i] = i / 2^levels`` spans the support [0, 7].  The table is exact
    (up to rounding) at every dyadic point it holds, and
    ``np.interp(q, x, phi, left=0, right=0)`` reads phi between them.
    """
    # Values of phi at the integers solve the refinement-matrix eigenproblem
    # phi(a) = sqrt(2) * sum_n h_n phi(2a - n), eigenvalue 1.
    M = np.zeros((8, 8))
    for a in range(8):
        for b in range(8):
            idx = 2 * a - b
            if 0 <= idx <= 7:
                M[a, b] = _SQRT2 * _D8_H[idx]
    eigvals, eigvecs = np.linalg.eig(M)
    pick = int(np.argmin(np.abs(eigvals - 1.0)))
    if abs(eigvals[pick] - 1.0) > 1e-8:
        raise NumericError(
            f"refinement eigenproblem has no unit eigenvalue (closest: {eigvals[pick]!r})"
        )
    v = np.real(eigvecs[:, pick]).copy()
    v[0] = 0.0  # exact zeros at the support boundary
    v[7] = 0.0
    s = v.sum()
    if s == 0.0:
        raise NumericError("degenerate refinement eigenvector (zero sum)")
    vals = v / s  # partition of unity at the integers: sum_k phi(k) = 1

    # Dyadic refinement: phi(x) = sqrt(2) * sum_n h_n phi(2x - n).
    for lev in range(1, levels + 1):
        n_new = _D8_SUPPORT * 2**lev + 1
        new = np.zeros(n_new)
        new[0::2] = vals
        odd = np.arange(1, n_new, 2)
        acc = np.zeros(odd.size)
        for n in range(8):
            i = odd - n * 2 ** (lev - 1)
            ok = (i >= 0) & (i < vals.size)
            acc[ok] += _D8_H[n] * vals[i[ok]]
        new[odd] = _SQRT2 * acc
        vals = new
    x = np.arange(vals.size) / 2.0**levels
    return x, vals


def _d8_psi_values(phi: np.ndarray, levels: int) -> np.ndarray:
    """psi(m/2^L) = sqrt(2) * sum_n g_n phi(2m/2^L - n), read off the phi table."""
    n_pts = _D8_SUPPORT * 2**levels + 1
    m = np.arange(n_pts)
    psi = np.zeros(n_pts)
    for n in range(8):
        i = 2 * m - n * 2**levels
        ok = (i >= 0) & (i < phi.size)
        psi[ok] += _D8_G[n] * phi[i[ok]]
    psi *= _SQRT2
    return psi


def _d8_periodic_column(j: int, k: int, u: np.ndarray, xs: np.ndarray,
                        psi: np.ndarray) -> np.ndarray:
    """Periodized wavelet 2^(j/2) sum_l psi(2^j (u + l) - k) on points of [0, 1].

    With the scale table phi at j = k = 0 it is the periodized scale function
    sum_l phi(u + l), which equals 1 by partition of unity.
    """
    lo = math.floor(k / 2**j) - 1
    hi = math.ceil((k + _D8_SUPPORT) / 2**j)
    out = np.zeros_like(u)
    for l in range(lo, hi + 1):
        arg = (2.0**j) * (u + l) - k
        out += np.interp(arg, xs, psi, left=0.0, right=0.0)
    return (2.0 ** (j / 2.0)) * out


@dataclass(frozen=True)
class WaveletBasis:
    """Wavelet design on the grid u = t/T, t = 1..T, held once per run.

    ``run_rows`` holds the distinct consecutive rows of the T x 2^J design,
    one per run, and ``run_lengths`` the grid points each covers.  The
    columns are the scale column first, then the wavelet columns in
    (level, shift) order as recorded in ``column_index`` (the scale column
    is tagged (-1, 0)).  A Haar basis has one run per dyadic cell, 2^J on
    any grid; a d8 basis has T runs of one point at every J, and its run
    rows are the dense matrix itself.
    """

    family: WaveletFamily
    J: int
    T: int
    run_rows: np.ndarray
    run_lengths: np.ndarray
    column_index: tuple[tuple[int, int], ...]

    @property
    def n_columns(self) -> int:
        return self.run_rows.shape[1]

    @cached_property
    def B(self) -> np.ndarray:
        """The dense T x 2^J matrix, ``expand_runs(run_rows, run_lengths)``, read-only.

        Built when first read, and the run rows themselves where every run is
        one point long; no fit reads it on a basis with longer runs.
        """
        B = expand_runs(self.run_rows, self.run_lengths)
        B.setflags(write=False)
        return B


def expand_runs(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Spread rows held once per run over the grid: row k fills ``lengths[k]`` points.

    Where every run is one point long the rows are the grid's, and are
    returned as they are, without a copy.
    """
    if len(rows) == lengths.sum():
        return rows
    return np.repeat(rows, lengths, axis=0)


def evaluate_basis(
    family: WaveletFamily | str,
    J: int,
    T: int,
) -> WaveletBasis:
    """Evaluate the 2^J-column basis on the grid t/T, t = 1..T, in run-length form.

    Parameters
    ----------
    family : WaveletFamily or str
        "haar" or "d8".
    J : int
        Resolution; levels 0..J-1 contribute wavelets, 2^J columns total.
    T : int
        Grid length.

    Returns
    -------
    WaveletBasis
        Cached: repeated calls with the same arguments return the same
        object, whose arrays are read-only.
    """
    try:
        fam = WaveletFamily(family)
    except ValueError:
        raise ParameterError(
            f"unknown wavelet family {family!r}; expected one of "
            f"{[f.value for f in WaveletFamily]}"
        ) from None
    if J < 0:
        raise ParameterError(f"resolution must be nonnegative, got J={J}")
    if T < 1:
        raise ParameterError(f"grid length must be positive, got T={T}")
    if 2**J > T:
        raise ParameterError(f"basis has more columns than grid points: 2^{J} > {T}")
    return _cached_basis(fam, J, T)


@lru_cache(maxsize=16)
def _cached_basis(fam: WaveletFamily, J: int, T: int) -> WaveletBasis:
    """Build a basis once per argument tuple; its arrays are read-only because they are shared."""
    index = ((-1, 0), *((j, k) for j in range(J) for k in range(2**j)))
    if fam is WaveletFamily.HAAR:
        rows, lengths = _haar_runs(index, T)
    else:
        rows, lengths = _d8_matrix(index, T), np.ones(T, dtype=np.intp)
    rows.setflags(write=False)
    lengths.setflags(write=False)
    return WaveletBasis(family=fam, J=J, T=T, run_rows=rows, run_lengths=lengths,
                        column_index=index)


def _haar_runs(index, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The Haar columns of ``index`` at one grid point per dyadic cell, and the
    points each cell holds.

    Grid point t lies in cell (t 2^J + T - 1) // T - 1, the c with
    c/2^J < t/T <= (c+1)/2^J, so cell c starts at t = c T // 2^J + 1.  Every
    ``haar_eval`` column of level j < J changes value only at the points
    m/2^J, and t/T rounds on the same side of each of them, so a cell's row
    is bitwise the row of every grid point in it.
    """
    K = len(index)  # 2^J
    firsts = np.arange(K) * T // K + 1
    u = firsts.astype(float) / T
    rows = np.empty((K, K))
    rows[:, 0] = 1.0
    for c, (j, k) in enumerate(index[1:], start=1):
        rows[:, c] = haar_eval(j, k, u)
    return rows, np.diff(np.append(firsts, T + 1))


def _d8_matrix(index, T: int) -> np.ndarray:
    """The dense T x 2^J periodized d8 design of ``index``, filled column by column.

    The cascade tables behind it are computed for this build alone.
    """
    levels = _TABLE_LEVELS
    xs, phi = _cascade_values(levels)
    psi = _d8_psi_values(phi, levels)
    u = np.arange(1, T + 1, dtype=float) / T
    B = np.empty((T, len(index)))
    B[:, 0] = _d8_periodic_column(0, 0, u, xs, phi)
    for c, (j, k) in enumerate(index[1:], start=1):
        B[:, c] = _d8_periodic_column(j, k, u, xs, psi)
    return B

