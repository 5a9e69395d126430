"""Periodic wavelet bases on the unit interval.

Two families are supported: the Haar system, evaluated in closed form, and the
8-tap Daubechies extremal-phase system, tabulated by the cascade algorithm and
periodized to [0, 1].  A basis is represented as a dense T x 2^J design matrix
whose rows are the grid points u = t/T, t = 1..T, and whose columns are the
scale function followed by the wavelets in (level, shift) order.
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
    "CascadeTable",
    "WaveletBasis",
    "select_resolution",
    "haar_eval",
    "daubechies8_table",
    "evaluate_basis",
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
_DEFAULT_TABLE_LEVELS = 12


class WaveletFamily(str, Enum):
    """Supported wavelet families."""

    HAAR = "haar"
    DAUBECHIES8 = "d8"


def _as_family(family: WaveletFamily | str) -> WaveletFamily:
    if isinstance(family, WaveletFamily):
        return family
    try:
        return WaveletFamily(str(family).lower())
    except ValueError:
        raise ParameterError(
            f"unknown wavelet family {family!r}; expected one of "
            f"{[f.value for f in WaveletFamily]}"
        ) from None


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


@dataclass(frozen=True)
class CascadeTable:
    """Dyadic-grid tabulation of the 8-tap Daubechies scaling function.

    ``x[i] = i / 2^levels`` spans the support [0, 7]; ``values[i]`` is phi(x[i]).
    """

    levels: int
    x: np.ndarray
    values: np.ndarray

    def interp(self, q) -> np.ndarray:
        """Linearly interpolate phi at arbitrary points (zero outside [0, 7])."""
        return np.interp(np.asarray(q, dtype=float), self.x, self.values, left=0.0, right=0.0)


@lru_cache(maxsize=8)
def _cascade_values(levels: int) -> tuple[np.ndarray, np.ndarray]:
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


def daubechies8_table(levels: int = _DEFAULT_TABLE_LEVELS) -> CascadeTable:
    """Tabulate the 8-tap Daubechies scaling function on a dyadic grid.

    Solves the refinement eigenproblem at the integers, then refines down to
    spacing 2^-levels.  The table is exact (up to rounding) at every dyadic
    point it contains.

    Parameters
    ----------
    levels : int
        Refinement depth; the grid step is 2^-levels.

    Returns
    -------
    CascadeTable
    """
    if levels < 0:
        raise ParameterError(f"cascade depth must be nonnegative, got {levels}")
    x, vals = _cascade_values(int(levels))
    return CascadeTable(levels=int(levels), x=x, values=vals)


@lru_cache(maxsize=8)
def _d8_psi_values(levels: int) -> tuple[np.ndarray, np.ndarray]:
    # psi(m/2^L) = sqrt(2) * sum_n g_n phi(2m/2^L - n), read off the phi table.
    _, phi = _cascade_values(levels)
    n_pts = _D8_SUPPORT * 2**levels + 1
    m = np.arange(n_pts)
    psi = np.zeros(n_pts)
    for n in range(8):
        i = 2 * m - n * 2**levels
        ok = (i >= 0) & (i < phi.size)
        psi[ok] += _D8_G[n] * phi[i[ok]]
    psi *= _SQRT2
    x = m / 2.0**levels
    return x, psi


def _d8_periodic_column(j: int, k: int, u: np.ndarray, levels: int) -> np.ndarray:
    """Periodized wavelet 2^(j/2) sum_l psi(2^j (u + l) - k) on points of [0, 1]."""
    xs, psi = _d8_psi_values(levels)
    lo = math.floor(k / 2**j) - 1
    hi = math.ceil((k + _D8_SUPPORT) / 2**j)
    out = np.zeros_like(u)
    for l in range(lo, hi + 1):
        arg = (2.0**j) * (u + l) - k
        out += np.interp(arg, xs, psi, left=0.0, right=0.0)
    return (2.0 ** (j / 2.0)) * out


def _d8_periodic_scale(u: np.ndarray, levels: int) -> np.ndarray:
    """Periodized scale function sum_l phi(u + l); equals 1 by partition of unity."""
    xs, phi = _cascade_values(levels)
    out = np.zeros_like(u)
    for l in range(_D8_SUPPORT + 1):
        out += np.interp(u + l, xs, phi, left=0.0, right=0.0)
    return out


@dataclass(frozen=True)
class WaveletBasis:
    """Dense wavelet design on the grid u = t/T, t = 1..T.

    ``B`` has shape (T, 2^J): the scale column first, then wavelet columns in
    (level, shift) order as recorded in ``column_index`` (the scale column is
    tagged (-1, 0)).

    A Haar basis on a grid that K = 2^J divides is constant on K dyadic
    blocks of T/K rows; ``block_rows`` then holds the row A_k of each block.
    """

    family: WaveletFamily
    J: int
    T: int
    B: np.ndarray
    column_index: tuple[tuple[int, int], ...]

    @property
    def n_columns(self) -> int:
        return self.B.shape[1]

    @cached_property
    def block_rows(self) -> np.ndarray | None:
        """The K x 2^J rows A with ``B == repeat(A, T // K, axis=0)``, else None."""
        K = self.n_columns
        if self.family is not WaveletFamily.HAAR or self.T % K:
            return None
        return self.B[:: self.T // K]


def evaluate_basis(
    family: WaveletFamily | str,
    J: int,
    T: int,
) -> WaveletBasis:
    """Assemble the T x 2^J basis matrix on the grid t/T, t = 1..T.

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
        object, whose matrix ``B`` is read-only.
    """
    fam = _as_family(family)
    if J < 0:
        raise ParameterError(f"resolution must be nonnegative, got J={J}")
    if T < 1:
        raise ParameterError(f"grid length must be positive, got T={T}")
    if 2**J > T:
        raise ParameterError(f"basis has more columns than grid points: 2^{J} > {T}")
    return _cached_basis(fam, J, T)


@lru_cache(maxsize=16)
def _cached_basis(fam: WaveletFamily, J: int, T: int) -> WaveletBasis:
    """Build a basis once per argument tuple; its matrix is read-only because it is shared."""
    u = np.arange(1, T + 1, dtype=float) / T
    index: list[tuple[int, int]] = [(-1, 0)]
    cols = []
    if fam is WaveletFamily.HAAR:
        cols.append(np.ones(T))
        for j in range(J):
            for k in range(2**j):
                cols.append(haar_eval(j, k, u))
                index.append((j, k))
    else:
        cols.append(_d8_periodic_scale(u, _DEFAULT_TABLE_LEVELS))
        for j in range(J):
            for k in range(2**j):
                cols.append(_d8_periodic_column(j, k, u, _DEFAULT_TABLE_LEVELS))
                index.append((j, k))
    B = np.column_stack(cols)
    B.setflags(write=False)
    return WaveletBasis(family=fam, J=J, T=T, B=B, column_index=tuple(index))
