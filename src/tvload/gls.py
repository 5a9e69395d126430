"""Second-stage estimation: wavelet-expanded loadings fitted by two-pass GLS.

With the factors treated as observed, each series m follows

    Y[t, m] = sum_i lambda_{m i}(t/T) F[t, i] + e[t, m],

and every loading curve lambda_{m i} is expanded on a common wavelet basis.
Stacking series by series, the regression design is I_N (x) Psi with
Psi = [B * F_1 | ... | B * F_r].  Because all series share the same Psi, the
GLS weighting by Gamma_e^-1 (x) I_T collapses exactly onto per-series least
squares (Zellner 1962, JASA).  The feasible GLS fit still takes the
paper's two passes, the identity weight and then the diagonal of the pass-1
residual covariance, and the second reproduces the first.  A fit is its
coefficients beta, its design and its panel: the loading field and the
residual covariance are built from them when first read, so a caller that
keeps only the coefficients, as every bootstrap draw does, pays for the two
solves alone.

A design keeps the factors and the basis, and no fit builds Psi, not even
to name the columns of a rank-deficient design.  Where the runs of the
basis (``WaveletBasis.run_rows``) are longer than one grid point, as the
2^J runs of a Haar basis are on any grid, Psi'Psi and Psi'Y come from
per-run factor sums, and a fitted panel from the run rows; runs of unequal
length are padded with zero rows to the longest, so neither B nor Psi is
built.  A basis whose runs are single points, d8 and Haar with T = 2^J,
adds Psi'Psi up over row slabs of Psi of at most 256 grid points, and forms
Psi'Y and the fitted panel one factor at a time from row slabs of B.  A
loading field is held once per run of the basis: 2^J rows on any Haar
grid, and T on d8.  So a field is exactly constant on each run, and the
loadings artifact is written from those rows without the T x N x r field
ever being built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import read_table, write_table
from .errors import NumericError, ParameterError, RankDeficiencyError, ShapeError
from .factors import FactorEstimate, Panel
from .wavelet import WaveletBasis, expand_runs

__all__ = [
    "DesignBlock",
    "GlsFit",
    "build_design",
    "gls_step",
    "loading_rows",
    "fit_iterative",
    "write_loadings_csv",
    "write_coefficients_csv",
    "read_coefficients_csv",
    "write_covariance_csv",
]

# Off the per-run path, Psi'Psi is added up over row slabs of Psi of at
# most _GRAM_ROWS grid points, each dropped after its product.  Psi'Y and the
# fitted panel go over row slabs of B of at most _SLAB_VALUES values, and
# ``GlsFit.Lambda_slabs`` reads a field in slabs of as many values.
_GRAM_ROWS = 256
_SLAB_VALUES = 2**15


@dataclass(frozen=True)
class DesignBlock:
    """Stacked regression design: ``Psi[:, i*2^J:(i+1)*2^J]`` belongs to factor i.

    A design keeps the T x r factor paths ``F`` and the ``basis``; the
    T x (r * 2^J) matrix ``Psi`` is built only when it is read, which only
    the dense ``sigma_full`` oracle does; a rank-deficiency report reads the
    Gram matrix Psi'Psi that the failed factorization was given.  The
    design is also the loading solver for its factors and basis.  The first
    ``solve`` takes the Cholesky factor L of Psi'Psi and keeps its inverse, so
    every panel costs one product Psi'Y and two triangular-matrix products;
    ``gram_condition`` reads the conditioning of Psi'Psi off the same factor.

    Where the basis has runs longer than one point, K runs with row A_k on
    run k, Psi'Psi and Psi'Y are formed from per-run sums, without Psi or B:
    the (i, j) block of the Gram matrix is A' diag(S_k[i, j]) A with
    S_k = F_k'F_k, and Psi'Y is A'W with W_k = F_k'Y_k.  Each run's rows are
    padded with zero rows to the longest run, so one batched product covers
    all K; where the runs are equal, as on a grid that 2^J divides, the
    padded rows are the grid's rows reshaped, without a copy.  A basis of
    one-point runs adds Psi'Psi up over row slabs Psi_b of at most
    ``_GRAM_ROWS`` grid points, each dropped after its product.  Block i of
    Psi'Y is B'(F_i * Y) and the fitted panel is sum_i F_i * (B beta_i'),
    both formed over row slabs of B of at most ``_SLAB_VALUES`` values, so
    that a slab stays in cache while each factor reads it.
    """

    F: np.ndarray
    basis: WaveletBasis

    @property
    def r(self) -> int:
        return self.F.shape[1]

    @cached_property
    def Psi(self) -> np.ndarray:
        """Every basis column times every factor path, factor-major."""
        F, B = self.F, self.basis.B
        return (F[:, :, None] * B[:, None, :]).reshape(F.shape[0], -1)

    @cached_property
    def _run_blocks(self) -> np.ndarray | None:
        """The run rows A_k where some run covers more than one grid point, else None."""
        return self.basis.run_rows if self.basis.run_lengths.max() > 1 else None

    @cached_property
    def _slots(self) -> np.ndarray:
        """(K, L) mask of the padded run rows that hold a grid point; L is the longest run."""
        lengths = self.basis.run_lengths
        return np.arange(lengths.max()) < lengths[:, None]

    def _padded(self, X: np.ndarray) -> np.ndarray:
        """A T x n matrix as (K, L, n), run k's rows first and zero rows after them."""
        if self._slots.all():  # equal runs: the grid's rows as they are
            return X.reshape(*self._slots.shape, -1)
        out = np.zeros((*self._slots.shape, X.shape[1]))
        out[self._slots] = X
        return out

    @cached_property
    def _F_runs(self) -> np.ndarray:
        return self._padded(self.F)

    def _by_run(self, X: np.ndarray) -> np.ndarray:
        """Per-run products F_k'X_k of a T x n matrix, shape (K, r, n)."""
        return self._F_runs.transpose(0, 2, 1) @ self._padded(X)

    def _slabs(self, height: int):
        """Consecutive row slabs of at most ``height`` grid points: (rows, F_b, B_b)."""
        F, B = self.F, self.basis.B
        for start in range(0, len(F), height):
            rows = slice(start, start + height)
            yield rows, F[rows], B[rows]

    @property
    def _slab_height(self) -> int:
        # B_b is read once per factor, so a slab keeps it to _SLAB_VALUES values
        return max(1, _SLAB_VALUES // self.basis.n_columns)

    def _gram(self) -> np.ndarray:
        A = self._run_blocks
        if A is None:
            gram = np.zeros((self.r * self.basis.n_columns,) * 2)
            for _, Fb, Bb in self._slabs(_GRAM_ROWS):
                # the slab's rows of Psi, held transposed: Psi_b'
                Psi_bt = (Fb.T[:, None, :] * Bb.T[None, :, :]).reshape(-1, len(Fb))
                gram += Psi_bt @ Psi_bt.T
            return gram
        r, p = self.r, A.shape[1]
        S = self._by_run(self.F)  # (K, r, r)
        # block (i, j) = A' diag(S[:, i, j]) A, one batched product for all r^2
        G = A.T @ (S.reshape(-1, r * r).T[:, :, None] * A)
        return G.reshape(r, r, p, p).transpose(0, 2, 1, 3).reshape(r * p, r * p)

    def _cross(self, Y: np.ndarray) -> np.ndarray:
        A = self._run_blocks
        if A is None:
            # block i of Psi'Y is B'(F_i * Y), added up over the slabs
            cross = np.zeros((self.r, self.basis.n_columns, Y.shape[1]))
            for rows, Fb, Bb in self._slabs(self._slab_height):
                for i, f in enumerate(Fb.T):
                    cross[i] += Bb.T @ (f[:, None] * Y[rows])
            return cross.reshape(-1, Y.shape[1])
        W = self._by_run(Y)  # (K, r, N)
        return (A.T @ W.transpose(1, 0, 2)).reshape(-1, Y.shape[1])

    @cached_property
    def _inverse_factor(self) -> np.ndarray:
        gram = self._gram()
        if not np.isfinite(gram).all():
            raise NumericError("design Gram matrix Psi'Psi has non-finite entries")
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            _report_rank_deficiency(self, gram)
            raise  # unreachable: the reporter always raises
        return np.linalg.inv(L)

    def solve(self, Y: np.ndarray) -> np.ndarray:
        """Per-series least-squares coefficients of a T x N panel, shape (N, r, 2^J)."""
        Linv = self._inverse_factor
        X = Linv.T @ (Linv @ self._cross(Y))  # (r*2^J) x N
        return X.T.reshape(Y.shape[1], self.r, self.basis.n_columns)

    def fitted(self, beta: np.ndarray) -> np.ndarray:
        """The fitted panel Psi beta of coefficients shaped (N, r, 2^J), T x N."""
        N, r, p = beta.shape
        A = self._run_blocks
        if A is None:
            # slab by slab, sum_i F_i * (B beta_i')
            out = np.empty((len(self.F), N))
            coefs = beta.transpose(1, 2, 0).copy()  # (r, 2^J, N)
            for rows, Fb, Bb in self._slabs(self._slab_height):
                slab = np.matmul(Bb, coefs[0], out=out[rows])
                slab *= Fb[:, :1]
                for i in range(1, r):
                    term = Bb @ coefs[i]
                    term *= Fb[:, i:i + 1]
                    slab += term
            return out
        # run k is its factor rows F_k times its r x N loadings A_k beta
        K = len(A)
        loadings = (A @ beta.transpose(2, 1, 0).reshape(p, r * N)).reshape(K, r, N)
        out = self._F_runs @ loadings  # (K, L, N), zero rows past each run
        return out.reshape(-1, N) if self._slots.all() else out[self._slots]

    @property
    def gram_condition(self) -> float:
        """2-norm condition number of Psi'Psi, the squared one of its Cholesky factor."""
        s = np.linalg.svd(self._inverse_factor, compute_uv=False)
        return float((s[0] / s[-1]) ** 2)


def build_design(factors: FactorEstimate, basis: WaveletBasis) -> DesignBlock:
    """Pair the factor paths with the basis they multiply.

    The design stands for the T x (r * 2^J) matrix whose block i is B scaled
    row-wise by factor i's path.
    """
    F = factors.F
    if F.shape[0] != basis.T:
        raise ShapeError(
            f"factor grid length {F.shape[0]} does not match basis grid {basis.T}"
        )
    return DesignBlock(F=F, basis=basis)


def _report_rank_deficiency(design: DesignBlock, gram: np.ndarray) -> None:
    """Raise ``RankDeficiencyError`` naming the columns of Psi that the others
    reproduce, read off the eigenvectors of the Gram matrix Psi'Psi."""
    w, V = np.linalg.eigh(gram)  # ascending
    rank = int(np.sum(w > w.max() * len(w) * np.finfo(float).eps))
    # The eigenvectors past the rank span the null space.  Eliminating them
    # one after another, each on its largest entry, names one column per
    # missing rank: a column that the kept ones reproduce.
    null = V[:, :len(w) - rank].T.copy()
    dropped = []
    for row in range(null.shape[0]):
        c = int(np.argmax(np.abs(null[row])))
        dropped.append(c)
        null[row + 1:] -= np.outer(null[row + 1:, c] / null[row, c], null[row])
    p = design.basis.n_columns
    labels = []
    for col in sorted(dropped):
        i, c = divmod(col, p)
        j, k = design.basis.column_index[c]
        labels.append(f"factor {i + 1} x column (j={j}, k={k})")
    raise RankDeficiencyError(
        f"design matrix is rank deficient (rank {rank} of {len(w)}); "
        f"offending columns: {', '.join(labels) or 'unknown'}"
    )


def gls_step(
    panel: Panel,
    design: DesignBlock,
    gamma_e: np.ndarray,
    sigma_full: np.ndarray | None = None,
) -> np.ndarray:
    """One generalized least-squares solve of the stacked loading regression.

    The weight Gamma_e^-1 (x) I_T factorizes against the design I_N (x) Psi,
    so Theta' Sigma^-1 Theta = Gamma_e^-1 (x) (Psi'Psi) and Gamma_e cancels:
    the estimator is per-series least squares, ``design.solve(Y)``, on the
    Cholesky factor of Psi'Psi that ``design`` keeps for later steps; no
    NT-sized matrix is formed.  Gamma_e is still validated: it must be
    finite, symmetric and admit a Cholesky factorization.  A diagonal
    Gamma_e, the only kind ``fit_iterative`` passes, is checked by its
    diagonal alone, which must be positive.  Passing
    ``sigma_full`` (an NT x NT covariance, series-major ordering) bypasses the
    factorization and solves the dense normal equations through Cholesky
    factors of Sigma and of the whitened Gram matrix instead; it is an
    oracle for tests.

    Parameters
    ----------
    panel : Panel
    design : DesignBlock
    gamma_e : ndarray
        N x N residual covariance; must be symmetric positive definite.
    sigma_full : ndarray, optional
        Full NT x NT covariance overriding the Kronecker structure.

    Returns
    -------
    ndarray
        Coefficients with shape (N, r, 2^J).
    """
    Y = panel.values
    T, N = Y.shape
    if design.F.shape[0] != T:
        raise ShapeError(f"design grid {design.F.shape[0]} does not match panel grid {T}")
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.shape != (N, N):
        raise ShapeError(f"gamma_e must be {N}x{N}, got {gamma_e.shape}")
    if not np.isfinite(gamma_e).all():
        raise ParameterError("gamma_e must be finite")
    diagonal = np.diagonal(gamma_e)
    if not np.array_equal(gamma_e, np.diag(diagonal)):
        if not np.allclose(gamma_e, gamma_e.T, atol=1e-10):
            raise ParameterError("gamma_e must be symmetric")
        try:
            np.linalg.cholesky(gamma_e)
        except np.linalg.LinAlgError as exc:
            raise NumericError("gamma_e is not positive definite") from exc
    elif not (diagonal > 0.0).all():
        # a diagonal weight is positive definite exactly when its diagonal is positive
        raise NumericError("gamma_e is not positive definite")

    p = design.basis.n_columns
    if sigma_full is not None:
        sigma_full = np.asarray(sigma_full, dtype=float)
        if sigma_full.shape != (N * T, N * T):
            raise ShapeError(f"sigma_full must be {N * T}x{N * T}, got {sigma_full.shape}")
        # Whiten by the Cholesky factor C of Sigma = CC', then solve the
        # normal equations of the whitened regression on their own factor.
        C = np.linalg.cholesky(sigma_full)
        theta = np.linalg.solve(C, np.kron(np.eye(N), design.Psi))
        z = np.linalg.solve(C, Y.T.ravel())
        La = np.linalg.cholesky(theta.T @ theta)
        flat = np.linalg.solve(La.T, np.linalg.solve(La, theta.T @ z))
        return flat.reshape(N, design.r, p)
    return design.solve(Y)


def loading_rows(beta: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    """Every loading curve at each run of the basis: shape (runs, N, r).

    Row k is the field on the ``basis.run_lengths[k]`` grid points of run k:
    2^J rows on a Haar basis, T on d8.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 3 or beta.shape[2] != basis.n_columns:
        raise ShapeError(
            f"beta must be (N, r, {basis.n_columns}), got {beta.shape}"
        )
    rows = basis.run_rows
    field = rows @ beta.reshape(-1, basis.n_columns).T
    return field.reshape(len(rows), beta.shape[0], beta.shape[1])


def _residuals(panel: Panel, design: DesignBlock, beta: np.ndarray) -> np.ndarray:
    """The residual panel E = Y - Psi beta, T x N."""
    E = design.fitted(beta)
    return np.subtract(panel.values, E, out=E)


@dataclass(frozen=True)
class GlsFit:
    """Two-pass loading fit, fully described by its coefficients, design and panel.

    ``beta[m, i]`` holds series m's coefficients for factor i in basis-column
    order.  ``Lambda_rows``, the loading curves once per run of the basis,
    ``Lambda[t, m, i]``, those rows spread over the grid, and ``Gamma_e``,
    the residual covariance E'E / T with E = Y - Psi beta, are built from
    (beta, design, panel) when each is first read, and kept.  ``Lambda`` is
    ``Lambda_rows`` itself where every run is one point long, as on d8.
    """

    beta: np.ndarray
    design: DesignBlock
    panel: Panel

    @cached_property
    def Lambda_rows(self) -> np.ndarray:
        return loading_rows(self.beta, self.design.basis)

    @cached_property
    def Lambda(self) -> np.ndarray:
        return expand_runs(self.Lambda_rows, self.design.basis.run_lengths)

    def Lambda_slabs(self):
        """``Lambda`` in row slabs of at most ``_SLAB_VALUES`` values: (rows, slab).

        Each slab is its rows of ``Lambda`` bit for bit, and the field is never
        held whole: on a basis with runs longer than one point a slab spreads
        rows of ``Lambda_rows``, and otherwise it is its rows of the basis
        times the coefficients.
        """
        basis = self.design.basis
        N, r, p = self.beta.shape
        lengths = basis.run_lengths
        runs = len(lengths) < basis.T
        run_of = np.repeat(np.arange(len(lengths)), lengths) if runs else None
        coefs = self.beta.reshape(N * r, p).T
        height = max(1, _SLAB_VALUES // (N * r))
        for start in range(0, basis.T, height):
            rows = slice(start, min(start + height, basis.T))
            if runs:
                yield rows, self.Lambda_rows[run_of[rows]]
            else:
                yield rows, (basis.run_rows[rows] @ coefs).reshape(-1, N, r)

    @cached_property
    def Gamma_e(self) -> np.ndarray:
        E = _residuals(self.panel, self.design, self.beta)
        return E.T @ E / self.panel.T


def fit_iterative(
    panel: Panel,
    factors: FactorEstimate,
    basis: WaveletBasis,
    design: DesignBlock | None = None,
) -> GlsFit:
    """Fit the loading curves by two-pass feasible GLS.

    Pass 1 solves with the identity weight.  Pass 2 solves with the diagonal
    of the pass-1 residual covariance, diag(E'E / T) with E = Y - Psi beta_1,
    and 1 wherever a residual variance is not positive, as on a series the
    model fits exactly.  Every series shares the design Psi, so a weight
    Gamma_e^-1 (x) I_T cancels (Zellner 1962, JASA) and pass 2 reproduces the
    pass-1 coefficients bit for bit.

    The fit keeps the pass-2 coefficients, the design and the panel, so a
    caller that reads only ``beta`` pays for the two solves and the pass-2
    weight alone.

    Parameters
    ----------
    panel : Panel
    factors : FactorEstimate
        Factors treated as observed regressors.
    basis : WaveletBasis
        The basis of the design built when ``design`` is not given.
    design : DesignBlock, optional
        ``build_design(factors, basis)`` built beforehand, so that fits of
        several panels on the same factors share one factorization.

    Returns
    -------
    GlsFit
    """
    if design is None:
        design = build_design(factors, basis)
    first_beta = gls_step(panel, design, np.eye(panel.N))
    E = _residuals(panel, design, first_beta)
    variance = np.einsum("tm,tm->m", E, E) / panel.T
    beta = gls_step(panel, design, np.diag(np.where(variance > 0.0, variance, 1.0)))
    return GlsFit(beta, design, panel)


# ---------------------------------------------------------------- artifacts


def write_loadings_csv(fit: GlsFit, path) -> None:
    """Long-format loading field: t,series,factor,lambda_hat, written from the run rows."""
    basis = fit.design.basis
    runs, N, r = fit.Lambda_rows.shape
    keys = [(sid, i + 1) for sid in fit.panel.series_ids for i in range(r)]
    write_table(path, ["t", "series", "factor", "lambda_hat"],
                fit.Lambda_rows.reshape(runs, N * r, 1), keys, rows=range(1, basis.T + 1),
                run_lengths=basis.run_lengths)


def write_coefficients_csv(fit: GlsFit, path) -> None:
    """Coefficient table: series,factor,level_j,shift_k,beta (scale row has level_j=-1)."""
    N, r, p = fit.beta.shape
    keys = [(i + 1, j, k) for i in range(r) for (j, k) in fit.design.basis.column_index]
    write_table(path, ["series", "factor", "level_j", "shift_k", "beta"],
                fit.beta.reshape(N, r * p, 1), keys, rows=fit.panel.series_ids)


def read_coefficients_csv(path, series_ids, basis: WaveletBasis, r: int) -> np.ndarray:
    """Inverse of ``write_coefficients_csv``; returns beta with shape (N, r, 2^J).

    A line naming no coefficient, a coefficient named twice, or one left out
    raises ``ShapeError``.
    """
    pos = {sid: m for m, sid in enumerate(series_ids)}
    factor = {str(i + 1): i for i in range(r)}
    col = {(str(j), str(k)): c for c, (j, k) in enumerate(basis.column_index)}
    _, keys, values = read_table(path, n_keys=3)
    beta = np.full((len(series_ids), r, basis.n_columns), np.nan)
    for key, value in zip(keys, values[:, 0]):
        sid, i, j, k = key
        try:
            at = (pos[sid], factor[i], col[j, k])
        except KeyError:
            raise ShapeError(f"{path}: no coefficient (series, factor, level_j, shift_k) = "
                             f"{key}") from None
        # every value read is finite, so a filled cell is one named before
        if not np.isnan(beta[at]):
            raise ShapeError(f"{path}: coefficient (series, factor, level_j, shift_k) = "
                             f"{key} appears twice")
        beta[at] = value
    if np.isnan(beta).any():
        raise ShapeError(f"{path}: incomplete coefficient table")
    return beta


def write_covariance_csv(fit: GlsFit, path) -> None:
    """Residual covariance as a labelled square table."""
    ids = fit.panel.series_ids
    write_table(path, ["series", *ids], fit.Gamma_e[:, None, :], rows=ids)
