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
to name the columns of a rank-deficient design.  On a Haar basis the fit is
one r x r regression per dyadic cell; on d8 it is one solve of Psi'Psi,
summed over row slabs of Psi.  Either way one batched eigendecomposition of
the Gram blocks decides the rank and factors the design (``DesignBlock``).
The fitted panel Psi beta is formed one row slab at a time, and the pass-2
weight and the residual covariance E'E / T are summed over the slabs of
E = Y - Psi beta, so no fit holds a second T x N panel.  A loading field is
held once per run of the basis, 2^J rows on any Haar grid and T on d8, and
the loadings artifact is written from those rows without the T x N x r field
ever being built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import read_table, write_table
from .errors import NumericError, ParameterError, RankDeficiencyError, ShapeError
from .factors import FactorEstimate, Panel
from .wavelet import WaveletBasis, WaveletFamily, expand_runs

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

# On d8, Psi'Psi is summed over row slabs of Psi of at most _GRAM_ROWS grid
# points, and Psi'Y and the fitted panel over row slabs of B of at most
# _SLAB_VALUES values, as ``GlsFit.Lambda_slabs`` reads a field.  On Haar a
# padded chunk of whole cells holds at most _SLAB_VALUES values, or one cell.
_GRAM_ROWS = 256
_SLAB_VALUES = 2**15
# An entry of a null-space basis at most this share of the basis's largest
# is rounding noise to the rank-deficiency report.
_NEGLIGIBLE = 1e-8


@dataclass(frozen=True)
class DesignBlock:
    """Stacked regression design: ``Psi[:, i*2^J:(i+1)*2^J]`` belongs to factor i.

    A design keeps the T x r factor paths ``F`` and the ``basis``; the
    T x (r * 2^J) matrix ``Psi`` is built only when read, which only the
    dense ``sigma_full`` oracle does.  The design is also the loading solver
    for its factors and basis, on the one route its basis family takes, and
    the first ``solve`` keeps the factorization later panels reuse.

    A Haar basis at level J spans the indicators of its K = 2^J dyadic
    cells, its runs, and its run rows R satisfy R'R = 2^J I on any grid
    (Mallat 1989, IEEE PAMI).  So Psi = Phi (I_r (x) R), with one column
    F_i * 1{cell k} of Phi per factor and cell, and least squares on Psi is
    one r x r regression per cell: a panel costs the sums W_k = F_k'Y_k, the
    cell loadings gamma_k = S_k^-1 W_k with S_k = F_k'F_k, and
    beta_i = R'gamma_i / 2^J, one padded chunk of cells at a time.  On d8 a
    panel costs Psi'Y and one product with (Psi'Psi)^-1, Psi'Psi summed over
    row slabs of Psi of at most ``_GRAM_ROWS`` grid points.  Block i of Psi'Y
    is B'(F_i * Y) and the fitted panel is sum_i F_i * (B beta_i'), both
    formed over row slabs of B of at most ``_SLAB_VALUES`` values, so that a
    slab stays in cache while each factor reads it.

    Every design is factored by one batched eigendecomposition of its Gram
    blocks, the K cell Grams S_k on Haar and Psi'Psi on d8.  It decides the
    rank (every eigenvalue above lambda_max * P * eps, P = r * 2^J), gives
    ``gram_condition`` and each block's inverse, and the eigenvectors of the
    small eigenvalues name the columns of a rank-deficient design.
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

    @property
    def _cells(self) -> bool:
        """Whether the fit is one regression per dyadic cell, as on every Haar basis."""
        return self.basis.family is WaveletFamily.HAAR

    @cached_property
    def _slots(self) -> np.ndarray:
        """(K, L) mask of the padded run rows that hold a grid point; L is the longest run."""
        lengths = self.basis.run_lengths
        return np.arange(lengths.max()) < lengths[:, None]

    @cached_property
    def _equal_runs(self) -> bool:
        return bool(self._slots.all())

    @cached_property
    def _chunks(self) -> dict[int, list[tuple[slice, slice]]]:
        """``_run_chunks`` by matrix width, each worked out once."""
        return {}

    def _run_chunks(self, width: int) -> list[tuple[slice, slice]]:
        """Consecutive chunks of whole runs as (runs, rows): each at most
        ``_SLAB_VALUES`` values of a padded T x ``width`` matrix, or one run."""
        chunks = self._chunks.get(width)
        if chunks is None:
            K, L = self._slots.shape
            per = max(1, _SLAB_VALUES // (L * width))
            starts = [0, *np.cumsum(self.basis.run_lengths).tolist()]  # each run's first row
            chunks = self._chunks[width] = [
                (slice(k, min(k + per, K)), slice(starts[k], starts[min(k + per, K)]))
                for k in range(0, K, per)]
        return chunks

    def _padded(self, X: np.ndarray, runs: slice) -> np.ndarray:
        """The rows of ``runs`` of a T x n matrix as (k, L, n): each run's rows,
        then zero rows."""
        slots = self._slots[runs]
        if self._equal_runs:  # the grid's rows as they are
            return X.reshape(*slots.shape, -1)
        out = np.zeros((*slots.shape, X.shape[1]))
        out[slots] = X
        return out

    @cached_property
    def _F_runs(self) -> np.ndarray:
        return self._padded(self.F, slice(None))

    def _by_run(self, X: np.ndarray) -> np.ndarray:
        """Per-run products F_k'X_k of a T x n matrix, shape (K, r, n), one chunk
        of runs at a time."""
        parts = [self._F_runs[runs].transpose(0, 2, 1) @ self._padded(X[rows], runs)
                 for runs, rows in self._run_chunks(X.shape[1])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @cached_property
    def _factorization(self) -> tuple[np.ndarray, float]:
        """Every Gram block's inverse and the condition number of Psi'Psi, from
        one batched eigendecomposition of the blocks (``DesignBlock``)."""
        gram = self._by_run(self.F) if self._cells else self._gram()[None]
        if not np.isfinite(gram).all():
            raise NumericError("design Gram matrix has non-finite entries")
        w, V = np.linalg.eigh(gram)  # ascending per block
        del gram  # so that d8's P x P Gram is not held beside V and the inverse
        small = w <= w.max() * w.size * np.finfo(float).eps
        if small.any():
            if self._cells:
                n = self.basis.run_lengths
                at = [f"cell t={e - m + 1}..{e}" for e, m in zip(np.cumsum(n).tolist(), n.tolist())]
            else:
                at = [f"column (j={j}, k={k})" for j, k in self.basis.column_index]
            raise _rank_deficiency(small, V, [f"factor {i + 1} x {c}"
                                              for i in range(self.r) for c in at])
        return (V / w[:, None, :]) @ V.transpose(0, 2, 1), float(w.max() / w.min())

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
        gram = np.zeros((self.r * self.basis.n_columns,) * 2)
        for _, Fb, Bb in self._slabs(_GRAM_ROWS):
            # the slab's rows of Psi, held transposed: Psi_b'
            Psi_bt = (Fb.T[:, None, :] * Bb.T[None, :, :]).reshape(-1, len(Fb))
            gram += Psi_bt @ Psi_bt.T
        return gram

    def _cross(self, Y: np.ndarray) -> np.ndarray:
        cross = np.zeros((self.r, self.basis.n_columns, Y.shape[1]))
        for rows, Fb, Bb in self._slabs(self._slab_height):
            for i, f in enumerate(Fb.T):
                cross[i] += Bb.T @ (f[:, None] * Y[rows])
        return cross.reshape(-1, Y.shape[1])

    def solve(self, Y: np.ndarray) -> np.ndarray:
        """Per-series least-squares coefficients of a T x N panel, shape (N, r, 2^J)."""
        inverse = self._factorization[0]
        if self._cells:
            gamma = inverse @ self._by_run(Y)  # (K, r, N), each cell's loadings
            R = self.basis.run_rows
            beta = R.T @ gamma.reshape(len(R), -1) / len(R)  # R'R = 2^J I
            return beta.reshape(len(R), self.r, -1).transpose(2, 1, 0)
        X = inverse[0] @ self._cross(Y)  # (r*2^J) x N
        return X.T.reshape(Y.shape[1], self.r, self.basis.n_columns)

    def fitted_slabs(self, beta: np.ndarray):
        """The fitted panel Psi beta of coefficients shaped (N, r, 2^J), one row
        slab at a time: (rows, slab), the slab a new T_b x N array."""
        N, r, p = beta.shape
        if not self._cells:
            # slab by slab, sum_i F_i * (B beta_i')
            coefs = beta.transpose(1, 2, 0).copy()  # (r, 2^J, N)
            for rows, Fb, Bb in self._slabs(self._slab_height):
                slab = Bb @ coefs[0]
                slab *= Fb[:, :1]
                for i in range(1, r):
                    term = Bb @ coefs[i]
                    term *= Fb[:, i:i + 1]
                    slab += term
                yield rows, slab
            return
        # cell k is its factor rows F_k times its r x N loadings R_k beta
        R = self.basis.run_rows
        loadings = (R @ beta.transpose(2, 1, 0).reshape(p, r * N)).reshape(len(R), r, N)
        for runs, rows in self._run_chunks(N):
            out = self._F_runs[runs] @ loadings[runs]  # (k, L, N), zero rows past each run
            yield rows, out.reshape(-1, N) if self._equal_runs else out[self._slots[runs]]

    def fitted(self, beta: np.ndarray) -> np.ndarray:
        """The fitted panel Psi beta of coefficients shaped (N, r, 2^J), T x N."""
        slabs = [slab for _, slab in self.fitted_slabs(beta)]
        return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)

    @property
    def gram_condition(self) -> float:
        """2-norm condition number of Psi'Psi, lambda_max / lambda_min over the
        eigenvalues of the Gram blocks (on Haar, Psi'Psi has 2^J times those of
        the cell Grams taken together)."""
        return self._factorization[1]


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


def _rank_deficiency(small: np.ndarray, V: np.ndarray, labels: list[str]) -> RankDeficiencyError:
    """The ``RankDeficiencyError`` naming, by ``labels``, the columns that earlier
    columns reproduce, from the eigenvectors ``V`` of the ``small`` eigenvalues
    of each of the B Gram blocks: row i of block b is column i * B + b, so a
    Haar cell k's null vectors sit at Phi's columns of cell k, one per factor,
    and d8's one block is all of Psi."""
    blocks, n = small.shape
    block, vector = np.nonzero(small)
    null = np.zeros((len(block), blocks * n))
    rows = np.arange(len(block))[:, None]
    null[rows, np.arange(n) * blocks + block[:, None]] = V[block, :, vector]
    return RankDeficiencyError(
        f"design matrix is rank deficient (rank {small.size - len(block)} of {small.size}); "
        f"offending columns: {', '.join(labels[c] for c in _reproduced_columns(null))}"
    )


def _reproduced_columns(null: np.ndarray) -> list[int]:
    """The columns that the columns before them reproduce, ascending, from the
    rows of a basis of the null space.

    The rows are brought to echelon form from the right: each step pivots on
    the last column where a remaining row has an entry above ``_NEGLIGIBLE``
    times the largest remaining entry, on the row with the largest entry
    there, and eliminates that column from the rows after it.  Column c is a pivot exactly when a
    null vector ends at c, that is when the columns before c reproduce it, so
    the columns named do not depend on the basis the solver returned.
    """
    null = null.copy()
    pivots = []
    for row in range(len(null)):
        size = np.abs(null[row:])
        c = int(np.flatnonzero((size > _NEGLIGIBLE * size.max()).any(axis=0))[-1])
        i = row + int(np.argmax(size[:, c]))
        null[[row, i]] = null[[i, row]]
        null[row + 1:] -= np.outer(null[row + 1:, c] / null[row, c], null[row])
        pivots.append(c)
    return sorted(pivots)


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
    factorization ``design`` keeps for later steps; no NT-sized matrix is
    formed.  Gamma_e is still validated: it must be finite, symmetric and
    admit a Cholesky factorization.  A diagonal Gamma_e, the only kind
    ``fit_iterative`` passes, is checked by its diagonal alone, which must be
    positive.  Passing ``sigma_full`` (an NT x NT covariance, series-major
    ordering) bypasses the design and solves the dense normal equations
    through Cholesky factors of Sigma and of the whitened Gram matrix
    instead; it is an oracle for tests.

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


def _residual_sum(panel: Panel, design: DesignBlock, beta: np.ndarray, term):
    """The sum of ``term(E_b)`` over the row slabs E_b of E = Y - Psi beta."""
    total = None
    for rows, E in design.fitted_slabs(beta):
        part = term(np.subtract(panel.values[rows], E, out=E))
        total = part if total is None else total + part
    return total


@dataclass(frozen=True)
class GlsFit:
    """Two-pass loading fit, fully described by its coefficients, design and panel.

    ``beta[m, i]`` holds series m's coefficients for factor i in basis-column
    order.  ``Lambda_rows``, the loading curves once per run of the basis,
    ``Lambda[t, m, i]``, those rows spread over the grid, and ``Gamma_e``,
    the residual covariance E'E / T with E = Y - Psi beta summed over the row
    slabs of E, are built from (beta, design, panel) when each is first read,
    and kept.  ``Lambda`` is ``Lambda_rows`` itself where every run is one
    point long, as on d8.
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
        return _residual_sum(self.panel, self.design, self.beta, lambda E: E.T @ E) / self.panel.T


def fit_iterative(
    panel: Panel,
    factors: FactorEstimate,
    basis: WaveletBasis,
    design: DesignBlock | None = None,
) -> GlsFit:
    """Fit the loading curves by two-pass feasible GLS.

    Pass 1 solves with the identity weight.  Pass 2 solves with the diagonal
    of the pass-1 residual covariance, diag(E'E / T) with E = Y - Psi beta_1
    summed over the row slabs of E, and 1 wherever a residual variance is
    not positive, as on a series the model fits exactly.  Every series shares
    the design Psi, so a weight Gamma_e^-1 (x) I_T cancels (Zellner 1962,
    JASA) and pass 2 reproduces the pass-1 coefficients bit for bit.

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
    variance = _residual_sum(panel, design, first_beta,
                             lambda E: np.einsum("tm,tm->m", E, E)) / panel.T
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
