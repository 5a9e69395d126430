"""Second-stage estimation: wavelet-expanded loadings fitted by iterated GLS.

With the factors treated as observed, each series m follows

    Y[t, m] = sum_i lambda_{m i}(t/T) F[t, i] + e[t, m],

and every loading curve lambda_{m i} is expanded on a common wavelet basis.
Stacking series by series, the regression design is I_N (x) Psi with
Psi = [B * F_1 | ... | B * F_r].  Because all series share the same Psi, the
GLS weighting by Gamma_e^-1 (x) I_T collapses exactly onto per-series least
squares; the iteration over the residual covariance therefore settles after
one refit, which the fit loop records rather than hides.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import write_table
from .errors import NumericError, ParameterError, RankDeficiencyError, ShapeError
from .factors import FactorEstimate, Panel
from .wavelet import WaveletBasis

__all__ = [
    "DesignBlock",
    "GlsFit",
    "build_design",
    "regularize_covariance",
    "gls_step",
    "loadings_from_coeffs",
    "common_component",
    "residual_cov",
    "fit_iterative",
    "write_loadings_csv",
    "write_coefficients_csv",
    "read_coefficients_csv",
    "write_covariance_csv",
]


@dataclass(frozen=True)
class DesignBlock:
    """Stacked regression design: ``Psi[:, i*2^J:(i+1)*2^J]`` belongs to factor i.

    A design is also the loading solver for its factors and basis.  The first
    ``solve`` takes the Cholesky factor L of Psi'Psi and keeps its inverse, so
    every panel costs one product Psi'Y and two triangular-matrix products;
    ``gram_condition`` reads the conditioning of Psi'Psi off the same factor.
    """

    Psi: np.ndarray
    r: int
    basis: WaveletBasis

    @cached_property
    def _inverse_factor(self) -> np.ndarray:
        gram = self.Psi.T @ self.Psi
        if not np.isfinite(gram).all():
            raise NumericError("design Gram matrix Psi'Psi has non-finite entries")
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            _report_rank_deficiency(self.Psi, self)
            raise  # unreachable: the reporter always raises
        return np.linalg.inv(L)

    def solve(self, Y: np.ndarray) -> np.ndarray:
        """Per-series least-squares coefficients of a T x N panel, shape (N, r, 2^J)."""
        Linv = self._inverse_factor
        X = Linv.T @ (Linv @ (self.Psi.T @ Y))  # (r*2^J) x N
        return X.T.reshape(Y.shape[1], self.r, self.basis.n_columns)

    @property
    def gram_condition(self) -> float:
        """2-norm condition number of Psi'Psi, the squared one of its Cholesky factor."""
        s = np.linalg.svd(self._inverse_factor, compute_uv=False)
        return float((s[0] / s[-1]) ** 2)


def build_design(factors: FactorEstimate, basis: WaveletBasis) -> DesignBlock:
    """Multiply every basis column by every factor path.

    Returns the T x (r * 2^J) matrix whose block i is B scaled row-wise by
    factor i's path.
    """
    F = factors.F
    if F.shape[0] != basis.T:
        raise ShapeError(
            f"factor grid length {F.shape[0]} does not match basis grid {basis.T}"
        )
    blocks = [basis.B * F[:, i : i + 1] for i in range(F.shape[1])]
    return DesignBlock(Psi=np.hstack(blocks), r=F.shape[1], basis=basis)


def regularize_covariance(
    gamma: np.ndarray,
    epsilon: float = 0.1,
    cond_max: float = 1e8,
    force_shrink: bool = False,
    max_rounds: int = 200,
) -> np.ndarray:
    """Shrink a residual covariance toward its diagonal until well conditioned.

    Applies gamma <- (1 - eps) * gamma + eps * diag(gamma) while the condition
    number exceeds ``cond_max`` (or once unconditionally when
    ``force_shrink``), and adds a tiny ridge as a last resort for matrices
    whose diagonal itself is degenerate (e.g. all-zero residuals).
    """
    G = 0.5 * (gamma + gamma.T)
    shrunk = 0
    while True:
        w = np.linalg.eigvalsh(G)
        ok = w[0] > 0.0 and w[-1] / w[0] <= cond_max
        if ok and (shrunk > 0 or not force_shrink):
            return G
        if shrunk >= max_rounds:
            break
        G = (1.0 - epsilon) * G + epsilon * np.diag(np.diag(G))
        shrunk += 1
    ridge = max(float(np.mean(np.diag(G))), 1.0) * 1e-10
    G = G + ridge * np.eye(G.shape[0])
    w = np.linalg.eigvalsh(G)
    if w[0] <= 0.0:
        raise NumericError("residual covariance cannot be regularized to positive definite")
    return G


def _report_rank_deficiency(Psi: np.ndarray, design: DesignBlock) -> None:
    import scipy.linalg  # only this error path needs the pivoted QR

    _, R, piv = scipy.linalg.qr(Psi, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(Psi.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    p = design.basis.n_columns
    labels = []
    for col in sorted(piv[rank:]):
        i, c = divmod(int(col), p)
        j, k = design.basis.column_index[c]
        labels.append(f"factor {i + 1} x column (j={j}, k={k})")
    raise RankDeficiencyError(
        f"design matrix is rank deficient (rank {rank} of {Psi.shape[1]}); "
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
    finite, symmetric and admit a Cholesky factorization.  Passing
    ``sigma_full`` (an NT x NT covariance, series-major ordering) bypasses the
    factorization and solves the dense normal equations with scipy instead;
    it is an oracle for tests.

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
    Psi = design.Psi
    if Psi.shape[0] != T:
        raise ShapeError(f"design grid {Psi.shape[0]} does not match panel grid {T}")
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.shape != (N, N):
        raise ShapeError(f"gamma_e must be {N}x{N}, got {gamma_e.shape}")
    if not np.isfinite(gamma_e).all():
        raise ParameterError("gamma_e must be finite")
    if not np.allclose(gamma_e, gamma_e.T, atol=1e-10):
        raise ParameterError("gamma_e must be symmetric")
    try:
        np.linalg.cholesky(gamma_e)
    except np.linalg.LinAlgError as exc:
        raise NumericError("gamma_e is not positive definite") from exc

    p = design.basis.n_columns
    if sigma_full is not None:
        sigma_full = np.asarray(sigma_full, dtype=float)
        if sigma_full.shape != (N * T, N * T):
            raise ShapeError(f"sigma_full must be {N * T}x{N * T}, got {sigma_full.shape}")
        import scipy.linalg  # the dense oracle is the only solve path that needs scipy

        theta = np.kron(np.eye(N), Psi)
        z = Y.T.ravel()
        si_theta = scipy.linalg.solve(sigma_full, theta, assume_a="pos")
        A = theta.T @ si_theta
        b = si_theta.T @ z
        flat = scipy.linalg.solve(A, b, assume_a="pos")
        return flat.reshape(N, design.r, p)
    return design.solve(Y)


def loadings_from_coeffs(beta: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    """Evaluate every loading curve on the grid: result is T x N x r."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 3 or beta.shape[2] != basis.n_columns:
        raise ShapeError(
            f"beta must be (N, r, {basis.n_columns}), got {beta.shape}"
        )
    T, p = basis.B.shape
    return (basis.B @ beta.reshape(-1, p).T).reshape(T, beta.shape[0], beta.shape[1])


def common_component(Lambda: np.ndarray, factors: FactorEstimate | np.ndarray) -> np.ndarray:
    """Fitted common part: X[t, m] = sum_i Lambda[t, m, i] * F[t, i]."""
    F = factors.F if isinstance(factors, FactorEstimate) else np.asarray(factors, float)
    if Lambda.shape[0] != F.shape[0] or Lambda.shape[2] != F.shape[1]:
        raise ShapeError(
            f"loading field {Lambda.shape} incompatible with factors {F.shape}"
        )
    return np.matmul(Lambda, F[:, :, None])[:, :, 0]


def residual_cov(panel: Panel, Lambda: np.ndarray, factors: FactorEstimate) -> np.ndarray:
    """Residual covariance sum_t e_t e_t' / T of the fitted model."""
    E = panel.values - common_component(Lambda, factors)
    return E.T @ E / panel.T


@dataclass(frozen=True)
class GlsFit:
    """Converged loading fit.

    ``beta[m, i]`` holds series m's coefficients for factor i in basis-column
    order; ``Lambda[t, m, i]`` is the loading curve on the grid; ``deltas``
    records the loading-field movement at each refit.
    """

    beta: np.ndarray
    Lambda: np.ndarray
    Gamma_e: np.ndarray
    n_iter: int
    deltas: tuple[float, ...]
    converged: bool


def fit_iterative(
    panel: Panel,
    factors: FactorEstimate,
    basis: WaveletBasis,
    delta: float = 1e-6,
    max_iter: int = 50,
    design: DesignBlock | None = None,
) -> GlsFit:
    """Iterate GLS and residual-covariance estimation to a fixed point.

    Starts from the identity weight, alternates coefficient estimation and
    residual covariance updates, and stops when the summed Frobenius movement
    of the loading field sum_t ||Lambda_prev(t) - Lambda(t)||_F drops below
    ``delta``.  With the Kronecker weight structure the second iterate
    reproduces the first, so convergence lands at iteration 2; the delta
    trace makes that visible.

    Parameters
    ----------
    panel : Panel
    factors : FactorEstimate
        Factors treated as observed regressors.
    basis : WaveletBasis
    delta : float
        Convergence threshold, > 0.
    max_iter : int
        Maximum number of GLS solves, >= 1.
    design : DesignBlock, optional
        ``build_design(factors, basis)`` built beforehand, so that fits of
        several panels on the same factors share one factorization.

    Returns
    -------
    GlsFit
        ``converged`` is False when max_iter is exhausted (recorded, not
        raised).
    """
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if design is None:
        design = build_design(factors, basis)
    N = panel.N
    gamma = np.eye(N)
    prev: np.ndarray | None = None
    beta = None
    Lambda = None
    deltas: list[float] = []
    converged = False
    n_iter = 0
    for _ in range(max_iter):
        beta = gls_step(panel, design, gamma)
        Lambda = loadings_from_coeffs(beta, basis)
        n_iter += 1
        if prev is not None:
            move = float(np.sqrt(((Lambda - prev) ** 2).sum(axis=(1, 2))).sum())
            deltas.append(move)
            if move < delta:
                converged = True
                break
        prev = Lambda
        gamma_hat = residual_cov(panel, Lambda, factors)
        gamma = regularize_covariance(gamma_hat, force_shrink=panel.T < panel.N)
    return GlsFit(
        beta=beta,
        Lambda=Lambda,
        Gamma_e=residual_cov(panel, Lambda, factors),
        n_iter=n_iter,
        deltas=tuple(deltas),
        converged=converged,
    )


# ---------------------------------------------------------------- artifacts


def write_loadings_csv(fit: GlsFit, panel: Panel, path) -> None:
    """Long-format loading field: t,series,factor,lambda_hat."""
    T, N, r = fit.Lambda.shape
    keys = [(sid, i + 1) for sid in panel.series_ids for i in range(r)]
    write_table(path, ["t", "series", "factor", "lambda_hat"],
                fit.Lambda.reshape(T, N * r, 1), keys, rows=range(1, T + 1))


def write_coefficients_csv(fit: GlsFit, panel: Panel, basis: WaveletBasis, path) -> None:
    """Coefficient table: series,factor,level_j,shift_k,beta (scale row has level_j=-1)."""
    N, r, p = fit.beta.shape
    keys = [(i + 1, j, k) for i in range(r) for (j, k) in basis.column_index]
    write_table(path, ["series", "factor", "level_j", "shift_k", "beta"],
                fit.beta.reshape(N, r * p, 1), keys, rows=panel.series_ids)


def read_coefficients_csv(path, series_ids, basis: WaveletBasis, r: int) -> np.ndarray:
    """Inverse of ``write_coefficients_csv``; returns beta with shape (N, r, 2^J)."""
    pos = {sid: m for m, sid in enumerate(series_ids)}
    col = {jk: c for c, jk in enumerate(basis.column_index)}
    beta = np.full((len(series_ids), r, basis.n_columns), np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            m = pos[rec["series"]]
            i = int(rec["factor"]) - 1
            c = col[(int(rec["level_j"]), int(rec["shift_k"]))]
            beta[m, i, c] = float(rec["beta"])
    if np.isnan(beta).any():
        raise ShapeError(f"{path}: incomplete coefficient table")
    return beta


def write_covariance_csv(gamma: np.ndarray, series_ids, path) -> None:
    """Residual covariance as a labelled square table."""
    write_table(path, ["series", *series_ids], np.asarray(gamma, dtype=float)[:, None, :],
                rows=series_ids)
