"""Factor alignment and accuracy metrics for simulation studies.

Estimated factors are identified only up to an invertible transformation, so
before comparing them with a reference they are rotated by the orthogonal
matrix that maximizes the summed correlation with the reference columns and
rescaled column by column to the reference standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

__all__ = [
    "RotationResult",
    "procrustes_rotation",
    "r2_factors",
    "loading_mse",
    "median_path",
]


@dataclass(frozen=True)
class RotationResult:
    """Optimal rotation of estimated factors onto a reference set.

    ``rotation`` maximizes trace(C A) over orthogonal A, where C is the
    column-pairwise correlation matrix between reference and estimate;
    ``trace_value`` is the attained maximum (the sum of C's singular values).
    """

    rotation: np.ndarray
    F_rotated: np.ndarray
    F_rotated_rescaled: np.ndarray
    trace_value: float


def _column_sd(X: np.ndarray) -> np.ndarray:
    return X.std(axis=0, ddof=1)


def procrustes_rotation(F_ref: np.ndarray, F_est: np.ndarray) -> RotationResult:
    """Rotate estimated factors onto a reference by correlation Procrustes.

    Builds C[a, b] = corr(F_ref[:, a], F_est[:, b]), takes the SVD
    C = U S V', rotates by A = V U' (the maximizer of trace(C A) over the
    orthogonal group), and rescales each rotated column to the sample
    standard deviation of its reference column.

    Parameters
    ----------
    F_ref, F_est : ndarray
        T x k matrices on a common grid with the same number of columns.

    Returns
    -------
    RotationResult
    """
    F_ref = np.asarray(F_ref, float)
    F_est = np.asarray(F_est, float)
    if F_ref.ndim != 2 or F_est.ndim != 2:
        raise ShapeError("factor matrices must be 2-d")
    if F_ref.shape[0] != F_est.shape[0]:
        raise ShapeError(
            f"grid mismatch: reference has T={F_ref.shape[0]}, estimate T={F_est.shape[0]}"
        )
    if F_ref.shape[0] < 3:
        raise ShapeError("need at least 3 grid points to correlate factors")
    l = F_ref.shape[1]
    if F_est.shape[1] != l:
        raise ShapeError(f"column mismatch: reference has {l} factors, estimate "
                         f"{F_est.shape[1]}")
    if l == 0:
        raise ShapeError("factor matrices must have at least one column")
    sd_ref = _column_sd(F_ref)
    sd_est = _column_sd(F_est)
    if np.any(sd_ref == 0.0) or np.any(sd_est == 0.0):
        raise NumericError("constant factor column: correlation undefined")
    Zr = (F_ref - F_ref.mean(axis=0)) / sd_ref
    Ze = (F_est - F_est.mean(axis=0)) / sd_est
    if np.linalg.matrix_rank(Zr) < l or np.linalg.matrix_rank(Ze) < l:
        raise NumericError("factor matrix is rank deficient after centering")
    C = Zr.T @ Ze / (F_ref.shape[0] - 1)
    U, S, Vt = np.linalg.svd(C)
    rot = Vt.T @ U.T
    F_rot = F_est @ rot
    sd_rot = _column_sd(F_rot)
    if np.any(sd_rot == 0.0):
        raise NumericError("rotation produced a constant column")
    F_scaled = F_rot * (sd_ref / sd_rot)
    return RotationResult(
        rotation=rot,
        F_rotated=F_rot,
        F_rotated_rescaled=F_scaled,
        trace_value=float(np.trace(C @ rot)),
    )


def r2_factors(F_ref: np.ndarray, F_est: np.ndarray) -> float:
    """Trace R-squared of the reference factors on the estimated ones.

    trace(F_ref' P F_ref) / trace(F_ref' F_ref) with P the projector onto
    the column space of F_est; invariant under invertible recombinations of
    the estimate.
    """
    F_ref = np.asarray(F_ref, float)
    F_est = np.asarray(F_est, float)
    if F_ref.shape[0] != F_est.shape[0]:
        raise ShapeError("factor matrices must share the grid")
    gram = F_est.T @ F_est
    try:
        cross = np.linalg.solve(gram, F_est.T @ F_ref)
    except np.linalg.LinAlgError as exc:
        raise NumericError("estimated factors are collinear") from exc
    num = float(np.trace((F_ref.T @ F_est) @ cross))
    den = float(np.trace(F_ref.T @ F_ref))
    if den <= 0.0:
        raise NumericError("reference factors have zero energy")
    return num / den


def loading_mse(Lambda_hat, Lambda_ref: np.ndarray) -> float:
    """Average Frobenius distance of the loading fields over the grid.

    (NT)^-1 * sum_t ||Lambda_hat(t) - Lambda_ref(t)||_F, with the norm left
    unsquared.  ``Lambda_hat`` is a T x N x r field, or a loading fit
    (``gls.GlsFit``), whose field is read in row slabs (``Lambda_slabs``)
    and never held whole; either gives the same value bit for bit.
    """
    Lambda_ref = np.asarray(Lambda_ref, float)
    if hasattr(Lambda_hat, "Lambda_slabs"):
        slabs = Lambda_hat.Lambda_slabs()
    else:
        Lambda_hat = np.asarray(Lambda_hat, float)
        slabs = [(slice(0, len(Lambda_hat)), Lambda_hat)]
    T, N, _ = Lambda_ref.shape
    sq = np.empty(T)  # squared distance at each grid point
    covered = 0
    for rows, slab in slabs:
        if rows.start != covered or slab.shape != Lambda_ref[rows].shape:
            raise ShapeError(
                f"loading fields differ in shape: {slab.shape} at rows {rows.start}.. "
                f"vs {Lambda_ref.shape}"
            )
        diff = slab - Lambda_ref[rows]
        np.square(diff, out=diff)
        diff.sum(axis=(1, 2), out=sq[rows])
        covered = rows.stop
    if covered != T:
        raise ShapeError(f"loading field covers {covered} of the reference's {T} grid points")
    return float(np.sqrt(sq, out=sq).sum() / (N * T))


def median_path(mse_values, fits):
    """Return the fit whose MSE attains the lower-middle order statistic.

    For an even count the lower of the two middle values is used; when
    several fits tie at that value the one with the lowest index wins.
    """
    mse_values = list(mse_values)
    fits = list(fits)
    if not mse_values:
        raise ParameterError("no replications to take a median over")
    if len(mse_values) != len(fits):
        raise ShapeError(f"{len(mse_values)} metric values for {len(fits)} fits")
    target = sorted(mse_values)[(len(mse_values) - 1) // 2]
    for i, v in enumerate(mse_values):
        if v == target:
            return fits[i]
    raise NumericError("median value vanished from its own sample")  # pragma: no cover
