"""Factor alignment (correlation Procrustes) and the two accuracy metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tvload.errors import NumericError, ParameterError, ShapeError
from tvload.metrics import loading_mse, median_path, procrustes_rotation, r2_factors


def _random_orthogonal(rng, r):
    Q, _ = np.linalg.qr(rng.normal(size=(r, r)))
    return Q


def _corr_matrix(A, B):
    out = np.empty((A.shape[1], B.shape[1]))
    for a in range(A.shape[1]):
        for b in range(B.shape[1]):
            out[a, b] = np.corrcoef(A[:, a], B[:, b])[0, 1]
    return out


# ---------------------------------------------------------------- procrustes


def test_procrustes_identity_alignment():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(100, 3))
    res = procrustes_rotation(F, F)
    assert_allclose(res.rotation, np.eye(3), atol=1e-10)
    assert abs(res.trace_value - 3.0) <= 1e-10
    assert_allclose(res.F_rotated_rescaled, F, atol=1e-8)


def test_procrustes_inverts_a_planted_rotation():
    rng = np.random.default_rng(1)
    F = rng.normal(size=(200, 3))
    R = _random_orthogonal(rng, 3)
    res = procrustes_rotation(F, F @ R)
    for k in range(3):
        corr = np.corrcoef(res.F_rotated_rescaled[:, k], F[:, k])[0, 1]
        assert corr >= 0.9999


def test_procrustes_trace_equals_nuclear_norm():
    rng = np.random.default_rng(2)
    F_ref = rng.normal(size=(80, 3))
    F_est = rng.normal(size=(80, 3))
    res = procrustes_rotation(F_ref, F_est)
    C = _corr_matrix(F_ref, F_est)
    assert abs(res.trace_value - np.linalg.svd(C, compute_uv=False).sum()) <= 1e-9


def test_procrustes_beats_random_rotations():
    rng = np.random.default_rng(3)
    F_ref = rng.normal(size=(60, 2))
    F_est = rng.normal(size=(60, 2))
    res = procrustes_rotation(F_ref, F_est)
    C = _corr_matrix(F_ref, F_est)
    for _ in range(1000):
        Q = _random_orthogonal(rng, 2)
        assert np.trace(C @ Q) <= res.trace_value + 1e-9


def test_procrustes_rotation_is_orthogonal_and_rescaled():
    rng = np.random.default_rng(4)
    F_ref = 3.0 * rng.normal(size=(120, 2))
    F_est = rng.normal(size=(120, 2))
    res = procrustes_rotation(F_ref, F_est)
    assert_allclose(res.rotation.T @ res.rotation, np.eye(2), atol=1e-10)
    assert_allclose(
        res.F_rotated_rescaled.std(axis=0, ddof=1),
        F_ref.std(axis=0, ddof=1),
        atol=1e-8,
    )


def test_procrustes_rescaling_preserves_correlation():
    rng = np.random.default_rng(5)
    F_ref = rng.normal(size=(90, 2))
    F_est = rng.normal(size=(90, 2))
    res = procrustes_rotation(F_ref, F_est)
    for k in range(2):
        a = np.corrcoef(res.F_rotated[:, k], F_ref[:, k])[0, 1]
        b = np.corrcoef(res.F_rotated_rescaled[:, k], F_ref[:, k])[0, 1]
        assert abs(a - b) <= 1e-12


def test_procrustes_rejects_widths_that_differ():
    rng = np.random.default_rng(6)
    F_ref = rng.normal(size=(70, 3))
    F_est = rng.normal(size=(70, 2))
    with pytest.raises(ShapeError, match="column mismatch"):
        procrustes_rotation(F_ref, F_est)


def test_procrustes_rejects_rank_deficient_input():
    F = np.ones((50, 2))
    F[:, 0] = np.arange(50.0)
    F[:, 1] = 2.0 * np.arange(50.0)  # collinear columns
    rng = np.random.default_rng(7)
    with pytest.raises(NumericError):
        procrustes_rotation(rng.normal(size=(50, 2)), F)


# ---------------------------------------------------------------- r2


def test_r2_of_own_span_is_one():
    rng = np.random.default_rng(8)
    F = rng.normal(size=(64, 2))
    assert abs(r2_factors(F, F) - 1.0) <= 1e-12


def test_r2_invariant_to_invertible_mixing():
    rng = np.random.default_rng(9)
    F = rng.normal(size=(64, 3))
    for _ in range(20):
        H = rng.normal(size=(3, 3))
        while abs(np.linalg.det(H)) < 1e-3:
            H = rng.normal(size=(3, 3))
        assert abs(r2_factors(F, F @ H) - 1.0) <= 1e-9


def test_r2_zero_for_orthogonal_estimate():
    T = 64
    t = np.arange(T)
    F_ref = np.column_stack([np.cos(2 * np.pi * t / T)])
    F_est = np.column_stack([np.sin(2 * np.pi * t / T)])
    assert r2_factors(F_ref, F_est) <= 1e-10


def test_r2_rejects_singular_estimate():
    rng = np.random.default_rng(10)
    F_ref = rng.normal(size=(30, 2))
    F_est = np.ones((30, 2))
    with pytest.raises(NumericError):
        r2_factors(F_ref, F_est)


def test_r2_range():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = r2_factors(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)))
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------- mse


def test_mse_zero_for_equal_fields():
    rng = np.random.default_rng(12)
    L = rng.normal(size=(16, 4, 2))
    assert loading_mse(L, L) == 0.0


def test_mse_single_entry_offset():
    # one entry off by c at every t: each slice norm is |c|, so the mean is
    # T |c| / (N T) = |c| / N
    L = np.zeros((8, 5, 2))
    Lhat = L.copy()
    Lhat[:, 2, 1] = 0.25
    assert abs(loading_mse(Lhat, L) - 0.25 / 5) <= 1e-15


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(12, 3, 2))
    B = rng.normal(size=(12, 3, 2))
    T, N, _ = A.shape
    oracle = sum(
        np.sqrt(((A[t] - B[t]) ** 2).sum()) for t in range(T)
    ) / (N * T)
    assert abs(loading_mse(A, B) - oracle) <= 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        loading_mse(np.zeros((4, 2, 1)), np.zeros((4, 2, 2)))


# ---------------------------------------------------------------- median path


def test_median_path_odd_count():
    assert median_path([0.3, 0.1, 0.2], ["a", "b", "c"]) == "c"


def test_median_path_even_count_lower_middle():
    assert median_path([0.1, 0.2, 0.3, 0.4], ["a", "b", "c", "d"]) == "b"


def test_median_path_tie_takes_first():
    assert median_path([0.2, 0.2, 0.5], ["a", "b", "c"]) == "a"


def test_median_path_validation():
    with pytest.raises(ParameterError):
        median_path([], [])
    with pytest.raises(ShapeError):
        median_path([0.1, 0.2], ["only"])
