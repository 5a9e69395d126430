"""Wavelet basis tests: exact Haar identities, cascade table, periodized D8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tvload.errors import ParameterError
from tvload.wavelet import (
    WaveletFamily,
    evaluate_basis,
    expand_runs,
    haar_eval,
    select_resolution,
)
from tvload.wavelet import _D8_H, _cascade_values


# ---------------------------------------------------------------- resolution


def test_select_resolution_pinned_values():
    assert select_resolution(512) == 5
    assert select_resolution(1024) == 5  # tie sqrt(1024) = 2^5 resolves down
    assert select_resolution(2048) == 6
    assert select_resolution(4) == 1


def test_select_resolution_rejects_short_grids():
    for T in (0, 1, 2, 3):
        with pytest.raises(ParameterError):
            select_resolution(T)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=4, max_value=1_000_000))
def test_select_resolution_brackets_sqrt(T):
    J = select_resolution(T)
    # 2^(J-1) <= sqrt(T) <= 2^J in exact integer arithmetic
    assert 4 ** (J - 1) <= T <= 4**J
    # minimality: J-1 fails the upper bracket
    assert 4 ** (J - 1) < T or 4 ** (J - 1) == T == 4**J


# ---------------------------------------------------------------- haar


def test_haar_eval_pinned_points():
    assert haar_eval(0, 0, 0.25) == 1.0
    assert haar_eval(0, 0, 0.75) == -1.0
    assert_allclose(haar_eval(1, 1, 0.625), np.sqrt(2.0))


def test_haar_eval_right_endpoint_is_nonzero():
    # the grid includes u = T/T = 1; every level's last wavelet covers it
    for j in (0, 1, 3):
        assert haar_eval(j, 2**j - 1, 1.0) == -(2.0 ** (j / 2.0))


def test_haar_eval_shift_range_checked():
    with pytest.raises(ParameterError):
        haar_eval(1, 2, 0.3)
    with pytest.raises(ParameterError):
        haar_eval(0, -1, 0.3)


def _dense_haar_columns(J, T):
    """Every column of the Haar basis on t/T, t = 1..T, from ``haar_eval`` alone."""
    u = np.arange(1, T + 1) / T
    yield np.ones(T)
    for j in range(J):
        for k in range(2**j):
            yield haar_eval(j, k, u)


@pytest.mark.parametrize("T_rule", ["2^J", "2^J+1", "1000", "8760", "43800", "1009"])
def test_haar_run_form_is_the_dense_basis_bit_for_bit(T_rule):
    # column by column, so the dense T x 2^J matrix is never held
    for J in range(10):
        T = {"2^J": 2**J, "2^J+1": 2**J + 1}.get(T_rule) or int(T_rule)
        if 2**J > T:
            continue
        basis = evaluate_basis("haar", J, T)
        assert basis.run_rows.shape == (min(2**J, T), 2**J)
        changes = np.zeros(T - 1, dtype=bool)  # where the dense basis changes row
        for c, col in enumerate(_dense_haar_columns(J, T)):
            got = expand_runs(basis.run_rows[:, c:c + 1], basis.run_lengths)[:, 0]
            assert np.array_equal(got.view(np.uint64), col.view(np.uint64)), (J, T, c)
            bits = col.view(np.uint64)
            changes |= bits[1:] != bits[:-1]
        firsts = np.flatnonzero(np.r_[True, changes])
        assert basis.run_lengths.tolist() == np.diff(np.r_[firsts, T]).tolist(), (J, T)


def test_haar_basis_first_row_J2_T8():
    b = evaluate_basis("haar", 2, 8)
    assert_allclose(b.B[0], [1.0, 1.0, np.sqrt(2.0), 0.0], atol=0.0)


@pytest.mark.parametrize("J,T", [(2, 8), (5, 512), (5, 1024)])
def test_haar_gram_exact_on_dyadic_grids(J, T):
    b = evaluate_basis(WaveletFamily.HAAR, J, T)
    gram = b.B.T @ b.B / T
    assert np.max(np.abs(gram - np.eye(2**J))) <= 1e-12


def test_haar_gram_J3_T8_exact():
    # T equal to the number of columns: square orthogonal design
    b = evaluate_basis("haar", 3, 8)
    gram = b.B.T @ b.B / 8
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


@pytest.mark.parametrize("T,J", [(512, 5), (1000, 5), (8760, 7), (43800, 8), (32, 5)])
def test_haar_run_rows_are_orthogonal_with_squared_norm_2j_on_any_grid(T, J):
    # the run rows R hold one row per dyadic cell, whatever the cells' lengths,
    # so R'R = 2^J I off the dyadic grids too, and R^-1 = R' / 2^J
    R = evaluate_basis("haar", J, T).run_rows
    assert R.shape == (2**J, 2**J)
    assert np.max(np.abs(R.T @ R - 2**J * np.eye(2**J))) <= 1e-12 * 2**J


# ---------------------------------------------------------------- cascade table

# Scaling values at the integers, frozen from an independent 40-digit
# eigen solve of the refinement matrix.
_PHI_AT_INTEGERS = {
    0: 0.0,
    1: 1.00716997772560227,
    2: -0.0338369540528354556,
    3: 0.039610462715903328,
    4: -0.0117643582057267108,
    5: -0.00119795759617697344,
    6: 1.88294132335431331e-05,
    7: 0.0,
}


def test_cascade_integer_values_match_frozen_oracle():
    x, phi = _cascade_values(8)
    step = 2**8
    assert x[step] == 1.0
    for k, expected in _PHI_AT_INTEGERS.items():
        assert_allclose(phi[k * step], expected, atol=1e-12)


def test_cascade_support_boundaries_vanish():
    x, phi = _cascade_values(12)
    assert (x[0], x[-1]) == (0.0, 7.0)
    assert phi[0] == 0.0
    assert phi[-1] == 0.0


def test_cascade_partition_of_unity():
    x, phi = _cascade_values(12)
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.uniform(0.0, 7.0, 64), [0.3125, 1.5, 3.002197265625]])
    for q in pts:
        s = sum(np.interp(q - k, x, phi, left=0.0, right=0.0) for k in range(-7, 8))
        assert abs(s - 1.0) <= 1e-8


def test_cascade_integral_one():
    x, phi = _cascade_values(12)
    assert abs(np.trapezoid(phi, x) - 1.0) <= 1e-6


def test_cascade_two_scale_relation_everywhere():
    # phi(x) = sqrt(2) sum_n h_n phi(2x - n) at every tabulated dyadic point
    _, phi = _cascade_values(10)
    L = 2**10
    idx = np.arange(phi.size)
    rhs = np.zeros_like(phi)
    for n in range(8):
        src = 2 * idx - n * L
        ok = (src >= 0) & (src < phi.size)
        rhs[ok] += _D8_H[n] * phi[src[ok]]
    rhs *= np.sqrt(2.0)
    assert np.max(np.abs(phi - rhs)) <= 1e-8


def test_filter_taps_are_orthonormal():
    assert abs(_D8_H.sum() - np.sqrt(2.0)) <= 1e-14
    assert abs((_D8_H**2).sum() - 1.0) <= 1e-14
    for m in (1, 2, 3):
        assert abs(np.dot(_D8_H[: 8 - 2 * m], _D8_H[2 * m :])) <= 1e-14


# ---------------------------------------------------------------- periodized D8


def test_d8_gram_near_identity_J3_T1024():
    b = evaluate_basis("d8", 3, 1024)
    gram = b.B.T @ b.B / 1024
    assert np.max(np.abs(gram - np.eye(8))) <= 0.01


@pytest.mark.parametrize("T", [256, 512, 1024])
def test_d8_gram_deviation_bounded_by_c_over_T(T):
    b = evaluate_basis("d8", 3, T)
    gram = b.B.T @ b.B / T
    assert np.max(np.abs(gram - np.eye(8))) <= 10.0 / T


def test_d8_scale_column_is_constant_one():
    # periodization of the scale function collapses to 1 (partition of unity)
    b = evaluate_basis("d8", 4, 640)
    assert np.max(np.abs(b.B[:, 0] - 1.0)) <= 1e-12


# ---------------------------------------------------------------- basis assembly


def test_column_index_ordering():
    b = evaluate_basis("haar", 3, 16)
    assert b.column_index == (
        (-1, 0),
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
        (2, 2),
        (2, 3),
    )


def test_basis_rejects_more_columns_than_points():
    with pytest.raises(ParameterError):
        evaluate_basis("haar", 4, 8)


def test_basis_rejects_unknown_family():
    # the family is taken as given: "haar" or "d8", as the CLI and grid files spell it
    for family in ("symlet", "HAAR"):
        with pytest.raises(ParameterError):
            evaluate_basis(family, 3, 64)


@pytest.mark.parametrize("family", ["haar", "d8"])
def test_basis_evaluation_is_deterministic(family):
    from tvload import wavelet as wv

    a = evaluate_basis(family, 4, 96)
    wv._cached_basis.cache_clear()  # the d8 cascade tables are built afresh with each basis
    b = evaluate_basis(family, 4, 96)
    assert b is not a
    assert np.array_equal(a.B, b.B)


@pytest.mark.parametrize("family", ["haar", "d8"])
def test_nesting_zero_padded_coefficients(family):
    # columns of the J-1 basis reappear unchanged inside the J basis
    T = 128
    coarse = evaluate_basis(family, 3, T)
    fine = evaluate_basis(family, 4, T)
    assert np.array_equal(fine.B[:, : 2**3], coarse.B)
    rng = np.random.default_rng(11)
    c = rng.normal(size=2**3)
    padded = np.concatenate([c, np.zeros(2**4 - 2**3)])
    assert_allclose(fine.B @ padded, coarse.B @ c, atol=0.0)


@pytest.mark.parametrize("family", ["haar", "d8"])
def test_least_squares_round_trip(family):
    # expansion -> curve -> least squares re-fit recovers the coefficients
    T = 256
    b = evaluate_basis(family, 4, T)
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.normal(size=b.n_columns)
        y = b.B @ c
        c_hat, *_ = np.linalg.lstsq(b.B, y, rcond=None)
        assert_allclose(c_hat, c, atol=1e-10)


def test_basis_is_cached_and_read_only():
    basis = evaluate_basis("d8", 3, 64)
    assert evaluate_basis(WaveletFamily.DAUBECHIES8, 3, 64) is basis
    assert evaluate_basis("haar", 3, 64) is not basis
    with pytest.raises(ValueError):
        basis.B[0, 0] = 1.0
