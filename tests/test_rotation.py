"""Tests for the rotation layer against independent exponential oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from exactspin import (
    HalfInt,
    RotationAngles,
    apply_rotation,
    brute_diagonalize,
    little_d,
    little_d_row,
    operator_matrix,
    rotate_operator,
    rotated_basis_state,
    rotation_matrix,
)
from exactspin.verify import series_expm


def taylor_expm(a, terms=80):
    """Plain truncated Taylor series, summed to machine convergence."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for i in range(1, terms):
        term = term @ a / i
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def test_angles_canonicalized():
    ang = RotationAngles(2 * math.pi + 0.25, -0.5)
    assert ang.theta == pytest.approx(0.25, abs=1e-12)
    assert ang.phi == pytest.approx(2 * math.pi - 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        RotationAngles(float("nan"), 0.0)


def test_little_d_identity_at_zero():
    for twice_j in (0, 1, 2, 9, 40):
        assert np.array_equal(little_d(HalfInt(twice_j), 0.0), np.eye(twice_j + 1))


def test_little_d_half_spin_closed_form():
    # Sign convention fixed against the direct exponential of +i*theta*Jy:
    # in the ascending-m basis d = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]
    theta = 0.6
    d = little_d(HalfInt(1), theta)
    ref = taylor_expm(1j * theta * operator_matrix(HalfInt(1), "Jy")).real
    np.testing.assert_allclose(d, ref, atol=1e-14)
    half = theta / 2.0
    expected = np.array([[math.cos(half), -math.sin(half)],
                         [math.sin(half), math.cos(half)]])
    np.testing.assert_allclose(d, expected, atol=1e-14)


def test_little_d_series_oracle_spin_one():
    theta = math.pi / 3.0
    d = little_d(HalfInt(2), theta)
    ref = taylor_expm(1j * theta * operator_matrix(HalfInt(2), "Jy"))
    assert np.max(np.abs(d - ref)) < 1e-12


@pytest.mark.parametrize("twice_j,theta", [(1, 0.3), (2, 1.1), (5, 2.7), (12, 0.9), (25, 1.8)])
def test_little_d_matches_scaled_series_and_scipy(twice_j, theta):
    d = little_d(HalfInt(twice_j), theta)
    gen = 1j * theta * operator_matrix(HalfInt(twice_j), "Jy")
    np.testing.assert_allclose(d, series_expm(gen), atol=1e-9)
    np.testing.assert_allclose(d, scipy.linalg.expm(gen), atol=1e-9)


@pytest.mark.parametrize("twice_j", [1, 2, 8, 25, 50])
def test_little_d_orthogonal_rows_columns(twice_j):
    d = little_d(HalfInt(twice_j), 1.234)
    eye = np.eye(twice_j + 1)
    assert np.max(np.abs(d @ d.T - eye)) < 1e-10
    np.testing.assert_allclose(np.sum(d**2, axis=0), np.ones(twice_j + 1), atol=1e-10)
    np.testing.assert_allclose(np.sum(d**2, axis=1), np.ones(twice_j + 1), atol=1e-10)


@pytest.mark.parametrize("twice_j", [1, 2, 9, 24, 50])
def test_little_d_composition(twice_j):
    t1, t2 = 0.83, 1.91
    lhs = little_d(HalfInt(twice_j), t1) @ little_d(HalfInt(twice_j), t2)
    rhs = little_d(HalfInt(twice_j), t1 + t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_little_d_row_matches_matrix():
    j = HalfInt(15)
    d = little_d(j, 0.77)
    for k in (0, 7, 15):
        np.testing.assert_allclose(little_d_row(j, 0.77, k), d[k], atol=1e-13)


def test_little_d_large_dimension_orthogonality():
    # stability at dim 2001: per-entry unitarity within 1e-8
    j = HalfInt(2000)
    d = little_d(j, 1.5)
    err = np.max(np.abs(d @ d.T - np.eye(2001)))
    assert err < 1e-8
    # full rotation with a z-phase: sample 60 columns of U†U against identity
    u = rotation_matrix(j, RotationAngles(1.5, 0.8))
    cols = np.arange(0, 2001, 34)
    prod = u.conj().T @ u[:, cols]
    expected = np.eye(2001)[:, cols]
    assert np.max(np.abs(prod - expected)) < 1e-8


def test_rotation_matrix_identity_and_unitary():
    j = HalfInt(3)
    np.testing.assert_allclose(rotation_matrix(j, RotationAngles(0.0, 0.0)),
                               np.eye(4), atol=1e-14)
    u = rotation_matrix(j, RotationAngles(0.7, 1.1))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_rotation_matrix_matches_series_product():
    j = HalfInt(4)
    theta, phi = 0.4, 0.9
    u = rotation_matrix(j, RotationAngles(theta, phi))
    ref = series_expm(1j * phi * operator_matrix(j, "Jz")) @ series_expm(
        1j * theta * operator_matrix(j, "Jy"))
    assert np.max(np.abs(u - ref)) < 1e-9


def test_rotated_basis_state_trivial_and_flip():
    j = HalfInt(5)
    for twice_m in (-5, -1, 3):
        vec = rotated_basis_state(j, RotationAngles(0.0, 0.0), HalfInt(twice_m))
        expected = np.zeros(6)
        expected[(twice_m + 5) // 2] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-13)
    # theta = pi on j=1/2 sends m=+1/2 to m=-1/2 up to phase
    vec = rotated_basis_state(HalfInt(1), RotationAngles(math.pi, 0.0), HalfInt(1))
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(vec[1]) < 1e-12


def test_rotated_basis_state_dense_overlap():
    j = HalfInt(20)
    ang = RotationAngles(1.2, 0.0)
    vec = rotated_basis_state(j, ang, HalfInt(20))
    u = rotation_matrix(j, ang)
    dense = u.conj().T[:, 20]
    assert abs(np.vdot(dense, vec)) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rotated_basis_state(j, ang, HalfInt(21))


def test_apply_rotation_matches_dense():
    j = HalfInt(9)
    ang = RotationAngles(0.9, 2.2)
    u = rotation_matrix(j, ang)
    rng = np.random.default_rng(5)
    v = rng.normal(size=10) + 1j * rng.normal(size=10)
    np.testing.assert_allclose(apply_rotation(j, ang, v), u @ v, atol=1e-12)
    np.testing.assert_allclose(apply_rotation(j, ang, v, dagger=True),
                               u.conj().T @ v, atol=1e-12)


def test_rotate_operator_identity_cases():
    j = HalfInt(2)
    op = operator_matrix(j, "Jx")
    eye = np.eye(3, dtype=complex)
    np.testing.assert_allclose(rotate_operator(eye, op), op, atol=0.0)
    u = rotation_matrix(j, RotationAngles(0.5, 0.3))
    np.testing.assert_allclose(rotate_operator(u, eye), eye, atol=1e-12)
    with pytest.raises(ValueError):
        rotate_operator(u, np.eye(5))


def test_rotate_operator_preserves_spectrum():
    # rotated Jz at j=1 stays Hermitian with eigenvalues {-1, 0, 1}
    j = HalfInt(2)
    u = rotation_matrix(j, RotationAngles(0.3, 0.0))
    rotated = rotate_operator(u, operator_matrix(j, "Jz"))
    assert np.max(np.abs(rotated - rotated.conj().T)) < 1e-12
    w, _ = brute_diagonalize(rotated)
    np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)


@pytest.mark.parametrize("twice_j", [4, 13, 24])
def test_rotation_spectrum_invariance(twice_j):
    j = HalfInt(twice_j)
    u = rotation_matrix(j, RotationAngles(1.9, 0.6))
    op = operator_matrix(j, "Jx") + 0.3 * operator_matrix(j, "Jz")
    w_before, _ = brute_diagonalize(op)
    w_after, _ = brute_diagonalize(rotate_operator(u, op))
    np.testing.assert_allclose(w_before, w_after, atol=1e-9)


BANDED_ROW_THETAS = (1e-9, 0.3, 1.5, math.pi / 2, 2.9, math.pi - 1e-7, math.pi,
                     math.pi + 1e-7, 4.0, 6.2, -0.4)


def _tridiagonal_residual(j, theta, k, v):
    """||T v - m_k v|| for T = cos(theta) Jz + sin(theta) Jx, applied from its bands."""
    m = np.arange(-j.twice, j.twice + 1, 2) / 2.0
    jval = j.twice / 2.0
    off = math.sin(theta) * np.sqrt(jval * (jval + 1.0) - m[:-1] * (m[:-1] + 1.0)) / 2.0
    tv = math.cos(theta) * m * v
    tv[:-1] += off * v[1:]
    tv[1:] += off * v[:-1]
    return np.linalg.norm(tv - m[k] * v)


@pytest.mark.parametrize("twice_j", [0, 1, 2, 3, 8, 41])
def test_banded_little_d_row_equals_every_signed_row(twice_j):
    j = HalfInt(twice_j)
    for k in range(twice_j + 1):
        row = little_d_row(j, 0.0, k)
        assert np.array_equal(row, np.eye(twice_j + 1)[k])
    for theta in BANDED_ROW_THETAS:
        d = little_d(j, theta)
        for k in range(twice_j + 1):
            np.testing.assert_allclose(little_d_row(j, theta, k), d[k], rtol=0, atol=1e-13)


@pytest.mark.parametrize("twice_j,ks", [(200, range(0, 201, 9)),
                                        (2000, (0, 1, 2, 700, 1000, 1333, 1999, 2000))])
def test_banded_little_d_row_matches_sampled_signed_rows(twice_j, ks):
    j = HalfInt(twice_j)
    thetas = BANDED_ROW_THETAS if twice_j == 200 else (0.3, math.pi, 6.2, -0.4)
    for theta in thetas:
        d = little_d(j, theta)
        for k in ks:
            np.testing.assert_allclose(little_d_row(j, theta, k), d[k], rtol=0, atol=1e-13)


def test_banded_little_d_row_at_the_size_cap():
    # twice_j 8191: no dense d to compare with, so the row is checked as an eigenvector
    j = HalfInt(8191)
    for theta in (0.3, 1.5, math.pi, 4.0):
        for k in (0, 1, 2048, 4095, 4096, 8190, 8191):
            v = little_d_row(j, theta, k)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
            assert _tridiagonal_residual(j, theta, k, v) <= 1e-12 * 8191 / 2


def test_banded_little_d_row_rejects_bad_index():
    for k in (-1, 6):
        with pytest.raises(ValueError):
            little_d_row(HalfInt(5), 0.7, k)
