"""Tests for the rotation layer against independent exponential oracles."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

import exactspin.rotation
from exactspin import (
    HalfInt,
    RotationAngles,
    apply_rotation,
    brute_diagonalize,
    little_d,
    little_d_row,
    operator_matrix,
    rotated_basis_state,
    rotation_matrix,
)
from exactspin.cli import main
from exactspin.rotation import _d_rows, _finish_rows, _pivots, _t_bands
from exactspin.su2 import _ladder_coeffs_ascending, m_floats
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


@pytest.mark.parametrize("angle", [-1e-300, -5e-324])
def test_tiny_negative_angles_fold_to_zero(angle):
    # angle % 2pi rounds up to 2pi there, outside [0, 2pi); 0.0 is the nearest point
    assert RotationAngles(angle).theta == 0.0
    assert RotationAngles(0.3, angle).phi == 0.0
    assert np.array_equal(little_d(HalfInt(1), RotationAngles(angle).theta), np.eye(2))


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


def test_rotate_operator_preserves_spectrum():
    # rotated Jz at j=1 stays Hermitian with eigenvalues {-1, 0, 1}
    j = HalfInt(2)
    u = rotation_matrix(j, RotationAngles(0.3, 0.0))
    rotated = u.conj().T @ operator_matrix(j, "Jz") @ u
    assert np.max(np.abs(rotated - rotated.conj().T)) < 1e-12
    w, _ = brute_diagonalize(rotated)
    np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)


@pytest.mark.parametrize("twice_j", [4, 13, 24])
def test_rotation_spectrum_invariance(twice_j):
    j = HalfInt(twice_j)
    u = rotation_matrix(j, RotationAngles(1.9, 0.6))
    op = operator_matrix(j, "Jx") + 0.3 * operator_matrix(j, "Jz")
    w_before, _ = brute_diagonalize(op)
    w_after, _ = brute_diagonalize(u.conj().T @ op @ u)
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


def test_little_d_row_refuses_a_non_integer_index():
    # m = -0.5 is no eigenvalue of T, so a row 1.5 would be all nan
    for k in (1.5, np.float64(3.0), "2", None):
        with pytest.raises(ValueError):
            little_d_row(HalfInt(4), 1.0, k)
    d = little_d(HalfInt(4), 1.0)
    assert np.array_equal(little_d_row(HalfInt(4), 1.0, np.int64(3)), d[3])


def wigner_d_entry(twice_j, k, c, theta):
    """little_d(j, theta)[k, c] by Wigner's explicit sum in mpmath; shares no code with rotation.

    Here d(theta) = d_textbook(-theta), and with 2j = twice_j, j + m' = k and j + m = c
    d^j_{m'm}(beta) = sum_s (-1)^(m'-m+s) sqrt((j+m')! (j-m')! (j+m)! (j-m)!)
        / ((j+m-s)! s! (m'-m+s)! (j-m'-s)!) cos(beta/2)^(2j+m-m'-2s) sin(beta/2)^(m'-m+2s).
    The terms reach ~2^(2j) before they cancel, so the working precision grows
    with j.  Each term is the previous one times a ratio of small integers and
    -tan(beta/2)^2, which keeps a 700-digit entry at twice_j 2000 cheap.
    """
    fact = [1]
    for i in range(1, twice_j + 1):
        fact.append(fact[-1] * i)
    with mpmath.workdps(50 + twice_j // 3):
        half = -mpmath.mpf(theta) / 2
        cos_h, sin_h = mpmath.cos(half), mpmath.sin(half)
        first, last = max(0, c - k), min(c, twice_j - k)
        term = (cos_h ** (twice_j + c - k - 2 * first) * sin_h ** (k - c + 2 * first)
                / (fact[c - first] * fact[first] * fact[k - c + first] * fact[twice_j - k - first]))
        term = -term if (k - c + first) % 2 else term
        tan2 = (sin_h / cos_h) ** 2
        total = mpmath.mpf(0)
        for s in range(first, last + 1):
            total += term
            term *= -tan2 * ((c - s) * (twice_j - k - s)) / ((s + 1) * (k - c + s + 1))
        pre = mpmath.sqrt(fact[k] * fact[twice_j - k] * fact[c] * fact[twice_j - c])
        return float(pre * total)


@pytest.mark.parametrize("theta", [0.6, -1.3, math.pi, 4.0])
def test_wigner_reference_matches_spin_half_and_one_closed_forms(theta):
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    c, s = math.cos(theta), math.sin(theta)
    r = math.sqrt(2.0)
    closed = {1: [[ch, -sh], [sh, ch]],
              2: [[(1 + c) / 2, -s / r, (1 - c) / 2],
                  [s / r, c, -s / r],
                  [(1 - c) / 2, s / r, (1 + c) / 2]]}
    for twice_j, ref in closed.items():
        ref_wigner = [[wigner_d_entry(twice_j, k, col, theta) for col in range(twice_j + 1)]
                      for k in range(twice_j + 1)]
        np.testing.assert_allclose(ref_wigner, ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(little_d(HalfInt(twice_j), theta), ref, rtol=0, atol=1e-15)


def _sampled_entries(d, ks, rng):
    """For each row k: the largest entry, a neighbour of it and one random column."""
    last = d.shape[1] - 1
    for k in ks:
        peak = int(np.argmax(np.abs(d[k])))
        yield from ((k, peak), (k, min(peak + 3, last)), (k, int(rng.integers(0, last + 1))))


@pytest.mark.parametrize("twice_j,ks,thetas", [
    (200, range(0, 201, 25), BANDED_ROW_THETAS),
    (2000, (1, 1000, 1999), (0.3, math.pi, 6.2, -0.4)),
])
def test_little_d_matches_wigner_sum(twice_j, ks, thetas):
    # 9 entries per theta; at twice_j 2000 each is a 716-digit sum
    rng = np.random.default_rng(twice_j)
    for theta in thetas:
        d = little_d(HalfInt(twice_j), theta)
        for k, col in _sampled_entries(d, ks, rng):
            ref = wigner_d_entry(twice_j, k, col, theta)
            assert abs(d[k, col] - ref) <= 1e-13, (theta, k, col, d[k, col], ref)


@pytest.mark.parametrize("theta", [0.3, 2.9, 6.2])
def test_little_d_rows_are_accurate_eigenvectors_at_twice_j_2000(theta):
    # every row: ||T d_k - m_k d_k|| and D D^T = I to 1e-12 (the Jy-eigensystem route
    # this engine replaced reached row residuals of 1.9e-10 here)
    j = HalfInt(2000)
    d = little_d(j, theta)
    m = m_floats(j)
    off = math.sin(theta) * _ladder_coeffs_ascending(j) / 2.0
    td = math.cos(theta) * m * d
    td[:, :-1] += off * d[:, 1:]
    td[:, 1:] += off * d[:, :-1]
    assert np.max(np.linalg.norm(td - m[:, None] * d, axis=1)) <= 1e-12
    assert np.max(np.abs(d @ d.T - np.eye(2001))) <= 1e-12


@pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 201])
def test_one_row_and_all_rows_give_the_same_bits(twice_j):
    # one row runs the pivot recurrence on Python floats, several rows as array steps
    # (at theta = pi the first pivot of row 2j is exactly zero, so the pivmin rule runs)
    j = HalfInt(twice_j)
    for theta in (1e-9, 0.3, math.pi / 2, math.pi, 4.0, -0.4):
        d = little_d(j, theta)
        for k in range(twice_j + 1):
            assert np.array_equal(little_d_row(j, theta, k), d[k]), (theta, k)


@pytest.mark.parametrize("theta", [5e-324, -5e-324, 1e-320])
def test_subnormal_theta_gives_the_identity_rows(theta):
    # sin(theta)/2 underflows to zero at the smallest angles; d is then exactly I
    # there, and within 1e-300 of it just above
    for twice_j in (0, 1, 4, 9):
        eye = np.eye(twice_j + 1)
        np.testing.assert_allclose(little_d(HalfInt(twice_j), theta), eye, rtol=0, atol=1e-300)
        for k in range(twice_j + 1):
            np.testing.assert_allclose(little_d_row(HalfInt(twice_j), theta, k), eye[k],
                                       rtol=0, atol=1e-300)


@pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 201])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 0.5])
def test_row_blocks_give_the_same_bits(monkeypatch, twice_j, block_rows):
    # each row is finished on its own, so the block it lands in moves no bit; 3 rows
    # leave a partial last block at dims 2, 8, 41 and 202, and half a row's bytes still
    # make blocks of one row (at theta = pi the pivmin rule runs)
    j = HalfInt(twice_j)
    dim = twice_j + 1
    thetas = (0.3, 1.4, math.pi, 2.9, 6.2)
    picks = (np.arange(dim), np.arange(dim)[::-1], np.array([dim - 1, 0, dim // 2]))
    default = [[_d_rows(j, theta, ks) for ks in picks] for theta in thetas]
    monkeypatch.setattr(exactspin.rotation, "ROW_BLOCK_BYTES", int(8 * dim * block_rows))
    for theta, want in zip(thetas, default):
        for ks, rows in zip(picks, want):
            assert np.array_equal(_d_rows(j, theta, ks), rows), (theta, ks)
    for theta in (5e-324, -5e-324):
        assert np.array_equal(_d_rows(j, theta, picks[0]), np.eye(dim))


@pytest.mark.parametrize("command", ["little_d", "spectrum"])
def test_little_d_and_spectrum_peak_within_24_dim2_and_eight_blocks(tmp_path, command):
    # the pivots of every row (16 dim^2 bytes) and d itself (8 dim^2) are the floor;
    # the finishing pass and the residuals add a few blocks, not dim x dim temporaries
    twice_j = 1000
    dim = twice_j + 1
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", f"--j={twice_j}", "--A=0.1,1,0.01", "--theta=1.5", "--out", str(out)]
    main(["spectrum", "--j=4", "--A=0,1", "--theta=1.5", "--out", str(out)])  # warm-up
    tracemalloc.start()
    try:
        little_d(HalfInt(twice_j), 1.5) if command == "little_d" else main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = out.stat().st_size if command == "spectrum" else 0
    assert peak <= 24 * dim**2 + 8 * exactspin.rotation.ROW_BLOCK_BYTES + output


def _clamped_rows(j, theta):
    """Rows k whose forward pivots of T - m_k I hit the pivmin clamp, by the plain recurrence."""
    cm, off = _t_bands(j, theta)
    off2 = (off * off).tolist()
    pivmin = np.finfo(float).tiny * max([1.0, *off2])
    rows = []
    for k, mk in enumerate((np.arange(j.twice + 1) - j.twice / 2.0).tolist()):
        piv = 1.0
        for a, b2 in zip(cm.tolist(), [0.0, *off2]):
            piv = (a - mk) - b2 / piv
            if abs(piv) < pivmin:
                rows.append(k)
                break
    return rows


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2, 3 * math.pi / 2, 0.3, 1e-300,
                                   *np.random.default_rng(21).uniform(0, 2 * math.pi, 3)])
def test_rows_past_a_clamp_equal_the_direct_backward_pivots(theta):
    # row k's backward pivots mirror row 2j-k's forward pivots only up to that row's first
    # clamp; little_d_row runs them directly on Python floats, so every row must agree
    fired = 0
    for twice_j in range(1, 61):
        j = HalfInt(twice_j)
        clamped = _clamped_rows(j, theta)
        if not clamped:
            continue
        fired += 1
        d = little_d(j, theta)
        for k in range(twice_j + 1):
            assert np.array_equal(little_d_row(j, theta, k), d[k]), (twice_j, theta, k)
        # the clamped rows alone: some of their mirrors are not asked for
        assert np.array_equal(_d_rows(j, theta, np.array(clamped)), d[clamped]), twice_j
    assert fired >= 6


@pytest.mark.parametrize("theta", [1.5, 1e-200])
@pytest.mark.parametrize("command", ["little_d", "spectrum"])
def test_little_d_holds_16_dim2_and_spectrum_8_dim2(tmp_path, command, theta):
    # one forward pass holds 8 dim^2 bytes of pivots; little_d adds d itself, while
    # spectrum certifies each block of rows as it is finished and holds no d.  At
    # theta 1e-200 every b^2 underflows and every row's pivots clamp once
    twice_j = 1000
    dim = twice_j + 1
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", f"--j={twice_j}", "--A=0.1,1,0.01", f"--theta={theta}", "--out", str(out)]
    main(["spectrum", "--j=4", "--A=0,1", "--theta=1.5", "--out", str(out)])  # warm-up
    tracemalloc.start()
    try:
        little_d(HalfInt(twice_j), theta) if command == "little_d" else main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = 12 * exactspin.rotation.ROW_BLOCK_BYTES
    if command == "little_d":
        assert peak <= 16 * dim**2 + blocks
    else:
        assert peak <= 8 * dim**2 + blocks + out.stat().st_size


def _dlar1v_rows(j, theta):
    """little_d(j, theta) with each row's backward pivots run directly, as LAPACK's dlar1v
    does: -pivmin on both sides of a clamp, where little_d mirrors the forward pivots."""
    cm, off = _t_bands(j, theta)
    off2 = (off * off).tolist()
    pivmin = np.finfo(float).tiny * max([1.0, *off2])
    dim = j.twice + 1
    rows = np.empty((dim, dim))
    for k in range(dim):
        diag = (cm - (k - j.twice / 2.0)).tolist()
        f = np.array(_pivots(diag, off2, pivmin))
        back = np.array(_pivots(diag[::-1], off2[::-1], pivmin))
        want = (math.copysign(1.0, -math.sin(theta / 2.0)) ** (j.twice - k)
                * math.copysign(1.0, math.cos(theta / 2.0)) ** k)
        _finish_rows(f[:, None], -back[::-1, None], np.array(diag)[:, None], off,
                     np.array([want]), rows[k:k + 1])
    return rows


@pytest.mark.parametrize("theta", [math.pi / 2, 3 * math.pi / 2, math.pi / 3,
                                   2 * math.pi / 3, 1e-300])
def test_rows_past_a_clamp_lie_within_1e300_of_the_dlar1v_convention(theta):
    # past a clamp the mirrored backward pivots start from +pivmin, dlar1v's from -pivmin;
    # that moves only entries below the clamp scale.  A request of one or two pass
    # columns (k and 2j-k, or the middle row) runs on Python floats, bit for bit
    fired = 0
    for twice_j in range(1, 61):
        j = HalfInt(twice_j)
        if not _clamped_rows(j, theta):
            continue
        fired += 1
        d = little_d(j, theta)
        np.testing.assert_allclose(d, _dlar1v_rows(j, theta), rtol=0, atol=1e-300)
        assert np.max(np.abs(d @ d.T - np.eye(twice_j + 1))) <= 1e-13
        for k in range(twice_j // 2 + 1):
            pair = [k, twice_j - k]
            assert np.array_equal(_d_rows(j, theta, np.array(pair)), d[pair]), (twice_j, k)
        if twice_j % 2 == 0:
            mid = twice_j // 2
            assert np.array_equal(_d_rows(j, theta, np.array([mid])), d[[mid]]), twice_j
    assert fired >= 6
