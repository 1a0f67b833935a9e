"""Tests for Hamiltonian construction, the printed expansions, and the two-mode form."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactspin.rotation

from exactspin import (
    FockSector,
    HalfInt,
    ModelParams,
    RotationAngles,
    apply_hamiltonian,
    brute_diagonalize,
    diagonal_hamiltonian,
    energy_values,
    expand_rotated_jz,
    fock_hamiltonian,
    m_floats,
    model_hamiltonian,
    operator_matrix,
    paper_literal_h2,
    rate_relation,
    rotated_basis_state,
    two_mode_coefficients,
)
from exactspin.verify import series_expm


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(order=0, coeffs=(1.0,), angles=RotationAngles(0.1))
    with pytest.raises(ValueError):
        ModelParams(order=2, coeffs=(1.0, 2.0), angles=RotationAngles(0.1))
    with pytest.raises(ValueError):
        ModelParams(order=1, coeffs=(0.0, float("inf")), angles=RotationAngles(0.1))


def test_diagonal_hamiltonian_examples():
    p = ModelParams(order=1, coeffs=(0.0, 1.0), angles=RotationAngles(0.0))
    np.testing.assert_allclose(np.diag(diagonal_hamiltonian(p, HalfInt(1))).real,
                               [-0.5, 0.5], atol=1e-15)
    p2 = ModelParams.quadratic(1.0, 0.01, theta=0.0)
    h = diagonal_hamiltonian(p2, HalfInt(2))
    assert h[0, 0].real == pytest.approx(-0.99, abs=1e-15)  # m = -1


def test_diagonal_hamiltonian_extended_precision_oracle():
    # cubic at j=5/2 vs exact rational Horner evaluation
    p = ModelParams(order=3, coeffs=(0.5, 1.0, 2.0, 3.0), angles=RotationAngles(0.7))
    vals = energy_values(p, HalfInt(5))
    for k, twice_m in enumerate(range(-5, 6, 2)):
        m = Fraction(twice_m, 2)
        exact = Fraction(0)
        for a in reversed(p.coeffs):
            exact = exact * m + Fraction(a)
        assert vals[k] == pytest.approx(float(exact), rel=1e-14)


def test_model_hamiltonian_reduces_to_diagonal():
    p = ModelParams.quadratic(1.0, 0.01, theta=0.0, phi=0.0)
    j = HalfInt(7)
    assert np.array_equal(model_hamiltonian(p, j), diagonal_hamiltonian(p, j))


def test_model_hamiltonian_spectrum_matches_closed_form():
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.0)
    j = HalfInt(10)
    w, _ = brute_diagonalize(model_hamiltonian(p, j))
    np.testing.assert_allclose(w, np.sort(energy_values(p, j)), atol=1e-10)


def test_model_hamiltonian_half_spin_closed_form():
    # Derived 2x2 algebra: under U = e^{i phi Jz} e^{i theta Jy} the rotated Jz is
    # cos(theta) Jz + sin(theta) Jx for every phi (phi commutes through the
    # diagonal generator and only enters state preparation).
    j = HalfInt(1)
    for theta, phi in ((0.4, 0.0), (1.1, 0.8), (2.5, 4.0)):
        p = ModelParams(order=1, coeffs=(0.0, 1.3), angles=RotationAngles(theta, phi))
        expected = 1.3 * (math.cos(theta) * operator_matrix(j, "Jz")
                          + math.sin(theta) * operator_matrix(j, "Jx"))
        np.testing.assert_allclose(model_hamiltonian(p, j), expected, atol=1e-12)


def test_model_hamiltonian_hermitian_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        order = int(rng.integers(1, 5))
        p = ModelParams(order=order, coeffs=tuple(rng.uniform(-2, 2, order + 1)),
                        angles=RotationAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        h = model_hamiltonian(p, HalfInt(9))
        assert np.max(np.abs(h - h.conj().T)) < 1e-10


def test_model_hamiltonian_hermitian_at_scale_spot_entries():
    # j = 1000: check <e_a|H|e_b> = conj(<e_b|H|e_a>) through the matrix-free path
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(2000)
    cols = {}
    for b in (0, 700, 1403, 2000):
        e = np.zeros(2001, dtype=complex)
        e[b] = 1.0
        cols[b] = apply_hamiltonian(p, j, e)
    scale = float(np.max(np.abs(energy_values(p, j))))
    for a in cols:
        for b in cols:
            assert abs(cols[b][a] - np.conj(cols[a][b])) < 1e-10 * scale


def test_apply_hamiltonian_matches_dense():
    p = ModelParams(order=3, coeffs=(0.2, -1.0, 0.4, 0.05),
                    angles=RotationAngles(0.9, 1.7))
    j = HalfInt(16)
    # an independent dense H: d^T diag(E) d from little-d, not p(T)
    d = exactspin.rotation.little_d(j, p.angles.theta)
    h = d.T @ (energy_values(p, j)[:, None] * d)
    rng = np.random.default_rng(3)
    v = rng.normal(size=17) + 1j * rng.normal(size=17)
    np.testing.assert_allclose(apply_hamiltonian(p, j, v), h @ v, atol=1e-10)
    # stationary case
    e0 = np.zeros(17, dtype=complex)
    e0[4] = 1.0
    p0 = ModelParams(order=3, coeffs=(0.2, -1.0, 0.4, 0.05), angles=RotationAngles(0.0))
    np.testing.assert_allclose(apply_hamiltonian(p0, j, e0),
                               energy_values(p0, j)[4] * e0, atol=1e-13)
    with pytest.raises(ValueError):
        apply_hamiltonian(p, j, np.ones(5, dtype=complex))


def test_apply_hamiltonian_large_j_residual():
    # never forms H densely; residual against the closed-form eigenvector
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(2000)
    vec = rotated_basis_state(j, p.angles, HalfInt(1134))
    energy = energy_values(p, j)[(1134 + 2000) // 2]
    resid = np.linalg.norm(apply_hamiltonian(p, j, vec) - energy * vec)
    scale = float(np.max(np.abs(energy_values(p, j))))
    assert resid < 1e-8 * scale


def test_expand_rotated_jz():
    j = HalfInt(6)
    ex0 = expand_rotated_jz(j, RotationAngles(0.0, 0.0))
    assert ex0.coeff_jz == pytest.approx(1.0, abs=1e-12)
    assert abs(ex0.coeff_plus) < 1e-12 and abs(ex0.coeff_minus) < 1e-12

    ex90 = expand_rotated_jz(j, RotationAngles(math.pi / 2, 0.0))
    assert abs(ex90.coeff_jz) < 1e-12
    assert abs(ex90.coeff_plus) == pytest.approx(0.5, abs=1e-12)
    assert abs(ex90.coeff_minus) == pytest.approx(0.5, abs=1e-12)

    ex = expand_rotated_jz(j, RotationAngles(0.7, 1.3))
    assert ex.residual < 1e-10
    assert ex.coeff_jz.real == pytest.approx(math.cos(0.7), abs=1e-12)
    assert ex.coeff_plus.real == pytest.approx(math.sin(0.7) / 2, abs=1e-12)


def test_paper_literal_h2_vanishes_at_theta_zero():
    p = ModelParams.quadratic(1.2, 0.3, theta=0.0, phi=0.0)
    result = paper_literal_h2(p, HalfInt(5))
    assert result.max_abs_diff < 1e-12


def test_paper_literal_h2_measures_transverse_factor():
    # pure linear model at theta=pi/4: printed transverse term is twice the exact one
    p = ModelParams.quadratic(1.0, 0.0, theta=math.pi / 4, phi=0.0)
    j = HalfInt(1)
    printed = paper_literal_h2(p, j).matrix
    exact = model_hamiltonian(p, j)
    ratio = abs(printed[1, 0]) / abs(exact[1, 0])
    assert ratio == pytest.approx(2.0, abs=1e-12)
    assert paper_literal_h2(p, j).max_abs_diff > 0.1


def test_paper_literal_h2_generic_reports_difference():
    p = ModelParams.quadratic(0.7, 0.2, theta=1.1, phi=0.5)
    result = paper_literal_h2(p, HalfInt(6))
    assert result.matrix.shape == (7, 7)
    assert np.max(np.abs(result.matrix - result.matrix.conj().T)) < 1e-12
    assert result.max_abs_diff > 0.0  # measured, not asserted away
    with pytest.raises(ValueError):
        paper_literal_h2(ModelParams(order=1, coeffs=(0, 1.0), angles=RotationAngles(1.0)),
                         HalfInt(4))


def test_two_mode_coefficients_endpoints():
    p0 = ModelParams.quadratic(1.0, 0.01, theta=0.0)
    c0 = two_mode_coefficients(p0, 4)
    assert c0.detuning == pytest.approx(1.0, abs=1e-15)
    assert c0.josephson == pytest.approx(0.0, abs=1e-15)
    assert c0.elastic == pytest.approx(-0.02, abs=1e-15)
    assert c0.inelastic_single == pytest.approx(0.0, abs=1e-15)
    assert c0.inelastic_pair == pytest.approx(0.0, abs=1e-15)

    p90 = ModelParams.quadratic(1.0, 0.01, theta=math.pi / 2)
    c90 = two_mode_coefficients(p90, 4)
    assert c90.detuning == pytest.approx(0.0, abs=1e-15)
    assert c90.josephson == pytest.approx(1.0, abs=1e-15)
    assert c90.elastic == pytest.approx(0.01, abs=1e-13)
    assert c90.inelastic_single == pytest.approx(0.0, abs=1e-15)
    assert c90.inelastic_pair == pytest.approx(0.01, abs=1e-13)


def test_two_mode_coefficients_extended_precision():
    p = ModelParams.quadratic(2.0, 0.3, theta=1.0)
    n = 7
    c = two_mode_coefficients(p, n)
    with mpmath.workdps(40):
        th = mpmath.mpf(1.0)
        ct, st = mpmath.cos(th), mpmath.sin(th)
        a1, a2 = mpmath.mpf(2.0), mpmath.mpf(0.3)
        assert c.offset == pytest.approx(float(a2 * (ct**2 * n**2 + st**2 * n)), rel=1e-14)
        assert c.detuning == pytest.approx(float(a1 * ct), rel=1e-14)
        assert c.josephson == pytest.approx(float(a1 * st), rel=1e-14)
        assert c.elastic == pytest.approx(float(a2 * (1 - 3 * ct**2)), rel=1e-13)
        assert c.inelastic_single == pytest.approx(float(2 * a2 * ct * st), rel=1e-14)
        assert c.inelastic_pair == pytest.approx(float(a2 * st**2), rel=1e-14)


def test_two_mode_coefficient_identities():
    # lambda^2 + delta_omega^2 = A1^2 and 2*pi periodicity in theta
    rng = np.random.default_rng(17)
    for _ in range(20):
        a1, a2 = rng.uniform(-2, 2, 2)
        theta = rng.uniform(0, 2 * math.pi)
        c = two_mode_coefficients(ModelParams.quadratic(a1, a2, theta), 5)
        assert c.josephson**2 + c.detuning**2 == pytest.approx(a1**2, abs=1e-12)
        c2 = two_mode_coefficients(ModelParams.quadratic(a1, a2, theta + 2 * math.pi), 5)
        assert c.detuning == pytest.approx(c2.detuning, abs=1e-12)
        assert c.inelastic_single == pytest.approx(c2.inelastic_single, abs=1e-12)


def test_fock_sector_identification():
    sector = FockSector(5)
    assert sector.dim == 6
    assert sector.j == HalfInt(5)
    with pytest.raises(ValueError):
        FockSector(-1)


def test_fock_hamiltonian_offset_only():
    coeffs = two_mode_coefficients(ModelParams.quadratic(0.0, 1.0, theta=0.0), 4)
    # theta=0 kills everything except offset and elastic; zero those by hand
    from exactspin import TwoModeCoefficients
    pure = TwoModeCoefficients(offset=2.5, detuning=0, josephson=0, elastic=0,
                               inelastic_single=0, inelastic_pair=0)
    h = fock_hamiltonian(pure, FockSector(4))
    np.testing.assert_allclose(h, 2.5 * np.eye(5), atol=0.0)
    assert coeffs.offset == pytest.approx(16.0, abs=1e-13)


def test_fock_hamiltonian_single_particle_sector():
    from exactspin import TwoModeCoefficients
    lam = 0.8
    phi = 0.6
    pure = TwoModeCoefficients(offset=0, detuning=0, josephson=lam, elastic=0,
                               inelastic_single=0, inelastic_pair=0)
    h = fock_hamiltonian(pure, FockSector(1), phi=phi)
    # couples |n_a=0, n_b=1> and |n_a=1, n_b=0>
    assert h[1, 0] == pytest.approx(lam * np.exp(1j * phi), abs=1e-14)
    assert h[0, 1] == pytest.approx(lam * np.exp(-1j * phi), abs=1e-14)
    assert h[0, 0] == 0.0 and h[1, 1] == 0.0
    with pytest.raises(ValueError):
        fock_hamiltonian(pure, FockSector(1), convention="bogus")


def test_fock_vs_model_spectral_deviation_recorded():
    # the printed two-mode build deviates from the rotated diagonal in a
    # structured way; record the deviation and sanity-check both conventions
    n = 6
    p = ModelParams.quadratic(1.0, 0.3, theta=1.1, phi=0.7)
    coeffs = two_mode_coefficients(p, n)
    sector = FockSector(n)
    h_std = fock_hamiltonian(coeffs, sector, "standard", phi=0.7)
    h_lit = fock_hamiltonian(coeffs, sector, "paper_literal", phi=0.7)
    h_model = model_hamiltonian(p, sector.j)
    assert np.max(np.abs(h_std - h_std.conj().T)) < 1e-12
    w_std, _ = brute_diagonalize(h_std)
    w_model, _ = brute_diagonalize(h_model)
    deviation = float(np.max(np.abs(w_std - w_model)))
    assert deviation > 0.0  # structured, nonzero; the number itself is the record
    # the literal convention differs from standard by exactly one detuning unit of Jz
    m = m_floats(sector.j)
    np.testing.assert_allclose(h_lit - h_std, coeffs.detuning * np.diag(m), atol=1e-12)


def test_rate_relation_limits_and_ratio():
    # theta -> 0+: both sides vanish
    lhs, rhs = rate_relation(ModelParams.quadratic(1.0, 0.01, theta=1e-6))
    assert abs(lhs) < 3e-6 and abs(rhs) < 3e-6
    # generic point: both sides finite, ratio exactly the derived constant 2
    lhs, rhs = rate_relation(ModelParams.quadratic(1.0, 0.01, theta=1.0))
    assert lhs / rhs == pytest.approx(2.0, rel=1e-12)


def test_rate_relation_theta_sweep_constant():
    ratios = []
    for theta in np.linspace(0.1, 3.0, 20):
        lhs, rhs = rate_relation(ModelParams.quadratic(1.3, 0.4, float(theta), 0.2))
        ratios.append(lhs / rhs)
    ratios = np.array(ratios)
    assert np.std(ratios) / abs(np.mean(ratios)) < 1e-12
    assert np.mean(ratios) == pytest.approx(2.0, rel=1e-12)


def test_rate_relation_domain_errors():
    with pytest.raises(ZeroDivisionError, match="elastic"):
        rate_relation(ModelParams.quadratic(1.0, 0.0, theta=1.0))
    with pytest.raises(ZeroDivisionError, match="elastic"):
        rate_relation(ModelParams.quadratic(1.0, 0.5, theta=math.acos(1 / math.sqrt(3))))
    with pytest.raises(ZeroDivisionError, match="rhs"):
        rate_relation(ModelParams.quadratic(0.0, 0.5, theta=1.0))
    with pytest.raises(ValueError):
        rate_relation(ModelParams(order=1, coeffs=(0, 1.0), angles=RotationAngles(1.0)))


def test_apply_hamiltonian_on_a_block_is_columnwise():
    p = ModelParams(order=3, coeffs=(0.2, -1.0, 0.4, 0.05), angles=RotationAngles(0.9, 1.7))
    j = HalfInt(16)
    rng = np.random.default_rng(5)
    block = rng.normal(size=(17, 4)) + 1j * rng.normal(size=(17, 4))
    hv = apply_hamiltonian(p, j, block)
    assert hv.shape == (17, 4)
    for col in range(4):
        assert np.array_equal(hv[:, col], apply_hamiltonian(p, j, block[:, col]))
    for bad in (np.ones((16, 4)), np.ones((4, 17)), np.ones((17, 2, 2))):
        with pytest.raises(ValueError):
            apply_hamiltonian(p, j, bad)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_apply_hamiltonian_real_input_stays_real(order):
    # every multiplier is real, so the real path is the real part of the complex one
    coeffs = (0.3, -1.1, 0.4, 0.07, -0.02)[:order + 1]
    p = ModelParams(order=order, coeffs=coeffs, angles=RotationAngles(1.3, 0.6))
    j = HalfInt(21)
    rng = np.random.default_rng(order)
    for real in (rng.normal(size=22), rng.normal(size=(22, 5))):
        hv = apply_hamiltonian(p, j, real)
        assert hv.dtype == np.float64 and hv.shape == real.shape
        assert np.array_equal(hv, apply_hamiltonian(p, j, real.astype(complex)).real)


MAGIC_ANGLE = 0.9553  # arccos(1/sqrt(3)) to four places
THETAS = st.one_of(
    st.floats(-1e-3, 1e-3),
    st.floats(math.pi - 1e-3, math.pi + 1e-3),
    st.sampled_from([0.0, math.pi, math.pi / 2, MAGIC_ANGLE, math.acos(1 / math.sqrt(3))]),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 4), twice_j=st.integers(1, 25), theta=THETAS,
       phi=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_model_hamiltonian_matches_series_rotated_diagonal(order, twice_j, theta, phi, data):
    # the p(T) build against U† diag(E) U with U from two scaled Taylor exponentials,
    # so no little-d, rotation or Horner code is involved on the reference side; the
    # reference's own error reaches ~3e-13 of ||H|| at twice_j 25 (the squarings of a
    # norm-80 exponent), so the tolerance has a margin of three
    coeffs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=order + 1, max_size=order + 1))
    p = ModelParams(order=order, coeffs=tuple(coeffs), angles=RotationAngles(theta, phi))
    j = HalfInt(twice_j)
    u = (series_expm(1j * p.angles.phi * operator_matrix(j, "Jz"))
         @ series_expm(1j * p.angles.theta * operator_matrix(j, "Jy")))
    ref = u.conj().T @ np.diag(energy_values(p, j)) @ u
    h = model_hamiltonian(p, j)
    assert h.dtype == complex
    tol = 1e-12 * max(1.0, float(np.linalg.norm(h, np.inf)))
    assert np.max(np.abs(h - ref)) <= tol


@pytest.mark.parametrize("twice_j", [0, 1, 6, 13])
def test_model_hamiltonian_columns_are_apply_hamiltonian_bitwise(twice_j):
    j = HalfInt(twice_j)
    for p in (ModelParams(order=4, coeffs=(0.3, -1.1, 0.4, 0.07, -0.02),
                          angles=RotationAngles(1.3, 0.6)),
              ModelParams.quadratic(1.0, 0.01, theta=math.pi, phi=2.0)):
        h = model_hamiltonian(p, j)
        for b, e_b in enumerate(np.eye(twice_j + 1)):
            assert np.array_equal(h[:, b], apply_hamiltonian(p, j, e_b))
            assert np.array_equal(h[:, b], apply_hamiltonian(p, j, e_b.astype(complex)))


def test_model_hamiltonian_never_reaches_the_rotation_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("model_hamiltonian built a row of little-d")

    monkeypatch.setattr(exactspin.rotation, "_d_rows", refuse)
    with pytest.raises(AssertionError):
        exactspin.rotation.little_d(HalfInt(3), 0.4)  # the patch is live
    for twice_j in (1, 2, 20):
        p = ModelParams(order=3, coeffs=(0.5, 1.0, 2.0, 3.0), angles=RotationAngles(1.2, 0.8))
        assert model_hamiltonian(p, HalfInt(twice_j)).shape == (twice_j + 1,) * 2
