"""Tests for the angular momentum operator layer."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from exactspin import (
    HalfInt,
    as_halfint,
    commutator,
    dicke_index,
    is_hermitian,
    little_d,
    m_floats,
    operator_matrix,
    validate_jm,
)
from exactspin.su2 import _ladder_coeffs_ascending


def test_halfint_basics():
    j = HalfInt(3)  # j = 3/2
    assert j.value == 1.5
    assert not j.is_integer
    assert HalfInt.from_value(0.5) == HalfInt(1)
    assert HalfInt.from_value(2) == HalfInt(4)
    assert -HalfInt(3) == HalfInt(-3)
    assert (HalfInt(1) + HalfInt(1)).twice == 2
    with pytest.raises(ValueError):
        HalfInt.from_value(0.3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_halfint_refuses_non_finite_values(value):
    # int(inf) raises OverflowError and int(nan) a ValueError of its own; both must be
    # the ValueError that names the value
    with pytest.raises(ValueError, match="not an integer or half-integer"):
        as_halfint(value)
    with pytest.raises(ValueError, match="not an integer or half-integer"):
        little_d(value, 1.0)


@pytest.mark.parametrize("value", ["aa", b"ab", [1], None])
def test_halfint_refuses_a_non_number_naming_it_as_passed(value):
    # 2 * "aa" is "aaaa": the type is checked before the value is doubled
    with pytest.raises(ValueError, match=re.escape(f"{value!r} is not an integer or half-integer")):
        as_halfint(value)


@pytest.mark.parametrize("value", [3, 1.5, np.int64(3), np.float64(1.5), np.float32(1.5),
                                   Fraction(3, 2)])
def test_halfint_takes_every_kind_of_number(value):
    assert as_halfint(value) == HalfInt(int(2 * value))


def test_m_values_dimension_and_order():
    ms = m_floats(HalfInt(5))  # j = 5/2
    assert ms.tolist() == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    assert dicke_index(HalfInt(5), HalfInt(-5)) == 0
    assert dicke_index(HalfInt(5), HalfInt(5)) == 5


def test_validate_jm_rejects_bad_pairs():
    with pytest.raises(ValueError):
        validate_jm(HalfInt(2), HalfInt(1))  # parity mismatch: j=1, m=1/2
    with pytest.raises(ValueError):
        validate_jm(HalfInt(2), HalfInt(4))  # out of range: j=1, m=2
    with pytest.raises(ValueError):
        validate_jm(HalfInt(-1), HalfInt(1))


def test_ladder_coeff_examples():
    # Pauli algebra: raising from the bottom of j=1/2
    assert _ladder_coeffs_ascending(HalfInt(1)).tolist() == pytest.approx([1.0], abs=1e-15)
    # standard spin-1 elements, m=-1 -> 0 and m=0 -> 1
    assert _ladder_coeffs_ascending(HalfInt(2)).tolist() == pytest.approx([math.sqrt(2)] * 2,
                                                                          abs=1e-15)


def test_ladder_coeff_large_j_extended_precision():
    # j=1000, m=999, raise -> sqrt(2000); compare against 50-digit arithmetic
    got = _ladder_coeffs_ascending(HalfInt(2000))[1999]
    with mpmath.workdps(50):
        want = mpmath.sqrt(mpmath.mpf(1000) * 1001 - mpmath.mpf(999) * 1000)
        assert abs(got - float(want)) <= 1e-12 * float(want)


def test_operator_matrix_jz_diagonal():
    jz = operator_matrix(HalfInt(1), "Jz")
    np.testing.assert_allclose(np.diag(jz).real, [-0.5, 0.5], atol=1e-15)
    assert np.max(np.abs(jz - np.diag(np.diag(jz)))) == 0.0


def test_operator_matrix_jplus_band():
    jp = operator_matrix(HalfInt(2), "Jplus")
    expected = np.zeros((3, 3))
    expected[1, 0] = math.sqrt(2)  # m=-1 -> m=0
    expected[2, 1] = math.sqrt(2)  # m=0 -> m=1
    np.testing.assert_allclose(jp, expected, atol=1e-15)


@pytest.mark.parametrize("twice_j", [1, 2, 3, 7, 15, 50])
def test_su2_algebra(twice_j):
    j = HalfInt(twice_j)
    jz = operator_matrix(j, "Jz")
    jp = operator_matrix(j, "Jplus")
    jm = operator_matrix(j, "Jminus")
    jx = operator_matrix(j, "Jx")
    jy = operator_matrix(j, "Jy")
    eye = np.eye(twice_j + 1)
    np.testing.assert_allclose(commutator(jz, jp), jp, atol=1e-10)
    np.testing.assert_allclose(commutator(jz, jm), -jm, atol=1e-10)
    np.testing.assert_allclose(commutator(jp, jm), 2 * jz, atol=1e-10)
    casimir = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(casimir, (twice_j * (twice_j + 2) / 4.0) * eye, atol=1e-10)


@pytest.mark.parametrize("twice_j", [1, 4, 11])
def test_ladder_operators_exactly_banded(twice_j):
    for kind, offset in (("Jplus", -1), ("Jminus", 1)):
        mat = operator_matrix(HalfInt(twice_j), kind)
        off_band = mat - np.diag(np.diag(mat, offset), offset)
        assert np.max(np.abs(off_band)) == 0.0


def test_hermiticity_flags():
    j = HalfInt(7)
    for kind in ("Jz", "Jx", "Jy"):
        assert is_hermitian(operator_matrix(j, kind))
    assert not is_hermitian(operator_matrix(j, "Jplus"))


def test_hermiticity_is_relative_to_each_matrix():
    # no absolute floor: a tiny nilpotent matrix is as far from Hermitian as a big one
    tiny = 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_hermitian(tiny)
    assert is_hermitian(np.zeros((2, 2)))
    # a stack is Hermitian only if every member is, each against its own magnitude
    jx = operator_matrix(HalfInt(1), "Jx")
    assert is_hermitian(np.stack([jx, 1e6 * jx]))
    assert not is_hermitian(np.stack([1e6 * jx, tiny]))


def test_commutator_identity_and_errors():
    j = HalfInt(3)
    a = operator_matrix(j, "Jx")
    np.testing.assert_allclose(commutator(a, a), np.zeros_like(a), atol=0.0)
    with pytest.raises(ValueError):
        commutator(a, np.eye(2))
