"""Tests for population distributions and peak counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactspin import (
    HalfInt,
    ModelParams,
    PopulationDistribution,
    RotationAngles,
    count_peaks,
    dicke_distribution,
    ground_distribution,
    little_d,
    rotated_basis_state,
)


def test_dicke_distribution_indicator_and_uniform():
    psi = np.zeros(7, dtype=complex)
    psi[3] = 1.0
    dist = dicke_distribution(psi)
    assert dist.j == HalfInt(6)
    expected = np.zeros(7)
    expected[3] = 1.0
    np.testing.assert_allclose(dist.probs, expected, atol=0.0)

    uniform = np.ones(8, dtype=complex) / math.sqrt(8)
    np.testing.assert_allclose(dicke_distribution(uniform).probs, 1 / 8, atol=1e-14)


def test_dicke_distribution_rotated_state_matches_d_column():
    # |U+|j,m0>|^2 equals the squared little-d column by the row/column symmetry
    j = HalfInt(12)
    theta = 1.1
    k0 = 9
    vec = rotated_basis_state(j, RotationAngles(theta, 0.7), HalfInt(-12 + 2 * k0))
    dist = dicke_distribution(vec)
    d = little_d(j, theta)
    np.testing.assert_allclose(dist.probs, d[:, k0] ** 2, atol=1e-12)
    np.testing.assert_allclose(dist.probs, d[k0, :] ** 2, atol=1e-12)


def test_population_distribution_validation():
    with pytest.raises(ValueError):
        PopulationDistribution(HalfInt(2), np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        PopulationDistribution(HalfInt(1), np.array([0.9, 0.2]))  # sum != 1
    with pytest.raises(ValueError):
        PopulationDistribution(HalfInt(1), np.array([1.1, -0.1]))  # negative
    # tiny negative is clamped
    dist = PopulationDistribution(HalfInt(1), np.array([1.0, -1e-16]))
    assert dist.probs[1] == 0.0


def test_ground_distribution_indicator_at_theta_zero():
    p = ModelParams.quadratic(1.0, 0.3, theta=0.0)
    dist = ground_distribution(p, HalfInt(10))
    expected = np.zeros(11)
    expected[3] = 1.0  # m0 = -2 -> index 3
    np.testing.assert_allclose(dist.probs, expected, atol=1e-12)


def test_ground_distribution_theta_reflection_symmetry():
    # distributions at theta and 2*pi - theta coincide columnwise
    theta = 0.9
    p1 = ModelParams.quadratic(-11.0, 0.5, theta=theta)
    p2 = ModelParams.quadratic(-11.0, 0.5, theta=2 * math.pi - theta)
    j = HalfInt(30)
    np.testing.assert_allclose(ground_distribution(p1, j).probs,
                               ground_distribution(p2, j).probs, atol=1e-12)


def test_count_peaks_basic_shapes():
    indicator = PopulationDistribution(HalfInt(4), np.array([0, 0, 1.0, 0, 0]))
    assert count_peaks(indicator) == 1

    two_lobes = np.array([0.05, 0.4, 0.05, 0.4, 0.1])
    dist = PopulationDistribution(HalfInt(4), two_lobes / two_lobes.sum())
    assert count_peaks(dist) == 2

    plateau = np.array([0.0, 0.3, 0.3, 0.3, 0.1, 0.0])
    dist_plateau = PopulationDistribution(HalfInt(5), plateau / plateau.sum())
    assert count_peaks(dist_plateau) == 1  # plateau counted once

    ramp = np.array([0.1, 0.2, 0.3, 0.4])
    dist_ramp = PopulationDistribution(HalfInt(3), ramp / ramp.sum())
    assert count_peaks(dist_ramp) == 0  # boundary maxima are not interior

    with pytest.raises(ValueError):
        count_peaks(indicator, floor=1.0)
    with pytest.raises(ValueError):
        count_peaks(indicator, floor=-0.1)


def test_count_peaks_floor_suppresses_ripples():
    p = np.array([0.0, 0.004, 0.001, 0.5, 0.001, 0.004, 0.0, 0.49])
    dist = PopulationDistribution(HalfInt(7), p / p.sum())
    assert count_peaks(dist, floor=0.05) == 1  # tiny side bumps below floor
    assert count_peaks(dist, floor=0.0) == 3


@pytest.mark.parametrize("steps_in,expected", [(0, 1), (1, 2), (2, 3), (3, 4)])
def test_peak_count_law_desk_scale(steps_in, expected):
    # vertex placed steps_in grid points inside the upper edge at j=30:
    # the ground state shows steps_in + 1 lobes
    j = HalfInt(60)
    m0 = 30 - steps_in
    p = ModelParams.quadratic(-2.0 * 0.5 * m0, 0.5, theta=1.5)
    dist = ground_distribution(p, j)
    assert count_peaks(dist, floor=0.05) == expected


def test_distribution_normalization_preserved():
    p = ModelParams.quadratic(-19.0, 0.5, theta=math.pi / 4)
    dist = ground_distribution(p, HalfInt(40))
    assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-10


def test_half_integer_grid_supported():
    # j = 61/2: the m grid is half-integers and the peak-count law still holds
    j = HalfInt(61)
    m0_value = 29.5  # one step inside the upper edge (j - 1)
    p = ModelParams.quadratic(-2.0 * 0.5 * m0_value, 0.5, theta=1.5)
    dist = ground_distribution(p, j)
    assert dist.probs.size == 62
    assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-10
    assert count_peaks(dist, floor=0.05) == 2


def _count_peaks_loop(p, floor):
    """Reference: the plateau-walking loop that count_peaks replaced."""
    n = p.size
    if n < 3:
        return 0
    threshold = floor * float(np.max(p))
    count = 0
    i = 1
    while i < n - 1:
        if p[i] > p[i - 1] and p[i] >= threshold:
            end = i
            while end + 1 < n and p[end + 1] == p[i]:
                end += 1
            if end < n - 1 and p[end + 1] < p[i]:
                count += 1
                i = end + 1
                continue
            i = end + 1
            continue
        i += 1
    return count


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=14).filter(any),
       st.floats(0.0, 1.0, exclude_max=True))
def test_count_peaks_matches_reference_loop(levels, floor):
    # small integer levels give plenty of plateaus, ties and edge maxima
    p = np.array(levels, dtype=float)
    p /= p.sum()
    dist = PopulationDistribution(HalfInt(p.size - 1), p)
    assert count_peaks(dist, floor) == _count_peaks_loop(dist.probs, floor)
