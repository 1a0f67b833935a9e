"""Tests for the closed-form eigensystem, ground-state rules, and the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactspin import (
    HalfInt,
    ModelParams,
    RotationAngles,
    brute_diagonalize,
    energy_values,
    exact_spectrum,
    ground_state,
    model_hamiltonian,
    operator_matrix,
    residual_norm,
)
from exactspin.closed_form import _closed_form_quadratic, _scan_minimum
from exactspin.spectrum import ORACLE_MAX_DIM


def test_exact_spectrum_trivial_at_theta_zero():
    p = ModelParams.quadratic(1.0, 0.1, theta=0.0)
    pairs = exact_spectrum(p, HalfInt(4))
    assert len(pairs) == 5
    for k, pair in enumerate(pairs):
        expected = np.zeros(5)
        expected[k] = 1.0
        np.testing.assert_allclose(np.abs(pair.vector), expected, atol=1e-12)
    assert [pair.m.twice for pair in pairs] == [-4, -2, 0, 2, 4]


def test_exact_spectrum_even_polynomial_degeneracy():
    p = ModelParams.quadratic(0.0, 1.0, theta=0.4)
    energies = [pair.energy for pair in exact_spectrum(p, HalfInt(2))]
    assert energies == [1.0, 0.0, 1.0]


def test_exact_spectrum_matches_oracle():
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.0)
    j = HalfInt(10)
    w, _ = brute_diagonalize(model_hamiltonian(p, j))
    exact = np.sort([pair.energy for pair in exact_spectrum(p, j)])
    np.testing.assert_allclose(w, exact, atol=1e-10)


def test_exact_spectrum_random_draws_vs_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        order = int(rng.integers(1, 5))
        p = ModelParams(order=order, coeffs=tuple(rng.uniform(-2, 2, order + 1)),
                        angles=RotationAngles(rng.uniform(1e-3, math.pi - 1e-3),
                                              rng.uniform(0, 2 * math.pi)))
        j = HalfInt(int(rng.integers(1, 21)))
        w, _ = brute_diagonalize(model_hamiltonian(p, j))
        exact = np.sort([pair.energy for pair in exact_spectrum(p, j)])
        assert np.max(np.abs(w - exact)) < 1e-9


def test_eigenvector_gram_orthonormal():
    p = ModelParams(order=3, coeffs=(0.1, -0.7, 0.3, 0.05), angles=RotationAngles(1.1, 2.3))
    j = HalfInt(50)
    vecs = np.column_stack([pair.vector for pair in exact_spectrum(p, j)])
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(51))) < 1e-9


def test_residual_norm_examples():
    p0 = ModelParams.quadratic(1.0, 0.2, theta=0.0)
    pairs = exact_spectrum(p0, HalfInt(6))
    assert residual_norm(p0, HalfInt(6), pairs[2]) == 0.0  # theta=0 is exact

    p = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.9)
    j = HalfInt(24)
    scale = 1.0 + sum(abs(a) for a in p.coeffs) * (12.0**2)
    for pair in exact_spectrum(p, j):
        assert residual_norm(p, j, pair) <= 1e-9 * scale


def test_ground_state_interior_vertex():
    # vertex at -5/3: nearest integer -2, and E(-2) = -0.8 < E(-1) = -0.7
    result = ground_state(ModelParams.quadratic(1.0, 0.3, theta=0.7), HalfInt(10))
    assert result.m0 == HalfInt(-4)
    assert result.pair.energy == pytest.approx(-0.8, abs=1e-14)
    assert result.method == "closed_form"
    assert not result.degenerate


def test_ground_state_concave_endpoint():
    result = ground_state(ModelParams.quadratic(1.0, -0.5, theta=0.7), HalfInt(8))
    assert result.m0 == HalfInt(-8)
    assert not result.degenerate


def test_ground_state_symmetric_cases():
    r1 = ground_state(ModelParams.quadratic(0.0, 1.0, theta=0.3), HalfInt(2))
    assert r1.m0 == HalfInt(0)
    assert not r1.degenerate
    r2 = ground_state(ModelParams.quadratic(0.0, -1.0, theta=0.3), HalfInt(2))
    assert r2.m0 == HalfInt(-2)  # tie with m=+1 broken toward lower m
    assert r2.degenerate


def test_ground_state_exact_tie_flagged():
    # vertex exactly halfway between m=0 and m=1
    result = ground_state(ModelParams.quadratic(-1.0, 1.0, theta=0.5), HalfInt(6))
    assert result.m0 == HalfInt(0)
    assert result.degenerate


def test_ground_state_clamped_vertex():
    result = ground_state(ModelParams.quadratic(-100.0, 0.01, theta=0.5), HalfInt(6))
    assert result.m0 == HalfInt(6)  # vertex at +5000, clamped to +j
    assert not result.degenerate


def test_ground_state_linear_and_flat():
    assert ground_state(ModelParams.quadratic(2.0, 0.0, theta=1.0), HalfInt(4)).m0 == HalfInt(-4)
    assert ground_state(ModelParams.quadratic(-2.0, 0.0, theta=1.0), HalfInt(4)).m0 == HalfInt(4)
    flat = ground_state(ModelParams.quadratic(0.0, 0.0, theta=1.0), HalfInt(4))
    assert flat.m0 == HalfInt(-4)
    assert flat.degenerate


def test_ground_state_half_integer_grid():
    # j = 7/2 with vertex at 0: grid values are half-integers; +-1/2 tie
    result = ground_state(ModelParams.quadratic(0.0, 1.0, theta=0.9), HalfInt(7))
    assert result.m0 == HalfInt(-1)
    assert result.degenerate


def test_ground_state_scan_method_for_other_orders():
    p = ModelParams(order=3, coeffs=(0.0, 1.0, 0.0, -0.2), angles=RotationAngles(0.8))
    result = ground_state(p, HalfInt(10))
    assert result.method == "scan"
    energies = energy_values(p, HalfInt(10))
    assert result.pair.energy == pytest.approx(float(np.min(energies)), abs=1e-12)


def test_ground_state_energy_is_global_minimum_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a1 = float(rng.uniform(-2, 2))
        a2 = float(rng.choice([-1, 0, 1]) * rng.uniform(0, 2))
        twice_j = int(rng.integers(1, 40))
        p = ModelParams.quadratic(a1, a2, theta=float(rng.uniform(0.1, 3.0)))
        result = ground_state(p, HalfInt(twice_j))
        energies = energy_values(p, HalfInt(twice_j))
        assert result.pair.energy <= float(np.min(energies)) + 1e-12


def test_closed_form_vs_scan_internal_helpers():
    # the two routes compared directly across every branch of the classification
    cases = [
        ModelParams.quadratic(1.0, 0.3, 0.5),      # interior vertex
        ModelParams.quadratic(-7.0, 0.25, 0.5),    # clamped above
        ModelParams.quadratic(7.0, 0.25, 0.5),     # clamped below
        ModelParams.quadratic(1.0, -0.5, 0.5),     # concave, a1 > 0
        ModelParams.quadratic(-1.0, -0.5, 0.5),    # concave, a1 < 0
        ModelParams.quadratic(0.0, -0.5, 0.5),     # concave, symmetric tie
        ModelParams.quadratic(1.5, 0.0, 0.5),      # linear
        ModelParams.quadratic(0.0, 0.0, 0.5),      # flat
    ]
    for params in cases:
        for twice_j in (1, 2, 7, 20):
            j = HalfInt(twice_j)
            assert _closed_form_quadratic(params, j) == _scan_minimum(params, j)


def test_brute_diagonalize_examples():
    w, v = brute_diagonalize(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12

    jx = operator_matrix(HalfInt(2), "Jx")
    w, _ = brute_diagonalize(jx)
    np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)


def test_brute_diagonalize_certificates():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    h = (b + b.conj().T) / 2
    w, v = brute_diagonalize(h)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-9 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(30))) < 1e-9
    assert np.all(np.diff(w) >= 0)


def test_brute_diagonalize_midsize_scale():
    # oracle accuracy well inside its dimension cap
    rng = np.random.default_rng(19)
    b = rng.normal(size=(101, 101)) + 1j * rng.normal(size=(101, 101))
    h = 50.0 * (b + b.conj().T) / 2
    w, v = brute_diagonalize(h)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-9 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(101))) < 1e-9
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-9 * scale)


def test_brute_diagonalize_rejects_bad_input():
    with pytest.raises(ValueError):
        brute_diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        brute_diagonalize(np.zeros((ORACLE_MAX_DIM + 1, ORACLE_MAX_DIM + 1), dtype=complex))


def _assert_certified(h, w, v):
    n = h.shape[0]
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-9 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-9 * scale)


@pytest.mark.parametrize("n", [2, 3, 5, 21, 30, 61])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_brute_diagonalize_against_eigvalsh(n, kind):
    rng = np.random.default_rng(100 + n)
    b = rng.normal(size=(n, n))
    if kind == "complex":
        b = b + 1j * rng.normal(size=(n, n))
    h = (b + b.conj().T) / 2
    w, v = brute_diagonalize(h)
    _assert_certified(h, w, v)


def test_brute_diagonalize_degenerate_spectra():
    jx = operator_matrix(HalfInt(8), "Jx")
    w, v = brute_diagonalize(jx)
    _assert_certified(jx, w, v)
    np.testing.assert_allclose(w, np.arange(-4.0, 5.0), atol=1e-10)

    # two copies of one block plus a multiple of the identity: every level repeated
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    block = (b + b.conj().T) / 2
    h = np.zeros((11, 11), dtype=complex)
    h[:4, :4] = block
    h[4:8, 4:8] = block
    h[8:, 8:] = 0.5 * np.eye(3)
    w, v = brute_diagonalize(h)
    _assert_certified(h, w, v)


def test_brute_diagonalize_diagonal_input_returns_at_once():
    diag = np.array([3.0, -1.0, 2.0, -1.0, 0.5])
    w, v = brute_diagonalize(np.diag(diag).astype(complex))
    order = np.argsort(diag, kind="stable")
    assert np.array_equal(w, diag[order])
    assert np.array_equal(v, np.eye(5)[:, order])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_ground_state_energy_beyond_float_range_is_infinite():
    # the float window is -inf + inf there, so the exact comparison scans every m
    result = ground_state(ModelParams.quadratic(1.0, -1e308, 1.0), HalfInt(400))
    assert result.m0 == HalfInt(-400)
    assert result.pair.energy == -math.inf
    assert _scan_minimum(ModelParams(order=3, coeffs=(0, 1, 0, -1e308),
                                     angles=RotationAngles(1.0)), HalfInt(40)) == (40, False)


def _random_hermitian(rng, n, kind="complex", scale=1.0):
    b = rng.normal(size=(n, n))
    if kind == "complex":
        b = b + 1j * rng.normal(size=(n, n))
    return scale * (b + b.conj().T) / 2


def test_brute_diagonalize_stack_of_one_matches_the_single_call():
    h = _random_hermitian(np.random.default_rng(41), 9)
    w, v = brute_diagonalize(h)
    ws, vs = brute_diagonalize(h[None])
    assert ws.shape == (1, 9) and vs.shape == (1, 9, 9)
    assert np.array_equal(ws[0], w)
    assert np.array_equal(vs[0], v)


@pytest.mark.parametrize("n", [2, 5, 21])
def test_brute_diagonalize_mixed_stack_is_certified_per_matrix(n):
    # real and complex members at scales 1e6 apart: each keeps its own scale,
    # stop and threshold, so each gives the bits of its own single call
    rng = np.random.default_rng(200 + n)
    members = [_random_hermitian(rng, n, kind, scale)
               for kind, scale in (("real", 1.0), ("complex", 1e-3), ("complex", 1e3),
                                   ("real", 1e-3))]
    w, v = brute_diagonalize(np.stack(members))
    assert w.shape == (4, n) and v.shape == (4, n, n)
    for h, w_i, v_i in zip(members, w, v):
        _assert_certified(h, w_i, v_i)
        w_one, v_one = brute_diagonalize(h)
        assert np.array_equal(w_i, w_one)
        assert np.array_equal(v_i, v_one)


def test_brute_diagonalize_padded_stack_is_exact():
    rng = np.random.default_rng(43)
    dims = (1, 3, 7, 12)
    n = 12
    members = [_random_hermitian(rng, k, kind) for k, kind in zip(dims, ("real", "complex") * 2)]
    stack = np.zeros((len(dims), n, n), dtype=complex)
    for h, m in zip(stack, members):
        h[:len(m), :len(m)] = m
    w, v = brute_diagonalize(stack)
    for m, w_i, v_i in zip(members, w, v):
        k = len(m)
        own = np.any(v_i[:k] != 0.0, axis=0)
        assert own.sum() == k
        # pad eigenvalues are exactly 0.0 with exact unit vectors on the pad rows
        # (ties at 0.0 sort stably, so the pad columns keep their index order)
        assert np.all(w_i[~own] == 0.0)
        assert np.array_equal(v_i[:, ~own], np.eye(n)[:, k:])
        # the draw's own eigenvectors have exactly zero pad rows
        assert np.all(v_i[k:, own] == 0.0)
        _assert_certified(m, w_i[own], v_i[:k, own])


@pytest.mark.parametrize("h", [
    np.array(1.0),
    np.ones(3),
    np.zeros((0, 0)),
    np.zeros((3, 4)),
    np.zeros((2, 3, 4)),
    np.zeros((2, 0, 0)),
], ids=["0-d", "1-d", "0x0", "3x4", "stack-3x4", "stack-0x0"])
def test_brute_diagonalize_rejects_bad_shapes(h):
    with pytest.raises(ValueError):
        brute_diagonalize(h)


def test_brute_diagonalize_checks_hermiticity_per_matrix():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    # asymmetric at its own magnitude, however small that magnitude is
    with pytest.raises(ValueError):
        brute_diagonalize(1e-13 * nilpotent)
    # one bad member refuses the stack, even where its asymmetry is tiny
    # beside the magnitude of another member
    big = _random_hermitian(np.random.default_rng(44), 2, scale=1e6)
    with pytest.raises(ValueError):
        brute_diagonalize(np.stack([big, 1e-9 * nilpotent]))
    w, _ = brute_diagonalize(np.stack([big, 1e-3 * (nilpotent + nilpotent.T)]))
    np.testing.assert_allclose(w[1], [-1e-3, 1e-3], rtol=1e-12)


def test_brute_diagonalize_refuses_an_oversized_view_before_copying():
    import tracemalloc

    h = np.broadcast_to(0.0, (4000, 4000))  # 256 MB as a complex copy, 8 bytes as a view
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            brute_diagonalize(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



def _exhaustive_ground(coeffs, twice_j):
    """(twice_m0, degenerate) from E_m = sum a_i m^i at every grid point, in exact rationals."""
    grid = range(-twice_j, twice_j + 1, 2)
    energies = [sum(a * Fraction(t, 2) ** i for i, a in enumerate(coeffs)) for t in grid]
    best = min(energies)
    lowest = [t for t, e in zip(grid, energies) if e == best]
    return lowest[0], len(lowest) > 1


@settings(max_examples=150, deadline=None)
@given(order=st.integers(1, 4), twice_j=st.integers(0, 60), twice_v=st.integers(-64, 64),
       shape=st.lists(st.integers(-3, 3), min_size=5, max_size=5), even=st.booleans())
def test_ground_state_is_the_exhaustive_exact_minimum(order, twice_j, twice_v, shape, even):
    # E_m = sum_k c_k (m - v)^k with v on a grid or half-grid point; an even shape
    # (odd c_k zeroed) ties the m pairs placed symmetrically about v
    v = Fraction(twice_v, 2)
    c = [0 if even and k % 2 else shape[k] for k in range(order + 1)]
    coeffs = [sum(c[k] * math.comb(k, i) * (-v) ** (k - i) for k in range(i, order + 1))
              for i in range(order + 1)]
    assert all(Fraction(float(a)) == a for a in coeffs)  # the expansion is exact in floats
    params = ModelParams(order=order, coeffs=tuple(float(a) for a in coeffs),
                         angles=RotationAngles(0.7, 0.2))
    result = ground_state(params, HalfInt(twice_j))
    assert (result.m0.twice, result.degenerate) == _exhaustive_ground(coeffs, twice_j)
