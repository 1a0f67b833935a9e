"""The banded closed forms against the dense rotations they replace.

Rotated spin operators, H·v and the evolution series come from
tridiagonal matrices, and the eigenvector table from one little-d matrix;
each is checked here against the dense or per-vector construction.
"""

import numpy as np
import pytest

from exactspin import (
    EigenbasisState,
    HalfInt,
    ModelParams,
    RotationAngles,
    apply_hamiltonian,
    evolve_observable,
    exact_spectrum,
    little_d,
    model_hamiltonian,
    operator_matrix,
    rotated_basis_state,
    rotated_observable,
    rotation_matrix,
)
from exactspin.rotation import _jy_eigensystem


@pytest.mark.parametrize("twice_j", [1, 2, 7, 30])
@pytest.mark.parametrize("phi", [0.0, 1.1])
@pytest.mark.parametrize("obs", ["Jz", "Jx", "Jy"])
def test_rotated_observable_matches_dense_conjugation(twice_j, phi, obs):
    j = HalfInt(twice_j)
    p = ModelParams.quadratic(1.0, 0.02, theta=1.234, phi=phi)
    u = rotation_matrix(j, p.angles)
    dense = u @ operator_matrix(j, obs) @ u.conj().T
    np.testing.assert_allclose(rotated_observable(p, j, obs), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 1.1])
@pytest.mark.parametrize("obs", ["Jz", "Jx", "Jy"])
def test_evolve_observable_matches_dense_series(phi, obs):
    j = HalfInt(13)
    p = ModelParams(order=3, coeffs=(0.2, 1.0, 0.05, -0.01), angles=RotationAngles(0.9, phi))
    rng = np.random.default_rng(7)
    c = rng.normal(size=14) + 1j * rng.normal(size=14)
    state = EigenbasisState(c / np.linalg.norm(c))
    times = np.linspace(0.0, 40.0, 300)
    u = rotation_matrix(j, p.angles)
    mat = u @ operator_matrix(j, obs) @ u.conj().T
    energies = np.array([pair.energy for pair in exact_spectrum(p, j)])
    ct = state.coeffs[None, :] * np.exp(-1j * np.outer(times, energies))
    dense = np.einsum("tk,kl,tl->t", ct.conj(), mat, ct)
    assert np.max(np.abs(dense.imag)) < 1e-12
    series = evolve_observable(p, j, state, obs, times)
    np.testing.assert_allclose(series.values, dense.real, rtol=0, atol=1e-11)


@pytest.mark.parametrize("twice_j", [7, 50])
def test_exact_spectrum_vectors_match_rotated_basis_state(twice_j):
    j = HalfInt(twice_j)
    p = ModelParams.quadratic(1.0, 0.03, theta=2.2, phi=0.7)
    for pair in exact_spectrum(p, j):
        np.testing.assert_allclose(pair.vector, rotated_basis_state(j, p.angles, pair.m),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", [0.0, 1.1])
def test_apply_hamiltonian_matches_dense_at_half_integer_j(phi):
    j = HalfInt(15)
    p = ModelParams(order=4, coeffs=(0.3, -1.0, 0.2, 0.05, -0.01),
                    angles=RotationAngles(2.0, phi))
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    ref = model_hamiltonian(p, j) @ v
    np.testing.assert_allclose(apply_hamiltonian(p, j, v), ref, rtol=0,
                               atol=1e-11 * np.max(np.abs(ref)))


@pytest.mark.parametrize("twice_j", [0, 9])
def test_cached_jy_eigensystem_is_read_only(twice_j):
    lam, q = _jy_eigensystem(twice_j)
    for arr in (lam, q):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    d = little_d(HalfInt(twice_j), 0.4)
    assert d.flags.writeable
    d[0, 0] = 2.0
    assert little_d(HalfInt(twice_j), 0.4)[0, 0] != 2.0
