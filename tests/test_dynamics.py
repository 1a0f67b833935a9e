"""Tests for exact spectral evolution, the printed formula, and envelope analysis."""

import math

import numpy as np
import pytest

import exactspin.dynamics
from exactspin import (
    EigenbasisState,
    HalfInt,
    ModelParams,
    RotationAngles,
    apply_hamiltonian,
    envelope_metric,
    evolve_observable,
    evolve_series,
    exact_spectrum,
    m_floats,
    paper_jz_series,
    revival_time,
    rotated_basis_state,
    rotated_observable,
    state_at,
    to_eigenbasis,
)
from exactspin.dynamics import TimeSeries


def dicke_state(twice_j, twice_m):
    psi = np.zeros(twice_j + 1, dtype=complex)
    psi[(twice_m + twice_j) // 2] = 1.0
    return psi


def test_to_eigenbasis_trivial_and_round_trip():
    p = ModelParams.quadratic(1.0, 0.1, theta=0.0)
    j = HalfInt(6)
    state = to_eigenbasis(p, j, dicke_state(6, 2))
    expected = np.zeros(7)
    expected[4] = 1.0
    np.testing.assert_allclose(np.abs(state.coeffs), expected, atol=1e-12)

    # a rotated basis state is an eigenbasis indicator for any angles
    p2 = ModelParams.quadratic(1.0, 0.1, theta=1.2, phi=0.7)
    vec = rotated_basis_state(j, p2.angles, HalfInt(-2))
    state2 = to_eigenbasis(p2, j, vec)
    expected2 = np.zeros(7)
    expected2[2] = 1.0
    np.testing.assert_allclose(np.abs(state2.coeffs), expected2, atol=1e-12)


def test_to_eigenbasis_reconstruction():
    p = ModelParams.quadratic(0.7, 0.05, theta=0.9, phi=1.4)
    j = HalfInt(6)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi /= np.linalg.norm(psi)
    state = to_eigenbasis(p, j, psi)
    recon = sum(state.coeffs[k] * rotated_basis_state(j, p.angles, HalfInt(-6 + 2 * k))
                for k in range(7))
    np.testing.assert_allclose(recon, psi, atol=1e-10)
    with pytest.raises(ValueError):
        to_eigenbasis(p, j, 2.0 * psi)


def test_eigenbasis_state_validates_norm():
    with pytest.raises(ValueError):
        EigenbasisState(np.array([1.0, 1.0], dtype=complex))


def test_stationary_state_constant_series():
    p = ModelParams.quadratic(1.0, 0.02, theta=1.3, phi=0.4)
    j = HalfInt(8)
    coeffs = np.zeros(9, dtype=complex)
    coeffs[6] = 1.0
    state = EigenbasisState(coeffs)
    times = np.linspace(0.0, 30.0, 100)
    series = evolve_observable(p, j, state, "Jz", times)
    mat = rotated_observable(p, j, "Jz")
    np.testing.assert_allclose(series.values, mat[6, 6].real * np.ones(100), atol=1e-12)


def test_linear_spectrum_single_frequency():
    # equally spaced spectrum forces a single Fourier line at |a1|/2pi
    a1 = 1.0
    p = ModelParams(order=1, coeffs=(0.0, a1), angles=RotationAngles(1.5))
    j = HalfInt(20)
    state = to_eigenbasis(p, j, dicke_state(20, 20))
    period = 2 * math.pi / a1
    n = 512
    times = np.arange(n) * (4 * period / n)  # exactly 4 periods
    series = evolve_observable(p, j, state, "Jz", times)
    spec = np.abs(np.fft.rfft(series.values - series.values.mean()))
    assert int(np.argmax(spec)) == 4  # bin 4 = one cycle per period
    others = np.delete(spec, 4)
    assert np.max(others) < 1e-8 * spec[4]
    # exact periodicity
    series2 = evolve_observable(p, j, state, "Jz", times + period)
    np.testing.assert_allclose(series2.values, series.values, atol=1e-10)


def test_two_level_closed_form_and_printed_normalization():
    # j=1, equal superposition of m=0 and m=1, theta=pi/2, phi=0, quadratic term off:
    # exact series is -cos(t)/sqrt(2); the printed formula gives -cos(t) (ratio sqrt 2)
    p = ModelParams.quadratic(1.0, 0.0, theta=math.pi / 2, phi=0.0)
    j = HalfInt(2)
    state = EigenbasisState(np.array([0.0, 1.0, 1.0], dtype=complex) / math.sqrt(2))
    times = np.linspace(0.0, 12.0, 200)
    exact = evolve_observable(p, j, state, "Jz", times)
    np.testing.assert_allclose(exact.values, -np.cos(times) / math.sqrt(2), atol=1e-12)
    printed = paper_jz_series(p, j, state, times)
    np.testing.assert_allclose(printed.values, -np.cos(times), atol=1e-12)
    ratio = np.sqrt(np.mean(printed.values**2) / np.mean(exact.values**2))
    assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)


def test_paper_jz_series_zero_for_indicator():
    p = ModelParams.quadratic(1.0, 0.05, theta=0.8)
    j = HalfInt(6)
    coeffs = np.zeros(7, dtype=complex)
    coeffs[3] = 1.0
    series = paper_jz_series(p, j, EigenbasisState(coeffs), np.linspace(0, 5, 20))
    np.testing.assert_allclose(series.values, np.zeros(20), atol=0.0)
    with pytest.raises(ValueError):
        paper_jz_series(ModelParams(order=1, coeffs=(0, 1.0), angles=RotationAngles(0.8)),
                        j, EigenbasisState(coeffs), np.linspace(0, 5, 20))


def test_norm_and_energy_conservation():
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(60)
    state = to_eigenbasis(p, j, dicke_state(60, 60))
    assert abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0) < 1e-12
    e_ref = None
    for t in (0.0, 1.7, 42.0, 250.0):
        psi_t = state_at(p, j, state, t)
        assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-12
        e_t = float(np.real(np.vdot(psi_t, apply_hamiltonian(p, j, psi_t))))
        if e_ref is None:
            e_ref = e_t
        assert abs(e_t - e_ref) <= 1e-9 * (1.0 + abs(e_ref))


def test_rotated_observable_hermitian_and_expectations_real():
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.3)
    j = HalfInt(30)
    for obs in ("Jz", "Jy", "Jx"):
        mat = rotated_observable(p, j, obs)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    with pytest.raises(ValueError):
        rotated_observable(p, j, "Jq")
    # evolve asserts imaginary part <= 1e-9 internally; exercise it
    state = to_eigenbasis(p, j, dicke_state(30, 30))
    series = evolve_observable(p, j, state, "Jy", np.linspace(0, 10, 50))
    assert series.values.dtype == np.float64


def test_revival_time():
    assert revival_time(ModelParams.quadratic(1.0, 0.01, 1.5)) == pytest.approx(100 * math.pi)
    assert revival_time(ModelParams.quadratic(1.0, 0.0, 1.5)) is None
    assert revival_time(ModelParams.quadratic(1.0, -0.5, 1.5)) == pytest.approx(2 * math.pi)
    assert revival_time(ModelParams(order=1, coeffs=(0, 1.0),
                                    angles=RotationAngles(1.5))) is None


def test_revival_time_confirmed_by_autocorrelation():
    # quadratic-spectrum phase realignment: the autocorrelation magnitude
    # peaks within 1% of pi/|a2| (the revival arrives with the fast carrier
    # sign-flipped, so the peak correlation is large and negative)
    a2 = 0.01
    p = ModelParams.quadratic(1.0, a2, theta=1.5)
    j = HalfInt(200)
    state = to_eigenbasis(p, j, dicke_state(200, 200))
    t_rev = math.pi / a2
    dt = t_rev / 4000
    times = np.arange(0.0, 1.3 * t_rev, dt)
    series = evolve_observable(p, j, state, "Jz", times)
    v = series.values - series.values.mean()
    lags = np.arange(int(0.8 * t_rev / dt), int(1.2 * t_rev / dt))
    corrs = [float(np.dot(v[k:], v[: v.size - k])
                   / (np.linalg.norm(v[k:]) * np.linalg.norm(v[: v.size - k])))
             for k in lags]
    best_lag = lags[int(np.argmax(np.abs(corrs)))] * dt
    assert abs(best_lag - t_rev) <= 0.01 * t_rev
    assert max(np.abs(corrs)) > 0.99


def test_quadratic_spectrum_periodicity_identities():
    # collapse-revival parameters: the series is exactly periodic at 2*pi/a2,
    # and at pi/a2 it equals the series of the parity-flipped coefficient
    # vector C_m (-1)^m (the linear-term phase advanced by pi)
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(200)
    state = to_eigenbasis(p, j, dicke_state(200, 200))
    half_period = math.pi / 0.01
    dt = math.pi / 20.0
    times = np.arange(0, 1200) * dt
    base = evolve_observable(p, j, state, "Jz", times).values
    scale = np.max(np.abs(base))

    full = evolve_observable(p, j, state, "Jz", times + 2 * half_period).values
    assert np.max(np.abs(full - base)) <= 1e-6 * scale

    parity = (-1.0) ** (np.arange(201) % 2)  # (-1)^(m+j) = (-1)^m up to global sign
    flipped = EigenbasisState(state.coeffs * parity)
    shifted = evolve_observable(p, j, state, "Jz", times + half_period).values
    flipped_series = evolve_observable(p, j, flipped, "Jz", times).values
    assert np.max(np.abs(shifted - flipped_series)) <= 1e-6 * scale

    # envelope-level agreement between t and t + pi/a2 (coarse corroboration)
    window = 4 * math.pi
    env = envelope_metric(TimeSeries(times, base), window).values
    env_shift = envelope_metric(TimeSeries(times, shifted), window).values
    inner = slice(50, 1150)
    assert np.max(np.abs(env[inner] - env_shift[inner])) <= 0.05 * np.max(env)


def test_jy_jz_phase_shift_recorded():
    # diagnostic only: measure the <Jy> vs <Jz> lag against a quarter period
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(80)
    state = to_eigenbasis(p, j, dicke_state(80, 80))
    times = np.linspace(0.0, 20.0, 2000)
    jz = evolve_observable(p, j, state, "Jz", times).values
    jy = evolve_observable(p, j, state, "Jy", times).values
    jz0, jy0 = jz - jz.mean(), jy - jy.mean()
    dt = times[1] - times[0]
    period = 2 * math.pi
    max_lag = int(period / dt)
    corrs = [float(np.dot(jz0[k:], jy0[: jy0.size - k])
                   / (np.linalg.norm(jz0[k:]) * np.linalg.norm(jy0[: jy0.size - k])))
             for k in range(max_lag + 1)]
    best = int(np.argmax(corrs))
    lag_over_quarter = best * dt / (period / 4)
    # recorded, not asserted: print travels to the pytest report on failure
    print(f"jy-vs-jz lag / quarter period = {lag_over_quarter:.4f} "
          f"(corr {max(corrs):.4f})")
    assert math.isfinite(lag_over_quarter)


def test_envelope_metric_constant_and_sinusoid():
    times = np.linspace(0.0, 20.0, 800)
    flat = TimeSeries(times, np.ones_like(times))
    np.testing.assert_allclose(envelope_metric(flat, 1.0).values, 0.0, atol=0.0)

    wave = TimeSeries(times, 1.7 * np.sin(2 * math.pi * times))
    env = envelope_metric(wave, 2.5).values  # window > one period
    interior = env[100:-100]
    # discrete sampling clips the extrema by ~(w*dt)^2/8 per side
    np.testing.assert_allclose(interior, 2 * 1.7, atol=0.02)
    with pytest.raises(ValueError):
        envelope_metric(wave, 0.001)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("chunk_rows", [None, 6])
def test_printed_formula_matches_its_verbatim_phase(monkeypatch, chunk_rows):
    # the series use cos(phi - x) = cos(phi) cos(x) + sin(phi) sin(x), in time chunks
    j = HalfInt(13)
    if chunk_rows is not None:
        monkeypatch.setattr(exactspin.dynamics, "SERIES_CHUNK_BYTES", 8 * 13 * chunk_rows)
    p = ModelParams.quadratic(0.7, 0.03, theta=2.1, phi=1.1)
    rng = np.random.default_rng(11)
    c = rng.normal(size=14) + 1j * rng.normal(size=14)
    state = EigenbasisState(c / np.linalg.norm(c))
    times = np.linspace(0.0, 60.0, 101)
    c = state.coeffs
    m = m_floats(j)[1:]
    weights = c[1:] * c[:-1] * (6.5 * 7.5 - m * (m - 1.0))
    gaps = np.diff([pair.energy for pair in exact_spectrum(p, j)])
    verbatim = -math.sin(2.1) * (np.cos(1.1 - np.outer(times, gaps)) @ weights.real)
    series = paper_jz_series(p, j, state, times)
    np.testing.assert_allclose(series.values, verbatim, rtol=0,
                               atol=1e-12 * np.max(np.abs(verbatim)))
    both = evolve_series(p, j, state, ("printed", "Jx"), times)
    np.testing.assert_allclose(both[:, 0], series.values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(both[:, 1], evolve_observable(p, j, state, "Jx", times).values,
                               rtol=0, atol=1e-13)
