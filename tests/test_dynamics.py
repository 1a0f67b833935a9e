"""Tests for exact spectral evolution, the printed formula, and envelope analysis."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import exactspin.dynamics
import exactspin.rotation
from exactspin import (
    EigenbasisState,
    HalfInt,
    ModelParams,
    RotationAngles,
    apply_hamiltonian,
    apply_rotation,
    energy_values,
    envelope_metric,
    evolve_observable,
    evolve_series,
    exact_spectrum,
    little_d_row,
    m_floats,
    paper_jz_series,
    revival_time,
    rotated_basis_state,
    rotated_observable,
    state_at,
    to_eigenbasis,
)
from exactspin.dynamics import TimeSeries, _series_weights


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


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 2.0])
def test_to_eigenbasis_refuses_the_norm_its_coefficients_would_refuse(scale):
    # the input check decides: a drift EigenbasisState would reject is refused as
    # a unit-norm error before the rotation, not as unnormalized coefficients after it
    p = ModelParams.quadratic(0.7, 0.05, theta=0.9, phi=1.4)
    psi = scale * dicke_state(6, 2)
    with pytest.raises(ValueError, match="unit norm"):
        to_eigenbasis(p, HalfInt(6), psi)


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


def test_state_at_takes_an_array_of_times_and_builds_d_once(monkeypatch):
    p = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.4)
    j = HalfInt(40)
    state = to_eigenbasis(p, j, dicke_state(40, 40))
    times = np.array([0.0, 3.7, 55.0, 200.0])
    # a scalar time keeps its shape and its bits: U† applied to C·exp(-iEt)
    for t in times:
        psi_t = state_at(p, j, state, t)
        phases = np.exp(-1j * energy_values(p, j) * t)
        expected = apply_rotation(j, p.angles, state.coeffs * phases, dagger=True)
        assert psi_t.shape == (41,) and np.array_equal(psi_t, expected)
    calls = []
    little_d = exactspin.rotation.little_d

    def counting(*args):
        calls.append(args)
        return little_d(*args)

    monkeypatch.setattr(exactspin.rotation, "little_d", counting)
    psi = state_at(p, j, state, times)
    monkeypatch.undo()
    assert len(calls) == 1 and psi.shape == (41, 4)
    for column, t in zip(psi.T, times):
        np.testing.assert_allclose(column, state_at(p, j, state, t), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="1-d array of times"):
        state_at(p, j, state, np.zeros((2, 2)))


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


def _dense_series(p, j, state, obs, times):
    # c(t)^dagger (U O U^dagger) c(t) with c(t) = C e^{-iEt}, from the dense matrix
    ct = state.coeffs[None, :] * np.exp(-1j * np.outer(times, energy_values(p, j)))
    return np.einsum("tk,kl,tl->t", ct.conj(), rotated_observable(p, j, obs), ct).real


_NON_UNIFORM = np.cumsum(np.random.default_rng(5).uniform(0.05, 1.0, size=50))
_NUDGED = np.linspace(0.0, 60.0, 97)
_NUDGED[50] += 1e-9  # far above rounding, so the check must send it to B = 1


@pytest.mark.parametrize("chunk_bytes", [None, 16 * 13 * 3])
@pytest.mark.parametrize("times", [
    np.array([]), np.array([0.7]), np.array([0.0, 2.5]),
    np.linspace(0.0, 60.0, 97), np.linspace(-3.0, 60.0, 100), np.linspace(1.0, 80.0, 101),
    _NON_UNIFORM, _NUDGED],
    ids=["0", "1", "2", "prime", "square", "square+1", "non-uniform", "nudged"])
def test_factored_series_edge_cases_match_the_dense_series(monkeypatch, chunk_bytes, times):
    # with chunk_bytes, blocks of 3 steps and chunks of 3 anchors, so 97, 100 and 101
    # points leave a partial last block (as 97 and 101 do by default) that is trimmed
    if chunk_bytes is not None:
        monkeypatch.setattr(exactspin.dynamics, "SERIES_CHUNK_BYTES", chunk_bytes)
    j = HalfInt(13)
    p = ModelParams(order=3, coeffs=(0.2, 1.0, 0.05, -0.01), angles=RotationAngles(0.9, 1.1))
    rng = np.random.default_rng(3)
    c = rng.normal(size=14) + 1j * rng.normal(size=14)
    state = EigenbasisState(c / np.linalg.norm(c))
    names = ("Jz", "Jx", "Jy")
    values = evolve_series(p, j, state, names, times)
    assert values.shape == (times.size, 3)
    for col, obs in zip(values.T, names):
        dense = _dense_series(p, j, state, obs, times)
        np.testing.assert_allclose(col, dense, rtol=0,
                                   atol=1e-12 * np.max(np.abs(dense), initial=1.0))


def _mpmath_series(static, coeffs, gaps, times):
    """static + sum_k Re(c_k) cos(w_k t) - Im(c_k) sin(w_k t) in 40 digits, shape (t, series)."""
    with mpmath.workdps(40):
        gaps = [mpmath.mpf(float(w)) for w in gaps]
        parts = [([mpmath.mpf(float(x)) for x in c.real], [-mpmath.mpf(float(x)) for x in c.imag])
                 for c in coeffs]
        rows = []
        for t in times:
            cos, sin = zip(*(mpmath.cos_sin(w * mpmath.mpf(float(t))) for w in gaps))
            rows.append([float(s + mpmath.fdot(re, cos) + mpmath.fdot(im, sin))
                         for s, (re, im) in zip(static, parts)])
        return np.array(rows)


@pytest.mark.parametrize("twice_j,coeffs,names", [
    (200, (0.3, -1.1, 0.012), ("Jz", "printed", "Jy")),
    (2000, (0.3, -1.1, 0.012), ("Jz", "printed", "Jy")),
    (8191, (0.3, -1.1, 0.012), ("Jz", "printed", "Jy")),
    (300, (0.1, 0.8, 0.02, -3e-4, 2e-6), ("Jz", "Jx", "Jy")),
])
def test_evolve_series_matches_an_mpmath_sum(twice_j, coeffs, names):
    # the float weights and gaps summed in 40 digits at the given (not the factored)
    # times: block starts and ends, the last point, random ones, and the revival, where
    # every beat is back in phase and a coherent error in the times shows most
    j = HalfInt(twice_j)
    p = ModelParams(order=len(coeffs) - 1, coeffs=coeffs, angles=RotationAngles(1.1, 2.3))
    state = EigenbasisState(np.exp(1j * 2.3 * m_floats(j)) * little_d_row(j, -1.1, twice_j))
    times = np.linspace(0.0, 1.1 * math.pi / 0.012, 4000)
    block = math.isqrt(times.size)
    revival = int(np.argmin(np.abs(times - math.pi / 0.012)))
    rng = np.random.default_rng(twice_j)
    picks = sorted({0, 1, block - 1, block, block + 1, 17 * block - 1, 17 * block,
                    times.size - 2, times.size - 1, *(revival + np.arange(-9, 10, 3)),
                    *rng.integers(0, times.size, size=3)})
    if twice_j > 2000:  # 8191 terms a time in 40 digits: the revival and the last point
        picks = [revival - 3, revival, revival + 3, times.size - 1]
    values = evolve_series(p, j, state, names, times)
    static, coeffs = zip(*(_series_weights(p, j, state, name) for name in names))
    exact = _mpmath_series(static, coeffs, np.diff(energy_values(p, j)), times[picks])
    assert np.all(np.abs(values[picks] - exact) <= 1e-12 * np.max(np.abs(values), axis=0))


@pytest.mark.parametrize("twice_j,num_points,chunk_bytes", [
    (2000, 4000, None), (8191, 40, None), (2000, 4000, 1 << 19)])
def test_evolve_series_memory_stays_within_four_chunks(monkeypatch, twice_j, num_points,
                                                       chunk_bytes):
    # with 512 KiB chunks the step table must shrink below isqrt(4000) = 63 rows
    if chunk_bytes is not None:
        monkeypatch.setattr(exactspin.dynamics, "SERIES_CHUNK_BYTES", chunk_bytes)
    j = HalfInt(twice_j)
    p = ModelParams.quadratic(-1.1, 0.012, theta=1.1, phi=2.3, a0=0.3)
    state = EigenbasisState(np.exp(1j * 2.3 * m_floats(j)) * little_d_row(j, -1.1, twice_j))
    times = np.linspace(0.0, 300.0, num_points)
    tracemalloc.start()
    try:
        values = evolve_series(p, j, state, ("Jz", "printed", "Jy"), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * exactspin.dynamics.SERIES_CHUNK_BYTES + values.nbytes


@pytest.mark.parametrize("twice_j", [0, 1, 6, 13, 40])
def test_dicke_state_is_to_eigenbasis_of_the_unit_vector(twice_j):
    # one row of d(-theta) against the column that to_eigenbasis takes from all of d
    j = HalfInt(twice_j)
    for theta, phi in ((0.0, 0.0), (0.7, 2.1), (math.pi, 0.4), (2.9, 5.5), (4.0, 1.0)):
        params = ModelParams.quadratic(1.0, 0.3, theta, phi)
        for k in range(twice_j + 1):
            got = exactspin.dynamics._dicke_state(params, j, k).coeffs
            want = to_eigenbasis(params, j, np.eye(twice_j + 1)[k]).coeffs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_evolve_series_peak_within_its_step_table_and_quarter_chunks():
    # beside the step table (2000 gaps x 63 steps) and the result, a chunk holds its
    # anchor phases, their product with c and that product's with the table, each within
    # a quarter of SERIES_CHUNK_BYTES, and each table is exponentiated in place
    j = HalfInt(2000)
    p = ModelParams.quadratic(-1.1, 0.012, theta=1.1, phi=2.3, a0=0.3)
    state = EigenbasisState(np.exp(1j * 2.3 * m_floats(j)) * little_d_row(j, -1.1, 2000))
    times = np.linspace(0.0, 300.0, 4000)
    tracemalloc.start()
    try:
        values = evolve_series(p, j, state, ("Jz", "printed", "Jy"), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 16 * 2000 * math.isqrt(times.size)
    assert peak <= table + 3 * exactspin.dynamics.SERIES_CHUNK_BYTES // 4 + 2 * values.nbytes
