"""Tests for the verification report machinery."""

import random

import numpy as np
import pytest

import exactspin.dynamics
import exactspin.model
import exactspin.verify
from exactspin import HalfInt, ModelParams
from exactspin.verify import (
    CV_LIMIT,
    _lag_correlations,
    _random_params,
    build_report,
    run_diagnostic_sweeps,
    run_observations,
    run_required_checks,
    series_expm,
)


def test_series_expm_agrees_with_scipy():
    import scipy.linalg

    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    np.testing.assert_allclose(series_expm(a), scipy.linalg.expm(a), atol=1e-10)


def test_required_checks_all_pass():
    checks = run_required_checks(max_twice_j=16, draws=10, seed=1)
    failed = [c.name for c in checks if not c.passed]
    assert failed == []
    names = {c.name for c in checks}
    assert {"su2_algebra", "spectrum_vs_oracle", "ground_rule_vs_scan",
            "conservation"} <= names


def test_diagnostic_sweeps_constant_with_expected_factors():
    sweeps = {d.name: d for d in run_diagnostic_sweeps(twice_j=10, seed=2)}
    for d in sweeps.values():
        assert d.cv < CV_LIMIT, f"{d.name} varies over theta: cv={d.cv}"
        assert len(d.ratios) == 20
    # measured convention factors (derived independently, frozen here)
    assert sweeps["printed_h2_linear_band_factor"].mean_ratio == pytest.approx(2.0, rel=1e-9)
    assert sweeps["printed_h2_cross_band_factor"].mean_ratio == pytest.approx(2.0, rel=1e-9)
    assert sweeps["printed_h2_double_band_factor"].mean_ratio == pytest.approx(4.0, rel=1e-9)
    assert sweeps["rate_identity_factor"].mean_ratio == pytest.approx(2.0, rel=1e-9)
    assert sweeps["population_difference_normalization_factor"].mean_ratio == pytest.approx(
        2.0, rel=1e-9)
    # the printed population formula's factor is state-dependent; constancy is the claim
    assert sweeps["printed_population_formula_rms_factor"].mean_ratio > 0.0


def test_observations_present():
    obs = {o.name: o for o in run_observations()}
    assert "jy_vs_jz_lag_over_quarter_period" in obs
    assert "two_mode_spectral_deviation" in obs
    assert obs["two_mode_spectral_deviation"].value > 0.0
    assert obs["printed_h2_max_deviation"].value > 0.0
    assert obs["desk_scale_peak_count"].value == 2.0


def test_build_report_structure():
    report = build_report(max_twice_j=12, draws=6, seed=3, sweep_twice_j=8)
    assert report["passed"] is True
    assert {"required", "diagnostics", "observations", "settings"} <= set(report)
    for entry in report["required"]:
        assert {"name", "passed", "measured", "limit"} <= set(entry)
    for entry in report["diagnostics"]:
        assert entry["cv"] < CV_LIMIT


def test_report_settings_carry_the_oracle_cap():
    settings = build_report(max_twice_j=100, draws=1, seed=0, sweep_twice_j=8)["settings"]
    assert settings["max_twice_j"] == 100
    assert settings["oracle_max_twice_j"] == 20
    small = build_report(max_twice_j=6, draws=1, seed=0, sweep_twice_j=8)["settings"]
    assert small["oracle_max_twice_j"] == 6


def test_diagnostic_sweeps_build_each_swept_model_once(monkeypatch):
    calls = []
    original = exactspin.model.model_hamiltonian

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactspin.model, "model_hamiltonian", counting)
    monkeypatch.setattr(exactspin.verify, "model_hamiltonian", counting)
    run_diagnostic_sweeps()
    # three band sweeps over 20 thetas, one dense model each
    assert len(calls) == 60


def test_spectrum_vs_oracle_draws_follow_the_seeded_stream(monkeypatch):
    # the stacked oracle draws every (params, twice_j) in the order the
    # one-at-a-time loop did, so the ground-rule draws after it are unchanged too
    built, grounds, oracle_calls = [], [], []
    original_build = exactspin.verify.model_hamiltonian
    original_ground = exactspin.verify.ground_state
    original_oracle = exactspin.verify.brute_diagonalize
    monkeypatch.setattr(exactspin.verify, "model_hamiltonian",
                        lambda params, j: built.append((params, j)) or original_build(params, j))
    monkeypatch.setattr(exactspin.verify, "ground_state",
                        lambda params, j: grounds.append((params, j)) or original_ground(params, j))
    monkeypatch.setattr(exactspin.verify, "brute_diagonalize",
                        lambda h: oracle_calls.append(h.shape) or original_oracle(h))
    run_required_checks(max_twice_j=16, draws=10, seed=1)

    rng = random.Random(1)
    expected = []
    for _ in range(10):
        params = _random_params(rng)
        expected.append((params, HalfInt(rng.randint(1, 16))))
    expected_grounds = []
    for _ in range(10):
        a2 = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 2.0)
        a1 = rng.uniform(-2.0, 2.0)
        twice_j = rng.randint(1, 59)
        params = ModelParams.quadratic(a1, a2, theta=rng.uniform(0.1, 3.0))
        expected_grounds.append((params, HalfInt(twice_j)))
    assert built == expected
    assert grounds == expected_grounds
    dim = max(j.twice for _, j in expected) + 1
    assert oracle_calls == [(10, dim, dim)]


def test_lag_scan_reports_the_best_lag_of_the_dot_and_norm_loop():
    # the shipped Jy/Jz lag observation: the vectorized scan picks the lag that the
    # loop of one dot and two norms per lag picks, and matches its correlations
    params = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(200)
    times = np.linspace(0.0, 25.0, 2500)
    state = exactspin.dynamics._dicke_state(params, j, j.twice)
    jz, jy = exactspin.dynamics.evolve_series(params, j, state, ("Jz", "Jy"), times).T
    jz0, jy0 = jz - jz.mean(), jy - jy.mean()
    period = 2.0 * np.pi / abs(params.coeffs[1])
    dt = times[1] - times[0]
    max_lag = int(round(period / dt))
    loop = []
    for lag in range(max_lag + 1):
        a, b = jz0[lag:], jy0[:jz0.size - lag]
        loop.append(float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))))
    fast = _lag_correlations(jz0, jy0, max_lag)
    np.testing.assert_allclose(fast, loop, rtol=0, atol=1e-13)
    best = int(np.argmax(loop))
    assert int(np.argmax(fast)) == best
    (lag_obs,) = [o for o in run_observations() if o.name == "jy_vs_jz_lag_over_quarter_period"]
    assert lag_obs.value == best * dt / (period / 4.0)
