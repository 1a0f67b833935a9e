"""Tests for the verification report machinery."""

import numpy as np
import pytest

from exactspin.verify import (
    CV_LIMIT,
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
    obs = {o.name: o for o in run_observations(seed=0)}
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
