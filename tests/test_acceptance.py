"""Acceptance suite: every exit criterion at its stated tolerance and budget.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`); the
assertions enforce the same conditions.
"""

import math
import time

import numpy as np
import pytest

from exactspin import (
    HalfInt,
    ModelParams,
    RotationAngles,
    apply_hamiltonian,
    brute_diagonalize,
    count_peaks,
    energy_values,
    envelope_metric,
    evolve_observable,
    exact_spectrum,
    ground_distribution,
    model_hamiltonian,
    rotated_basis_state,
    state_at,
    to_eigenbasis,
)
from exactspin.cli import EXIT_OK, main
from exactspin.closed_form import _closed_form_quadratic, _exact_energy, _scan_minimum
from exactspin.verify import CV_LIMIT, run_diagnostic_sweeps

FIG2 = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=0.0)
RECIPES = ["recipes/fig1a.ini", "recipes/fig1b.ini", "recipes/fig1c.ini",
           "recipes/fig1d.ini", "recipes/fig2.ini"]


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def dicke_state(twice_j, twice_m):
    psi = np.zeros(twice_j + 1, dtype=complex)
    psi[(twice_m + twice_j) // 2] = 1.0
    return psi


def test_criterion_1_exact_solution_property():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 5))
        params = ModelParams(
            order=order,
            coeffs=tuple(rng.uniform(-2.0, 2.0, order + 1)),
            angles=RotationAngles(float(rng.uniform(1e-6, math.pi - 1e-6)),
                                  float(rng.uniform(0.0, 2.0 * math.pi))),
        )
        j = HalfInt(int(rng.integers(1, 21)))
        w, _ = brute_diagonalize(model_hamiltonian(params, j))
        closed = np.sort([p.energy for p in exact_spectrum(params, j)])
        worst = max(worst, float(np.max(np.abs(w - closed))))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 30.0,
           f"200 draws, worst |closed - oracle| = {worst:.2e} (limit 1e-9), "
           f"{elapsed:.1f}s (limit 30s)")


def test_criterion_2_large_scale_residual():
    j = HalfInt(2000)
    start = time.perf_counter()
    bound = 1e-7 * (1.0 + 1.0 * 1000 + 0.01 * 1000**2)
    energies = energy_values(FIG2, j)
    worst = 0.0
    for m_int in (-1000, 0, 567, 1000):
        m = HalfInt(2 * m_int)
        vec = rotated_basis_state(j, FIG2.angles, m)
        energy = energies[m_int + 1000]
        resid = float(np.linalg.norm(apply_hamiltonian(FIG2, j, vec) - energy * vec))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    report(2, worst <= bound and elapsed < 10.0,
           f"j=1000 residuals worst {worst:.2e} (limit {bound:.2e}), "
           f"{elapsed:.1f}s (limit 10s)")


def test_criterion_3_ground_state_rules():
    rng = np.random.default_rng(77)
    mismatches = 0
    checked = 0
    for cls in range(5):
        for _ in range(200):
            twice_j = int(rng.integers(1, 2001))
            jmag = twice_j / 2.0
            if cls == 0:      # convex, vertex interior
                a2 = float(rng.uniform(0.05, 2.0))
                a1 = -2.0 * a2 * float(rng.uniform(-jmag, jmag))
            elif cls == 1:    # convex, vertex clamped outside the range
                a2 = float(rng.uniform(0.05, 2.0))
                a1 = -2.0 * a2 * float(rng.uniform(1.0, 3.0) * jmag
                                       * rng.choice([-1.0, 1.0]))
            elif cls == 2:    # concave, a1 > 0
                a2 = -float(rng.uniform(0.05, 2.0))
                a1 = float(rng.uniform(0.05, 2.0))
            elif cls == 3:    # concave, a1 < 0
                a2 = -float(rng.uniform(0.05, 2.0))
                a1 = -float(rng.uniform(0.05, 2.0))
            else:             # linear (and occasionally flat)
                a2 = 0.0
                a1 = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.05, 2.0))
            params = ModelParams.quadratic(a1, a2, theta=float(rng.uniform(0.1, 3.0)))
            j = HalfInt(twice_j)
            closed = _closed_form_quadratic(params, j)
            scan = _scan_minimum(params, j)
            checked += 1
            if closed != scan or _exact_energy(params, closed[0]) != _exact_energy(
                    params, scan[0]):
                mismatches += 1
    report(3, checked == 1000 and mismatches == 0,
           f"{checked} draws across all five classes, {mismatches} mismatches")


def test_criterion_4_population_peak_counts():
    start = time.perf_counter()
    results = {}
    for theta in (1.5, math.pi / 4):
        for m0, expected in ((1000, 1), (999, 2), (998, 3), (997, 4)):
            params = ModelParams.quadratic(-float(m0), 0.5, theta=theta)
            dist = ground_distribution(params, HalfInt(2000))
            results[(theta, m0)] = (count_peaks(dist, floor=0.05), expected)
    elapsed = time.perf_counter() - start
    ok = all(got == want for got, want in results.values()) and elapsed < 10.0
    got_counts = {k: v[0] for k, v in results.items()}
    report(4, ok, f"peak counts {got_counts} (want 1,2,3,4 at both angles), "
                  f"{elapsed:.1f}s (limit 10s)")


def test_criterion_5_collapse_and_revival():
    j = HalfInt(200)
    start = time.perf_counter()
    state = to_eigenbasis(FIG2, j, dicke_state(200, 200))
    times = np.linspace(0.0, 350.0, 4000)
    series = evolve_observable(FIG2, j, state, "Jz", times)
    env = envelope_metric(series, window=4 * math.pi)
    elapsed = time.perf_counter() - start
    initial = env.values[0]
    collapse_zone = env.values[(times > 20.0) & (times < 200.0)]
    collapsed = float(np.min(collapse_zone)) / initial
    t_rev = math.pi / 0.01
    revival_zone = env.values[(times >= 0.95 * t_rev) & (times <= 1.05 * t_rev)]
    revived = float(np.max(revival_zone)) / initial
    ok = collapsed < 0.10 and revived > 0.50 and elapsed < 20.0
    report(5, ok, f"envelope collapses to {collapsed:.1e} of initial before t=200, "
                  f"revives to {revived:.2f} within 5% of pi/A2={t_rev:.2f}, "
                  f"{elapsed:.1f}s (limit 20s)")


def test_criterion_6_linear_spectrum_control():
    params = ModelParams(order=1, coeffs=(0.0, 1.0), angles=RotationAngles(1.5, 0.0))
    j = HalfInt(200)
    state = to_eigenbasis(params, j, dicke_state(200, 200))
    period = 2.0 * math.pi
    samples_per_period = 40
    dt = period / samples_per_period
    times = np.arange(0, 12 * samples_per_period + 1) * dt
    series = evolve_observable(params, j, state, "Jz", times)
    v = series.values - series.values.mean()
    k = samples_per_period
    corr = float(np.dot(v[k:], v[:-k]) / (np.linalg.norm(v[k:]) * np.linalg.norm(v[:-k])))
    env = envelope_metric(series, window=1.5 * period)
    interior = env.values[(times > period) & (times < times[-1] - period)]
    no_collapse = float(np.min(interior)) / float(np.max(env.values))
    ok = corr >= 0.999 and no_collapse >= 0.9
    report(6, ok, f"autocorrelation at one period {corr:.6f} (limit 0.999), "
                  f"envelope floor {no_collapse:.3f} of peak (no collapse)")


def test_criterion_7_diagnostic_ledger():
    sweeps = run_diagnostic_sweeps(twice_j=12, seed=0)
    worst_cv = max(d.cv for d in sweeps)
    factors = {d.name: round(d.mean_ratio, 9) for d in sweeps}
    ok = all(d.passed for d in sweeps) and len(sweeps) >= 4
    report(7, ok, f"measured factors {factors}, worst cv {worst_cv:.2e} "
                  f"(limit {CV_LIMIT:.0e})")


def test_criterion_8_conservation_suite():
    worst_norm = 0.0
    worst_energy = 0.0
    cases = [
        (FIG2, HalfInt(200), to_eigenbasis(FIG2, HalfInt(200), dicke_state(200, 200))),
        (ModelParams(order=1, coeffs=(0.0, 1.0), angles=RotationAngles(1.5)),
         HalfInt(200),
         to_eigenbasis(ModelParams(order=1, coeffs=(0.0, 1.0),
                                   angles=RotationAngles(1.5)),
                       HalfInt(200), dicke_state(200, 200))),
        (ModelParams(order=3, coeffs=(0.1, 1.0, 0.02, 0.001),
                     angles=RotationAngles(0.9, 2.0)),
         HalfInt(30),
         to_eigenbasis(ModelParams(order=3, coeffs=(0.1, 1.0, 0.02, 0.001),
                                   angles=RotationAngles(0.9, 2.0)),
                       HalfInt(30), dicke_state(30, -30))),
    ]
    for params, j, state in cases:
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0))
        e_ref = None
        for t in (0.0, 5.3, 97.0, 311.0):
            psi = state_at(params, j, state, t)
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(psi)) - 1.0))
            e_t = float(np.real(np.vdot(psi, apply_hamiltonian(params, j, psi))))
            if e_ref is None:
                e_ref = e_t
            worst_energy = max(worst_energy, abs(e_t - e_ref) / (1.0 + abs(e_ref)))
    worst_dist = 0.0
    for theta in (1.5, math.pi / 4):
        for m0 in (1000, 997):
            dist = ground_distribution(
                ModelParams.quadratic(-float(m0), 0.5, theta=theta), HalfInt(2000))
            worst_dist = max(worst_dist, abs(float(np.sum(dist.probs)) - 1.0))
    ok = worst_norm <= 1e-9 and worst_energy <= 1e-9 and worst_dist <= 1e-10
    report(8, ok, f"norm drift {worst_norm:.1e} (limit 1e-9), <H> drift "
                  f"{worst_energy:.1e} (limit 1e-9), distribution sum error "
                  f"{worst_dist:.1e} (limit 1e-10)")


def test_criterion_9_recipe_determinism(tmp_path):
    identical = True
    details = []
    for recipe in RECIPES:
        command = "evolve" if "fig2" in recipe else "ground"
        blobs = []
        for run, threads in ((0, "1"), (1, "4")):
            out = tmp_path / f"{recipe.replace('/', '_')}.{run}.csv"
            code = main([command, "--config", recipe, "--out", str(out),
                         "--threads", threads])
            assert code == EXIT_OK
            blobs.append(out.read_bytes())
        same = blobs[0] == blobs[1]
        identical = identical and same
        details.append(f"{recipe}:{'ok' if same else 'DIFFERS'}")
    report(9, identical, "byte-identical across runs and --threads: " + ", ".join(details))
