"""Self-verification suite: required oracle checks and measured-deviation sweeps.

Two kinds of output:

* required checks — properties the construction must satisfy (algebra,
  unitarity, closed-form spectrum vs. the brute-force oracle, ground
  rule vs. scan, conservation laws).  Any failure is an error.  The
  oracle diagonalizes the dense model H = p(T), a polynomial in the real
  tridiagonal T = U† Jz U built with no rotation code, so agreement with
  {E_m} checks spec p(T) = p(spec T) independently of little-d.

* diagnostic sweeps — the printed ladder expansion, the printed rate
  identity, the printed population-evolution formula, and the two-mode
  population-difference normalization all deviate from the model
  H = p(T), equal to U† diag(E_m) U, by fixed conventions.  Each deviation is
  measured as a ratio over a 20-point theta sweep; the ratio's value is
  reported, and only its CONSTANCY (coefficient of variation < 1e-6) is
  required, which shows the discrepancy is a systematic convention and
  not noise.

Observations (the rotated-observable phase-shift lag, the two-mode
matrix deviation) are recorded without any pass/fail judgement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .closed_form import exact_spectrum, ground_state, residual_norm
from .dynamics import (
    EigenbasisState,
    _dicke_state,
    _rotated_bands,
    evolve_series,
    state_at,
)
from .model import ModelParams, apply_hamiltonian, energy_values, model_hamiltonian
from .observables import count_peaks, ground_distribution
from .rotation import RotationAngles, little_d, rotation_matrix
from .spectrum import brute_diagonalize
from .su2 import HalfInt, commutator, operator_matrix
from .two_mode import (
    FockSector,
    _printed_h2,
    fock_hamiltonian,
    paper_literal_h2,
    rate_relation,
    two_mode_coefficients,
)

__all__ = [
    "CheckResult",
    "DiagnosticSweep",
    "Observation",
    "series_expm",
    "run_required_checks",
    "run_diagnostic_sweeps",
    "run_observations",
    "build_report",
    "CV_LIMIT",
]

CV_LIMIT = 1e-6
# spectrum_vs_oracle draws twice_j up to this, whatever max_twice_j asks for;
# the report's settings carry the cap actually used
ORACLE_MAX_TWICE_J = 20
SWEEP_THETAS = np.linspace(0.1, 3.0, 20)
SWEEP_PHI = 0.4


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""


@dataclass
class DiagnosticSweep:
    name: str
    mean_ratio: float
    cv: float
    passed: bool  # constancy only; the ratio value itself is informational
    thetas: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    detail: str = ""


@dataclass
class Observation:
    name: str
    value: float
    detail: str = ""


def series_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaled Taylor series (independent test oracle).

    Each of the s = ceil(log2(||a||_inf / 0.25)) squarings doubles the
    rounding error, so the result is off by about 2^s * eps.  At twice_j 25,
    exp(i*6*Jz) (s = 9) has diagonal moduli off 1 by 6.9e-14, and
    U† diag(E) U built from it is off p(T) by up to 2.6e-13 * ||H||_inf.
    It is a reference for small dimensions only: at dims 61-201 more
    squarings make it weaker than the model H = p(T) it would check."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for i in range(1, 60):
        term = term @ b / i
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def _random_params(rng: np.random.Generator, max_order: int = 4) -> ModelParams:
    order = int(rng.integers(1, max_order + 1))
    coeffs = tuple(rng.uniform(-2.0, 2.0, size=order + 1))
    theta = float(rng.uniform(1e-3, np.pi - 1e-3))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    return ModelParams(order=order, coeffs=coeffs, angles=RotationAngles(theta, phi))


def run_required_checks(max_twice_j: int = 24, draws: int = 40,
                        seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    def add(name, measured, limit, detail=""):
        checks.append(CheckResult(name=name, passed=bool(measured <= limit),
                                  measured=float(measured), limit=float(limit),
                                  detail=detail))

    # su(2) algebra
    worst = 0.0
    for twice_j in (1, 2, 3, 7, 24, 50):
        jz = operator_matrix(HalfInt(twice_j), "Jz")
        jp = operator_matrix(HalfInt(twice_j), "Jplus")
        jm = operator_matrix(HalfInt(twice_j), "Jminus")
        jx = operator_matrix(HalfInt(twice_j), "Jx")
        jy = operator_matrix(HalfInt(twice_j), "Jy")
        jj = twice_j * (twice_j + 2) / 4.0
        eye = np.eye(twice_j + 1)
        worst = max(
            worst,
            np.max(np.abs(commutator(jz, jp) - jp)),
            np.max(np.abs(commutator(jp, jm) - 2 * jz)),
            np.max(np.abs(jx @ jx + jy @ jy + jz @ jz - jj * eye)),
        )
    add("su2_algebra", worst, 1e-10, "commutators and Casimir, j <= 25")

    # little-d orthogonality and composition
    worst = 0.0
    for twice_j in (1, 2, 9, 50):
        for theta in (0.0, 0.7, 2.9):
            d = little_d(HalfInt(twice_j), theta)
            worst = max(worst, np.max(np.abs(d @ d.T - np.eye(twice_j + 1))))
    add("little_d_orthogonality", worst, 1e-10, "d d^T = I, dim <= 51")

    worst = 0.0
    for twice_j in (1, 4, 24):
        for t1, t2 in ((0.3, 0.5), (1.1, 2.0), (2.5, 2.9)):
            lhs = little_d(HalfInt(twice_j), t1) @ little_d(HalfInt(twice_j), t2)
            worst = max(worst, np.max(np.abs(lhs - little_d(HalfInt(twice_j), t1 + t2))))
    add("little_d_composition", worst, 1e-9, "d(t1) d(t2) = d(t1+t2)")

    worst = 0.0
    for twice_j in (1, 2, 4, 9):
        for theta in (0.3, 2.5):
            d = little_d(HalfInt(twice_j), theta)
            ref = series_expm(1j * theta * operator_matrix(HalfInt(twice_j), "Jy"))
            worst = max(worst, np.max(np.abs(d - ref)))
    add("little_d_series_oracle", worst, 1e-9, "matches scaled Taylor exponential")

    worst = 0.0
    for twice_j in (3, 50):
        u = rotation_matrix(HalfInt(twice_j), RotationAngles(0.7, 1.1))
        worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(twice_j + 1))))
    add("rotation_unitarity", worst, 1e-10, "U†U = I, dim <= 51")

    # closed-form spectrum vs brute-force oracle on H = p(T): every draw zero-padded
    # into one stack
    oracle_twice_j = min(max_twice_j, ORACLE_MAX_TWICE_J)
    drawn = []
    for _ in range(draws):
        params = _random_params(rng)
        drawn.append((params, HalfInt(int(rng.integers(1, oracle_twice_j + 1)))))
    dim = max((j.twice + 1 for _, j in drawn), default=1)
    stack = np.zeros((draws, dim, dim), dtype=complex)
    for h, (params, j) in zip(stack, drawn):
        h[:j.twice + 1, :j.twice + 1] = model_hamiltonian(params, j)
    worst = 0.0
    for (params, j), w, v in zip(drawn, *brute_diagonalize(stack)):
        # the pad eigenvectors are unit vectors on the pad rows, so the draw's own
        # eigenvalues are those whose eigenvector has support in its first rows
        own = np.any(v[:j.twice + 1] != 0.0, axis=0)
        exact = np.sort(energy_values(params, j))
        worst = max(worst, np.max(np.abs(w[own] - exact)))
    add("spectrum_vs_oracle", worst, 1e-9, f"{draws} random draws, j <= {oracle_twice_j / 2}")

    # eigenpair certificates
    params = ModelParams(order=3, coeffs=(0.5, 1.0, 2.0, 3.0), angles=RotationAngles(1.2, 0.8))
    j = HalfInt(24)
    norm_a = sum(abs(a) for a in params.coeffs)
    bound = 1e-8 * (1.0 + norm_a * (j.twice / 2.0) ** params.order)
    pairs = exact_spectrum(params, j)
    worst = max(residual_norm(params, j, p) for p in pairs)
    add("eigenpair_residuals", worst, bound, "||Hv - Ev|| for every m at j=12")

    # gram orthonormality of the closed-form eigenvectors
    vecs = np.column_stack([p.vector for p in pairs])
    worst = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(j.twice + 1))))
    add("eigenvector_gram", worst, 1e-9, "closed-form eigenvectors orthonormal")

    # ground-state rule vs scan (ground_state raises internally on mismatch)
    for _ in range(draws):
        a2 = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 2.0))
        a1 = float(rng.uniform(-2.0, 2.0))
        twice_j = int(rng.integers(1, 60))
        params = ModelParams.quadratic(a1, a2, theta=float(rng.uniform(0.1, 3.0)))
        ground_state(params, HalfInt(twice_j))
    add("ground_rule_vs_scan", 0.0, 0.5, f"{draws} quadratic draws, closed form == scan")

    # conservation along evolution
    params = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(40)
    state = _dicke_state(params, j, j.twice)  # |j, j>
    norm_drift = abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0)
    e0 = None
    worst = 0.0
    for t in (0.0, 3.7, 55.0, 200.0):
        psi_t = state_at(params, j, state, t)
        worst = max(worst, abs(np.linalg.norm(psi_t) - 1.0))
        e_t = float(np.real(np.vdot(psi_t, apply_hamiltonian(params, j, psi_t))))
        if e0 is None:
            e0 = e_t
        worst = max(worst, abs(e_t - e0) / (1.0 + abs(e0)))
    add("conservation", max(worst, norm_drift), 1e-9, "norm and <H> along evolution")

    # distribution normalization (constructor enforces 1e-10; re-measure)
    dist = ground_distribution(params, HalfInt(60))
    add("distribution_normalization", abs(float(np.sum(dist.probs)) - 1.0), 1e-10)

    # two-mode sector sanity
    sector = FockSector(1)
    coeffs = two_mode_coefficients(ModelParams.quadratic(1.0, 0.0, theta=np.pi / 2), 1)
    h = fock_hamiltonian(coeffs, sector, phi=0.3)
    expected = coeffs.josephson * np.array([[0, np.exp(-0.3j)], [np.exp(0.3j), 0]])
    add("fock_single_particle", float(np.max(np.abs(h - expected))), 1e-12,
        "N=1 exchange-only sector")

    return checks


def _sweep(name: str, ratio_fn, detail: str = "") -> DiagnosticSweep:
    ratios = np.array([ratio_fn(float(t)) for t in SWEEP_THETAS])
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / abs(mean)) if mean != 0.0 else float("inf")
    return DiagnosticSweep(
        name=name,
        mean_ratio=mean,
        cv=cv,
        passed=bool(cv < CV_LIMIT),
        thetas=[float(t) for t in SWEEP_THETAS],
        ratios=[float(r) for r in ratios],
        detail=detail,
    )


def _band_max(mat: np.ndarray, offset: int) -> float:
    return float(np.max(np.abs(np.diagonal(mat, offset=-offset))))


def run_diagnostic_sweeps(twice_j: int = 12, seed: int = 0) -> list[DiagnosticSweep]:
    j = HalfInt(twice_j)
    phi = SWEEP_PHI

    def band_ratio(a1, a2, offset):
        def ratio(theta):
            params = ModelParams.quadratic(a1, a2, theta, phi)
            printed = _printed_h2(params, j)
            exact = model_hamiltonian(params, j)
            return _band_max(printed, offset) / _band_max(exact, offset)
        return ratio

    def rate_ratio(theta):
        lhs, rhs = rate_relation(ModelParams.quadratic(1.0, 0.01, theta, phi))
        return lhs / rhs

    rng = np.random.default_rng(seed)
    c = rng.normal(size=twice_j + 1)
    c /= np.linalg.norm(c)
    fixed_state = EigenbasisState(c.astype(complex))
    times = np.linspace(0.0, 40.0, 400)

    def printed_formula_rms(theta):
        params = ModelParams.quadratic(1.0, 0.05, theta, phi)
        exact, printed = evolve_series(params, j, fixed_state, ("Jz", "printed"), times).T
        diag, _ = _rotated_bands(j, params.angles, "Jz")
        osc = exact - float(np.sum(np.abs(c) ** 2 * diag))
        return float(np.sqrt(np.mean(printed**2)) / np.sqrt(np.mean(osc**2)))

    sector = FockSector(twice_j)

    def detuning_normalization(theta):
        coeffs = two_mode_coefficients(ModelParams.quadratic(1.0, 0.3, theta, phi),
                                       sector.n_total)
        lit = np.real(np.diag(fock_hamiltonian(coeffs, sector, "paper_literal", phi)))
        std = np.real(np.diag(fock_hamiltonian(coeffs, sector, "standard", phi)))
        odd_lit = (lit - lit[::-1]) / 2.0
        odd_std = (std - std[::-1]) / 2.0
        return float(np.max(np.abs(odd_lit)) / np.max(np.abs(odd_std)))

    return [
        _sweep("printed_h2_linear_band_factor", band_ratio(1.0, 0.0, 1),
               "one-flip band of the printed quadratic expansion vs the model p(T)"),
        _sweep("printed_h2_cross_band_factor", band_ratio(0.0, 1.0, 1),
               "flip-plus-dispersion band of the printed expansion vs the model p(T)"),
        _sweep("printed_h2_double_band_factor", band_ratio(0.0, 1.0, 2),
               "two-flip band of the printed expansion vs the model p(T)"),
        _sweep("rate_identity_factor", rate_ratio,
               "(mu+Lambda)/U divided by the printed closed form"),
        _sweep("printed_population_formula_rms_factor", printed_formula_rms,
               "RMS of the printed <Jz> formula vs the exact oscillating part"),
        _sweep("population_difference_normalization_factor", detuning_normalization,
               "literal vs standard normalization of the detuning term"),
    ]


def _lag_correlations(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized correlation of a[lag:] with b[:n - lag] for lag = 0..max_lag.

    One correlate call gives every dot product (a padded with max_lag zeros), and the
    norms are a suffix sum of a^2 and a prefix sum of b^2."""
    dots = np.correlate(np.concatenate((a, np.zeros(max_lag))), b, "valid")
    tail = np.cumsum(a[::-1] ** 2)[::-1][:max_lag + 1]  # |a[lag:]|^2
    head = np.cumsum(b**2)[::-1][:max_lag + 1]  # |b[:n - lag]|^2
    return dots / np.sqrt(tail * head)


def run_observations() -> list[Observation]:
    obs: list[Observation] = []

    # rotated-observable phase shift: <Jy> vs <Jz> on the collapse-revival setup
    params = ModelParams.quadratic(1.0, 0.01, theta=1.5)
    j = HalfInt(200)
    state = _dicke_state(params, j, j.twice)  # |j, j>
    times = np.linspace(0.0, 25.0, 2500)
    jz, jy = evolve_series(params, j, state, ("Jz", "Jy"), times).T
    jz0 = jz - jz.mean()
    jy0 = jy - jy.mean()
    period = 2.0 * np.pi / abs(params.coeffs[1])
    dt = times[1] - times[0]
    corrs = _lag_correlations(jz0, jy0, int(round(period / dt)))
    best = int(np.argmax(corrs))
    obs.append(Observation(
        name="jy_vs_jz_lag_over_quarter_period",
        value=best * dt / (period / 4.0),
        detail=f"best lag {best * dt:.4f} at correlation {corrs[best]:.6f}; "
               "the quarter-period shift claim holds if this is ~1",
    ))

    # two-mode build vs the model p(T) on one sector (spectral deviation)
    n_total = 6
    params6 = ModelParams.quadratic(1.0, 0.3, theta=1.1, phi=0.7)
    coeffs = two_mode_coefficients(params6, n_total)
    sector = FockSector(n_total)
    h_fock = fock_hamiltonian(coeffs, sector, "standard", phi=0.7)
    h_model = model_hamiltonian(params6, sector.j)
    (w_fock, w_model), _ = brute_diagonalize(np.stack([h_fock, h_model]))
    obs.append(Observation(
        name="two_mode_spectral_deviation",
        value=float(np.max(np.abs(w_fock - w_model))),
        detail="sorted eigenvalue gap between the printed two-mode build "
               f"(standard convention) and the model p(T) at N={n_total}",
    ))
    obs.append(Observation(
        name="two_mode_matrix_deviation",
        value=float(np.max(np.abs(h_fock - h_model))),
        detail="elementwise gap of the same pair",
    ))

    # printed quadratic expansion deviation at one representative point
    dev = paper_literal_h2(params6, HalfInt(6)).max_abs_diff
    obs.append(Observation(
        name="printed_h2_max_deviation",
        value=dev,
        detail="elementwise gap between the printed expansion and the model p(T)",
    ))

    # the peak-count law on a desk-size instance
    params_peaks = ModelParams.quadratic(-58.0, 1.0, theta=1.5)
    dist = ground_distribution(params_peaks, HalfInt(60))
    obs.append(Observation(
        name="desk_scale_peak_count",
        value=float(count_peaks(dist)),
        detail="ground-state lobes at j=30 with the vertex 1 step inside the edge",
    ))

    return obs


def build_report(max_twice_j: int = 24, draws: int = 40, seed: int = 0,
                 sweep_twice_j: int = 12) -> dict:
    required = run_required_checks(max_twice_j=max_twice_j, draws=draws, seed=seed)
    diagnostics = run_diagnostic_sweeps(twice_j=sweep_twice_j, seed=seed)
    observations = run_observations()
    passed = all(c.passed for c in required) and all(d.passed for d in diagnostics)
    return {
        "passed": passed,
        "settings": {"max_twice_j": max_twice_j,
                     "oracle_max_twice_j": min(max_twice_j, ORACLE_MAX_TWICE_J),
                     "draws": draws, "seed": seed},
        "required": [asdict(c) for c in required],
        "diagnostics": [asdict(d) for d in diagnostics],
        "observations": [asdict(o) for o in observations],
    }
