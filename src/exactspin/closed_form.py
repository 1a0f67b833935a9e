"""Closed-form eigensystem and ground-state selection.

The closed form gives every eigenpair without diagonalizing anything:
energies are the polynomial values E_m and eigenvectors the rotated
basis states U†|j,m>, each certified by its residual ||Hv - Ev||.

Ground-state selection follows the quadratic classification (vertex of
the energy parabola, clamped to the magnetic range), generalized from
integer m to the half-integer grid, and is always cross-checked against
an exhaustive scan.  Each only names candidate m values; one exact
rational comparison picks among them and flags degeneracy, so neither
depends on float rounding.  fractions is imported only then, so the
spectrum and evolve commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, apply_hamiltonian, energy_values
from .rotation import little_d, rotated_basis_state
from .su2 import HalfInt, _check_j, m_floats

__all__ = [
    "EigenPair",
    "exact_spectrum",
    "GroundStateResult",
    "ground_state",
    "residual_norm",
]


@dataclass(frozen=True)
class EigenPair:
    """A closed-form eigenpair: label m, energy E_m, eigenvector U†|j,m>."""

    m: HalfInt
    energy: float
    vector: np.ndarray


def exact_spectrum(params: ModelParams, j) -> list[EigenPair]:
    """All 2j+1 closed-form eigenpairs, ascending m.  No diagonalization."""
    j = _check_j(j)
    energies = energy_values(params, j)
    # row k of little_d (unit norm) times e^{-i phi m_k} is U†|j,m_k>, as in rotated_basis_state
    phases = np.exp(-1j * params.angles.phi * m_floats(j))
    vecs = little_d(j, params.angles.theta) * phases[:, None]
    return [EigenPair(m=HalfInt(twice_m), energy=float(e), vector=v)
            for twice_m, e, v in zip(range(-j.twice, j.twice + 1, 2), energies, vecs)]


def _exact_energy(params: ModelParams, twice_m: int):
    """E_m as an exact Fraction (floats are embedded exactly)."""
    from fractions import Fraction

    m = Fraction(twice_m, 2)
    e = Fraction(0)
    for a in reversed(params.coeffs):
        e = e * m + Fraction(a)
    return e


@dataclass(frozen=True)
class GroundStateResult:
    pair: EigenPair
    m0: HalfInt
    degenerate: bool
    method: str  # "closed_form" or "scan"


def _exact_minimum(params: ModelParams, candidates) -> tuple[int, bool]:
    """(twice_m0, degenerate) over ascending candidates twice_m: exact, ties to the lower m."""
    energies = [_exact_energy(params, int(t)) for t in candidates]
    best = min(energies)
    return int(candidates[energies.index(best)]), energies.count(best) >= 2


def _scan_minimum(params: ModelParams, j: HalfInt) -> tuple[int, bool]:
    """Exhaustive minimum over the m grid: (twice_m0, degenerate).

    The candidates are every m whose float energy sits within the evaluation
    error bound of the float minimum, or every m when that window is not
    finite (an overflowing energy, which is why its overflow warnings are silenced)."""
    twice_grid = np.arange(-j.twice, j.twice + 1, 2)
    jmag = max(1.0, j.twice / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = energy_values(params, j)
        scale = sum(abs(a) * jmag**i for i, a in enumerate(params.coeffs))
        window = 64.0 * np.finfo(float).eps * max(scale, 1.0) * (params.order + 1)
        bound = float(np.min(energies)) + window
    return _exact_minimum(params, twice_grid[energies <= bound] if math.isfinite(bound)
                          else twice_grid)


def _closed_form_quadratic(params: ModelParams, j: HalfInt) -> tuple[int, bool]:
    """Vertex-based minimum of E_m = a0 + a1 m + a2 m^2 on the m grid.

    The candidates are the grid points on either side of the vertex, clamped
    to the range, or both range ends when a2 <= 0 (concave or linear)."""
    from fractions import Fraction

    _, a1, a2 = params.coeffs
    lo, hi = -j.twice, j.twice
    if a2 > 0:
        below = lo + 2 * math.floor((Fraction(-a1) / Fraction(a2) - lo) / 2)
        candidates = {min(max(t, lo), hi) for t in (below, below + 2)}
    else:
        candidates = {lo, hi}
    return _exact_minimum(params, sorted(candidates))


def ground_state(params: ModelParams, j) -> GroundStateResult:
    """Minimum-energy eigenpair with the closed-form rule cross-checked by scan."""
    j = _check_j(j)
    scan_t, scan_deg = _scan_minimum(params, j)
    if params.order == 2:
        cf_t, cf_deg = _closed_form_quadratic(params, j)
        if cf_t != scan_t or cf_deg != scan_deg:
            raise RuntimeError(
                f"closed-form ground state (m0 twice={cf_t}, deg={cf_deg}) disagrees "
                f"with exhaustive scan (twice={scan_t}, deg={scan_deg}) for {params}"
            )
        method = "closed_form"
    else:
        method = "scan"
    m0 = HalfInt(scan_t)
    exact = _exact_energy(params, scan_t)
    try:
        energy = float(exact)
    except OverflowError:  # an exact energy beyond float range maps to +-inf by its sign
        energy = math.inf if exact > 0 else -math.inf
    vec = rotated_basis_state(j, params.angles, m0)
    pair = EigenPair(m=m0, energy=energy, vector=vec)
    return GroundStateResult(pair=pair, m0=m0, degenerate=scan_deg, method=method)


def residual_norm(params: ModelParams, j, pair: EigenPair) -> float:
    """Eigenpair certificate ||H v - E v||_2 via the matrix-free product."""
    hv = apply_hamiltonian(params, j, pair.vector)
    return float(np.linalg.norm(hv - pair.energy * pair.vector))
