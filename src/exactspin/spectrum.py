"""Closed-form eigensystem, ground-state selection, and the brute-force oracle.

The closed form gives every eigenpair without diagonalizing anything:
energies are the polynomial values E_m and eigenvectors the rotated
basis states U†|j,m>.  brute_diagonalize is an independent in-house
parallel-ordered (Brent–Luk) Jacobi eigensolver with inner rotations,
used to verify that claim; it shares no code path with the closed form.

Ground-state selection follows the quadratic classification (vertex of
the energy parabola, clamped to the magnetic range), generalized from
integer m to the half-integer grid, and is always cross-checked against
an exhaustive scan.  Energy comparisons near ties are done in exact
rational arithmetic so degeneracy flags do not depend on float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import ModelParams, apply_hamiltonian, energy_values
from .rotation import little_d, rotated_basis_state
from .su2 import HalfInt, _check_j, is_hermitian, m_floats

__all__ = [
    "EigenPair",
    "exact_spectrum",
    "GroundStateResult",
    "ground_state",
    "residual_norm",
    "brute_diagonalize",
]

ORACLE_MAX_DIM = 201
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


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


def _exact_energy(params: ModelParams, twice_m: int) -> Fraction:
    """E_m in exact rational arithmetic (floats are embedded exactly)."""
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


def _scan_minimum(params: ModelParams, j: HalfInt) -> tuple[int, bool]:
    """Exhaustive minimum over the m grid: (twice_m0, degenerate).

    Float evaluation locates candidates; the winner and the degeneracy
    flag are decided by exact rational comparison among every m whose
    float energy sits within the evaluation error bound of the float
    minimum; when that window is not finite (an overflowing energy), among
    every m.  Ties go to the lower m.
    """
    energies = energy_values(params, j)
    twice_grid = np.arange(-j.twice, j.twice + 1, 2)
    jmag = max(1.0, j.twice / 2.0)
    scale = sum(abs(a) * jmag**i for i, a in enumerate(params.coeffs))
    window = 64.0 * np.finfo(float).eps * max(scale, 1.0) * (params.order + 1)
    bound = float(np.min(energies)) + window
    candidates = twice_grid[energies <= bound] if math.isfinite(bound) else twice_grid
    best_t = None
    best_e = None
    hits = 0
    for t in candidates:
        e = _exact_energy(params, int(t))
        if best_e is None or e < best_e:
            best_e = e
            best_t = int(t)
            hits = 1
        elif e == best_e:
            hits += 1
    return best_t, hits >= 2


def _closed_form_quadratic(params: ModelParams, j: HalfInt) -> tuple[int, bool]:
    """Vertex-based minimum of E_m = a0 + a1 m + a2 m^2 on the m grid."""
    _, a1, a2 = params.coeffs
    if a2 > 0:
        # nearest valid m to the parabola vertex, clamped to the range ends
        vertex_twice = Fraction(-a1) / Fraction(a2)  # = 2 * (-a1 / (2 a2))
        lo = Fraction(-j.twice)
        hi = Fraction(j.twice)
        if vertex_twice <= lo:
            return -j.twice, False
        if vertex_twice >= hi:
            return j.twice, False
        steps = (vertex_twice + j.twice) / 2
        below = -j.twice + 2 * (steps.numerator // steps.denominator)
        above = below + 2
        e_below = _exact_energy(params, below)
        e_above = _exact_energy(params, min(above, j.twice))
        if e_below == e_above:
            return below, True
        return (below, False) if e_below < e_above else (min(above, j.twice), False)
    if a2 < 0:
        # concave parabola: minimum at an endpoint, sign of a1 decides
        if a1 == 0:
            return -j.twice, j.twice > 0
        return (j.twice, False) if a1 < 0 else (-j.twice, False)
    # a2 == 0: linear
    if a1 > 0:
        return -j.twice, False
    if a1 < 0:
        return j.twice, False
    return -j.twice, j.twice > 0


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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of the round-robin (tournament) ordering as (p, q) rounds.

    Every pair p < q appears exactly once per sweep, and the pairs of one
    round are disjoint: n - 1 rounds of n/2 pairs for even n.  Odd n is
    padded with a dummy index n whose pairs are dropped.
    """
    m = n + n % 2
    players = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        left, right = players[:m // 2], players[::-1][:m // 2]
        p, q = np.minimum(left, right), np.maximum(left, right)
        keep = q < n
        rounds.append((p[keep], q[keep]))
        # index 0 stays put; the others move one seat round the table
        players = np.concatenate(([0], np.roll(players[1:], 1)))
    return rounds


def brute_diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-ordered (Brent–Luk) Jacobi with inner rotations (independent oracle).

    Each sweep runs the round-robin ordering: every round annihilates n/2
    disjoint off-diagonal pairs at once with commuting complex Givens
    rotations, applied as array operations, until the off-diagonal
    Frobenius norm falls below JACOBI_TOL * scale.  Rotations are inner (|angle|
    <= pi/4): under this ordering outer ones about double the sweep count.
    Returns (eigenvalues ascending, eigenvector columns).
    Deliberately self-contained: no LAPACK, no reuse of the closed form.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    if n > ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dim <= {ORACLE_MAX_DIM}, got {n}")
    if not is_hermitian(a, tol=1e-12):
        raise ValueError("matrix is not Hermitian to 1e-12 of its magnitude")
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    # quadratic convergence makes the exit off-norm far below this bound;
    # eps*n guards against stalling at the rounding floor of large matrices
    stop = scale * max(JACOBI_TOL, np.finfo(float).eps * n)
    rounds = _round_robin(n)
    for sweep in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= stop:
            break
        # threshold strategy: skip tiny elements in early sweeps
        thresh = off / (n * n) if sweep < 3 else 0.0
        for p, q in rounds:
            apq = a[p, q]
            r = np.abs(apq)
            keep = r > thresh
            if not keep.any():
                continue
            p, q, apq, r = p[keep], q[keep], apq[keep], r[keep]
            f = apq / r
            d = a[p, p].real - a[q, q].real
            angle = 0.5 * np.arctan2(np.copysign(2.0 * r, d), np.abs(d))
            c = np.cos(angle)
            s = np.sin(angle)
            sf = s * f
            sfc = np.conj(sf)
            col_p = a[:, p]
            col_q = a[:, q]
            a[:, p] = c * col_p + sfc * col_q
            a[:, q] = -sf * col_p + c * col_q
            row_p = a[p, :]
            row_q = a[q, :]
            a[p, :] = c[:, None] * row_p + sf[:, None] * row_q
            a[q, :] = -sfc[:, None] * row_p + c[:, None] * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            v_p = v[:, p]
            v_q = v[:, q]
            v[:, p] = c * v_p + sfc * v_q
            v[:, q] = -sf * v_p + c * v_q
    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
