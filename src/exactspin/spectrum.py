"""Closed-form eigensystem, ground-state selection, and the brute-force oracle.

The closed form gives every eigenpair without diagonalizing anything:
energies are the polynomial values E_m and eigenvectors the rotated
basis states U†|j,m>.  brute_diagonalize is an independent in-house
parallel-ordered (Brent–Luk) Jacobi eigensolver with inner rotations,
used to verify that claim; it shares no code path with the closed form.
It takes one matrix or a stack (..., n, n) in one pass.  Matrices of
different sizes share a stack zero-padded to the largest: a pad index is
never rotated, so it adds the eigenvalue 0.0 on its own unit vector and
leaves every other eigenpair of its matrix with zero pad rows.

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
from .su2 import HalfInt, _check_j, m_floats

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

    h is one Hermitian matrix (n, n) or a stack of them (..., n, n); a single
    matrix runs as a stack of one.  Returns (eigenvalues ascending, eigenvector
    columns) with shapes (..., n) and (..., n, n).

    Each sweep runs the round-robin ordering: every round annihilates n/2
    disjoint off-diagonal pairs of every matrix at once with commuting complex
    Givens rotations, applied as array operations.  Each matrix keeps its own
    scale, stop and threshold: it stops rotating once its off-diagonal
    Frobenius norm falls below JACOBI_TOL * scale, and within a round its pairs
    below threshold get the identity rotation.  Rotations are inner (|angle| <=
    pi/4): under this ordering outer ones about double the sweep count.

    Zero padding is exact.  A matrix zero-padded to the stack's n pairs every
    pad index only with a_pq = 0, so no pad index is ever rotated: each pad
    eigenvalue is exactly 0.0 with the unit vector at its index as eigenvector,
    and the other eigenvectors have exactly zero pad rows.
    Deliberately self-contained: no LAPACK, no reuse of the closed form.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"square matrices required, got shape {h.shape}")
    n = h.shape[-1]
    if not 1 <= n <= ORACLE_MAX_DIM:
        raise ValueError(f"oracle needs 1 <= dim <= {ORACLE_MAX_DIM}, got {n}")
    stack = h.reshape(-1, n, n)
    scale = np.max(np.abs(stack), axis=(1, 2), initial=0.0)
    asym = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    if not np.all(asym <= 1e-12 * scale):
        raise ValueError("matrix is not Hermitian to 1e-12 of its magnitude")
    # row i of y is column i of A, then column i of V: the column rotation that
    # A and V share is one update of contiguous rows, and only the A half (the
    # transpose at, at[:, i, k] = a[:, k, i]) takes the row rotation
    y = np.zeros((stack.shape[0], n, 2 * n), dtype=complex)
    y[:, :, :n] = stack.swapaxes(1, 2)
    y[:, :, n:] = np.eye(n)
    at = y[:, :, :n]
    # quadratic convergence makes the exit off-norm far below this bound;
    # eps*n guards against stalling at the rounding floor of large matrices
    stop = np.maximum(scale, np.finfo(float).tiny) * max(JACOBI_TOL, np.finfo(float).eps * n)
    diag = np.arange(n)
    rounds = [(p, q, np.concatenate((p, q)), np.concatenate((q, p))) for p, q in _round_robin(n)]
    for sweep in range(JACOBI_MAX_SWEEPS):
        sq = np.abs(at) ** 2
        sq[:, diag, diag] = 0.0
        off = np.sqrt(np.sum(sq, axis=(1, 2)))
        done = off <= stop
        if done.all():
            break
        # threshold strategy: skip tiny elements in early sweeps; a converged
        # matrix gets an infinite threshold, so nothing rotates it again
        thresh = np.where(done, np.inf, off / (n * n) if sweep < 3 else 0.0)[:, None]
        for p, q, pq, qp in rounds:
            apq = at[:, q, p]
            r = np.abs(apq)
            rot = r > thresh
            if not rot.any():
                continue
            # a pair below threshold gets angle 0: c = 1, s = 0, the identity
            r = np.where(rot, r, 0.0)
            f = apq / np.where(rot, r, 1.0)
            d = at[:, p, p].real - at[:, q, q].real
            angle = 0.5 * np.arctan2(np.copysign(2.0 * r, d), np.abs(d))
            c = np.cos(angle)
            sf = np.sin(angle) * f
            sfc = np.conj(sf)
            # columns p, q of A and V (rows of y), then rows p, q of A (columns
            # of at); updating in place spares the temporaries
            col_p = y[:, p]
            col_q = y[:, q]
            new = c[:, :, None] * col_p
            new += sfc[:, :, None] * col_q
            y[:, p] = new
            col_q *= c[:, :, None]
            col_q -= sf[:, :, None] * col_p
            y[:, q] = col_q
            row_p = at[:, :, p]
            row_q = at[:, :, q]
            new = c[:, None] * row_p
            new += sf[:, None] * row_q
            at[:, :, p] = new
            row_q *= c[:, None]
            row_q -= sfc[:, None] * row_p
            at[:, :, q] = row_q
            # only rotated pairs get a_pq = a_qp = 0 and a real a_pp, a_qq
            rot2 = np.concatenate((rot, rot), axis=1)
            at[:, qp, pq] = np.where(rot2, 0.0, at[:, qp, pq])
            a_pp = at[:, pq, pq]
            at[:, pq, pq] = np.where(rot2, a_pp.real, a_pp)
    w = np.real(at[:, diag, diag])
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(y[:, :, n:].swapaxes(1, 2), order[:, None, :], axis=2)
    return w.reshape(h.shape[:-1]), v.reshape(h.shape)
