"""Closed-form eigensystem, ground-state selection, and the brute-force oracle.

The closed form gives every eigenpair without diagonalizing anything:
energies are the polynomial values E_m and eigenvectors the rotated
basis states U†|j,m>.  brute_diagonalize is an independent in-house
eigensolver used to verify that claim; it shares no code path with the
closed form and calls no LAPACK.  A Householder reduction (Golub & Van
Loan, section 8.3) takes each Hermitian matrix to a real symmetric
tridiagonal, and a parallel-ordered (Brent–Luk) Jacobi with inner
rotations diagonalizes that in real arithmetic.  It takes one matrix or
a stack (..., n, n) in one pass.  Matrices of different sizes share a
stack zero-padded to the largest: a pad index is never rotated, so it
adds the eigenvalue 0.0 on its own unit vector and leaves every other
eigenpair of its matrix with zero pad rows.

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


def _tridiagonalize(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction of each Hermitian member of stack (b, n, n).

    Returns (diag, off, qd) of shapes (b, n), (b, n - 1), (b, n, n): qd = Q·D is
    unitary and qdᴴ·h·qd is the real symmetric tridiagonal with diagonal diag and
    off-diagonal off >= 0.  Q is the product of the reflectors I - u·uᴴ; a
    column whose tail below the subdiagonal is exactly zero gets the identity
    (u = 0).  The diagonal unitary D then turns each subdiagonal entry
    e_k into |e_k|: its phase chain d_{k+1} = d_k·e_k/|e_k| restarts at 1 after
    a zero e_k, so a block that is decoupled from the rows above (a zero pad, a
    block-diagonal input) keeps exactly the basis it had.
    """
    b, n, _ = stack.shape
    a = stack.astype(complex)
    q = np.zeros((b, n, n), dtype=complex)
    q[:, np.arange(n), np.arange(n)] = 1.0
    for k in range(n - 2):
        x = a[:, k + 1:, k]
        reflect = np.any(x[:, 1:] != 0.0, axis=1)
        if not reflect.any():
            continue
        x0 = x[:, 0]
        r0 = np.abs(x0)
        norm = np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=1))
        # x -> alpha·e_1 with alpha = -phase(x0)·|x|; v = x - alpha·e_1 adds magnitudes,
        # and u = v·sqrt(tau) with tau = 2 / |v|^2 = 1 / (|x|·(|x| + |x0|)) makes H = I - u·uᴴ
        phase = np.where(r0 > 0.0, x0 / np.where(r0 > 0.0, r0, 1.0), 1.0)
        root_tau = np.where(reflect, 1.0 / np.sqrt(np.where(reflect, norm * (norm + r0), 1.0)), 0.0)
        u = x * root_tau[:, None]
        u[:, 0] = phase * (r0 + norm) * root_tau
        x[:, 0] = np.where(reflect, -phase * norm, x0)
        # trailing block S <- H·S·H as one rank-2 update S - u·wᴴ - w·uᴴ,
        # w = S·u - (uᴴ·S·u / 2)·u
        s = a[:, k + 1:, k + 1:]
        su = (s @ u[:, :, None])[:, :, 0]
        w = su - (0.5 * np.sum(u.conj() * su, axis=1))[:, None] * u
        s -= np.stack((u, w), axis=2) @ np.stack((w.conj(), u.conj()), axis=1)
        qs = q[:, :, k + 1:]
        qs -= (qs @ u[:, :, None]) * u.conj()[:, None, :]
    e = a[:, np.arange(1, n), np.arange(n - 1)]
    off = np.abs(e)
    d = np.ones((b, n), dtype=complex)
    for k in range(n - 1):
        linked = off[:, k] > 0.0
        chained = d[:, k] * np.where(linked, e[:, k], 1.0) / np.where(linked, off[:, k], 1.0)
        d[:, k + 1] = np.where(linked, chained / np.abs(chained), 1.0)
    return a[:, np.arange(n), np.arange(n)].real, off, q * d[:, None, :]


def _seatings(n: int) -> list[np.ndarray]:
    """The _round_robin(n) rounds as seatings of m = n + n % 2 indices.

    Each round's pairs (p, q) sit on adjacent slots (2i, 2i + 1); for odd n the
    dummy index n sits last, beside the index it meets this round.
    """
    m = n + n % 2
    seatings = []
    for p, q in _round_robin(n):
        seat = np.full(m, n)
        seat[0:2 * p.size:2] = p
        seat[1:2 * p.size:2] = q
        if p.size < m // 2:
            seat[-2] = n * (n - 1) // 2 - p.sum() - q.sum()
        seatings.append(seat)
    return seatings


def _jacobi(diag: np.ndarray, off: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-ordered Jacobi on the real symmetric tridiagonals (diag, off) of a stack.

    Returns (w, v): the eigenvalues (b, n) in index order, unsorted, and the
    real eigenvector columns (b, n, n).  The working array y = [A | Vᵀ] holds
    each matrix in the seating of the current round, so the round's pairs are
    adjacent rows; odd n adds the dummy index n as a zero row and column of A.
    """
    b, n = diag.shape
    m = n + n % 2
    width = m + n
    seatings = _seatings(n)
    seat = seatings[0]
    slots = np.arange(m)
    p, q = slots[0::2], slots[1::2]
    # flat offsets in y of each pair's a_pq, a_pp and a_qq
    pick = np.concatenate((p * width + q, p * width + p, q * width + q))
    rounds = []
    for now, then in zip(seatings, seatings[1:] + seatings[:1]):
        # move takes the rows of this round to the seating of the next one
        move = np.argsort(now)[then]
        back = np.argsort(move)
        # flat offsets in y of the pair entries a_pq, a_qp once the columns have moved
        rounds.append((move, np.stack((p * width + back[q], q * width + back[p]))))
    t = np.zeros((b, m, m))
    t[:, np.arange(n), np.arange(n)] = diag
    t[:, np.arange(1, n), np.arange(n - 1)] = off
    t[:, np.arange(n - 1), np.arange(1, n)] = off
    y = np.concatenate((t[:, seat[:, None], seat], np.broadcast_to(np.eye(m, n)[seat], (b, m, n))),
                       axis=2)
    final = np.empty_like(y)
    live = np.arange(b)
    for sweep in range(JACOBI_MAX_SWEEPS):
        sq = y[:, :, :m] ** 2
        sq[:, slots, slots] = 0.0
        off_norm = np.sqrt(np.sum(sq, axis=(1, 2)))
        # a converged matrix leaves the stack (a sweep ends in the seating of
        # round 0): from here on it would get only identity rotations
        done = off_norm <= stop[live]
        final[live[done]] = y[done]
        live, y, off_norm = live[~done], y[~done], off_norm[~done]
        if not live.size:
            break
        size = live.size
        # threshold strategy: skip tiny elements in early sweeps
        thresh = (off_norm / (n * n) if sweep < 3 else np.zeros(size))[:, None]
        # work buffers, refilled every round
        g = np.empty((size, m // 2, 2, 2))
        g4 = g.reshape(size, m // 2, 4)
        rows = np.empty_like(y)
        moved = np.empty((size, m, m))
        at = np.empty((size, m, m))
        for move, zero in rounds:
            apq, app, aqq = y.reshape(size, -1)[:, pick].reshape(size, 3, m // 2).swapaxes(0, 1)
            rot = np.abs(apq) > thresh
            rotating = rot.any()
            if rotating:
                # inner angle: tan(2·angle) = 2·a_pq / (a_pp - a_qq) with |angle| <= pi/4;
                # a pair below threshold gets angle 0, the identity
                d = app - aqq
                angle = 0.5 * np.arctan2(np.where(rot, apq, 0.0) * np.copysign(2.0, d), np.abs(d))
                c = np.cos(angle)
                s = np.sin(angle)
                g4[..., 0::3] = c[..., None]
                g4[..., 1] = s
                np.negative(s, out=g4[..., 2])
                # rows p, q of A and Vᵀ
                np.matmul(g, y.reshape(size, m // 2, 2, width),
                          out=rows.reshape(size, m // 2, 2, width))
            else:
                rows, y = y, rows
            # columns p, q of A are rows p, q of its transpose (A stays symmetric),
            # taken with the columns already in the next round's seating
            np.take(rows[:, :, :m], move, axis=1, out=moved, mode="clip")
            np.copyto(at, moved.swapaxes(1, 2))
            if rotating:
                np.matmul(g, at.reshape(size, m // 2, 2, m),
                          out=rows[:, :, :m].reshape(size, m // 2, 2, m))
                # only rotated pairs get a_pq = a_qp = 0
                flat = rows.reshape(size, -1)
                flat[:, zero] = np.where(rot[:, None], 0.0, flat[:, zero])
            else:
                rows[:, :, :m] = at
            # then the rows, into the next round's seating
            np.take(rows, move, axis=1, out=y, mode="clip")
    final[live] = y
    # back to index order from the seating of round 0, the dummy dropped
    slot_of = np.argsort(seat)[:n]
    return final[:, slot_of, slot_of], final[:, slot_of, m:].swapaxes(1, 2)


def brute_diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder front end, then parallel-ordered (Brent–Luk) Jacobi (independent oracle).

    h is one Hermitian matrix (n, n) or a stack of them (..., n, n); a single
    matrix runs as a stack of one.  Returns (eigenvalues ascending, eigenvector
    columns) with shapes (..., n) and (..., n, n).

    Householder reflections Q and a diagonal unitary D take each matrix to a
    real symmetric tridiagonal T = (QD)ᴴ·h·QD.  A real Jacobi with inner
    rotations (|angle| <= pi/4; outer ones about double the sweep count under
    this ordering) then diagonalizes T, and the eigenvectors are Q·D·V_T.
    Each sweep runs the round-robin ordering: every round annihilates n/2
    disjoint off-diagonal pairs of every matrix at once.  The working array
    [A | V_Tᵀ] is kept with each round's pairs on adjacent rows, so the row
    update is one batched product of (b, m/2, 2, 2) rotations, and the column
    update is the same product on the transpose of the A part (A stays
    symmetric); then the rows and A's columns move to the next round's
    seating, whether or not any pair rotated.  Odd n is padded with an exact
    zero dummy index that is dropped at the end.  Each matrix keeps its own
    scale, stop and threshold: it stops rotating once its off-diagonal
    Frobenius norm falls below JACOBI_TOL * scale, and within a round its pairs
    below threshold get the identity rotation; only rotated pairs are set to
    zero.  A stack member therefore gets the bits of a call on it alone.

    Zero padding is exact.  Householder leaves the pad rows alone and D
    restarts its phase at the zero subdiagonal, so a pad index of T meets only
    a_pq = 0 and is never rotated: each pad eigenvalue is exactly 0.0 with the
    unit vector at its index as eigenvector, and the other eigenvectors have
    exactly zero pad rows.
    Deliberately self-contained: no LAPACK, no reuse of the closed form.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"square matrices required, got shape {h.shape}")
    n = h.shape[-1]
    if not 1 <= n <= ORACLE_MAX_DIM:
        raise ValueError(f"oracle needs 1 <= dim <= {ORACLE_MAX_DIM}, got {n}")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian to 1e-12 of its magnitude")
    stack = h.reshape(-1, n, n)
    scale = np.max(np.abs(stack), axis=(1, 2), initial=0.0)
    # quadratic convergence makes the exit off-norm far below this bound;
    # eps*n guards against stalling at the rounding floor of large matrices
    stop = np.maximum(scale, np.finfo(float).tiny) * max(JACOBI_TOL, np.finfo(float).eps * n)
    diag, off, qd = _tridiagonalize(stack)
    w, v_t = _jacobi(diag, off, stop)
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v_t = np.take_along_axis(v_t, order[:, None, :], axis=2)
    v = qd.real @ v_t + 1j * (qd.imag @ v_t)
    return w.reshape(h.shape[:-1]), v.reshape(h.shape)
