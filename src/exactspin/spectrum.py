"""Closed-form eigensystem, ground-state selection, and the brute-force oracle.

The closed form gives every eigenpair without diagonalizing anything:
energies are the polynomial values E_m and eigenvectors the rotated
basis states U†|j,m>.  brute_diagonalize is an independent in-house
eigensolver used to verify that claim; it shares no code path with the
closed form and calls no LAPACK.  A Householder reduction (Golub & Van
Loan, section 8.3) takes each Hermitian matrix, scaled by an exact power
of two, to a real symmetric tridiagonal.  Up to _LEAF rows a
parallel-ordered (Brent–Luk) Jacobi with inner rotations diagonalizes
that in real arithmetic; a larger one goes to Cuppen's divide and conquer
(Cuppen 1981), with the same Jacobi on its leaves and Gu–Eisenstat
eigenvectors in its merges (Gu & Eisenstat 1995).  It takes one matrix or
a stack (..., n, n) in one pass.  Matrices of different sizes share a
stack zero-padded to the largest: a pad index is never rotated or mixed,
so it adds the eigenvalue 0.0 on its own unit vector and leaves every
other eigenpair of its matrix with zero pad rows.

Ground-state selection follows the quadratic classification (vertex of
the energy parabola, clamped to the magnetic range), generalized from
integer m to the half-integer grid, and is always cross-checked against
an exhaustive scan.  Energy comparisons near ties are done in exact
rational arithmetic so degeneracy flags do not depend on float rounding.
"""

from __future__ import annotations

import functools
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
# tridiagonals up to this size go to _jacobi whole; larger ones are torn into leaves this small
_LEAF = 24
# bisection alone takes a half gap (< 4 after scaling) to 16 ulps of the smallest
# live offset (~tol²/rho ~ 1e-30) in about 150 halvings
_SECULAR_MAX_STEPS = 200


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


def _tridiagonalize(stack: np.ndarray, power=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction of each Hermitian member of stack (b, n, n), times 2**power.

    power (one int, or one per member) scales each member exactly before the
    reduction.  Returns (diag, off, qd) of shapes (b, n), (b, n - 1), (b, n, n): qd = Q·D is
    unitary and qdᴴ·h·qd is the real symmetric tridiagonal with diagonal diag and
    off-diagonal off >= 0.  Q is the product of the reflectors I - u·uᴴ; a
    column whose tail below the subdiagonal is exactly zero, or so small that
    its squares underflow, gets the identity (u = 0).  The diagonal unitary D
    then turns each subdiagonal entry e_k into |e_k|: its phase chain
    d_{k+1} = d_k·e_k/|e_k| restarts at 1 after a zero e_k, so a block that is
    decoupled from the rows above (a zero pad, a block-diagonal input) keeps
    exactly the basis it had.
    """
    b, n, _ = stack.shape
    a = np.array(stack, dtype=complex, order="C")
    np.ldexp(a.view(float), np.reshape(power, (-1, 1, 1)), out=a.view(float))
    q = np.zeros((b, n, n), dtype=complex)
    q[:, np.arange(n), np.arange(n)] = 1.0
    for k in range(n - 2):
        x = a[:, k + 1:, k]
        norm = np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=1))
        reflect = np.any(x[:, 1:] != 0.0, axis=1) & (norm > 0.0)
        if not reflect.any():
            continue
        x0 = x[:, 0]
        r0 = np.abs(x0)
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
    # complex division by a subnormal |e_k| overflows (it takes 1/|e_k|), so such
    # an e_k and its modulus are first lifted by the exact factor 2^600
    small = off < np.finfo(float).tiny
    e_unit = np.where(small, e * 2.0 ** 600, e)
    off_unit = np.where(small, np.abs(e_unit), off)
    d = np.ones((b, n), dtype=complex)
    for k in range(n - 1):
        linked = off[:, k] > 0.0
        chained = (d[:, k] * np.where(linked, e_unit[:, k], 1.0)
                   / np.where(linked, off_unit[:, k], 1.0))
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


@functools.lru_cache(maxsize=None)
def _jacobi_tables(n: int) -> tuple[np.ndarray, np.ndarray,
                                    tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """_jacobi's index tables for size n, built once and shared read-only.

    Returns (seat, pick, rounds): the seating of round 0; the flat offsets in
    y = [A | Vᵀ] of each slot pair's a_pq, a_pp and a_qq; and per round the
    move taking its rows to the next round's seating with the flat offsets of
    the pair entries a_pq, a_qp once the columns have moved.
    """
    m = n + n % 2
    width = m + n
    seatings = _seatings(n)
    slots = np.arange(m)
    p, q = slots[0::2], slots[1::2]
    pick = np.concatenate((p * width + q, p * width + p, q * width + q))
    rounds = []
    for now, then in zip(seatings, seatings[1:] + seatings[:1]):
        move = np.argsort(now)[then]
        back = np.argsort(move)
        rounds.append((move, np.stack((p * width + back[q], q * width + back[p]))))
    tables = [seatings[0], pick, *(t for r in rounds for t in r)]
    for t in tables:
        t.flags.writeable = False
    return seatings[0], pick, tuple(rounds)


def _jacobi(diag: np.ndarray, off: np.ndarray, stop: np.ndarray,
            member: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parallel-ordered Jacobi on the real symmetric tridiagonals (diag, off) of a stack.

    Returns (w, v): the eigenvalues (b, n) in index order, unsorted, and the
    real eigenvector columns (b, n, n).  The working array y = [A | Vᵀ] holds
    each matrix in the seating of the current round, so the round's pairs are
    adjacent rows; odd n adds the dummy index n as a zero row and column of A.
    A matrix whose off-diagonal norm is still above its stop after
    JACOBI_MAX_SWEEPS sweeps raises RuntimeError, named by member[i] (default i).
    """
    b, n = diag.shape
    m = n + n % 2
    seat, pick, rounds = _jacobi_tables(n)
    slots = np.arange(m)
    t = np.zeros((b, m, m))
    t[:, np.arange(n), np.arange(n)] = diag
    t[:, np.arange(1, n), np.arange(n - 1)] = off
    t[:, np.arange(n - 1), np.arange(1, n)] = off
    y = np.concatenate((t[:, seat[:, None], seat], np.broadcast_to(np.eye(m, n)[seat], (b, m, n))),
                       axis=2)
    width = m + n
    final = np.empty_like(y)
    live = np.arange(b)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
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
        if sweep == JACOBI_MAX_SWEEPS:
            i = live[0]
            name = i if member is None else member[i]
            raise RuntimeError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps: "
                               f"member {name} has off-diagonal norm {off_norm[0]:.3e} "
                               f"> stop {stop[i]:.3e}")
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
    # back to index order from the seating of round 0, the dummy dropped
    slot_of = np.argsort(seat)[:n]
    return final[:, slot_of, slot_of], final[:, slot_of, m:].swapaxes(1, 2)


def _tree(n: int) -> list[list[tuple[int, int]]]:
    """The tearing tree of a size-n tridiagonal: its nodes (start, stop) by depth, root first.

    A node larger than _LEAF is torn at its midpoint into the two nodes of the
    next depth; the others are leaves.
    """
    levels = [[(0, n)]]
    while any(stop - start > _LEAF for start, stop in levels[-1]):
        levels.append([half for start, stop in levels[-1] if stop - start > _LEAF
                       for half in ((start, (start + stop) // 2), ((start + stop) // 2, stop))])
    return levels


def _deflate(d, z, q, rho):
    """Sort the poles of D + rho·z·zᵀ (rho >= 0) and deflate them, for each item of a batch.

    d, z (B, N) and q (B, N, N) are permuted together so that d ascends.  Type 1:
    an entry with rho·|z_i| <= tol leaves the secular equation as it is.  Type 2:
    of two live poles whose gap times c·s falls below tol, a Givens rotation of
    their columns of q moves all of z onto the upper one and the lower one
    deflates.  Pairs are taken by the parity of their rank among the live
    entries, so each round's rotations are disjoint, until both parities find
    nothing.  Returns (d, z, q, live).
    """
    order = np.argsort(d, axis=1, kind="stable")
    d = np.take_along_axis(d, order, axis=1)
    z = np.take_along_axis(z, order, axis=1)
    q = np.take_along_axis(q, order[:, None, :], axis=2)
    b, n = d.shape
    tol = 8.0 * np.finfo(float).eps * np.maximum(np.max(np.abs(d), axis=1),
                                                 rho * np.max(np.abs(z), axis=1))
    live = rho[:, None] * np.abs(z) > tol[:, None]
    cols = np.arange(n)
    parity, quiet = 0, 0
    while quiet < 2:
        # the previous live index of each entry, and each entry's rank among the live ones
        below = np.maximum.accumulate(np.where(live, cols, -1), axis=1)
        prev = np.concatenate((np.full((b, 1), -1), below[:, :-1]), axis=1)
        rank = np.cumsum(live, axis=1)
        bi, ji = np.nonzero(live & (prev >= 0) & (rank % 2 == parity))
        pi = prev[bi, ji]
        zj, zp = z[bi, ji], z[bi, pi]
        tau = np.hypot(zj, zp)
        c, s = zj / tau, -zp / tau
        dj, dp = d[bi, ji], d[bi, pi]
        go = np.abs((dj - dp) * c * s) <= tol[bi]
        parity ^= 1
        if not go.any():
            quiet += 1
            continue
        quiet = 0
        bi, ji, pi, c, s, dj, dp = (x[go] for x in (bi, ji, pi, c, s, dj, dp))
        z[bi, ji] = tau[go]
        z[bi, pi] = 0.0
        live[bi, pi] = False
        d[bi, pi] = dp * c * c + dj * s * s
        d[bi, ji] = dp * s * s + dj * c * c
        qp, qj = q[bi, :, pi], q[bi, :, ji]
        q[bi, :, pi] = c[:, None] * qp + s[:, None] * qj
        q[bi, :, ji] = c[:, None] * qj - s[:, None] * qp
    return d, z, q, live


def _secular(d, z, rho, live):
    """Roots of 1 + rho·sum_k z_k²/(d_k - λ) over the live poles, one per live pole.

    d ascends and its live entries are distinct.  The root of live pole j lies
    between it and the next live pole (the last one's below d_j + rho·|z|²).
    Each root is found as an offset delta from the nearer of its two poles,
    chosen by the sign of the function at the middle of the gap, so that the
    differences d_k - λ = (d_k - origin) - delta keep their relative accuracy
    however close λ is to a pole.  delta takes Newton steps on the pole-free

        phi = (origin - λ)·f
            = rho·z_o² - delta·(1 + rho·sum_{k != o} z_k²/(d_k - origin - delta)),

    or a bisection of its bracket where a step would leave it.  A root is
    done once its step is below 4 ulps of delta, or its bracket below 16:
    the test is relative to delta, not to λ, which would end the search for
    a root next to a pole long before delta has any digits.  A converged
    root stays put while the others go on.  Returns (origin index, delta,
    next live index), all (B, N) and meaningful at live entries.
    """
    b, n = d.shape
    eps = np.finfo(float).eps
    rows, cols = np.arange(b)[:, None], np.arange(n)
    ahead = np.minimum.accumulate(np.where(live, cols, n)[:, ::-1], axis=1)[:, ::-1]
    nxt = np.concatenate((ahead[:, 1:], np.full((b, 1), n)), axis=1)
    last = live & (nxt == n)
    inner = live & ~last
    gap = np.where(inner, d[rows, np.minimum(nxt, n - 1)] - d, 0.0)
    zsq = np.where(live, z * z, 0.0)
    rho = rho[:, None]
    # sign of f at the middle of each gap: f >= 0 puts the root in its lower half
    pair = inner[:, :, None] & live[:, None, :]
    mid = np.divide(zsq[:, None, :], d[:, None, :] - d[:, :, None] - 0.5 * gap[:, :, None],
                    out=np.zeros(pair.shape), where=pair)
    upper = inner & (1.0 + rho * mid.sum(axis=2) < 0.0)
    origin = np.where(upper, nxt, cols)
    shift = d[:, None, :] - d[rows, origin][:, :, None]  # d_k - d_origin(j) at [., j, k]
    others = live[:, :, None] & live[:, None, :] & (cols[None, None, :] != origin[:, :, None])
    weight = np.where(others, zsq[:, None, :], 0.0)
    z_origin = zsq[rows, origin]
    sign = np.where(upper, -1.0, 1.0)
    lo = np.where(upper, -0.5 * gap, 0.0)
    hi = np.where(upper, 0.0, np.where(last, rho * zsq.sum(axis=1, keepdims=True), 0.5 * gap))
    delta = np.zeros((b, n))
    active = live.copy()
    for _ in range(_SECULAR_MAX_STEPS):
        inv = np.divide(1.0, shift - delta[:, :, None], out=np.zeros(others.shape), where=others)
        terms = weight * inv
        g = 1.0 + rho * terms.sum(axis=2)
        phi = rho * z_origin - delta * g
        dphi = -g - delta * rho * (terms * inv).sum(axis=2)
        # phi has the sign of the lower bracket end below the root
        lo = np.where(active & (sign * phi > 0.0), delta, lo)
        hi = np.where(active & (sign * phi < 0.0), delta, hi)
        step = np.divide(phi, dphi, out=np.full((b, n), np.nan), where=dphi != 0.0)
        new = delta - step
        # a step below 4 ulps is taken as it is, even onto a bracket end; a
        # bracket of 16 ulps ends the search where rounding makes phi's sign noise
        small = np.abs(step) <= 4.0 * eps * np.abs(new)
        new = np.where(small | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        done = small | (hi - lo <= 16.0 * eps * np.abs(new))
        delta = np.where(active, new, delta)
        active &= ~done
        if not active.any():
            return origin, delta, nxt
    raise RuntimeError(f"secular equation unsolved after {_SECULAR_MAX_STEPS} steps")


def _merge(d1, q1, d2, q2, rho):
    """Eigensystems of the tridiagonals diag(T1, T2) + rho·u·uᵀ from those of T1 and T2.

    (d1, q1) and (d2, q2) are the eigenvalues (B, k), (B, N - k) and
    eigenvector columns of each item's two halves, and u = e_{k-1} + e_k, so
    the merged matrix is Q·(D + rho·z·zᵀ)·Qᵀ with Q = diag(q1, q2) and z = Qᵀu.
    After deflation, Gu–Eisenstat's ẑ (the z whose D + rho·ẑ·ẑᵀ has exactly the
    computed roots) gives eigenvectors ẑ_i/(d_i - λ_j) that are orthogonal to
    working accuracy, and Q times them is one matmul.  Returns (w, v) of shapes
    (B, N) and (B, N, N): the eigenvalues unsorted, each live root at the place
    of its lower pole.
    """
    b, k = d1.shape
    n = k + d2.shape[1]
    q = np.zeros((b, n, n))
    q[:, :k, :k] = q1
    q[:, k:, k:] = q2
    d, z, q, live = _deflate(np.concatenate((d1, d2), axis=1),
                             np.concatenate((q1[:, -1], q2[:, 0]), axis=1), q, rho)
    origin, delta, nxt = _secular(d, z, rho, live)
    rows, cols = np.arange(b)[:, None], np.arange(n)
    pair = live[:, :, None] & live[:, None, :]
    # lam_d[., i, j] = λ_j - d_i, from the origin of root j
    lam_d = delta[:, None, :] - (d[:, :, None] - d[rows, origin][:, None, :])
    # ẑ_i² = prod_j (λ_j - d_i) / (rho·prod_{k != i} (d_k - d_i)), each root paired with
    # the pole next to it on d_i's side, so that every ratio but the last lies in (0, 1)
    last = live & (nxt == n)
    beside = np.where(cols[None, None, :] < cols[None, :, None], d[:, None, :],
                      d[rows, np.minimum(nxt, n - 1)][:, None, :]) - d[:, :, None]
    beside = np.where(last[:, None, :], rho[:, None, None], beside)
    ratio = np.divide(lam_d, beside, out=np.ones(pair.shape), where=pair)
    zhat = np.copysign(np.sqrt(np.prod(ratio, axis=2)), z)
    u = np.divide(zhat[:, :, None], -lam_d, out=np.zeros(pair.shape), where=pair)
    u /= np.where(live, np.sqrt(np.sum(u * u, axis=1)), 1.0)[:, None, :]
    u = np.where(pair, u, np.eye(n))
    w = np.where(live, d[rows, origin] + delta, d)
    return w, q @ u


def _divide_conquer(diag: np.ndarray, off: np.ndarray,
                    scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cuppen's divide and conquer on the real symmetric tridiagonals (diag, off) of a stack.

    Returns (w, v) as _jacobi does.  Every node of _tree(n) larger than _LEAF is
    torn at its midpoint m: T = diag(T1, T2) + beta·u·uᵀ with beta = off[m - 1]
    and u = e_{m-1} + e_m, beta subtracted from the two diagonal entries it
    touches.  The leaves of every member, torn, go to _jacobi in one call per
    leaf size; then each depth is merged from the bottom up, one batched
    _merge per node size.  All members share the tree, so a member's leaves and
    merges see only its own entries.
    """
    b, n = diag.shape
    levels = _tree(n)
    # leaves converge to the deflation tolerance of the merges, not to
    # JACOBI_TOL: a leaf whose couplings all sit below 1e-14 must still rotate
    leaf_stop = 8.0 * np.finfo(float).eps * scale
    tears = [(start + stop) // 2 for level in levels for start, stop in level
             if stop - start > _LEAF]
    torn = diag.copy()
    for mid in tears:
        torn[:, mid - 1:mid + 1] -= off[:, mid - 1:mid]
    solved = {}

    def keep(group, w, v):
        # results arrive member-major, (b·len(group), ...)
        w, v = w.reshape(b, len(group), *w.shape[1:]), v.reshape(b, len(group), *v.shape[1:])
        for i, node in enumerate(group):
            solved[node] = w[:, i], v[:, i]

    def gather(nodes, item):
        return np.stack([solved[node][item] for node in nodes], axis=1).reshape(
            b * len(nodes), *solved[nodes[0]][item].shape[1:])

    for level in reversed(levels):
        for size in sorted({stop - start for start, stop in level}):
            group = [(start, stop) for start, stop in level if stop - start == size]
            if size <= _LEAF:
                at = np.array([np.arange(start, stop) for start, stop in group])
                keep(group, *_jacobi(torn[:, at].reshape(-1, size),
                                     off[:, at[:, :-1]].reshape(-1, size - 1),
                                     np.repeat(leaf_stop, len(group)),
                                     np.repeat(np.arange(b), len(group))))
                continue
            mids = [(start + stop) // 2 for start, stop in group]
            lower = [(start, mid) for (start, _), mid in zip(group, mids)]
            upper = [(mid, stop) for (_, stop), mid in zip(group, mids)]
            keep(group, *_merge(gather(lower, 0), gather(lower, 1), gather(upper, 0),
                                gather(upper, 1), off[:, np.array(mids) - 1].reshape(-1)))
    return solved[(0, n)]


def brute_diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder front end, then Jacobi or divide and conquer (independent oracle).

    h is one Hermitian matrix (n, n) or a stack of them (..., n, n); a single
    matrix runs as a stack of one.  Returns (eigenvalues ascending, eigenvector
    columns) with shapes (..., n) and (..., n, n).

    Each member is first multiplied by the exact power of two that brings its
    largest |entry| to [1, 2), and its eigenvalues are divided by it at the
    end.  In the normal range that changes no bit; it keeps squares of
    entries near 1e308 finite and subnormal entries out of the rounding.
    Householder reflections Q and a diagonal unitary D take each matrix to a
    real symmetric tridiagonal T = (QD)ᴴ·h·QD, and the eigenvectors are
    Q·D·V_T.

    For n <= _LEAF a real Jacobi with inner rotations (|angle| <= pi/4; outer
    ones about double the sweep count under this ordering) diagonalizes T.
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
    zero.  A matrix still above its stop after JACOBI_MAX_SWEEPS raises
    RuntimeError.

    For n > _LEAF, T is torn at midpoints into rank-one-coupled halves down
    to leaves of at most _LEAF rows (_divide_conquer).  The same Jacobi
    solves all leaves of a size in one call, and each merge deflates, solves
    its secular equation by safeguarded Newton steps on the offset from the
    nearer pole, and builds Gu–Eisenstat eigenvectors in one matmul.  Every
    member shares the tree and each step is elementwise or per member, so on
    either path a stack member gets the bits of a call on it alone.

    Zero padding is exact.  Householder leaves the pad rows alone and D
    restarts its phase at the zero subdiagonal, so a pad index of T meets only
    a_pq = 0 and is never rotated, and in every merge a pad's entry of z is
    exactly zero, so it deflates and passes through untouched.  Each pad
    eigenvalue is exactly 0.0 with the unit vector at its index as
    eigenvector, and the other eigenvectors have exactly zero pad rows.
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
    # an exact power of two takes each member to max|entry| in [1, 2), clear of
    # overflow and of subnormals; in the normal range it changes no bit
    power = 1 - np.frexp(scale)[1]
    scale = np.ldexp(scale, power)
    diag, off, qd = _tridiagonalize(stack, power)
    if n <= _LEAF:
        # quadratic convergence makes the exit off-norm far below this bound;
        # eps*n guards against stalling at the rounding floor of large matrices
        stop = np.maximum(scale, np.finfo(float).tiny) * max(JACOBI_TOL, np.finfo(float).eps * n)
        w, v_t = _jacobi(diag, off, stop)
    else:
        w, v_t = _divide_conquer(diag, off, scale)
    order = np.argsort(w, axis=1, kind="stable")
    w = np.ldexp(np.take_along_axis(w, order, axis=1), -power[:, None])
    v_t = np.take_along_axis(v_t, order[:, None, :], axis=2)
    v = qd.real @ v_t + 1j * (qd.imag @ v_t)
    return w.reshape(h.shape[:-1]), v.reshape(h.shape)
