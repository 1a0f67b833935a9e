"""The brute-force oracle: an eigensolver independent of the closed form.

brute_diagonalize is an in-house eigensolver used to verify the closed
form's claim; it shares no code path with it and calls no LAPACK.  A
Householder reduction (Golub & Van Loan, section 8.3) takes each Hermitian
matrix, scaled by an exact power of two, to a real symmetric tridiagonal,
with Q accumulated in compact-WY panels (Schreiber & Van Loan 1989), and
Cuppen's divide and conquer (Cuppen 1981) tears that down to 1×1 leaves
and merges them back: a Jacobi rotation for two leaves, and above them a
secular equation per merge, solved by Gragg's cubically convergent step
(the update of LAPACK's dlaed6) inside a bracket and stopped by dlaed4's
residual test (R.-C. Li, LAPACK Working Note 89), then Gu–Eisenstat
eigenvectors (Gu & Eisenstat 1995).  It takes one matrix or a stack
(..., n, n) in one pass.  Matrices of different sizes share a stack
zero-padded to the largest: a pad index is never coupled or mixed, so it
adds the eigenvalue 0.0 on its own unit vector and leaves every other
eigenpair of its matrix with zero pad rows.

The matrices it confronts are the dense model H = p(T) of
model_hamiltonian, a polynomial in the tridiagonal T = U† Jz U built with
no rotation code, so agreement with {E_m} shows spec p(T) = {p(m)}
without trusting little-d; the closed-form eigenvectors are certified
separately, by their residuals ||Hv - Ev||.
"""

from __future__ import annotations

import numpy as np

from .su2 import is_hermitian

__all__ = ["brute_diagonalize"]

ORACLE_MAX_DIM = 201
# bisection alone takes a half gap (< 4 after scaling) to 16 ulps of the smallest
# live offset (~tol²/rho ~ 1e-30) in about 150 halvings
_SECULAR_MAX_STEPS = 200
# above _WIDE rows the Householder reduction works in panels of _PANEL reflectors and
# Q in panels of 2·_PANEL; up to it, one reflector at a time and Q in panels of _PANEL/2
_WIDE = 64
_PANEL = 16
# a secular step below this fraction of its root's offset ends the root
_CUBIC = 2.0 ** -20
# the signs of the two sides of a root: below it (p, lo) and above it (q, hi)
_SIDES = np.array([[1.0], [-1.0]])


def _tridiagonalize(stack: np.ndarray, power=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction of each Hermitian member of stack (b, n, n), times 2**power.

    power (one int, or one per member) scales each member exactly before the
    reduction.  Returns (diag, off, qd) of shapes (b, n), (b, n - 1), (b, n, n): qd = Q·D is
    unitary and qdᴴ·h·qd is the real symmetric tridiagonal with diagonal diag and
    off-diagonal off >= 0.  Q is the product of the reflectors I - u·uᴴ; a
    column whose tail below the subdiagonal is exactly zero, or so small that
    its squares underflow, gets the identity (u = 0).  Above _WIDE rows the
    reduction works in panels of _PANEL reflectors (LAPACK's zlatrd scheme):
    each column is brought up to date from the panel's [u | w] pairs, w
    comes from the stale trailing block corrected by them, and the trailing
    block takes the whole panel as one product; up to _WIDE rows each
    reflector updates it at once.  Each reflector u is kept in its spent row
    of the reduced matrix, past the diagonal, and Q is built from the last
    panel back, each panel of reflectors applied as I - V·T·Vᴴ in two
    products, V read from those rows and T the inverse of
    I + strict_upper(Vᴴ·V), built column by column.  The diagonal unitary D
    then turns each subdiagonal entry e_k into |e_k|: its phase chain
    d_{k+1} = d_k·e_k/|e_k| restarts at 1 after a zero e_k, so a block that is
    decoupled from the rows above (a zero pad, a block-diagonal input) keeps
    exactly the basis it had.
    """
    b, n, _ = stack.shape
    a = np.array(stack, dtype=complex, order="C")
    np.ldexp(a.view(float), np.reshape(power, (-1, 1, 1)), out=a.view(float))
    # reflectors per panel: up to _WIDE rows the reduction is unblocked, since a
    # panel's extra products cost more than they save there
    width, q_width = (_PANEL, 2 * _PANEL) if n > _WIDE else (1, _PANEL // 2)
    # the panel's [u_i | w_i] pairs as columns and [w̄_i | ū_i] as rows: the update
    # u·wᴴ + w·uᴴ it owes the trailing block, summed over its steps, is vw @ wv
    vw = np.zeros((b, n, 2 * width), dtype=complex)
    wv = np.zeros((b, 2 * width, n), dtype=complex)
    for k0 in range(0, n - 2, width):
        k1 = min(k0 + width, n - 2)
        for k in range(k0, k1):
            j = 2 * (k - k0)
            if j:
                # column k as of step k: the stale column minus the panel's updates so far
                a[:, k:, k] -= (vw[:, k:, :j] @ wv[:, :j, k, None])[:, :, 0]
            x = a[:, k + 1:, k]
            sq = x.real ** 2 + x.imag ** 2
            reflect = np.add.reduce(sq[:, 1:], axis=1) > 0.0
            u, w, u_bar = vw[:, k + 1:, j], vw[:, k + 1:, j + 1], wv[:, j + 1, k + 1:]
            if not reflect.any():
                a[:, k, k + 1:] = 0.0  # u = 0: H_k = I
                vw[:, k + 1:, j:j + 2] = 0.0
                wv[:, j:j + 2, k + 1:] = 0.0
                continue
            norm = np.sqrt(np.add.reduce(sq, axis=1))
            x0 = x[:, 0]
            r0 = np.abs(x0)
            # x -> alpha·e_1 with alpha = -phase(x0)·|x|; v = x - alpha·e_1 adds
            # magnitudes, and u = v·sqrt(tau) with tau = 2 / |v|^2 = 1 / (|x|·(|x| + |x0|))
            # makes H = I - u·uᴴ
            phase = np.divide(x0, r0, out=np.ones(b, dtype=complex), where=r0 > 0.0)
            root_tau = np.divide(1.0, np.sqrt(norm * (norm + r0)), out=np.zeros(b), where=reflect)
            np.multiply(x, root_tau[:, None], out=u)
            u[:, 0] = phase * (r0 + norm) * root_tau
            x[:, 0] = np.where(reflect, -phase * norm, x0)
            np.conjugate(u, out=u_bar)
            # w = S·u - (uᴴ·S·u / 2)·u, S the trailing block as of step k: the stale
            # block minus the panel's updates so far
            su = (a[:, k + 1:, k + 1:] @ u[:, :, None])[:, :, 0]
            if j:
                su -= (vw[:, k + 1:, :j] @ (wv[:, :j, k + 1:] @ u[:, :, None]))[:, :, 0]
            np.subtract(su, (0.5 * np.add.reduce(u_bar * su, axis=1))[:, None] * u, out=w)
            np.conjugate(w, out=wv[:, j, k + 1:])
            # row k past the diagonal is read by no later step: it keeps u for Q
            a[:, k, k + 1:] = u
        # the trailing block S <- H·S·H for the panel's reflectors H, as one product
        j = 2 * (k1 - k0)
        a[:, k1:, k1:] -= vw[:, k1:, :j] @ wv[:, :j, k1:]
    # Q = H_0·H_1···, built from the last panel back: the panel of reflectors
    # k0..k1-1 is I - V·T·Vᴴ (compact WY), with V read from rows k0..k1-1 of a
    # and T upper triangular, the inverse of I + strict_upper(Vᴴ·V)
    q = np.zeros((b, n, n), dtype=complex)
    q[:, np.arange(n), np.arange(n)] = 1.0
    for k0 in reversed(range(0, n - 2, q_width)):
        k1 = min(k0 + q_width, n - 2)
        vt = np.triu(a[:, k0:k1, k0 + 1:])
        vh = vt.conj()
        g = vh @ vt.transpose(0, 2, 1)
        t = np.zeros_like(g)
        t[:, np.arange(k1 - k0), np.arange(k1 - k0)] = 1.0
        for i in range(1, k1 - k0):
            t[:, :i, i] = -(t[:, :i, :i] @ g[:, :i, i:i + 1])[:, :, 0]
        block = q[:, k0 + 1:, k0 + 1:]
        block -= (vt.transpose(0, 2, 1) @ t) @ (vh @ block)
    e = a[:, np.arange(1, n), np.arange(n - 1)]
    off = np.abs(e)
    # complex division by a subnormal |e_k| overflows (it takes 1/|e_k|), so such
    # an e_k and its modulus are first lifted by the exact factor 2^600
    lifted = np.where(off < np.finfo(float).tiny, e * 2.0 ** 600, e)
    linked = off > 0.0
    unit = np.divide(lifted, np.abs(lifted), out=np.ones_like(e), where=linked)
    d = np.ones((b, n), dtype=complex)
    for k in range(n - 1):
        chained = d[:, k] * unit[:, k]
        d[:, k + 1] = np.where(linked[:, k], chained / np.abs(chained), 1.0)
    q *= d[:, None, :]
    return a[:, np.arange(n), np.arange(n)].real, off, q


def _tree(n: int) -> list[list[tuple[int, int]]]:
    """The tearing tree of a size-n tridiagonal: its nodes (start, stop) by depth, root first.

    A node of two or more rows is torn at its midpoint into the two nodes of
    the next depth; the 1×1 nodes are the leaves.
    """
    levels = [[(0, n)]]
    while any(stop - start > 1 for start, stop in levels[-1]):
        levels.append([half for start, stop in levels[-1] if stop - start > 1
                       for half in ((start, (start + stop) // 2), ((start + stop) // 2, stop))])
    return levels


def _merge_plan(n: int) -> tuple[tuple, ...]:
    """Each depth of _tree(n) that has a node to merge, from the bottom up.

    Per depth (at, torn, size, k, pad, own_rows): at (nodes, size) lists each
    node's rows, a short lower half padded at its start and a short upper one
    at its end with the sentinel n, so that every node has size rows and its
    lower half k; torn holds the index of each node's torn coupling; pad
    (nodes,) is the place of each node's pad, or size for a node without one;
    own_rows is at sorted, the sentinel last.
    """
    plan = []
    for level in reversed(_tree(n)):
        nodes = [(start, (start + stop) // 2, stop) for start, stop in level if stop - start > 1]
        if nodes:
            size = max(stop - start for start, _, stop in nodes)
            k = size // 2
            at = np.array([[n] * (k - (mid - start)) + list(range(start, stop))
                           + [n] * (size - k - (stop - mid)) for start, mid, stop in nodes])
            pad = np.where(np.any(at == n, axis=1), np.argmax(at == n, axis=1), size)
            plan.append((at, np.array([mid - 1 for _, mid, _ in nodes]), size, k, pad,
                         np.sort(at, axis=1)))
    return tuple(plan)


def _deflate(d, z, rho):
    """Sort the poles of D + rho·z·zᵀ (rho >= 0) and deflate them, for each item of a batch.

    d and z (B, N) are permuted together so that d ascends.  Type 1: an entry
    with rho·|z_i| <= tol leaves the secular equation as it is.  Type 2: of two
    live poles whose gap times c·s falls below tol, a Givens rotation moves
    all of z onto the upper one and the lower one deflates.  Each round
    rotates the pairs of one parity of rank among the live entries, so its
    rotations are disjoint, and the parity alternates until no pair
    qualifies.  Returns (d, z, live, order, turns): order is the sort, and
    turns lists each round's rotations (item, lower, upper, c, s), which act
    on the sorted eigenvector columns as columns p, j <- c·p + s·j, c·j - s·p.
    """
    b, n = d.shape
    rows, cols = np.arange(b)[:, None], np.arange(n)
    order = np.argsort(d, axis=1, kind="stable")
    d, z = d[rows, order], z[rows, order]
    # d ascends, so its largest |entry| is at an end; |z| is reduced along the items,
    # not along rows as short as 2
    tol = 8.0 * np.finfo(float).eps * np.maximum(
        np.maximum(np.abs(d[:, 0]), np.abs(d[:, -1])),
        rho * np.max(np.abs(z).T.copy(), axis=0))
    live = rho[:, None] * np.abs(z) > tol[:, None]
    turns = []
    parity = 0
    while True:
        # the previous live index of each entry, and each entry's rank among the live ones
        below = np.maximum.accumulate(np.where(live, cols, -1), axis=1)
        prev = np.concatenate((np.full((b, 1), -1), below[:, :-1]), axis=1)
        bi, ji = np.nonzero(live & (prev >= 0))
        pi = prev[bi, ji]
        zj, zp = z[bi, ji], z[bi, pi]
        tau = np.hypot(zj, zp)
        c, s = zj / tau, -zp / tau
        dj, dp = d[bi, ji], d[bi, pi]
        go = np.abs((dj - dp) * c * s) <= tol[bi]
        if not go.any():
            break
        # of the pairs that deflate, those of one parity of rank are disjoint
        go &= np.cumsum(live, axis=1)[bi, ji] % 2 == parity
        parity ^= 1
        bi, ji, pi, c, s, dj, dp = (x[go] for x in (bi, ji, pi, c, s, dj, dp))
        z[bi, ji] = tau[go]
        z[bi, pi] = 0.0
        live[bi, pi] = False
        d[bi, pi] = dp * c * c + dj * s * s
        d[bi, ji] = dp * s * s + dj * c * c
        turns.append((bi, pi, ji, c, s))
    return d, z, live, order, turns


def _rational_root(a, b, c, sign):
    """The root of c·x² - a·x + b that a root's two nearest poles p < q leave it.

    For a root between p and q (sign 1) that is (a - sqrt)/(2c); for the last
    root, above both (sign -1), it is (a + sqrt)/(2c).  Each is taken in the
    form that adds terms of one sign.
    """
    root = sign * np.sqrt(np.abs(a * a - 4.0 * b * c))
    stable = a * sign > 0.0
    return np.where(stable, 2.0 * b, a - root) / np.where(stable, a + root, 2.0 * c)


def _secular(d, z, rho, live, member=None):
    """Roots of 1 + rho·sum_k z_k²/(d_k - λ) over the live poles, one per live pole.

    d ascends and its live entries are distinct.  The root of live pole j lies
    between it and the next live pole (the last one's below d_j + rho·|z|²).
    Its two nearest poles p < q are its own and the next, or for the last
    root the one before and its own.  Each root is found as an offset delta
    from an origin pole, so that the differences d_k - λ = (d_k - origin) - delta
    keep their relative accuracy however close λ is to a pole: the nearer of
    p and q, chosen by the sign of the function at the middle of the gap, and
    for the last root its own pole.  The first delta solves the quadratic
    that p and q leave once every other pole is frozen at the middle of the
    bracket.  Then each step solves Gragg's model c + s/(d_p - λ - x) +
    S/(d_q - λ - x), which matches f, f' and f'' at λ (the cubically
    convergent update of LAPACK's dlaed6, _rational_root): s and S are p's
    and q's own weights plus the share of the far poles (every other one),
    and so positive.  The last root takes the far poles below it as one pole
    at psi/psi' in place of p, since they, not p, may set it.  A step that
    would leave the bracket bisects it.  A root is done where it stands once
    |f| is within its rounding error bound eps·(2 + 8·sum_k |terms|)
    (dlaed4's residual test), or after a step below _CUBIC of delta, which
    leaves the next one below an ulp, or once its bracket is below 16 ulps:
    the tests are relative to delta, not to λ, which would end the search
    for a root next to a pole long before delta has any digits.  The roots
    are solved as one flat list that a root leaves once done, so each root's
    steps see only its own item, and each step's sums over the poles add
    them in order whatever the number of roots.  A root still open
    after _SECULAR_MAX_STEPS raises RuntimeError, named by its item's
    member[i] (default i).  Returns (origin index, delta, next live index),
    all (B, N) and meaningful at live entries.
    """
    b, n = d.shape
    eps = np.finfo(float).eps
    cols = np.arange(n)
    ahead = np.minimum.accumulate(np.where(live, cols, n)[:, ::-1], axis=1)[:, ::-1]
    nxt = np.concatenate((ahead[:, 1:], np.full((b, 1), n)), axis=1)
    behind = np.maximum.accumulate(np.where(live, cols, -1), axis=1)
    # one row per root: its item's poles (inf where not live) and weights rho·z²
    item, own = np.nonzero(live)
    roots = np.arange(item.size)
    poles = np.where(live, d, np.inf)[item]
    weight = np.where(live, rho[:, None] * z * z, 0.0)
    reach = np.add.reduce(weight, axis=1)[item]
    weight = weight[item]
    last = nxt[item, own] == n
    p = np.where(last, np.where(own > 0, behind[item, own - 1], -1), own)
    q = np.where(last, own, nxt[item, own])
    # a lone live pole gets a weightless partner one reach below it
    d_q = poles[roots, q]
    d_p = np.where(p < 0, d_q - reach, poles[roots, p])
    w_p = np.where(p < 0, 0.0, weight[roots, p])
    w_q = weight[roots, q]
    # the bracket of each root, from its own pole: half the gap, or the reach
    half = 0.5 * np.where(last, reach, d_q - d_p)
    middle = d[item, own] + half
    # every pole but p and q is far, and for the last root every pole but its own; f
    # ascends between poles, so with the far poles frozen at the middle, f(middle) < 0
    # puts the root of an inner pole in the upper half of its gap
    far_w = np.where((cols == q[:, None]) | ((cols == p[:, None]) & ~last[:, None]), 0.0, weight)
    far = 1.0 + np.add.reduce(far_w / (poles - middle[:, None]), axis=1)
    at_p = w_p / (d_p - middle)
    f_mid = far + np.where(last, 0.0, at_p) + w_q / (d_q - middle)
    # the first guess leaves p out of the last root's far poles again
    far = np.where(last, far - at_p, far)
    upper = ~last & (f_mid < 0.0)
    top = last & (f_mid < 0.0)
    o = np.where(upper, q, own)
    # (lo, hi]: lo is a pole or a point where f < 0, and a root may sit on hi
    # (the middle, or the reach), except on an upper origin's pole, kept out
    # by the largest negative float; then the offsets of p and q from the
    # origin, the sign, and the weights of p and q
    state = np.stack((np.zeros(item.size),
                      np.where(upper, -half, np.where(top, half, 0.0)),
                      np.where(upper, -np.finfo(float).smallest_subnormal,
                               np.where(top, 2.0 * half, half)),
                      np.where(upper, -2.0 * half, np.where(last, d_p - d_q, 0.0)),
                      np.where(upper | last, 0.0, 2.0 * half),
                      np.where(last, -1.0, 1.0), np.where(last, 0.0, w_p), w_q))
    # a last root with a pole below it steps with psi as one pole
    lumped = last & (p >= 0)
    delta_r, lo, hi, ends, sign = state[0], state[1], state[2], state[3:5], state[5]
    # per pole and root, roots last so that each step's arithmetic runs along them:
    # d_k - d_origin (inf where not live), and the far weights
    rows = np.stack(((poles - poles[roots, o][:, None]).T, far_w.T))
    # the steps read only rows: free the (roots, n) tables it was built from
    del poles, weight, far_w
    found = np.empty(item.size)
    # each step's terms w/g, |w/g|, w/g², w/g³ per pole, in the first columns
    table = np.empty((n, 4, item.size))
    # a degenerate model divides by zero; its inf or nan fails the bracket test
    with np.errstate(divide="ignore", invalid="ignore"):
        # the quadratic far + w_p/(s_p - delta) + w_q/(s_q - delta) = 0 (s_p·s_q = 0)
        s_p, s_q = ends
        guess = _rational_root(far * (s_p + s_q) + w_p + w_q, w_p * s_q + w_q * s_p, far, sign)
        delta_r[:] = np.where((guess > lo) & (guess <= hi), guess, 0.5 * (lo + hi))
        for _ in range(_SECULAR_MAX_STEPS):
            if not roots.size:
                break
            delta_r, bounds, sign = state[0], state[1:3], state[5]
            gap = state[3:5] - delta_r
            # the far poles' sums of w/g, |w/g|, w/g² and w/g³ (g = d_k - λ), and p's
            # and q's own terms w/g
            sums = table[:, :, :roots.size]
            inv = np.divide(1.0, np.subtract(rows[0], delta_r, out=sums[:, 3]), out=sums[:, 3])
            terms = np.multiply(rows[1], inv, out=sums[:, 0])
            np.abs(terms, out=sums[:, 1])
            np.multiply(np.multiply(terms, inv, out=sums[:, 2]), inv, out=inv)
            # one sum over the poles, which runs along the (4, roots) blocks and so
            # adds the poles in order whatever the number of roots
            far, spread, slope, curve = np.add.reduce(sums, axis=0)
            near = state[6:8] / gap
            f = 1.0 + far + (near[0] + near[1])
            # f ascends, so f < 0 below its root (lo) and f > 0 above it (hi)
            np.copyto(bounds, delta_r, where=f * _SIDES < 0.0)
            # Gragg's model c + s/(g_p - x) + S/(g_q - x) matches f, f' and f'' at λ: s
            # and S are p's and q's own weights plus the far poles' share, both
            # positive.  The last root's p is psi as one pole, at g_p = psi/psi',
            # with every pole below it far
            np.copyto(gap[0], far / slope, where=lumped)
            ratio = near + (gap * gap * (slope - curve * gap[::-1])
                            * (_SIDES / (gap[0] - gap[1])))
            # its root x solves c·x² - a·x + b = 0
            step = _rational_root(f * (gap[0] + gap[1]) - (ratio[0] * gap[1] + ratio[1] * gap[0]),
                                  gap[0] * gap[1] * f, f - (ratio[0] + ratio[1]), sign)
            new = delta_r + step
            # a root is done where it stands once |f| is within f's rounding error
            # (dlaed4's test), or after a step below 2^-20 of its offset, which
            # leaves the next one, cubically smaller, below an ulp; a bracket of 16
            # ulps ends the search where rounding makes f's sign noise
            lo, hi = bounds
            spread += np.add.reduce(np.abs(near), axis=0)
            settled = np.abs(f) <= eps * (2.0 + 8.0 * spread)
            inside = (new > lo) & (new <= hi)
            size = np.abs(new)
            done = (settled | (inside & (np.abs(step) <= _CUBIC * size))
                    | (hi - lo <= 16.0 * eps * size))
            delta_r[:] = np.where(settled, delta_r, np.where(inside, new, 0.5 * (lo + hi)))
            if done.any():
                found[roots[done]] = delta_r[done]
                keep = ~done
                rows, state, roots = rows[:, :, keep], state[:, keep], roots[keep]
                lumped = lumped[keep]
    if roots.size:
        r = roots[0]
        name = item[r] if member is None else member[item[r]]
        raise RuntimeError(f"secular equation unsolved after {_SECULAR_MAX_STEPS} steps: "
                           f"member {name}, root {own[r]} of a {n}-row merge")
    origin = np.broadcast_to(cols, (b, n)).copy()
    origin[item, own] = o
    delta = np.zeros((b, n))
    delta[item, own] = found
    return origin, delta, nxt


def _rotate_pair(d1, s1, d2, s2, rho):
    """Eigensystems of [[d1, 0], [0, d2]] + rho·u·uᵀ, u = (s1, s2), for each item of a batch.

    The rotation by t = tan θ, the root of t² + 2τt - 1 = 0 of smaller modulus
    with τ = (a - b)/(2c) for the matrix [[a, c], [c, b]], takes it to
    diag(a + t·c, b - t·c).  A zero c gives t = 0: the eigenvalues a and b
    and the unit vectors exactly.  Returns (w, v) as _merge does, with v in
    the items' own basis diag(s1, s2).
    """
    rho_1 = rho * s1
    a, b, c = d1 + rho_1 * s1, d2 + rho * s2 * s2, rho_1 * s2
    # a coupling far below the gap overflows τ, and t = 0 is its limit
    with np.errstate(over="ignore"):
        tau = np.divide(a - b, 2.0 * c, out=np.full(c.shape, np.inf), where=c != 0.0)
    t = 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau))
    cs = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * cs
    w = np.stack((a + t * c, b - t * c), axis=1)
    v = np.stack((np.stack((cs, -sn), axis=1) * s1[:, None],
                  np.stack((sn, cs), axis=1) * s2[:, None]), axis=1)
    return w, v


def _merge(d1, q1, d2, q2, rho, member=None):
    """Eigensystems of the tridiagonals diag(T1, T2) + rho·u·uᵀ from those of T1 and T2.

    (d1, q1) and (d2, q2) are the eigenvalues (B, k), (B, N - k) and
    eigenvector columns of each item's two halves, and u = e_{k-1} + e_k, so
    the merged matrix is Q·(D + rho·z·zᵀ)·Qᵀ with Q = diag(q1, q2) and z = Qᵀu.
    After deflation, Gu–Eisenstat's ẑ (the z whose D + rho·ẑ·ẑᵀ has exactly the
    computed roots) gives eigenvectors ẑ_i/(d_i - λ_j) that are orthogonal to
    working accuracy.  The deflation's rotations and sort are undone on their
    rows, so Q times them is one matmul per half.  Returns (w, v) of shapes
    (B, N) and (B, N, N): the eigenvalues unsorted, each live root at the place
    of its lower pole.  member names the items in _secular's error.  A merge of
    two 1×1 halves is its 2×2 matrix, diagonalized by one Jacobi rotation.
    """
    b, k = d1.shape
    n = k + d2.shape[1]
    if n == 2:
        return _rotate_pair(d1[:, 0], q1[:, 0, 0], d2[:, 0], q2[:, 0, 0], rho)
    d, z, live, order, turns = _deflate(np.concatenate((d1, d2), axis=1),
                                        np.concatenate((q1[:, -1], q2[:, 0]), axis=1), rho)
    origin, delta, nxt = _secular(d, z, rho, live, member)
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
    # a deflated column is its own unit vector
    dead, col = np.nonzero(~live)
    u[dead, col, col] = 1.0
    u /= np.sqrt(np.sum(u * u, axis=1))[:, None, :]
    # the eigenvectors are diag(q1, q2)·P·G·u, with P the sort and G the rotations
    for bi, pi, ji, c, s in reversed(turns):
        up, uj = u[bi, pi], u[bi, ji]
        u[bi, pi], u[bi, ji] = c[:, None] * up - s[:, None] * uj, s[:, None] * up + c[:, None] * uj
    pu = np.empty_like(u)
    pu[rows, order] = u
    w = np.where(live, d[rows, origin] + delta, d)
    return w, np.concatenate((q1 @ pu[:, :k], q2 @ pu[:, k:]), axis=1)


def _divide_conquer(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cuppen's divide and conquer on the real symmetric tridiagonals (diag, off) of a stack.

    Returns (w, v): the eigenvalues (b, n) unsorted and the real eigenvector
    columns (b, n, n).  Every node of _tree(n) is torn at its midpoint m:
    T = diag(T1, T2) + beta·u·uᵀ with beta = off[m - 1] and u = e_{m-1} + e_m, beta
    subtracted from the two diagonal entries it touches.  That tears every
    coupling once, so a 1×1 leaf is its torn diagonal entry with eigenvector 1.
    Then each depth is merged from the bottom up in one batched _merge.  The
    nodes of a depth differ by at most one row, so a node one row short gets
    a pad: a sentinel index n outside every matrix, with eigenvalue 0.0 and
    unit eigenvector, at the start of a short lower half or the end of a short
    upper one.  Its entry of z is zero, so it deflates and comes back as it
    went in, and its column is put back on the sentinel.  w and v hold every
    node's solution in its own rows (v block diagonal), and the root's merge,
    on every row in order, is the result.  All members share the
    tree, so a member's merges see only its own entries.
    """
    b, n = diag.shape
    w = np.zeros((b, n + 1))
    w[:, :n] = diag
    w[:, :n - 1] -= off
    w[:, 1:n] -= off
    v = np.zeros((b, n + 1, n + 1))
    v[:, np.arange(n + 1), np.arange(n + 1)] = 1.0
    members = np.arange(b)[:, None]
    for at, torn, size, k, pad, own_rows in _merge_plan(n):
        groups = len(at)
        parts = [x for rows in (at[:, :k], at[:, k:]) for x in (
            w[:, rows].reshape(b * groups, -1),
            v[:, rows[:, :, None], rows[:, None, :]].reshape(b * groups, rows.shape[1], -1))]
        rho = off[:, torn].reshape(-1)
        w_at, v_at = _merge(*parts, rho, np.repeat(np.arange(b), groups))
        if size == n:
            # the root: one node on every row, in order, with no pad
            return w_at, v_at
        w_at, v_at = w_at.reshape(b, groups, size), v_at.reshape(b, groups, size, size)
        # columns back to slots: the pad's column (the unit vector on its row) to
        # the sentinel, the others in order to the node's own rows
        pad_row = v_at[:, np.arange(groups), np.minimum(pad, size - 1)]
        pad_col = np.where(pad < size, np.argmax(pad_row, axis=2), size)[:, :, None]
        ranks = np.arange(size)
        slots = np.where(ranks == pad_col, n,
                         own_rows[np.arange(groups)[:, None], ranks - (ranks > pad_col)])
        w[members[:, :, None], slots] = w_at
        v[members[:, :, None, None], at[None, :, :, None], slots[:, :, None, :]] = v_at
    return w[:, :n], v[:, :n, :n]


def brute_diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder front end, then divide and conquer (independent oracle).

    h is one Hermitian matrix (n, n) or a stack of them (..., n, n); a single
    matrix runs as a stack of one.  Returns (eigenvalues ascending, eigenvector
    columns) with shapes (..., n) and (..., n, n); an empty stack gives empty
    arrays of those shapes.

    Each member is first multiplied by the exact power of two that brings its
    largest |entry| to [1, 2), and its eigenvalues are divided by it at the
    end.  In the normal range that changes no bit; it keeps squares of
    entries near 1e308 finite and subnormal entries out of the rounding.
    Householder reflections Q and a diagonal unitary D take each matrix to a
    real symmetric tridiagonal T = (QD)ᴴ·h·QD, and the eigenvectors are
    Q·D·V_T; above 64 rows the reduction runs in panels, and Q is always
    built from panels of reflectors in compact-WY form (_tridiagonalize).

    Cuppen's divide and conquer (_divide_conquer) tears T at midpoints into
    rank-one-coupled halves all the way down to 1×1 leaves, whose eigenpairs
    are their torn diagonal entries and 1.  A merge of two leaves is one
    Jacobi rotation of its 2×2 matrix; every larger merge deflates, solves its
    secular equation for every root at once as an offset from a pole: a first
    guess from the quadratic of the two nearest poles, then Gragg's rational
    steps (matching f, f' and f'') inside a bisection bracket, until |f| is
    within its rounding error (dlaed4's residual test), a step is below 2^-20
    of the offset, or the bracket is below 16 ulps.  Gu–Eisenstat
    eigenvectors then come from a matmul per half.  Every member shares the
    tree and each step is elementwise or per member, so a stack member gets
    the bits of a call on it alone.  A root that stays unsolved after
    _SECULAR_MAX_STEPS steps raises RuntimeError naming its member.

    Zero padding is exact.  Householder leaves the pad rows alone and D
    restarts its phase at the zero subdiagonal, so a pad index of T is a leaf
    that no coupling reaches, and in every merge its entry of z is exactly
    zero, so it deflates and passes through untouched.  Each pad eigenvalue is
    exactly 0.0 with the unit vector at its index as eigenvector, and the
    other eigenvectors have exactly zero pad rows.  Deliberately
    self-contained: no LAPACK, no reuse of the closed form.
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
    if not stack.shape[0]:
        return np.zeros(h.shape[:-1]), np.zeros(h.shape, dtype=complex)
    # an exact power of two takes each member to max|entry| in [1, 2), clear of
    # overflow and of subnormals; in the normal range it changes no bit
    power = 1 - np.frexp(np.max(np.abs(stack), axis=(1, 2), initial=0.0))[1]
    diag, off, qd = _tridiagonalize(stack, power)
    w, v_t = _divide_conquer(diag, off)
    order = np.argsort(w, axis=1, kind="stable")
    w = np.ldexp(np.take_along_axis(w, order, axis=1), -power[:, None])
    v_t = np.take_along_axis(v_t, order[:, None, :], axis=2)
    # the real and imaginary parts of Q·D as contiguous copies, so each product
    # runs in BLAS rather than numpy's loop for strided operands
    v = np.empty(qd.shape, dtype=complex)
    np.matmul(np.ascontiguousarray(qd.real), v_t, out=v.real)
    np.matmul(np.ascontiguousarray(qd.imag), v_t, out=v.imag)
    return w.reshape(h.shape[:-1]), v.reshape(h.shape)
