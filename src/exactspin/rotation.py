"""Rotations U = exp(i*phi*Jz) exp(i*theta*Jy) and the little-d matrix.

Sign convention: the generator exponent is +i*theta*Jy throughout, which
is the opposite of the common Wigner convention; the two are related by
d_here(theta) = d_textbook(-theta).

Every row of little-d comes from one engine, _d_blocks, with no
eigensystem and no matrix exponential.  Row k is the eigenvector of the
real symmetric tridiagonal cos(theta)*Jz + sin(theta)*Jx (= U† Jz U) for
its exactly known eigenvalue m_k, found in O(dim) by a twisted
factorization; its sign comes from a closed form for the row's last
entry.  Row k's backward pivots are row 2j-k's forward pivots, negated and
reversed, pivmin clamps included.  The rows come out unit norm and
orthogonal to ~4e-14 at dimension 2001, a block of rows at a time, so a
caller that needs each row once (spectrum's certificates) never holds all
of d.  U = diag(e^{i*phi*m}) @ little_d is applied to a vector through d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .su2 import HalfInt, _check_j, _ladder_coeffs_ascending, as_halfint, dicke_index, m_floats

__all__ = [
    "RotationAngles",
    "little_d",
    "little_d_row",
    "rotation_matrix",
    "rotated_basis_state",
    "apply_rotation",
]

TWO_PI = 2.0 * math.pi

# rows of d are finished (and spectrum certifies them) this many bytes at a time, so
# the dozen temporaries of a block stay in cache instead of each being dim x dim
ROW_BLOCK_BYTES = 1 << 18


def _row_blocks(n: int, dim: int) -> list[slice]:
    """Slices cutting n rows of dim floats into blocks of ROW_BLOCK_BYTES, one row at least."""
    step = max(1, ROW_BLOCK_BYTES // (8 * dim))
    return [slice(a, a + step) for a in range(0, n, step)]


@dataclass(frozen=True)
class RotationAngles:
    """Rotation angles (radians), canonicalized to [0, 2*pi) at construction."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
            val %= TWO_PI  # rounds up to TWO_PI for tiny negative val: 0.0 is nearest
            object.__setattr__(self, name, 0.0 if val == TWO_PI else val)


def _t_bands(j: HalfInt, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal cos(theta)*m and off-diagonal (sin(theta)/2)*c of T = U† Jz U.

    T = cos(theta)*Jz + sin(theta)*Jx is real symmetric tridiagonal for every phi; c are
    the ascending ladder coefficients.  sin(theta)/2 is halved before the product, so it
    is exactly zero wherever it underflows (theta = 5e-324) and T is then diagonal."""
    return math.cos(theta) * m_floats(j), math.sin(theta) / 2.0 * _ladder_coeffs_ascending(j)


def _pivots(diag: list, off2: list, pivmin: float) -> list:
    """Pivots D_i = a_i - b_{i-1}^2 / D_{i-1} of a tridiagonal's LDL^T factorization."""
    out = []
    piv = 1.0
    for a, b2 in zip(diag, [0.0, *off2]):
        piv = a - b2 / piv
        if abs(piv) < pivmin:
            piv = -pivmin
        out.append(piv)
    return out


def _pivot_pass(cm: np.ndarray, mk: np.ndarray, off2: np.ndarray, pivmin: float) -> np.ndarray:
    """Forward pivots of T - mk[c]*I for every column c: piv[:, c], step s in row s.

    Each step is one array operation across the columns, a pivot below pivmin clamped
    to -pivmin.  One or two columns run on Python floats (_pivots), with the same IEEE
    operations and so the same bits: there the per-step numpy calls would cost ~5x the
    arithmetic (8 ms against 1.5 ms at dim 2001, where ground and dicke: need one row)."""
    if len(mk) <= 2:
        b2 = off2.tolist()
        return np.array([_pivots((cm - m).tolist(), b2, pivmin) for m in mk.tolist()]).T
    piv = np.subtract.outer(cm, mk)
    prev = np.ones(len(mk))
    for row, b2 in zip(piv, [0.0, *off2.tolist()]):
        row -= b2 / prev
        if np.minimum.reduce(np.abs(row)) < pivmin:
            row[np.abs(row) < pivmin] = -pivmin
        prev = row
    return piv


def _d_blocks(j: HalfInt, theta: float, ks: np.ndarray | None = None,
              out: np.ndarray | None = None):
    """Rows ks of little_d(j, theta) (every row when ks is None), finished in blocks.

    Yields (block, rows), rows[i] being row ks[block][i], unit norm: a C-contiguous
    array of at most ROW_BLOCK_BYTES (one row at least), out[block] when out is given.
    Row k is the eigenvector of the real symmetric tridiagonal
    T = cos(theta)*Jz + sin(theta)*Jx (the bands of _t_bands, which
    model.apply_hamiltonian reads too) for its exact eigenvalue m_k.  A twisted
    factorization of T - m_k*I (the step behind LAPACK's MRRR; Dhillon & Parlett,
    Linear Algebra Appl. 387 (2004) 1-28) gives it: forward and backward pivots, the
    twist r = argmin |gamma_r|, v_r = 1 and v propagated outwards through the pivot
    ratios (_finish_rows).

    Row k's backward pivots are, by definition here, row 2j-k's forward pivots negated
    and reversed: m and the ladder coefficients are exactly symmetric about the middle,
    and negation commutes with every rounded step.  It does not commute with the pivmin
    clamp: a backward stretch past a clamp starts from +pivmin where LAPACK's dlar1v,
    run backward, takes -pivmin.  The two differ for the few steps until b^2 / pivot
    falls below an ulp, in entries below the clamp scale only.  So one forward pass over
    the rows ks and 2j - ks gives both: for all of d that is 8 x dim^2 bytes of pivots,
    the one array held while the rows are finished block by block, each block's two
    pivot sets gathered from it.  The negated pivots enter the finishing formulas as
    they are (f + g is f - (-g), and -b / g is b / (-g), bitwise).  A row's bits depend
    neither on its block nor on the other rows asked for.

    The sign matches exp(i*theta*Jy): the last entry must have the sign of
    d[k, -1] = sqrt(C(2j, k)) cos(theta/2)^k (-sin(theta/2))^(2j-k).  The sign of
    the computed last entry is carried as the product of the ratio signs, so it
    survives when that entry underflows.
    """
    dim = j.twice + 1
    ks = np.arange(dim) if ks is None else np.asarray(ks)
    n = len(ks)
    cm, off = _t_bands(j, theta)
    # theta = 0, or so small that sin(theta)/2 underflows: T is diagonal and d = I
    if not off.any():
        for block in _row_blocks(n, dim):
            rows = np.empty((len(ks[block]), dim)) if out is None else out[block]
            rows[...] = 0.0
            rows[np.arange(len(rows)), ks[block]] = 1.0
            yield block, rows
        return
    mk = ks - j.twice / 2.0
    off2 = off * off
    # a forward pivot below pivmin becomes -pivmin (as in dlar1v), so every b^2/pivot
    # stays finite; mirrored, it is a backward +pivmin (~1e-306, the clamp scale)
    pivmin = np.finfo(float).tiny * max([1.0, *off2.tolist()])
    chosen = np.zeros(dim, bool)
    chosen[ks] = True
    pass_ks = np.flatnonzero(chosen | chosen[::-1])  # ks and 2j - ks, sorted
    piv = _pivot_pass(cm, pass_ks - j.twice / 2.0, off2, pivmin)
    fcols = np.searchsorted(pass_ks, ks)
    gcols = len(pass_ks) - 1 - fcols  # pass_ks is symmetric about j
    want = (math.copysign(1.0, -math.sin(theta / 2.0)) ** (j.twice - ks)
            * math.copysign(1.0, math.cos(theta / 2.0)) ** ks)
    for block in _row_blocks(n, dim):
        f, neg = piv[:, fcols[block]], piv[::-1, gcols[block]]
        rows = np.empty((f.shape[1], dim)) if out is None else out[block]
        _finish_rows(f, neg, cm[:, None] - mk[block], off, want[block], rows)
        yield block, rows


def _finish_rows(f, neg, diag, off, want, rows) -> None:
    """Write the eigenvectors of forward pivots f and negated backward pivots neg into rows.

    Column i of f, neg and diag (the diagonal of T - m_k*I) is row i of rows.  The twist
    is r = argmin |gamma_r|, gamma = f + g - diag = f - neg - diag; v_r = 1, and v is
    propagated outwards through the pivot ratios, normalised and signed by want."""
    index = np.arange(len(off))[:, None]
    r = np.argmin(np.abs(f - neg - diag), axis=0)
    # v_i = -(b_i / D+_i) v_{i+1} left of the twist, v_i = -(b_{i-1} / D-_i) v_{i-1}
    # right of it (-b / D- = b / neg); ratios on the far side of the twist are 1
    v = np.ones((len(off) + 1, len(r)))
    v[:-1] = np.cumprod(np.where(index < r, -off[:, None] / f[:-1], 1.0)[::-1], axis=0)[::-1]
    right = np.where(index >= r, off[:, None] / neg[1:], 1.0)
    v[1:] *= np.cumprod(right, axis=0)
    rows[...] = v.T
    # one dot per row, as np.linalg.norm takes it, so a row's bits do not depend on n
    norms = np.sqrt([row @ row for row in rows])
    rows *= (want * np.prod(np.sign(right), axis=0) / norms)[:, None]


def _d_rows(j: HalfInt, theta: float, ks: np.ndarray | None = None) -> np.ndarray:
    """Rows ks of little_d(j, theta) (all of it when ks is None), assembled from _d_blocks."""
    out = np.empty((j.twice + 1 if ks is None else len(ks), j.twice + 1))
    for _ in _d_blocks(j, theta, ks, out):
        pass
    return out


def little_d(j, theta: float) -> np.ndarray:
    """Real orthogonal matrix of exp(i*theta*Jy) in the ascending-m basis."""
    j = _check_j(j)
    return _d_rows(j, float(theta))


def little_d_row(j, theta: float, k: int) -> np.ndarray:
    """Row k of little_d(j, theta), in O(dim)."""
    j = _check_j(j)
    dim = j.twice + 1
    try:
        index = operator.index(k)  # a row 1.5 would ask for m = -0.5, no eigenvalue of T
    except TypeError:
        raise ValueError(f"row index {k!r} is not an integer") from None
    if not 0 <= index < dim:
        raise ValueError(f"row index {k} outside 0..{dim - 1}")
    return _d_rows(j, float(theta), np.array([index]))[0]


def rotation_matrix(j, angles: RotationAngles) -> np.ndarray:
    """U = diag(e^{i*phi*m}) @ little_d(j, theta); unitary."""
    j = _check_j(j)
    d = little_d(j, angles.theta)
    zphase = np.exp(1j * angles.phi * m_floats(j))
    return zphase[:, None] * d


def apply_rotation(j, angles: RotationAngles, vec: np.ndarray, dagger: bool = False) -> np.ndarray:
    """Apply U = e^{i*phi*m} d, or U† = d^T e^{-i*phi*m} with dagger=True, to a state vector.

    vec (dim,) is one state; vec (dim, k) holds k states as columns, all rotated by one d.
    """
    j = _check_j(j)
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim not in (1, 2) or vec.shape[0] != j.twice + 1:
        raise ValueError(f"state has shape {vec.shape}, expected ({j.twice + 1},) "
                         f"or ({j.twice + 1}, k)")
    zphase = np.exp(1j * angles.phi * m_floats(j)).reshape((-1,) + (1,) * (vec.ndim - 1))
    d = little_d(j, angles.theta)
    if dagger:
        d, vec = d.T, zphase.conj() * vec
    out = d @ vec.real + 1j * (d @ vec.imag)  # d is real: no complex copy of it
    return out if dagger else zphase * out


def rotated_basis_state(j, angles: RotationAngles, m) -> np.ndarray:
    """The closed-form eigenvector U†|j,m>, unit norm."""
    j = _check_j(j)
    k = dicke_index(j, m)
    m = as_halfint(m)
    # column m of U† = e^{-i phi m} * (row k of d), d real
    return little_d_row(j, angles.theta, k) * np.exp(-1j * angles.phi * m.value)
