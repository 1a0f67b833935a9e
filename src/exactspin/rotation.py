"""Rotations U = exp(i*phi*Jz) exp(i*theta*Jy) and the little-d matrix.

Sign convention: the generator exponent is +i*theta*Jy throughout, which
is the opposite of the common Wigner convention; the two are related by
d_here(theta) = d_textbook(-theta).

Every row of little-d comes from one engine, _d_rows, with no
eigensystem and no matrix exponential.  Row k is the eigenvector of the
real symmetric tridiagonal cos(theta)*Jz + sin(theta)*Jx (= U† Jz U) for
its exactly known eigenvalue m_k, found in O(dim) by a twisted
factorization; its sign comes from a closed form for the row's last
entry.  The rows come out unit norm and orthogonal to ~4e-14 at dimension
2001.  U = diag(e^{i*phi*m}) @ little_d is applied to a vector through d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import HalfInt, _check_j, _ladder_coeffs_ascending, as_halfint, dicke_index, m_floats

__all__ = [
    "RotationAngles",
    "little_d",
    "little_d_row",
    "rotation_matrix",
    "rotated_basis_state",
    "rotate_operator",
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
            object.__setattr__(self, name, val % TWO_PI)


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


def _d_rows(j: HalfInt, theta: float, ks: np.ndarray) -> np.ndarray:
    """Rows ks of little_d(j, theta), one per row of the result, unit norm.

    Row k is the eigenvector of the real symmetric tridiagonal
    T = cos(theta)*Jz + sin(theta)*Jx (the bands of _t_bands, which
    model.apply_hamiltonian reads too) for its exact
    eigenvalue m_k.  A twisted factorization of T - m_k*I (the step behind
    LAPACK's MRRR; Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1-28)
    gives it: forward and backward pivots, the twist r = argmin |gamma_r|,
    v_r = 1 and v propagated outwards through the pivot ratios.  All
    requested rows run together, each step of the pivot recurrence one
    array operation across rows; a single row runs the recurrence on
    Python floats instead, because for one row the per-step numpy calls
    cost ~5x the arithmetic (8 ms against 1.5 ms at dim 2001, where ground
    and dicke: need one row each).  Both give the same bits.  The pivots
    of all rows are held at once (16 x dim x n bytes); the twist, the
    ratio products, the sign and the norm then finish the rows into the
    result in blocks of ROW_BLOCK_BYTES, so all of d peaks near
    24 x dim^2 bytes.  A row's bits do not depend on its block.

    The sign matches exp(i*theta*Jy): the last entry must have the sign of
    d[k, -1] = sqrt(C(2j, k)) cos(theta/2)^k (-sin(theta/2))^(2j-k).  The
    sign of the computed last entry is carried as the product of the ratio
    signs, so it survives when that entry underflows.
    """
    dim = j.twice + 1
    n = len(ks)
    cm, off = _t_bands(j, theta)
    # theta = 0, or so small that sin(theta)/2 underflows: T is diagonal and d = I
    if not off.any():
        return np.eye(dim)[ks]
    mk = ks - j.twice / 2.0
    off2 = off * off
    # a zero pivot becomes -pivmin (as in LAPACK's dlar1v), so every b^2/pivot stays finite
    pivmin = np.finfo(float).tiny * max([1.0, *off2.tolist()])
    if n == 1:
        diag = (cm - mk[0]).tolist()
        fwd = np.array(_pivots(diag, off2.tolist(), pivmin))[:, None]
        bwd = np.array(_pivots(diag[::-1], off2[::-1].tolist(), pivmin)[::-1])[:, None]
    else:
        # forward pivots at step s pair with backward pivots at dim-1-s in one pass,
        # overwriting the stacked diagonals.  m and the ladder coefficients are exactly
        # symmetric about the middle, so cos(theta)*m at dim-1-s is -cm[s] and both share b^2
        both = np.stack((cm, -cm), axis=1)[:, :, None] - mk
        piv = np.ones((2, n))
        for step, b2 in zip(both, [0.0, *off2.tolist()]):
            ratio = b2 / piv
            piv = step
            piv -= ratio
            piv[np.abs(piv) < pivmin] = -pivmin
        fwd, bwd = both[:, 0], both[::-1, 1]
    want = (math.copysign(1.0, -math.sin(theta / 2.0)) ** (j.twice - ks)
            * math.copysign(1.0, math.cos(theta / 2.0)) ** ks)
    index = np.arange(dim - 1)[:, None]
    out = np.empty((n, dim))
    for block in _row_blocks(n, dim):
        f, g = fwd[:, block], bwd[:, block]
        r = np.argmin(np.abs(f + g - (cm[:, None] - mk[block])), axis=0)
        # v_i = -(b_i / D+_i) v_{i+1} left of the twist, v_i = -(b_{i-1} / D-_i) v_{i-1}
        # right of it; ratios on the far side of each row's twist are 1 in the products
        v = np.ones((dim, len(r)))
        v[:-1] = np.cumprod(np.where(index < r, -off[:, None] / f[:-1], 1.0)[::-1], axis=0)[::-1]
        right = np.where(index >= r, -off[:, None] / g[1:], 1.0)
        v[1:] *= np.cumprod(right, axis=0)
        rows = out[block]
        rows[...] = v.T
        # one dot per row, as np.linalg.norm takes it, so a row's bits do not depend on n
        norms = np.sqrt([row @ row for row in rows])
        rows *= (want[block] * np.prod(np.sign(right), axis=0) / norms)[:, None]
    return out


def little_d(j, theta: float) -> np.ndarray:
    """Real orthogonal matrix of exp(i*theta*Jy) in the ascending-m basis."""
    j = _check_j(j)
    return _d_rows(j, float(theta), np.arange(j.twice + 1))


def little_d_row(j, theta: float, k: int) -> np.ndarray:
    """Row k of little_d(j, theta), in O(dim)."""
    j = _check_j(j)
    dim = j.twice + 1
    if not 0 <= k < dim:
        raise ValueError(f"row index {k} outside 0..{dim - 1}")
    return _d_rows(j, float(theta), np.array([k]))[0]


def rotation_matrix(j, angles: RotationAngles) -> np.ndarray:
    """U = diag(e^{i*phi*m}) @ little_d(j, theta); unitary."""
    j = _check_j(j)
    d = little_d(j, angles.theta)
    zphase = np.exp(1j * angles.phi * m_floats(j))
    return zphase[:, None] * d


def apply_rotation(j, angles: RotationAngles, vec: np.ndarray, dagger: bool = False) -> np.ndarray:
    """Apply U = e^{i*phi*m} d, or U† = d^T e^{-i*phi*m} with dagger=True, to a state vector."""
    j = _check_j(j)
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (j.twice + 1,):
        raise ValueError(f"state has shape {vec.shape}, expected ({j.twice + 1},)")
    zphase = np.exp(1j * angles.phi * m_floats(j))
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


def rotate_operator(u: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Conjugate an operator: U† O U."""
    u = np.asarray(u)
    op = np.asarray(op)
    if u.shape != op.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {op.shape}")
    return u.conj().T @ op @ u
