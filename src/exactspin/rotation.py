"""Rotations U = exp(i*phi*Jz) exp(i*theta*Jy) and the little-d matrix.

Sign convention: the generator exponent is +i*theta*Jy throughout, which
is the opposite of the common Wigner convention; the two are related by
d_here(theta) = d_textbook(-theta).

The full little-d matrix is computed by diagonalizing Jy exactly once per
dimension: the similarity transform S = diag(i^k) maps i*Jy to -i*T with
T real symmetric tridiagonal (zero diagonal, off-diagonal equal to half
the ladder coefficients), so

    exp(i*theta*Jy) = S Q exp(-i*theta*L) Q^T S^dagger

with T = Q L Q^T.  This stays orthogonal to ~1e-13 at dimension 2001,
where naive power series or repeated squaring lose accuracy.  The
(Q, L) eigensystem is cached per dimension and reused for every theta,
which also gives O(dim^2) application of U to a single vector.

A single row of little-d needs none of this: row k is the eigenvector of
the tridiagonal cos(theta)*Jz + sin(theta)*Jx for its exactly known
eigenvalue m_k, found in O(dim) by a twisted factorization (see
little_d_row).  Only little_d, rotation_matrix and apply_rotation load
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=6)
def _jy_eigensystem(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthogonal eigenvectors of the real tridiagonal T ~ Jy."""
    # imported here: scipy.linalg takes ~0.4 s to load, and ground and dicke: evolve never need it
    from scipy.linalg import eigh_tridiagonal

    off = _ladder_coeffs_ascending(HalfInt(twice_j)) / 2.0
    lam, q = eigh_tridiagonal(np.zeros(twice_j + 1), off)
    # shared by every caller through the cache, so never handed out writable
    lam.setflags(write=False)
    q.setflags(write=False)
    return lam, q


def _i_powers(dim: int) -> np.ndarray:
    # i^k cycles with period 4; computed exactly
    table = np.array([1.0, 1.0j, -1.0, -1.0j])
    return table[np.arange(dim) % 4]


def little_d(j, theta: float) -> np.ndarray:
    """Real orthogonal matrix of exp(i*theta*Jy) in the ascending-m basis."""
    j = _check_j(j)
    if theta == 0.0:
        return np.eye(j.twice + 1)
    lam, q = _jy_eigensystem(j.twice)
    phase = np.exp(-1j * float(theta) * lam)
    core = (q * phase) @ q.T
    s = _i_powers(j.twice + 1)
    return ((s[:, None] * core) * s.conj()[None, :]).real


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


def little_d_row(j, theta: float, k: int) -> np.ndarray:
    """Row k of little_d(j, theta), in O(dim) with no eigensystem and no scipy.

    The row is the eigenvector of the real symmetric tridiagonal
    T = cos(theta)*Jz + sin(theta)*Jx (diagonal cos(theta)*m, off-diagonal
    sin(theta)*c/2, as in model.apply_hamiltonian) for its exact
    eigenvalue m_k.  A twisted factorization of T - m_k*I (the step behind
    LAPACK's MRRR; Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1-28)
    gives it: forward and backward pivots, the twist r = argmin |gamma_r|,
    v_r = 1 and v propagated outwards through the pivot ratios.

    The sign matches little_d: the last entry must have the sign of
    d[k, -1] = sqrt(C(2j, k)) cos(theta/2)^k (-sin(theta/2))^(2j-k).  The
    sign of the computed last entry is carried as the product of the ratio
    signs, so it survives when that entry underflows.
    """
    j = _check_j(j)
    dim = j.twice + 1
    if not 0 <= k < dim:
        raise ValueError(f"row index {k} outside 0..{dim - 1}")
    row = np.zeros(dim)
    if theta == 0.0:
        row[k] = 1.0
        return row
    diag = math.cos(theta) * m_floats(j) - (k - j.twice / 2.0)
    off = math.sin(theta) / 2.0 * _ladder_coeffs_ascending(j)
    off2 = (off * off).tolist()
    # a zero pivot becomes -pivmin (as in LAPACK's dlar1v), so every b^2/pivot stays finite
    pivmin = np.finfo(float).tiny * max([1.0, *off2])
    fwd = np.array(_pivots(diag.tolist(), off2, pivmin))
    bwd = np.array(_pivots(diag[::-1].tolist(), off2[::-1], pivmin)[::-1])
    r = int(np.argmin(np.abs(fwd + bwd - diag)))
    # v_i = -(b_i / D+_i) v_{i+1} left of the twist, v_i = -(b_{i-1} / D-_i) v_{i-1} right of it
    row[r] = 1.0
    row[:r] = np.cumprod((-off[:r] / fwd[:r])[::-1])[::-1]
    right = -off[r:] / bwd[r + 1:]
    row[r + 1:] = np.cumprod(right)
    last_sign = float(np.prod(np.sign(right)))
    want = (math.copysign(1.0, -math.sin(theta / 2.0)) ** (j.twice - k)
            * math.copysign(1.0, math.cos(theta / 2.0)) ** k)
    return row * (want * last_sign / np.linalg.norm(row))


def rotation_matrix(j, angles: RotationAngles) -> np.ndarray:
    """U = diag(e^{i*phi*m}) @ little_d(j, theta); unitary."""
    j = _check_j(j)
    d = little_d(j, angles.theta)
    zphase = np.exp(1j * angles.phi * m_floats(j))
    return zphase[:, None] * d


def apply_rotation(j, angles: RotationAngles, vec: np.ndarray, dagger: bool = False) -> np.ndarray:
    """Apply U (or U† with dagger=True) to a state vector in O(dim^2)."""
    j = _check_j(j)
    dim = j.twice + 1
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError(f"state has shape {vec.shape}, expected ({dim},)")
    zphase = np.exp(1j * angles.phi * m_floats(j)) if angles.phi != 0.0 else None
    if angles.theta == 0.0:
        if zphase is None:
            return vec.copy()
        return zphase.conj() * vec if dagger else zphase * vec
    lam, q = _jy_eigensystem(j.twice)
    s = _i_powers(dim)
    if dagger:
        # U† = d.T @ diag(e^{-i phi m}); d real and d.T = S conj(Q e^{-i theta L} Q^T) S†
        w = zphase.conj() * vec if zphase is not None else vec
        return q @ (np.exp(+1j * angles.theta * lam) * (q.T @ (s.conj() * w))) * s
    w = q @ (np.exp(-1j * angles.theta * lam) * (q.T @ (s.conj() * vec))) * s
    return zphase * w if zphase is not None else w


def rotated_basis_state(j, angles: RotationAngles, m) -> np.ndarray:
    """The closed-form eigenvector U†|j,m>, unit norm."""
    j = _check_j(j)
    k = dicke_index(j, m)
    m = as_halfint(m)
    # column m of U† = e^{-i phi m} * (row k of d), d real
    row = little_d_row(j, angles.theta, k)
    vec = row.astype(complex) * np.exp(-1j * angles.phi * m.value)
    return vec / np.linalg.norm(vec)


def rotate_operator(u: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Conjugate an operator: U† O U."""
    u = np.asarray(u)
    op = np.asarray(op)
    if u.shape != op.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {op.shape}")
    return u.conj().T @ op @ u
