"""Rotations U = exp(i*phi*Jz) exp(i*theta*Jy) and the little-d matrix.

Sign convention: the generator exponent is +i*theta*Jy throughout, which
is the opposite of the common Wigner convention; the two are related by
d_here(theta) = d_textbook(-theta).

The little-d matrix is computed by diagonalizing Jy exactly once per
dimension: the similarity transform S = diag(i^k) maps i*Jy to -i*T with
T real symmetric tridiagonal (zero diagonal, off-diagonal equal to half
the ladder coefficients), so

    exp(i*theta*Jy) = S Q exp(-i*theta*L) Q^T S^dagger

with T = Q L Q^T.  This stays orthogonal to ~1e-13 at dimension 2001,
where naive power series or repeated squaring lose accuracy.  The
(Q, L) eigensystem is cached per dimension and reused for every theta,
which also gives O(dim^2) application of U to a single vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

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


def little_d_row(j, theta: float, k: int) -> np.ndarray:
    """Row k of little_d(j, theta), in O(dim^2) without forming the matrix."""
    j = _check_j(j)
    if theta == 0.0:
        row = np.zeros(j.twice + 1)
        row[k] = 1.0
        return row
    lam, q = _jy_eigensystem(j.twice)
    phase = np.exp(-1j * float(theta) * lam)
    core_row = (q[k] * phase) @ q.T
    s = _i_powers(j.twice + 1)
    return (s[k] * core_row * s.conj()).real


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
