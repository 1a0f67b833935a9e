"""Spin-j angular momentum operators in the Dicke (Jz eigen-) basis.

Quantum numbers j and m are stored as doubled integers so that
half-integer arithmetic is exact; all range and parity checks reduce to
integer comparisons.  The basis convention used everywhere in this
package is ascending m: row/column index k = 0 .. 2j maps to m = -j + k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HalfInt",
    "as_halfint",
    "m_floats",
    "dicke_index",
    "validate_jm",
    "operator_matrix",
    "commutator",
    "is_hermitian",
]

OPERATOR_KINDS = ("Jz", "Jplus", "Jminus", "Jx", "Jy")


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact integer or half-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)):
            raise TypeError(f"twice must be an integer, got {type(self.twice).__name__}")
        object.__setattr__(self, "twice", int(self.twice))

    @classmethod
    def from_value(cls, value) -> "HalfInt":
        """Build from a number that is exactly a multiple of 1/2."""
        if isinstance(value, HalfInt):
            return value
        if not isinstance(value, numbers.Number):  # 2 * "aa" would be "aaaa"
            raise ValueError(f"{value!r} is not an integer or half-integer")
        doubled = 2 * value  # inf and nan are refused before int() sees them
        if doubled in (math.inf, -math.inf) or doubled != doubled or doubled != int(doubled):
            raise ValueError(f"{value!r} is not an integer or half-integer")
        return cls(int(doubled))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        other = as_halfint(other)
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other):
        other = as_halfint(other)
        return HalfInt(self.twice - other.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def as_halfint(x) -> HalfInt:
    """Coerce an int, exact multiple of 1/2, or HalfInt to HalfInt."""
    if isinstance(x, HalfInt):
        return x
    return HalfInt.from_value(x)


def _check_j(j: HalfInt) -> HalfInt:
    j = as_halfint(j)
    if j.twice < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    return j


def validate_jm(j, m) -> tuple[HalfInt, HalfInt]:
    """Check that m is a valid magnetic number for spin j (parity and range)."""
    j = _check_j(j)
    m = as_halfint(m)
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"m={m} has wrong parity for j={j}")
    if abs(m.twice) > j.twice:
        raise ValueError(f"m={m} outside [-j, j] for j={j}")
    return j, m


def m_floats(j) -> np.ndarray:
    """The ascending m grid of spin j as a float array."""
    j = _check_j(j)
    return (np.arange(j.twice + 1, dtype=np.int64) * 2 - j.twice) / 2.0


def dicke_index(j, m) -> int:
    """Basis index k of |j,m> under the ascending-m convention."""
    j, m = validate_jm(j, m)
    return (m.twice + j.twice) // 2


def _ladder_coeffs_ascending(j: HalfInt) -> np.ndarray:
    """Raising coefficients c_k = <m_k+1|J+|m_k> for k = 0 .. dim-2."""
    twice_m = np.arange(-j.twice, j.twice, 2, dtype=np.float64)
    return np.sqrt(j.twice * (j.twice + 2) - twice_m * (twice_m + 2)) / 2.0


def operator_matrix(j, kind: str) -> np.ndarray:
    """Dense complex matrix of Jz, J+-, Jx, or Jy for spin j (ascending m)."""
    j = _check_j(j)
    dim = j.twice + 1
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    if kind == "Jz":
        return np.diag(m_floats(j)).astype(complex)
    c = _ladder_coeffs_ascending(j)
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(1, dim), np.arange(dim - 1)] = c
    if kind == "Jplus":
        return jp
    if kind == "Jminus":
        return jp.conj().T
    if kind == "Jx":
        return (jp + jp.conj().T) / 2.0
    return (jp - jp.conj().T) / 2.0j


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """True if each matrix of mat (..., n, n) is Hermitian to tol of its own max |entry|."""
    mat = np.asarray(mat)
    scale = np.max(np.abs(mat), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(mat - mat.conj().swapaxes(-2, -1)), axis=(-2, -1), initial=0.0)
    return bool(np.all(asym <= tol * scale))
