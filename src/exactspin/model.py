"""Hamiltonian builders for the rotated collective-spin model family.

The model is H = U† H0 U with H0 = sum_i a_i Jz^i, whose spectrum {E_m} is
known in closed form.  Because U† Jz U = cos(theta) Jz + sin(theta) Jx = T
for every phi, H = p(T), a polynomial in one real symmetric tridiagonal
matrix, and that is how it is built: dense (model_hamiltonian) or
matrix-free (apply_hamiltonian), by Horner's rule in T, with no rotation
matrix.  The quadratic member's printed ladder-operator and two-mode Fock
expansions are built in two_mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotation import RotationAngles, _t_bands
from .su2 import _check_j, m_floats

__all__ = [
    "ModelParams",
    "diagonal_hamiltonian",
    "model_hamiltonian",
    "apply_hamiltonian",
    "energy_values",
]


@dataclass(frozen=True)
class ModelParams:
    """One member of the model family: polynomial order, coefficients, angles.

    coeffs[i] multiplies Jz^i in the pre-rotation Hamiltonian; the list
    has length order+1.
    """

    order: int
    coeffs: tuple[float, ...]
    angles: RotationAngles

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        coeffs = tuple(float(a) for a in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients for order {self.order}, got {len(coeffs)}"
            )
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def quadratic(cls, a1: float, a2: float, theta: float, phi: float = 0.0,
                  a0: float = 0.0) -> "ModelParams":
        return cls(order=2, coeffs=(a0, a1, a2), angles=RotationAngles(theta, phi))


def energy_values(params: ModelParams, j) -> np.ndarray:
    """Closed-form energies E_m = sum_i coeffs[i] m^i over the ascending m grid."""
    m = m_floats(_check_j(j))
    e = np.zeros_like(m)
    for a in reversed(params.coeffs):
        e = e * m + a
    return e


def diagonal_hamiltonian(params: ModelParams, j) -> np.ndarray:
    """The pre-rotation Hamiltonian: diag(E_m), ascending m."""
    return np.diag(energy_values(params, j)).astype(complex)


def model_hamiltonian(params: ModelParams, j) -> np.ndarray:
    """The model as a dense complex matrix: H = p(T), equal to U† diag(E_m) U.

    Column b is apply_hamiltonian on the unit vector e_b, bitwise, so the build costs
    O(order * dim^2) and touches no rotation code; its spectrum is {E_m} because
    spec T is the m grid (spectral mapping).  H is real and independent of phi."""
    j = _check_j(j)
    return apply_hamiltonian(params, j, np.eye(j.twice + 1)).astype(complex)


def apply_hamiltonian(params: ModelParams, j, vec: np.ndarray) -> np.ndarray:
    """Matrix-free H @ vec by Horner's rule in T = U† Jz U = cos(theta) Jz + sin(theta) Jx.

    T is real symmetric tridiagonal and independent of phi, so this is O(order * dim)
    per vector.  vec is one state of shape (dim,) or a block of states as the
    columns of a (dim, n) array.  Every multiplier is real, so a real input
    gives a real result, bitwise the real part of the same input made complex."""
    j = _check_j(j)
    vec = np.asarray(vec)
    if vec.ndim not in (1, 2) or vec.shape[0] != j.twice + 1:
        raise ValueError(f"state has shape {vec.shape}, expected ({j.twice + 1},) "
                         f"or ({j.twice + 1}, n)")
    column = (-1,) + (1,) * (vec.ndim - 1)
    diag, off = (band.reshape(column) for band in _t_bands(j, params.angles.theta))
    w = params.coeffs[-1] * vec
    for a in reversed(params.coeffs[:-1]):
        tw = diag * w
        tw[:-1] += off * w[1:]
        tw[1:] += off * w[:-1]
        w = tw + a * vec
    return w
