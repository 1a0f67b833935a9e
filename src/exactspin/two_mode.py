"""The quadratic model's printed expansions, built verbatim as diagnostic surfaces.

The quadratic member of the family has two alternative printed
expansions: a ladder-operator form (paper_literal_h2) and a two-mode Fock
form of a condensate with one- and two-particle exchange and elastic and
inelastic collisions (two_mode_coefficients, fock_hamiltonian).  Both
carry internal factor conventions that differ from the model H = p(T);
they are built term by term as printed, so the deviations can be
measured, never silently corrected.  Only the self-verification suite and
the two-mode demo use them, so the CLI never loads this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, model_hamiltonian
from .rotation import RotationAngles, rotate_operator, rotation_matrix
from .su2 import HalfInt, _check_j, operator_matrix

__all__ = [
    "RotatedJzExpansion",
    "expand_rotated_jz",
    "PaperH2",
    "paper_literal_h2",
    "TwoModeCoefficients",
    "two_mode_coefficients",
    "FockSector",
    "fock_hamiltonian",
    "rate_relation",
]

FOCK_CONVENTIONS = ("standard", "paper_literal")


@dataclass(frozen=True)
class RotatedJzExpansion:
    """Decomposition of U† Jz U over {Jz, J+, J-} with the fit residual."""

    coeff_jz: complex
    coeff_plus: complex
    coeff_minus: complex
    residual: float


def expand_rotated_jz(j, angles: RotationAngles) -> RotatedJzExpansion:
    """Least-squares decomposition of U† Jz U onto span{Jz, J+, J-}.

    The rotated Jz lies exactly in this span, so the reported residual
    should be at numerical zero.
    """
    j = _check_j(j)
    if j.twice < 1:
        raise ValueError("need j >= 1/2 to expand")
    u = rotation_matrix(j, angles)
    rotated = rotate_operator(u, operator_matrix(j, "Jz"))
    basis = [operator_matrix(j, k) for k in ("Jz", "Jplus", "Jminus")]
    # The three basis operators are mutually orthogonal under <A,B> = tr(A†B)
    coeffs = [np.vdot(b, rotated) / np.vdot(b, b) for b in basis]
    recon = sum(c * b for c, b in zip(coeffs, basis))
    residual = float(np.linalg.norm(rotated - recon))
    return RotatedJzExpansion(coeffs[0], coeffs[1], coeffs[2], residual)


class PaperH2(NamedTuple):
    """Verbatim printed expansion of the quadratic model and its deviation."""

    matrix: np.ndarray
    max_abs_diff: float


def _printed_h2(params: ModelParams, j) -> np.ndarray:
    """The printed ladder-operator expansion as a matrix, built term by term with no
    factor corrections (in particular no 1/2 on the transverse terms), plus coeffs[0]."""
    if params.order != 2:
        raise ValueError(f"printed expansion is defined for order 2, got {params.order}")
    j = _check_j(j)
    a0, a1, a2 = params.coeffs
    th = params.angles.theta
    ph = params.angles.phi
    ct, st = math.cos(th), math.sin(th)
    e = complex(math.cos(ph), math.sin(ph))
    jz = operator_matrix(j, "Jz")
    jp = operator_matrix(j, "Jplus")
    jm = operator_matrix(j, "Jminus")
    transverse = e * jp + e.conjugate() * jm
    cross = jz @ transverse
    h = a1 * (ct * jz + st * transverse)
    h = h + a2 * (
        ct**2 * (jz @ jz)
        + st**2 * (e**2 * (jp @ jp) + e.conjugate() ** 2 * (jm @ jm) + jp @ jm + jm @ jp)
        + ct * st * (cross + cross.conj().T)
    )
    return h + a0 * np.eye(j.twice + 1)


def paper_literal_h2(params: ModelParams, j) -> PaperH2:
    """The quadratic model's printed ladder-operator expansion, as printed.

    Returns the matrix of _printed_h2 together with the elementwise max
    difference from model_hamiltonian, H = p(T); the difference
    is a measurement, not an error.
    """
    h = _printed_h2(params, j)
    return PaperH2(h, float(np.max(np.abs(h - model_hamiltonian(params, j)))))


@dataclass(frozen=True)
class TwoModeCoefficients:
    """Coupling constants of the quadratic model in the two-mode form.

    offset          constant energy shift (from the Jz^2 term's particle-number part)
    detuning        frequency difference between the modes
    josephson       laser-induced one-particle exchange coupling
    elastic         two-particle elastic collision strength
    inelastic_single  single spin-flip accompanied by a dispersive process
    inelastic_pair    two-particle spin-flip strength
    """

    offset: float
    detuning: float
    josephson: float
    elastic: float
    inelastic_single: float
    inelastic_pair: float


def two_mode_coefficients(params: ModelParams, n_total: int) -> TwoModeCoefficients:
    """Coefficient dictionary of the quadratic model's two-mode form."""
    if params.order != 2:
        raise ValueError(f"two-mode form is defined for order 2, got {params.order}")
    if n_total < 0:
        raise ValueError(f"n_total must be nonnegative, got {n_total}")
    _, a1, a2 = params.coeffs
    th = params.angles.theta
    ct, st = math.cos(th), math.sin(th)
    return TwoModeCoefficients(
        offset=a2 * (ct**2 * n_total**2 + st**2 * n_total),
        detuning=a1 * ct,
        josephson=a1 * st,
        elastic=a2 * (1.0 - 3.0 * ct**2),
        inelastic_single=2.0 * a2 * ct * st,
        inelastic_pair=a2 * st**2,
    )


@dataclass(frozen=True)
class FockSector:
    """Fixed total-particle-number sector of two bosonic modes.

    Basis states |n_a, n_b> with n_a + n_b = n_total, ordered by
    ascending n_a; index k holds n_a = k.  The spin identification is
    |j,m> = |n_a = j+m, n_b = j-m> with j = n_total/2, so ascending n_a
    coincides with ascending m.
    """

    n_total: int

    def __post_init__(self):
        if self.n_total < 0:
            raise ValueError(f"n_total must be nonnegative, got {self.n_total}")

    @property
    def dim(self) -> int:
        return self.n_total + 1

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.n_total)

    def occupations_a(self) -> np.ndarray:
        return np.arange(self.dim, dtype=np.float64)

    def exchange_matrix(self) -> np.ndarray:
        """Matrix of a†b on the sector: sqrt((n_a+1) n_b) on the lower band."""
        na = self.occupations_a()
        nb = self.n_total - na
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[np.arange(1, self.dim), np.arange(self.dim - 1)] = np.sqrt(
            (na[:-1] + 1.0) * nb[:-1]
        )
        return mat


def fock_hamiltonian(coeffs: TwoModeCoefficients, sector: FockSector,
                     convention: str = "standard", phi: float = 0.0) -> np.ndarray:
    """The two-mode Hamiltonian on a fixed-N sector, term by term as printed.

    convention picks the normalization of the detuning term's population
    difference: 'standard' reads it as the spin Jz = (a†a - b†b)/2 (the
    normalization forced by [J+, J-] = 2 Jz with J+ = a†b), while
    'paper_literal' uses a†a - b†b as printed.  phi is the exchange
    phase of the one- and two-particle transfer terms.
    """
    if convention not in FOCK_CONVENTIONS:
        raise ValueError(f"convention must be one of {FOCK_CONVENTIONS}, got {convention!r}")
    dim = sector.dim
    na = sector.occupations_a()
    nb = sector.n_total - na
    kplus = sector.exchange_matrix()
    kminus = kplus.conj().T
    e = complex(math.cos(phi), math.sin(phi))

    h = coeffs.offset * np.eye(dim, dtype=complex)
    pop_diff = np.diag(na - nb).astype(complex)
    if convention == "standard":
        h += coeffs.detuning * pop_diff / 2.0
    else:
        h += coeffs.detuning * pop_diff
    h += coeffs.josephson * (e * kplus + e.conjugate() * kminus)
    h += coeffs.elastic * np.diag(na * nb)
    h += coeffs.inelastic_pair * (e**2 * (kplus @ kplus) + e.conjugate() ** 2 * (kminus @ kminus))
    # a†a†ab = (n_a - 1) a†b ; b†a†ab = n_a n_b (Hermitian, so h.c. doubles it)
    single_flip = np.diag(na - 1.0) @ kplus
    t = e * (single_flip - np.diag(na * nb))
    h += coeffs.inelastic_single * (t + t.conj().T)
    return h


def rate_relation(params: ModelParams) -> tuple[float, float]:
    """Both sides of the printed elastic-to-inelastic rate identity.

    Returns (lhs, rhs) where lhs = (mu + Lambda)/U from the coefficient
    record and rhs is the printed closed form; equality is not asserted.
    Raises on the printed form's singular denominators.
    """
    if params.order != 2:
        raise ValueError(f"rate relation is defined for order 2, got {params.order}")
    # all coefficients entering the rate are independent of the particle number
    c = two_mode_coefficients(params, n_total=0)
    _, a1, a2 = params.coeffs
    # both denominators vanish on the cone cos^2 theta = 1/3; detect it with a
    # tolerance so the magic angle is rejected rather than amplified
    trig = 1.0 - 3.0 * math.cos(params.angles.theta) ** 2
    if a2 == 0.0 or abs(trig) <= 1e-12:
        raise ZeroDivisionError(
            "elastic coefficient vanishes (A2 = 0 or cos^2 theta = 1/3); lhs undefined"
        )
    # a1^2 - 3*detuning^2 = a1^2 * trig, and trig is nonzero past the guard above
    denom = a1**2 - 3.0 * c.detuning**2
    if a1 == 0.0:
        raise ZeroDivisionError("A1^2 - 3*detuning^2 vanishes (A1 = 0); rhs undefined")
    lhs = (c.inelastic_single + c.inelastic_pair) / c.elastic
    rhs = (c.josephson / 2.0) * (c.josephson + 2.0 * c.detuning) / denom
    return lhs, rhs
