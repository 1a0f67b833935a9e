"""Exact time evolution of observables under the rotated models.

Evolution is spectral: a state expressed in the closed-form eigenbasis
only rotates coefficient phases.  U O U† is tridiagonal for O = Jz, Jx,
Jy, so an expectation value is a static part plus one beat per pair of
adjacent levels, O(dim) per time point.  evolve_series evaluates several
series in one pass over chunks of the time grid: the phases of a chunk
are formed once, and their cos and sin multiply the stacked weights of
every series, so memory stays bounded by SERIES_CHUNK_BYTES at any j.

The printed population-evolution formula for the quadratic model is also
evaluated verbatim (no conjugates, squared ladder factor, as printed) as
a diagnostic series for comparison against the exact evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, energy_values
from .rotation import RotationAngles, apply_rotation
from .su2 import _check_j, _ladder_coeffs_ascending, m_floats

__all__ = [
    "EigenbasisState",
    "TimeSeries",
    "to_eigenbasis",
    "state_at",
    "rotated_observable",
    "evolve_observable",
    "evolve_series",
    "paper_jz_series",
    "revival_time",
    "envelope_metric",
]

EVOLVE_OBSERVABLES = ("Jz", "Jy", "Jx")
# bytes of one chunk's phase array; its cos and sin take as much again each
SERIES_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class EigenbasisState:
    """Coefficients C_m of a state over the rotated eigenbasis, ascending m."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        norm2 = float(np.sum(np.abs(c) ** 2))
        if abs(norm2 - 1.0) > 1e-10:
            raise ValueError(f"eigenbasis coefficients not normalized: sum |C|^2 = {norm2}")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class TimeSeries:
    """Sampled expectation values over a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError(f"times {t.shape} and values {v.shape} must be equal-length 1-d")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def to_eigenbasis(params: ModelParams, j, psi0: np.ndarray) -> EigenbasisState:
    """Coefficients C_m = <j,m|U|psi0> of a lab-basis state."""
    j = _check_j(j)
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"initial state must be unit norm, got {norm}")
    return EigenbasisState(apply_rotation(j, params.angles, psi0))


def state_at(params: ModelParams, j, state: EigenbasisState, t: float) -> np.ndarray:
    """Lab-basis state at time t: U† (C * exp(-i E t))."""
    j = _check_j(j)
    phases = np.exp(-1j * energy_values(params, j) * float(t))
    return apply_rotation(j, params.angles, state.coeffs * phases, dagger=True)


def _rotated_bands(j, angles: RotationAngles, obs: str) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of the tridiagonal U O U† (real diagonal)."""
    if obs not in EVOLVE_OBSERVABLES:
        raise ValueError(f"obs must be one of {EVOLVE_OBSERVABLES}, got {obs!r}")
    m = m_floats(j)
    ell = _ladder_coeffs_ascending(j) * (np.exp(-1j * angles.phi) / 2.0)
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    if obs == "Jz":
        return ct * m, -st * ell
    if obs == "Jx":
        return st * m, ct * ell
    return np.zeros_like(m), 1j * ell


def rotated_observable(params: ModelParams, j, obs: str) -> np.ndarray:
    """U O U† in the eigen-label basis, as a dense matrix built from its bands."""
    j = _check_j(j)
    diag, sup = _rotated_bands(j, params.angles, obs)
    return np.diag(diag.astype(complex)) + np.diag(sup, 1) + np.diag(sup.conj(), -1)


def _series_weights(params: ModelParams, j, state: EigenbasisState,
                    name: str) -> tuple[float, np.ndarray, np.ndarray]:
    """(static part, cos weights, sin weights) of one series over the level gaps."""
    c = state.coeffs
    if name == "printed":
        if params.order != 2:
            raise ValueError(f"printed formula is defined for order 2, got {params.order}")
        m = m_floats(j)[1:]
        jval = j.twice / 2.0
        # term k >= 1 pairs C_k C_{k-1} with frequency E_{k-1} - E_k
        w = -math.sin(params.angles.theta) * (
            c[1:] * c[:-1] * (jval * (jval + 1.0) - m * (m - 1.0))).real
        # cos(phi - x) = cos(phi) cos(x) + sin(phi) sin(x)
        phi = params.angles.phi
        return 0.0, math.cos(phi) * w, math.sin(phi) * w
    diag, sup = _rotated_bands(j, params.angles, name)
    beats = 2.0 * (c[:-1].conj() * sup * c[1:])
    # 2 Re(b e^{-i w t}) = 2 Re(b) cos(w t) + 2 Im(b) sin(w t)
    return float(np.sum(diag * np.abs(c) ** 2)), beats.real, beats.imag


def evolve_series(params: ModelParams, j, state: EigenbasisState, names, times) -> np.ndarray:
    """Columns of the named series over times, shape (len(times), len(names)).

    A name is an observable of EVOLVE_OBSERVABLES (the exact <O>(t)) or
    "printed" (the printed formula, order 2 only).  All of them come from
    one pass over time chunks of at most SERIES_CHUNK_BYTES of phases."""
    j = _check_j(j)
    times = np.asarray(times, dtype=float)
    if state.dim != j.twice + 1:
        raise ValueError(f"state dim {state.dim} does not match 2j+1 = {j.twice + 1}")
    static, wcos, wsin = zip(*(_series_weights(params, j, state, name) for name in names))
    wcos, wsin = np.stack(wcos, axis=1), np.stack(wsin, axis=1)
    gaps = np.diff(energy_values(params, j))
    rows = max(1, SERIES_CHUNK_BYTES // (8 * max(1, gaps.size)))
    values = np.empty((times.size, len(names)))
    for start in range(0, times.size, rows):
        phase = np.outer(times[start:start + rows], gaps)
        values[start:start + rows] = np.cos(phase) @ wcos + np.sin(phase) @ wsin
    return values + np.array(static)


def evolve_observable(params: ModelParams, j, state: EigenbasisState, obs: str,
                      times) -> TimeSeries:
    """Exact series <O>(t) = c(t)† (U O U†) c(t), c(t) = C e^{-iEt}, summed over the bands as
    sum_k O_kk |C_k|^2 + 2 Re sum_k conj(C_k) O_{k,k+1} C_{k+1} e^{-i(E_{k+1} - E_k) t}."""
    values = evolve_series(params, j, state, (obs,), times)[:, 0]
    return TimeSeries(times=times, values=values, label=f"<{obs}>")


def paper_jz_series(params: ModelParams, j, state: EigenbasisState, times) -> TimeSeries:
    """The printed population-evolution formula, evaluated verbatim.

    Adjacent-coefficient products C_m C_{m-1} appear without conjugation
    and the ladder factor appears squared (no square root), exactly as
    printed; the total-spin label in the factor is read as j.  Intended
    only for comparison against evolve_observable.
    """
    values = evolve_series(params, j, state, ("printed",), times)[:, 0]
    return TimeSeries(times=times, values=values, label="<Jz> printed formula")


def revival_time(params: ModelParams) -> float | None:
    """Quadratic-spectrum revival time pi/|a2|; None when the spectrum is linear."""
    if params.order != 2:
        return None
    a2 = params.coeffs[2]
    if a2 == 0.0:
        return None
    return math.pi / abs(a2)


def envelope_metric(series: TimeSeries, window: float) -> TimeSeries:
    """Sliding-window max-minus-min oscillation amplitude of a series."""
    t = series.times
    if t.size < 2:
        raise ValueError("series too short for an envelope")
    spacing = float(np.min(np.diff(t)))
    if not (window > spacing):
        raise ValueError(f"window {window} must exceed the grid spacing {spacing}")
    half = window / 2.0
    lo = np.searchsorted(t, t - half, side="left")
    hi = np.searchsorted(t, t + half, side="right")
    values = np.empty_like(series.values)
    for i in range(t.size):
        seg = series.values[lo[i]:hi[i]]
        values[i] = seg.max() - seg.min()
    return TimeSeries(times=t, values=values, label=f"envelope[{series.label}]")
