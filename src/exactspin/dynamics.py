"""Exact time evolution of observables under the rotated models.

Evolution is spectral: a state expressed in the closed-form eigenbasis
only rotates coefficient phases.  U O U† is tridiagonal for O = Jz, Jx,
Jy, so an expectation value is a static part plus one beat per pair of
adjacent levels, O(dim) per time point.  On a uniform grid evolve_series
factors e^{i w t_{aB+b}} = e^{i w t_{aB}} e^{i w (t_b - t_0)}, so BLAS products
of two small phase tables give every value (any other grid takes B = 1, the
direct sum), in memory bounded by SERIES_CHUNK_BYTES at any j.

The printed population-evolution formula for the quadratic model is also
evaluated verbatim (no conjugates, squared ladder factor, as printed) as
a diagnostic series for comparison against the exact evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, energy_values
from .rotation import RotationAngles, apply_rotation, little_d_row
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
# bytes of evolve_series' step-phase table at most; each chunk of anchor phases, and
# each product formed from it, takes a quarter of this
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
    norm2 = float(np.sum(np.abs(psi0) ** 2))
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError(f"initial state must be unit norm, got sum |psi|^2 = {norm2}")
    return EigenbasisState(apply_rotation(j, params.angles, psi0))


def _dicke_state(params: ModelParams, j, k: int) -> EigenbasisState:
    """Coefficients U|j,m_k> of the Dicke state at ascending index k, from one row of d.

    O(dim), where to_eigenbasis of the same unit vector builds all of d."""
    j = _check_j(j)
    # U|m> = e^{i phi m} (column k of d(theta)), and d is orthogonal,
    # so that column is row k of d(-theta)
    angles = params.angles
    coeffs = np.exp(1j * angles.phi * m_floats(j)) * little_d_row(j, -angles.theta, k)
    return EigenbasisState(coeffs)


def state_at(params: ModelParams, j, state: EigenbasisState, t) -> np.ndarray:
    """Lab-basis state at time t: U† (C * exp(-i E t)).

    t is one time, giving the state (dim,), or a 1-d array of times, giving
    the states as the columns of a (dim, len(t)) array from one d.
    """
    j = _check_j(j)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a time or a 1-d array of times, got shape {times.shape}")
    phases = np.exp(-1j * np.multiply.outer(energy_values(params, j), times))
    coeffs = state.coeffs.reshape((-1,) + (1,) * times.ndim)
    return apply_rotation(j, params.angles, coeffs * phases, dagger=True)


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
                    name: str) -> tuple[float, np.ndarray]:
    """(static part, c) of one series, static + Re sum_k c_k e^{i w_k t} over the gaps w."""
    c = state.coeffs
    if name == "printed":
        if params.order != 2:
            raise ValueError(f"printed formula is defined for order 2, got {params.order}")
        m = m_floats(j)[1:]
        jval = j.twice / 2.0
        # term k >= 1 pairs C_k C_{k-1} with frequency E_{k-1} - E_k
        w = -math.sin(params.angles.theta) * (
            c[1:] * c[:-1] * (jval * (jval + 1.0) - m * (m - 1.0))).real
        # cos(phi - x) = Re e^{-i phi} e^{i x}
        return 0.0, complex(math.cos(params.angles.phi), -math.sin(params.angles.phi)) * w
    diag, sup = _rotated_bands(j, params.angles, name)
    beats = 2.0 * (c[:-1].conj() * sup * c[1:])
    # 2 Re(b e^{-i w t}) = Re(conj(2b) e^{i w t})
    return float(np.sum(diag * np.abs(c) ** 2)), beats.conj()


def evolve_series(params: ModelParams, j, state: EigenbasisState, names, times) -> np.ndarray:
    """Columns of the named series over times, shape (len(times), len(names)).

    A name is an observable of EVOLVE_OBSERVABLES (the exact <O>(t)) or "printed" (the
    printed formula, order 2 only).  Time t_{aB+b} is the anchor t_{aB} plus the step t_b - t_0
    plus a remainder r, B = isqrt(points) capped by SERIES_CHUNK_BYTES, so a chunk of anchor
    phases A gives (A * c) @ step^T per series, plus r times the same sum for d/dt.  A grid
    with any |r| > 4 eps max|t| (a non-uniform one) takes B = 1, the direct sum.  The phase
    tables are exponentiated in place, and the anchors are split into chunks of equal size
    whose phases and products each fit a quarter of SERIES_CHUNK_BYTES."""
    j = _check_j(j)
    times = np.asarray(times, dtype=float)
    if state.dim != j.twice + 1:
        raise ValueError(f"state dim {state.dim} does not match 2j+1 = {j.twice + 1}")
    static, coeffs = zip(*(_series_weights(params, j, state, name) for name in names))
    gaps = np.diff(energy_values(params, j))
    coeffs = np.stack(coeffs + tuple(1j * gaps * c for c in coeffs))  # then each d/dt
    n, width = times.size, max(1, gaps.size)
    tol = 4.0 * np.finfo(float).eps * np.abs(times).max(initial=0.0)
    for block in (max(1, min(math.isqrt(n), SERIES_CHUNK_BYTES // (16 * width))), 1):
        anchors, steps = times[::block], times[:block] - times[:1]
        # t - (anchor + step), rounded only in t - anchor: far below an ulp of t
        shift = (times - np.repeat(anchors, block)[:n]) - np.tile(steps, anchors.size)[:n]
        if np.all(np.abs(shift) <= tol):
            break
    step_t = 1j * np.outer(gaps, steps)
    np.exp(step_t, out=step_t)
    # anchor chunks of equal size (within one), each phase table and product within a
    # quarter of SERIES_CHUNK_BYTES, and of two anchors at least: numpy hands a 1-row
    # product to gemv, which sums in another order than gemm
    cap = max(1, SERIES_CHUNK_BYTES // (64 * max(width, block)))
    chunks = max(1, min(-(-anchors.size // cap), anchors.size // 2))
    bounds = [anchors.size * i // chunks for i in range(chunks + 1)]
    values = np.empty((n, len(coeffs)))
    for start, stop in zip(bounds, bounds[1:]):
        phase = 1j * np.outer(anchors[start:stop], gaps)
        np.exp(phase, out=phase)
        out = values[start * block:stop * block]
        for s, c in enumerate(coeffs):
            out[:, s] = ((phase * c) @ step_t).real.ravel()[:len(out)]
        del phase  # before the next chunk's phases are formed
    k = len(names)
    return values[:, :k] + shift[:, None] * values[:, k:] + np.array(static)


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
