"""Population distributions over m and multi-peak (macroscopic superposition) analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .spectrum import ground_state
from .su2 import HalfInt, _check_j

__all__ = [
    "PopulationDistribution",
    "dicke_distribution",
    "ground_distribution",
    "count_peaks",
]


@dataclass(frozen=True)
class PopulationDistribution:
    """Probabilities over the ascending m grid of spin j."""

    j: HalfInt
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.j.twice + 1,):
            raise ValueError(f"expected {self.j.twice + 1} probabilities, got {p.shape}")
        if np.min(p) < -1e-15:
            raise ValueError(f"negative probability {np.min(p)}")
        p = np.where(p < 0.0, 0.0, p)
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", p)


def dicke_distribution(psi: np.ndarray) -> PopulationDistribution:
    """|psi_m|^2 over the m grid; j is inferred from the state dimension."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValueError(f"expected a nonempty state vector, got shape {psi.shape}")
    return PopulationDistribution(j=HalfInt(psi.size - 1), probs=np.abs(psi) ** 2)


def ground_distribution(params: ModelParams, j) -> PopulationDistribution:
    """Population distribution of the model's ground state."""
    j = _check_j(j)
    return dicke_distribution(ground_state(params, j).pair.vector)


def count_peaks(dist: PopulationDistribution, floor: float = 0.05) -> int:
    """Strict interior local maxima with p >= floor * max(p); plateaus count once."""
    if not (0.0 <= floor < 1.0):
        raise ValueError(f"floor must be in [0, 1), got {floor}")
    p = dist.probs
    # collapse each plateau to one entry; a peak is then a strict interior maximum
    q = p[np.concatenate(([True], p[1:] != p[:-1]))]
    mid = q[1:-1]
    peaks = (mid > q[:-2]) & (mid > q[2:]) & (mid >= floor * float(np.max(p)))
    return int(np.count_nonzero(peaks))
