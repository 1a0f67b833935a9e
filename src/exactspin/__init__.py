"""exactspin: exactly solvable rotated collective-spin / two-mode models.

Builds the family of Hamiltonians obtained by conjugating a polynomial
in Jz with the rotation exp(i*phi*Jz) exp(i*theta*Jy), exposes their
closed-form spectra, ground states, and observable dynamics, and
verifies every closed-form claim against independent brute-force
oracles at desk scale.
"""

from .su2 import (
    HalfInt,
    as_halfint,
    commutator,
    dicke_index,
    is_hermitian,
    is_unitary,
    ladder_coeff,
    m_floats,
    m_values,
    operator_matrix,
    validate_jm,
)
from .rotation import (
    RotationAngles,
    apply_rotation,
    little_d,
    little_d_row,
    rotated_basis_state,
    rotate_operator,
    rotation_matrix,
)
from .model import (
    FockSector,
    ModelParams,
    PaperH2,
    RotatedJzExpansion,
    TwoModeCoefficients,
    apply_hamiltonian,
    diagonal_hamiltonian,
    energy_values,
    expand_rotated_jz,
    fock_hamiltonian,
    model_hamiltonian,
    paper_literal_h2,
    rate_relation,
    two_mode_coefficients,
)
from .spectrum import (
    EigenPair,
    GroundStateResult,
    brute_diagonalize,
    exact_spectrum,
    ground_state,
    residual_norm,
)
from .dynamics import (
    EigenbasisState,
    TimeSeries,
    envelope_metric,
    evolve_observable,
    evolve_series,
    paper_jz_series,
    revival_time,
    rotated_observable,
    state_at,
    to_eigenbasis,
)
from .observables import (
    PopulationDistribution,
    count_peaks,
    dicke_distribution,
    ground_distribution,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the oracle layer is imported on first use, so spectrum, ground and evolve never load it
    if name in ("build_report", "run_diagnostic_sweeps", "run_observations",
                "run_required_checks"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
