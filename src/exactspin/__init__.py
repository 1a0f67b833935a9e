"""exactspin: exactly solvable rotated collective-spin / two-mode models.

Builds the family of Hamiltonians obtained by conjugating a polynomial
in Jz with the rotation exp(i*phi*Jz) exp(i*theta*Jy), exposes their
closed-form spectra, ground states, and observable dynamics, and
verifies every closed-form claim against independent brute-force
oracles at desk scale.

Importing the package loads only the closed form: su2, rotation, model
and closed_form.  The names of the oracle (spectrum), the printed
two-mode builders (two_mode), dynamics, observables and the verification
suite (verify) are resolved through _LAZY, which imports their module on
first use, so a command pays only for the modules it runs.
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
    ModelParams,
    apply_hamiltonian,
    diagonal_hamiltonian,
    energy_values,
    model_hamiltonian,
)
from .closed_form import (
    EigenPair,
    GroundStateResult,
    exact_spectrum,
    ground_state,
    residual_norm,
)

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on the first lookup
_LAZY = {name: module for module, names in {
    "spectrum": ("brute_diagonalize",),
    "two_mode": ("FockSector", "PaperH2", "RotatedJzExpansion", "TwoModeCoefficients",
                 "expand_rotated_jz", "fock_hamiltonian", "paper_literal_h2", "rate_relation",
                 "two_mode_coefficients"),
    "dynamics": ("EigenbasisState", "TimeSeries", "envelope_metric", "evolve_observable",
                 "evolve_series", "paper_jz_series", "revival_time", "rotated_observable",
                 "state_at", "to_eigenbasis"),
    "observables": ("PopulationDistribution", "count_peaks", "dicke_distribution",
                    "ground_distribution"),
    "verify": ("build_report", "run_diagnostic_sweeps", "run_observations",
               "run_required_checks"),
}.items() for name in names}

# the names imported above, without the submodules those imports bound, and the lazy ones
__all__ = [name for name in globals()
           if not name.startswith("_") and name not in ("su2", "rotation", "model", "closed_form")]
__all__ += _LAZY


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
