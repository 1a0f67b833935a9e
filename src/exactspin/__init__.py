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

BLAS runs on one thread.  When numpy is not yet imported and the caller
has set none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS,
the package imports numpy with OPENBLAS_NUM_THREADS=1 and unsets it again:
OpenBLAS reads it once, when numpy loads it, so os.environ and child
processes keep the caller's environment.  A caller who sets one of the
three variables, or imports numpy first, keeps their own BLAS setup.  The
closed form's work is banded and small, so a second thread only spins idle
at start-up; above 10,000 elements OpenBLAS would also split a dot product
or a norm across threads, and the last bits would depend on the core count.
"""


def _import_numpy_on_one_blas_thread():
    import os
    import sys

    if "numpy" in sys.modules or any(
            v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_blas_thread()
del _import_numpy_on_one_blas_thread

from . import closed_form, model, rotation, su2
from .su2 import *
from .rotation import *
from .model import *
from .closed_form import *

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on the first lookup
_LAZY = {name: module for module, names in {
    "spectrum": ("brute_diagonalize",),
    "two_mode": ("FockSector", "PaperH2", "TwoModeCoefficients", "fock_hamiltonian",
                 "paper_literal_h2", "rate_relation", "two_mode_coefficients"),
    "dynamics": ("EigenbasisState", "TimeSeries", "envelope_metric", "evolve_observable",
                 "evolve_series", "paper_jz_series", "revival_time", "rotated_observable",
                 "state_at", "to_eigenbasis"),
    "observables": ("PopulationDistribution", "count_peaks", "dicke_distribution",
                    "ground_distribution"),
    "verify": ("build_report", "run_diagnostic_sweeps", "run_observations",
               "run_required_checks"),
}.items() for name in names}

# each eager module's __all__ is the one list of its names
__all__ = [*su2.__all__, *rotation.__all__, *model.__all__, *closed_form.__all__, *_LAZY]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
