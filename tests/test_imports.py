"""The package's public names, which modules each entry point loads, and its BLAS threads."""

import importlib
import os
import subprocess
import sys

import pytest

import exactspin

# every public name the package exported when it imported all its modules eagerly,
# by the module that defines it
PUBLIC = {
    "su2": ("HalfInt", "as_halfint", "commutator", "dicke_index", "is_hermitian", "m_floats",
            "operator_matrix", "validate_jm"),
    "rotation": ("RotationAngles", "apply_rotation", "little_d", "little_d_row",
                 "rotated_basis_state", "rotation_matrix"),
    "model": ("ModelParams", "apply_hamiltonian", "energy_values", "model_hamiltonian"),
    "closed_form": ("EigenPair", "GroundStateResult", "exact_spectrum", "ground_state",
                    "residual_norm"),
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
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_every_public_name_resolves_to_its_defining_object(module, name):
    defined = getattr(importlib.import_module(f"exactspin.{module}"), name)
    assert getattr(exactspin, name) is defined
    scope = {}
    exec(f"from exactspin import {name}", scope)
    assert scope[name] is defined


def test_star_import_all_and_dir_cover_every_public_name():
    scope = {}
    exec("from exactspin import *", scope)
    for module, name in NAMES:
        assert scope[name] is getattr(importlib.import_module(f"exactspin.{module}"), name)
    assert sorted(exactspin.__all__) == sorted(name for _, name in NAMES)
    assert set(exactspin.__all__) <= set(dir(exactspin))
    with pytest.raises(AttributeError):
        exactspin.no_such_name


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the oracle, the printed two-mode builders, dynamics, observables and verify
    # load on first use: a fresh import and the table commands leave them out
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactspin.__file__)))
    out = str(tmp_path / "out.csv")
    lazy = ["spectrum", "two_mode", "dynamics", "observables", "verify"]
    code = ("import sys, exactspin\n"
            f"lazy = {lazy!r}\n"
            "def loaded():\n"
            "    return [m for m in lazy if 'exactspin.' + m in sys.modules]\n"
            "print(loaded())\n"
            "import exactspin.cli\n"
            "for argv in (['spectrum', '--j=6', '--A=0,1,0.1', '--theta=0.4'],\n"
            "             ['ground', '--config', 'recipes/fig1a.ini'],\n"
            "             ['evolve', '--config', 'recipes/fig2.ini']):\n"
            f"    assert exactspin.cli.main(argv + ['--out', {out!r}]) == 0\n"
            "    print(loaded())\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=root,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",                            # import exactspin
        "[]",                            # spectrum
        "['observables']",               # ground
        "['dynamics', 'observables']",   # evolve
    ]


def test_verify_loads_neither_numpy_random_nor_openssl(tmp_path):
    # verify draws from the stdlib generator, so a cold run never imports numpy.random,
    # whose import pulls in secrets, hmac and OpenSSL's _hashlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactspin.__file__)))
    out = str(tmp_path / "verify.json")
    code = ("import sys, exactspin.cli\n"
            f"assert exactspin.cli.main(['verify', '--out', {out!r}]) == 0\n"
            "print([m for m in ('numpy.random', 'secrets', 'hmac', '_hashlib')\n"
            "       if m in sys.modules])\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=root,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code: str, **env: str) -> str:
    """Stdout of code in a fresh interpreter, with no BLAS thread variable set but env's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactspin.__file__)))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    result = subprocess.run([sys.executable, "-c", code], env=dict(base, PYTHONPATH=src, **env),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("first, env", [
    ("", {}),
    ("", {"OPENBLAS_NUM_THREADS": "2"}),
    ("", {"OMP_NUM_THREADS": "2"}),
    ("import numpy\n", {}),
], ids=["default", "openblas_2", "omp_2", "numpy_first"])
def test_import_runs_blas_on_one_thread_unless_the_caller_chose(first, env):
    # OpenBLAS starts its workers when numpy loads it; each is one more task of the process
    code = (first + "import os, exactspin\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            f"print([os.environ.get(v) for v in {THREAD_VARS!r}])\n")
    tasks, values = _fresh(code, **env).splitlines()
    assert values == repr([env.get(v) for v in THREAD_VARS])
    if not first and not env:
        assert int(tasks) == 1
    elif len(os.sched_getaffinity(0)) >= 2:
        assert int(tasks) >= 2


def test_large_n_bits_do_not_depend_on_the_core_count():
    # above 10,000 elements OpenBLAS splits a dot product or a norm across its threads
    code = ("import hashlib, exactspin\n"
            "import numpy as np\n"
            "rows = exactspin.rotation._d_rows(exactspin.HalfInt(20000), 1.1, np.array([5000, 12345]))\n"
            "print(hashlib.sha256(rows.tobytes()).hexdigest())\n"
            "params = exactspin.ModelParams(2, (0.1, 1.0, 0.001), exactspin.RotationAngles(1.1, 0.3))\n"
            "j = exactspin.HalfInt(100000)\n"
            "print(exactspin.residual_norm(params, j, exactspin.ground_state(params, j).pair).hex())\n")
    assert _fresh(code) == _fresh(code, OPENBLAS_NUM_THREADS="1")
