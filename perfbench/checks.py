"""Output checks for the benchmark's commands.

Every check compares against a value the benchmark computes itself,
with a tolerance rather than a byte digest, so a change that only moves
rounding still passes.  ``check_output`` returns an error string, or
``None`` when the file is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# a probability distribution must sum to 1 this closely
PROB_SUM_TOL = 1e-10
# t = 0 expectation values, relative to j
T0_REL_TOL = 1e-9
# closed-form energies against the benchmark's Horner evaluation, relative to scale
ENERGY_REL_TOL = 1e-12
# Jacobi eigenvalues against the closed form, relative to scale
ORACLE_REL_TOL = 1e-9


def horner(coeffs, m: np.ndarray) -> np.ndarray:
    """E_m = sum_i coeffs[i] m^i."""
    e = np.zeros_like(m)
    for a in reversed(coeffs):
        e = e * m + a
    return e


def m_grid(twice_j: int) -> np.ndarray:
    return np.arange(-twice_j, twice_j + 1, 2) / 2.0


def energy_scale(model: dict) -> float:
    """Upper bound on |E_m|: sum_i |a_i| j^i, at least 1."""
    j = model["twice_j"] / 2.0
    return max(1.0, sum(abs(a) * j**i for i, a in enumerate(model["coeffs"])))


def residual_bound(model: dict) -> float:
    """The scale-aware eigenpair residual bound used by `exactspin verify`."""
    order = len(model["coeffs"]) - 1
    norm_a = sum(abs(a) for a in model["coeffs"])
    return 1e-8 * (1.0 + norm_a * (model["twice_j"] / 2.0) ** order)


def _read_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, header columns, numeric rows) of a CSV output."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines.pop()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError(f"rows do not match the header {header}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite value in output")
    return comments, header, rows


def _check_ground(path: str, spec: dict) -> str | None:
    from exactspin.observables import PopulationDistribution, count_peaks
    from exactspin.su2 import HalfInt

    comments, header, rows = _read_csv(path)
    if header != ["m", "probability"]:
        return f"header {header}"
    if not np.array_equal(rows[:, 0], m_grid(spec["twice_j"])):
        return "m column is not the ascending m grid"
    probs = rows[:, 1]
    total = float(np.sum(probs))
    if abs(total - 1.0) > PROB_SUM_TOL or np.min(probs) < 0.0:
        return f"probabilities sum to {total!r}"
    lobes = count_peaks(PopulationDistribution(HalfInt(spec["twice_j"]), probs))
    if lobes != spec["lobes"]:
        return f"{lobes} lobes, expected {spec['lobes']}"
    if not any(line.startswith("# energy=") for line in comments):
        return "missing # energy= line"
    return None


def _check_evolve(path: str, spec: dict) -> str | None:
    _, header, rows = _read_csv(path)
    expected = ["t", "jz_exact"] + (["jz_paper_formula"] if spec["printed"] else []) + ["jy_exact"]
    if header != expected:
        return f"header {header}, expected {expected}"
    if rows.shape[0] != spec["num_points"]:
        return f"{rows.shape[0]} rows, expected {spec['num_points']}"
    t = rows[:, 0]
    if t[0] != spec["t_min"] or not math.isclose(t[-1], spec["t_max"], rel_tol=1e-12):
        return f"time grid [{t[0]!r}, {t[-1]!r}]"
    j = spec["twice_j"] / 2.0
    tol = T0_REL_TOL * max(1.0, j)
    jz, jy = rows[:, 1], rows[:, -1]
    # a Dicke state |j, m>: <Jz> = m and <Jy> = 0 at t = 0
    if abs(jz[0] - spec["twice_m"] / 2.0) > tol:
        return f"jz(0) = {jz[0]!r}, expected {spec['twice_m'] / 2.0}"
    if abs(jy[0]) > tol:
        return f"jy(0) = {jy[0]!r}, expected 0"
    if np.max(np.abs(jz)) > j + tol or np.max(np.abs(jy)) > j + tol:
        return "an expectation value exceeds j"
    return None


def _check_spectrum(path: str, spec: dict) -> str | None:
    model = spec["model"]
    _, header, rows = _read_csv(path)
    if header != ["m", "energy", "residual"]:
        return f"header {header}"
    m = m_grid(model["twice_j"])
    if not np.array_equal(rows[:, 0], m):
        return "m column is not the ascending m grid"
    gap = float(np.max(np.abs(rows[:, 1] - horner(model["coeffs"], m))))
    if not gap <= ENERGY_REL_TOL * energy_scale(model):
        return f"energies differ from Horner's rule by {gap:.3e}"
    worst = float(np.max(rows[:, 2]))
    if worst > residual_bound(model) or np.min(rows[:, 2]) < 0.0:
        return f"residual {worst:.3e} above the bound {residual_bound(model):.3e}"
    return None


def _check_verify(path: str, spec: dict) -> str | None:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("passed") is not True:
        return "verify report did not pass"
    failed = [c["name"] for c in report["required"] if not c["passed"]]
    if failed:
        return f"required checks failed: {failed}"
    oracle = [c for c in report["required"] if c["name"] == "spectrum_vs_oracle"]
    if len(oracle) != 1 or not oracle[0]["measured"] <= oracle[0]["limit"]:
        return "no passing spectrum_vs_oracle check"
    return None


def _check_confront(path: str, spec: dict) -> str | None:
    model = spec["model"]
    with open(path) as fh:
        doc = json.load(fh)
    dim = model["twice_j"] + 1
    brute = np.sort(np.asarray(doc["brute"], dtype=float))
    exact = np.asarray(doc["exact"], dtype=float)
    if brute.shape != (dim,) or exact.shape != (dim,):
        return f"expected {dim} eigenvalues"
    scale = energy_scale(model)
    gap = float(np.max(np.abs(exact - horner(model["coeffs"], m_grid(model["twice_j"])))))
    if not gap <= ENERGY_REL_TOL * scale:
        return f"closed-form energies differ from Horner's rule by {gap:.3e}"
    gap = float(np.max(np.abs(brute - np.sort(exact))))
    if not gap <= ORACLE_REL_TOL * scale:
        return f"Jacobi-vs-closed-form gap {gap:.3e} above {ORACLE_REL_TOL * scale:.3e}"
    return None


_CHECKS = {"ground": _check_ground, "evolve": _check_evolve, "spectrum": _check_spectrum,
           "verify": _check_verify, "confront": _check_confront}


def check_output(path: str, spec: dict) -> str | None:
    """None when the output at path passes its check, else why it failed."""
    try:
        return _CHECKS[spec["type"]](path, spec)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
