"""The benchmark's workloads: seeded command lists for the exactspin CLI.

Problem sizes are fixed per workload.  The seed draws only polynomial
coefficients and angles, so the cost of a workload does not depend on it.
The program sees only the shipped recipes and the generated flags and
INI files.

* ``closed_form``     -- everything the closed form computes densely today:
  the five shipped recipes, ``spectrum`` with residual certificates on
  three seeded models, and one seeded large-j ``evolve``.  The oracle is
  idle.
* ``oracle_confront`` -- ``exactspin verify`` and two seeded
  closed-form-vs-Jacobi confrontations.  The in-house oracle does most of
  the work; the closed form is nearly idle.

A command is a dict:

* ``kind`` -- ``"cli"`` runs ``argv`` through ``exactspin.cli.main``;
  ``"confront"`` runs the closed-form-vs-Jacobi confrontation below.
* ``output`` -- the file the command writes; ``{out}`` in it and in
  ``argv`` stands for the directory of the current pass.
* ``check`` -- what ``checks.check_output`` verifies in that file.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("closed_form", "oracle_confront")

# (order, twice_j): one half-integer j, about 7 s of `spectrum` per pass
SPECTRUM_MODELS = ((2, 500), (3, 451), (4, 400))
# (order, twice_j) of the Jacobi confrontations: dims 61 and 101
CONFRONT_MODELS = ((4, 60), (3, 100))
REVIVAL_TWICE_J = 2000
REVIVAL_POINTS = 4000
FIGURE_LOBES = {"fig1a": 1, "fig1b": 2, "fig1c": 3, "fig1d": 4}


def _draw_model(rng: random.Random, order: int, twice_j: int) -> dict:
    """A seeded model whose linear term dominates, so E_m is monotone in m.

    With no level crossings and theta away from 0 and pi, the Jacobi oracle
    needs about the same number of sweeps for every seed.
    """
    j = twice_j / 2.0
    coeffs = [rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)]
    for i in range(2, order + 1):
        # |d/dm (a_i m^i)| <= 0.08 at |m| = j, far below |a_1|
        coeffs.append(rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.08) * j ** (1 - i) / i)
    return {"twice_j": twice_j, "coeffs": coeffs,
            "theta": rng.uniform(1.2, 1.95),
            "phi": rng.uniform(0.0, 2.0 * math.pi)}


def _model_flags(model: dict) -> list[str]:
    # --A=... because a leading minus sign would read as a flag
    return [f"--j={model['twice_j']}", f"--A={','.join(repr(a) for a in model['coeffs'])}",
            f"--theta={model['theta']!r}", f"--phi={model['phi']!r}"]


def _paper_figures(root: str) -> list[dict]:
    recipes = os.path.join(root, "recipes")
    commands = [{"name": name, "kind": "cli",
                 "argv": ["ground", "--config", os.path.join(recipes, f"{name}.ini"),
                          "--out", f"{{out}}/{name}.csv"],
                 "output": f"{{out}}/{name}.csv",
                 "check": {"type": "ground", "twice_j": 2000, "lobes": lobes}}
                for name, lobes in FIGURE_LOBES.items()]
    commands.append({"name": "fig2", "kind": "cli",
                     "argv": ["evolve", "--config", os.path.join(recipes, "fig2.ini"),
                              "--out", "{out}/fig2.csv"],
                     "output": "{out}/fig2.csv",
                     "check": {"type": "evolve", "twice_j": 200, "twice_m": 200,
                               "t_min": 0.0, "t_max": 350.0, "num_points": 4000,
                               "printed": True}})
    return commands


def _spectrum_certified(rng: random.Random) -> list[dict]:
    commands = []
    for order, twice_j in SPECTRUM_MODELS:
        model = _draw_model(rng, order, twice_j)
        name = f"spectrum-o{order}-j{twice_j}"
        commands.append({"name": name, "kind": "cli",
                         "argv": ["spectrum", *_model_flags(model), "--out", f"{{out}}/{name}.csv"],
                         "output": f"{{out}}/{name}.csv",
                         "check": {"type": "spectrum", "model": model}})
    return commands


def _revival_large_j(rng: random.Random, run_dir: str) -> list[dict]:
    a1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    a2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.02)
    model = {"twice_j": REVIVAL_TWICE_J,
             "coeffs": [rng.uniform(-1.0, 1.0), a1, a2],
             "theta": rng.uniform(0.3, math.pi - 0.3),
             "phi": rng.uniform(0.3, 2.0 * math.pi - 0.3)}
    t_max = 1.1 * math.pi / abs(a2)  # past the first revival
    config = os.path.join(run_dir, "revival.ini")
    with open(config, "w") as fh:
        fh.write("[model]\n"
                 f"twice_j = {model['twice_j']}\n"
                 f"coeffs = {','.join(repr(a) for a in model['coeffs'])}\n"
                 f"theta = {model['theta']!r}\n"
                 f"phi = {model['phi']!r}\n\n"
                 "[evolve]\n"
                 "t_min = 0.0\n"
                 f"t_max = {t_max!r}\n"
                 f"num_points = {REVIVAL_POINTS}\n"
                 f"initial = dicke:{REVIVAL_TWICE_J}\n"
                 "include_printed_formula = true\n")
    return [{"name": "revival", "kind": "cli",
             "argv": ["evolve", "--config", config, "--out", "{out}/revival.csv"],
             "output": "{out}/revival.csv",
             "check": {"type": "evolve", "twice_j": REVIVAL_TWICE_J, "twice_m": REVIVAL_TWICE_J,
                       "t_min": 0.0, "t_max": t_max, "num_points": REVIVAL_POINTS,
                       "printed": True}}]


def _oracle_confront(rng: random.Random) -> list[dict]:
    commands = [{"name": "verify", "kind": "cli",
                 "argv": ["verify", "--out", "{out}/verify.json"],
                 "output": "{out}/verify.json",
                 "check": {"type": "verify"}}]
    for order, twice_j in CONFRONT_MODELS:
        model = _draw_model(rng, order, twice_j)
        name = f"confront-o{order}-j{twice_j}"
        commands.append({"name": name, "kind": "confront", "model": model,
                         "output": f"{{out}}/{name}.json",
                         "check": {"type": "confront", "model": model}})
    return commands


def build_commands(workload: str, seed: int, root: str, run_dir: str) -> list[dict]:
    """The workload's commands for this seed; writes any generated INI into run_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed_form":
        return _paper_figures(root) + _spectrum_certified(rng) + _revival_large_j(rng, run_dir)
    if workload == "oracle_confront":
        return _oracle_confront(rng)
    raise ValueError(f"unknown workload {workload!r}")


def confront(model: dict, out: str) -> int:
    """Closed form vs the in-house Jacobi oracle on one dense model Hamiltonian."""
    import exactspin

    params = exactspin.ModelParams(order=len(model["coeffs"]) - 1, coeffs=tuple(model["coeffs"]),
                                   angles=exactspin.RotationAngles(model["theta"], model["phi"]))
    j = exactspin.HalfInt(model["twice_j"])
    h = exactspin.model_hamiltonian(params, j)
    brute, _ = exactspin.brute_diagonalize(h)
    exact = [pair.energy for pair in exactspin.exact_spectrum(params, j)]
    with open(out, "w") as fh:
        json.dump({"brute": [float(w) for w in brute], "exact": exact}, fh)
    return 0
