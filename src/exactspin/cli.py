"""Command-line front end: spectrum | ground | evolve | verify.

Configs are INI files (key = value, one section per concern); command
line flags override config values.  Outputs are CSV or JSON written
atomically (temp file + rename), with shortest round-trip float
formatting and '\n' line endings so identical inputs give byte-identical
files.  Exit codes: 0 success, 2 config validation error, 3 numerical
check failure (verify), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile

import numpy as np

from .dynamics import EigenbasisState, evolve_series, to_eigenbasis
from .model import ModelParams, apply_hamiltonian, energy_values
from .observables import dicke_distribution
from .rotation import RotationAngles, little_d, little_d_row
from .spectrum import ground_state
from .su2 import HalfInt, dicke_index, m_floats
from .verify import build_report

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4

# evolve works through its series in time chunks of bounded size and keeps
# only num_points-long columns; this bound on num_points x dim x 8 bytes
# predates the chunking and keeps its value because tests pin it
EVOLVE_MAX_BYTES = 1 << 30
# spectrum and evolve from amplitudes build the dense little-d matrix, and spectrum
# peaks near 41 x dim^2 bytes.  The 64 x (twice_j + 1)^2 bound, its byte-budget
# message and the twice_j <= 8191 cap stay only because tests pin them; ground and
# the other evolve paths are O(dim) but share the cap
DENSE_MAX_BYTES = 1 << 32

ALLOWED_KEYS = {
    "model": {"twice_j", "coeffs", "theta", "phi"},
    "output": {"path", "format"},
    "evolve": {"t_min", "t_max", "num_points", "initial", "include_printed_formula"},
    "verify": {"max_twice_j", "draws", "seed"},
}


class ConfigError(Exception):
    """Invalid or missing configuration."""


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float."""
    return repr(float(x))


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else _fmt(value)


def _write_table(path: str, fmt: str, columns: dict, meta: dict | None = None) -> None:
    """CSV ('# key=value' meta lines, header, rows) or one JSON object: meta, then columns.

    A non-finite column value or float meta field (an overflow) is refused before
    anything is written: JSON has no token for it."""
    meta = meta or {}
    for name, col in columns.items():
        if not np.all(np.isfinite(col)):
            raise ConfigError(f"column {name!r} has non-finite values (float overflow); "
                              f"no output written")
    for key, value in meta.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key!r} is {value} (float overflow); no output written")
    if fmt == "json":
        doc = {**meta, **{name: [float(x) for x in col] for name, col in columns.items()}}
        _write_atomic(path, json.dumps(doc, indent=2) + "\n")
        return
    lines = [f"# {key}={_meta_text(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(map(_fmt, row)) for row in zip(*columns.values())]
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    loaded = parser.read(path)
    if not loaded:
        raise ConfigError(f"config file not found: {path}")
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = ALLOWED_KEYS[section]
        values = dict(parser.items(section))
        unknown = set(values) - allowed
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
        sections[section] = values
    return sections


def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        coeffs = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"coefficients must be comma-separated numbers: {text!r}") from exc
    if len(coeffs) < 2:
        raise ConfigError(
            f"need at least 2 coefficients (constant and linear), got {len(coeffs)}"
        )
    return coeffs


def _get(section: dict[str, str], key: str, cast, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")
    try:
        return cast(section[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def _build_model(config: dict, args) -> tuple[ModelParams, HalfInt]:
    section = dict(config.get("model", {}))
    if args.j is not None:
        section["twice_j"] = str(args.j)
    if args.theta is not None:
        section["theta"] = repr(args.theta)
    if args.phi is not None:
        section["phi"] = repr(args.phi)
    if args.coeffs is not None:
        section["coeffs"] = args.coeffs
    if not section:
        raise ConfigError("no model given; provide --config or --j/--A/--theta flags")
    twice_j = _get(section, "twice_j", int)
    if twice_j < 0:
        raise ConfigError(f"twice_j must be nonnegative, got {twice_j}")
    if 64 * (twice_j + 1) ** 2 > DENSE_MAX_BYTES:
        raise ConfigError(f"twice_j={twice_j} needs 64 * (twice_j + 1)^2 bytes of "
                          f"dense arrays, over the {DENSE_MAX_BYTES}-byte budget")
    coeffs = _parse_coeffs(_get(section, "coeffs", str))
    theta = _get(section, "theta", float)
    phi = _get(section, "phi", float, default=0.0)
    try:
        params = ModelParams(order=len(coeffs) - 1, coeffs=coeffs,
                             angles=RotationAngles(theta, phi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, HalfInt(twice_j)


def _output_target(config: dict, args, default_name: str) -> tuple[str, str]:
    section = config.get("output", {})
    path = args.out or section.get("path") or default_name
    fmt = (args.format or section.get("format") or "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return path, fmt


def _parse_initial(spec: str, params: ModelParams, j: HalfInt) -> EigenbasisState:
    kind, _, rest = spec.partition(":")
    dim = j.twice + 1
    if kind in ("dicke", "rotated"):
        try:
            m = HalfInt(int(rest))
            k = dicke_index(j, m)
        except ValueError as exc:
            raise ConfigError(f"initial {spec!r} invalid for twice_j={j.twice}: {exc}") from exc
        if kind == "rotated":
            # rotated:m is U†|m>, whose coefficients U·U†|m> are e_k itself
            coeffs = np.zeros(dim, dtype=complex)
            coeffs[k] = 1.0
        else:
            # U|m> = e^{i phi m} (column k of d(theta)), and d is orthogonal,
            # so that column is row k of d(-theta)
            angles = params.angles
            coeffs = np.exp(1j * angles.phi * m_floats(j)) * little_d_row(j, -angles.theta, k)
        return EigenbasisState(coeffs)
    if kind == "amplitudes":
        try:
            amps = np.array([complex(tok) for tok in rest.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad amplitude list: {rest!r}") from exc
        if amps.size != dim:
            raise ConfigError(f"amplitude list has {amps.size} entries, expected {dim}")
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ConfigError("amplitude list is all zeros")
        return to_eigenbasis(params, j, amps / norm)
    raise ConfigError(f"initial state must be dicke:TWICE_M, rotated:TWICE_M, or "
                      f"amplitudes:..., got {spec!r}")


def cmd_spectrum(config: dict, args) -> int:
    params, j = _build_model(config, args)
    path, fmt = _output_target(config, args, "spectrum.csv")
    energies = energy_values(params, j)
    # eigenvector k is row k of d times e^{-i phi m_k}; that phase has modulus one and
    # drops out of ||H v - E v||, so one real Horner product on d^T gives every residual
    vecs = little_d(j, params.angles.theta).T
    hv = apply_hamiltonian(params, j, vecs)
    hv -= vecs * energies
    _write_table(path, fmt, {"m": m_floats(j), "energy": energies,
                             "residual": np.linalg.norm(hv, axis=0)})
    return EXIT_OK


def cmd_ground(config: dict, args) -> int:
    params, j = _build_model(config, args)
    path, fmt = _output_target(config, args, "ground.csv")
    result = ground_state(params, j)
    meta = {"m0": result.m0.value, "energy": result.pair.energy,
            "degenerate": result.degenerate, "method": result.method}
    probs = dicke_distribution(result.pair.vector).probs
    _write_table(path, fmt, {"m": m_floats(j), "probability": probs}, meta)
    return EXIT_OK


def cmd_evolve(config: dict, args) -> int:
    params, j = _build_model(config, args)
    path, fmt = _output_target(config, args, "evolve.csv")
    section = config.get("evolve", {})
    if not section:
        raise ConfigError("evolve requires an [evolve] config section")
    t_min = _get(section, "t_min", float, default=0.0)
    t_max = _get(section, "t_max", float)
    num_points = _get(section, "num_points", int)
    series_bytes = num_points * (j.twice + 1) * 8
    if series_bytes > EVOLVE_MAX_BYTES:
        raise ConfigError(f"num_points={num_points} at twice_j={j.twice} needs "
                          f"{series_bytes} bytes per series array, over the "
                          f"{EVOLVE_MAX_BYTES}-byte budget")
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ConfigError(f"t_min and t_max must be finite, got {t_min!r} and {t_max!r}")
    if num_points < 2 or not t_max > t_min:
        raise ConfigError("need num_points >= 2 and t_max > t_min")
    include_printed = _get(section, "include_printed_formula",
                           lambda s: s.strip().lower() in ("1", "true", "yes"),
                           default=params.order == 2)
    state = _parse_initial(_get(section, "initial", str), params, j)
    times = np.linspace(t_min, t_max, num_points)
    series = {"jz_exact": "Jz", "jz_paper_formula": "printed", "jy_exact": "Jy"}
    if not (include_printed and params.order == 2):
        del series["jz_paper_formula"]
    values = evolve_series(params, j, state, tuple(series.values()), times)
    _write_table(path, fmt, {"t": times, **dict(zip(series, values.T))})
    return EXIT_OK


def cmd_verify(config: dict, args) -> int:
    section = config.get("verify", {})
    max_twice_j = args.max_j if args.max_j is not None else _get(
        section, "max_twice_j", int, default=24)
    draws = args.draws if args.draws is not None else _get(section, "draws", int, default=40)
    seed = args.seed if args.seed is not None else _get(section, "seed", int, default=0)
    if max_twice_j < 1 or draws < 1 or seed < 0:
        raise ConfigError(f"need max_twice_j >= 1, draws >= 1 and seed >= 0, "
                          f"got {max_twice_j}, {draws} and {seed}")
    report = build_report(max_twice_j=max_twice_j, draws=draws, seed=seed)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    for check in report["required"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['measured']:.3e} "
              f"(limit {check['limit']:.3e})", file=sys.stderr)
    for sweep in report["diagnostics"]:
        status = "PASS" if sweep["passed"] else "FAIL"
        print(f"[{status}] {sweep['name']}: ratio {sweep['mean_ratio']:.9g} "
              f"(cv {sweep['cv']:.3e})", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_CHECK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactspin",
        description="Exactly solvable rotated collective-spin models: "
                    "spectra, ground states, dynamics, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "export the closed-form eigensystem (m, energy, residual)"),
        ("ground", "export the ground state and its population distribution"),
        ("evolve", "export exact observable evolution (and the printed formula)"),
        ("verify", "run oracle checks and measured-deviation sweeps"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--j", type=int, metavar="TWICE_J",
                       help="doubled total spin (e.g. 200 for j=100)")
        p.add_argument("--theta", type=float, help="rotation angle theta (radians)")
        p.add_argument("--phi", type=float, help="rotation angle phi (radians)")
        p.add_argument("--A", dest="coeffs", metavar="a0,a1,...",
                       help="comma-separated polynomial coefficients")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; computation is "
                            "deterministic and single-process")
        if name == "verify":
            p.add_argument("--max-j", type=int, metavar="TWICE_J",
                           help="cap the oracle comparisons at this doubled spin")
            p.add_argument("--draws", type=int, help="number of random draws")
            p.add_argument("--seed", type=int, help="random seed")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = _read_config(args.config)
        if args.command == "spectrum":
            return cmd_spectrum(config, args)
        if args.command == "ground":
            return cmd_ground(config, args)
        if args.command == "evolve":
            return cmd_evolve(config, args)
        return cmd_verify(config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
