"""Command-line front end: spectrum | ground | evolve | verify.

Configs are INI files (key = value, one section per concern).  Each value
flag but --config and --threads sets the config key its dest names
('section.key'), and a given flag overrides the file.  A command reads only
its own sections: spectrum and ground [model] and [output], evolve those and
[evolve], verify [verify] and [output] path; any other section or key exits
2.  Outputs are CSV or JSON written atomically (temp file + rename), with
shortest round-trip float formatting and '\n' line endings so identical
inputs give byte-identical files.  Exit codes: 0 success, 2 config
validation error, 3 numerical check failure (verify), 4 I/O error.

Each command imports what only it runs where it runs it: evolve loads
dynamics, ground observables, verify the oracle and its report, and json
is imported only to write JSON, so a cold process compiles no more than
its command needs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from .closed_form import ground_state
from .model import ModelParams, apply_hamiltonian, energy_values
from .rotation import RotationAngles, _row_blocks, little_d
from .su2 import HalfInt, dicke_index, m_floats

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
# peaks near 24 x dim^2 bytes: every row's pivots and d itself, the rest finished and
# certified in row blocks.  The 64 x (twice_j + 1)^2 bound, its byte-budget message
# and the twice_j <= 8191 cap stay only because tests pin them; ground and the other
# evolve paths are O(dim) but share the cap
DENSE_MAX_BYTES = 1 << 32

_MODEL = {"twice_j", "coeffs", "theta", "phi"}
_OUTPUT = {"path", "format"}
# the config sections and keys each command reads; anything else exits 2
_COMMAND_KEYS = {
    "spectrum": {"model": _MODEL, "output": _OUTPUT},
    "ground": {"model": _MODEL, "output": _OUTPUT},
    "evolve": {"model": _MODEL, "output": _OUTPUT,
               "evolve": {"t_min", "t_max", "num_points", "initial", "include_printed_formula"}},
    "verify": {"verify": {"max_twice_j", "draws", "seed"}, "output": {"path"}},
}
# every key some command reads, by section
ALLOWED_KEYS = {section: set().union(*(keys.get(section, ()) for keys in _COMMAND_KEYS.values()))
                for section in ("model", "output", "evolve", "verify")}


class ConfigError(Exception):
    """Invalid or missing configuration."""


def _write_atomic(path: str, content: str) -> None:
    """Write a temp file beside path, then rename it over path.

    open's exclusive mode creates it with the umask's mode, as a plain open
    of path would; pid and random bytes make its name this call's alone."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp_{os.getpid()}_{os.urandom(8).hex()}.part")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    # a float as its shortest round-trip decimal
    return value if isinstance(value, str) else repr(float(value))


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
        import json

        doc = {**meta, **{name: np.asarray(col, dtype=float).tolist()
                          for name, col in columns.items()}}
        _write_atomic(path, json.dumps(doc, indent=2) + "\n")
        return
    lines = [f"# {key}={_meta_text(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    # each column formatted once, as _meta_text formats one float
    cols = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns.values()]
    lines += map(",".join, zip(*cols))
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


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
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def _settings(args) -> dict[str, dict[str, str]]:
    """The config's sections with every given flag laid over its key: flag > config > default."""
    config = _read_config(args.config)
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            config.setdefault(section, {})[key] = str(value)
    return config


def _build_model(config: dict) -> tuple[ModelParams, HalfInt]:
    section = config.get("model", {})
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


def _refuse_unread(config: dict, command: str) -> None:
    """Raise ConfigError (exit 2) on any section or key that command does not read.

    A section no command reads is refused even when it is empty; an empty
    section of another command is not.  The table commands call this once
    the model has passed its size check, so that check keeps its own message."""
    for section, values in config.items():
        if section not in ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unread = set(values) - _COMMAND_KEYS[command].get(section, set())
        if unread:
            raise ConfigError(f"{command} does not read [{section}] "
                              f"{', '.join(sorted(unread))}")


def _output_target(config: dict, default_name: str, command: str) -> tuple[str, str]:
    _refuse_unread(config, command)
    section = config.get("output", {})
    path = section.get("path") or default_name
    fmt = (section.get("format") or "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return path, fmt


def _parse_initial(spec: str, params: ModelParams, j: HalfInt) -> EigenbasisState:
    from .dynamics import EigenbasisState, _dicke_state, to_eigenbasis

    kind, _, rest = spec.partition(":")
    dim = j.twice + 1
    if kind in ("dicke", "rotated"):
        try:
            m = HalfInt(int(rest))
            k = dicke_index(j, m)
        except ValueError as exc:
            raise ConfigError(f"initial {spec!r} invalid for twice_j={j.twice}: {exc}") from exc
        if kind == "dicke":
            return _dicke_state(params, j, k)
        # rotated:m is U†|m>, whose coefficients U·U†|m> are e_k itself
        coeffs = np.zeros(dim, dtype=complex)
        coeffs[k] = 1.0
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


def cmd_spectrum(config: dict) -> int:
    params, j = _build_model(config)
    path, fmt = _output_target(config, "spectrum.csv", "spectrum")
    energies = energy_values(params, j)
    # eigenvector k is row k of d times e^{-i phi m_k}; that phase has modulus one and
    # drops out of ||H v - E v||, so real Horner products on blocks of d^T give every
    # residual, with no dense temporary beside d
    d = little_d(j, params.angles.theta)
    residual = np.empty(j.twice + 1)
    for block in _row_blocks(j.twice + 1, j.twice + 1):
        vecs = d[block].T
        hv = apply_hamiltonian(params, j, vecs)
        hv -= vecs * energies[block]
        residual[block] = np.linalg.norm(hv, axis=0)
    _write_table(path, fmt, {"m": m_floats(j), "energy": energies, "residual": residual})
    return EXIT_OK


def cmd_ground(config: dict) -> int:
    params, j = _build_model(config)
    path, fmt = _output_target(config, "ground.csv", "ground")
    from .observables import dicke_distribution

    result = ground_state(params, j)
    meta = {"m0": result.m0.value, "energy": result.pair.energy,
            "degenerate": result.degenerate, "method": result.method}
    probs = dicke_distribution(result.pair.vector).probs
    _write_table(path, fmt, {"m": m_floats(j), "probability": probs}, meta)
    return EXIT_OK


def cmd_evolve(config: dict) -> int:
    params, j = _build_model(config)
    path, fmt = _output_target(config, "evolve.csv", "evolve")
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
    # configparser's boolean words; any other word is a bad value
    include_printed = _get(section, "include_printed_formula",
                           lambda s: configparser.ConfigParser.BOOLEAN_STATES[s.strip().lower()],
                           default=params.order == 2)
    from .dynamics import evolve_series

    state = _parse_initial(_get(section, "initial", str), params, j)
    times = np.linspace(t_min, t_max, num_points)
    series = {"jz_exact": "Jz", "jz_paper_formula": "printed", "jy_exact": "Jy"}
    if not (include_printed and params.order == 2):
        del series["jz_paper_formula"]
    values = evolve_series(params, j, state, tuple(series.values()), times)
    _write_table(path, fmt, {"t": times, **dict(zip(series, values.T))})
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    _refuse_unread(config, "verify")
    section = config.get("verify", {})
    max_twice_j = _get(section, "max_twice_j", int, default=24)
    draws = _get(section, "draws", int, default=40)
    seed = _get(section, "seed", int, default=0)
    if max_twice_j < 1 or draws < 1 or seed < 0:
        raise ConfigError(f"need max_twice_j >= 1, draws >= 1 and seed >= 0, "
                          f"got {max_twice_j}, {draws} and {seed}")
    import json

    from .verify import build_report  # the oracle layer loads only for this command

    report = build_report(max_twice_j=max_twice_j, draws=draws, seed=seed)
    text = json.dumps(report, indent=2) + "\n"
    if path := config.get("output", {}).get("path"):
        _write_atomic(path, text)
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
    for name, run, help_text in (
        ("spectrum", cmd_spectrum, "export the closed-form eigensystem (m, energy, residual)"),
        ("ground", cmd_ground, "export the ground state and its population distribution"),
        ("evolve", cmd_evolve, "export exact observable evolution (and the printed formula)"),
        ("verify", cmd_verify, "run oracle checks and measured-deviation sweeps"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", dest="output.path", help="output path")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; computation is "
                            "deterministic and single-process")
        if name == "verify":
            p.add_argument("--max-j", dest="verify.max_twice_j", type=int, metavar="TWICE_J",
                           help="cap the oracle comparisons at this doubled spin")
            p.add_argument("--draws", dest="verify.draws", type=int, help="number of random draws")
            p.add_argument("--seed", dest="verify.seed", type=int, help="random seed")
            continue
        p.add_argument("--format", dest="output.format", choices=("csv", "json"),
                       help="output format")
        p.add_argument("--j", dest="model.twice_j", type=int, metavar="TWICE_J",
                       help="doubled total spin (e.g. 200 for j=100)")
        p.add_argument("--theta", dest="model.theta", type=float,
                       help="rotation angle theta (radians)")
        p.add_argument("--phi", dest="model.phi", type=float, help="rotation angle phi (radians)")
        p.add_argument("--A", dest="model.coeffs", metavar="a0,a1,...",
                       help="comma-separated polynomial coefficients")
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.run(_settings(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
