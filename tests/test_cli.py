"""Tests for the command-line interface: validation, outputs, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import exactspin.dynamics
import exactspin.rotation
import exactspin.verify
from exactspin.cli import (
    ALLOWED_KEYS,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    _make_parser,
    _parse_initial,
    main,
)
from exactspin.dynamics import evolve_observable, paper_jz_series, to_eigenbasis
from exactspin.model import ModelParams
from exactspin.rotation import RotationAngles, rotated_basis_state
from exactspin.spectrum import exact_spectrum, residual_norm
from exactspin.su2 import HalfInt, dicke_index


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spectrum_small_case(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--j", "1", "--A", "0,1", "--theta", "0.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "m,energy,residual"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == -0.5 and float(first[1]) == -0.5
    assert float(first[2]) < 1e-12


def test_spectrum_residual_column_at_figure_scale(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--j", "200", "--A", "0,1,0.01", "--theta", "1.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 201
    residuals = np.array([float(r.split(",")[2]) for r in rows])
    assert np.max(residuals) <= 1e-8


def test_config_validation_errors(tmp_path):
    # single coefficient: no linear term to define an order-1 model
    cfg = write_config(tmp_path, "bad.ini", "[model]\ntwice_j = 4\ncoeffs = 1\ntheta = 0.5\n")
    assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG

    cfg2 = write_config(tmp_path, "bad2.ini",
                        "[model]\ntwice_j = 4\ncoeffs = 0,1\ntheta = 0.5\nwhat = 1\n")
    assert main(["spectrum", "--config", cfg2]) == EXIT_CONFIG

    cfg3 = write_config(tmp_path, "bad3.ini", "[mystery]\nkey = 1\n")
    assert main(["spectrum", "--config", cfg3]) == EXIT_CONFIG

    assert main(["spectrum", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG
    assert main(["spectrum", "--j", "4", "--A", "0,x", "--theta", "0.5"]) == EXIT_CONFIG
    assert main(["ground", "--j", "4", "--A", "0,1", "--theta", "0.5",
                 "--threads", "0"]) == EXIT_CONFIG


def test_io_error_no_partial_file(tmp_path):
    target = tmp_path / "nodir" / "out.csv"
    code = main(["spectrum", "--j", "2", "--A", "0,1", "--theta", "0.3",
                 "--out", str(target)])
    assert code == EXIT_IO
    assert not target.exists()
    assert not (tmp_path / "nodir").exists()


def test_ground_outputs(tmp_path):
    out = tmp_path / "ground.csv"
    code = main(["ground", "--j", "10", "--A", "0,1,0.3", "--theta", "0.7",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "# m0=-2.0" in text
    assert "# degenerate=false" in text
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 11
    probs = np.array([float(r.split(",")[1]) for r in rows])
    assert abs(probs.sum() - 1.0) < 1e-9

    out_json = tmp_path / "ground.json"
    code = main(["ground", "--j", "8", "--A", "0,1,-0.5", "--theta", "0.7",
                 "--out", str(out_json), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["m0"] == -4.0  # concave with a1 > 0: clamp to -j
    assert doc["degenerate"] is False
    assert len(doc["probability"]) == 9


def test_ground_large_distribution_normalized(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["ground", "--config", "recipes/fig1a.ini", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 2001
    probs = np.array([float(r.split(",")[1]) for r in rows])
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_evolve_stationary_constant_column(tmp_path):
    cfg = write_config(
        tmp_path, "evolve.ini",
        "[model]\ntwice_j = 8\ncoeffs = 0,1,0.05\ntheta = 1.1\nphi = 0.0\n"
        "[evolve]\nt_max = 10.0\nnum_points = 50\ninitial = rotated:4\n",
    )
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,jz_exact,jz_paper_formula,jy_exact"
    jz = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.max(np.abs(jz - jz[0])) < 1e-10


def test_evolve_requires_section(tmp_path):
    assert main(["evolve", "--j", "4", "--A", "0,1", "--theta", "0.5"]) == EXIT_CONFIG


def test_evolve_linear_model_single_tone(tmp_path):
    cfg = write_config(
        tmp_path, "lin.ini",
        "[model]\ntwice_j = 40\ncoeffs = 0,1\ntheta = 1.5\nphi = 0.0\n"
        f"[evolve]\nt_max = {repr(8 * math.pi)}\nnum_points = 512\ninitial = dicke:40\n"
        "include_printed_formula = false\n",
    )
    out = tmp_path / "lin.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,jz_exact,jy_exact"
    jz = np.array([float(line.split(",")[1]) for line in lines[1:]])
    spec = np.abs(np.fft.rfft(jz[:-1] - jz[:-1].mean()))  # 511 pts = 4 periods + endpoint
    # dominant bin at one cycle per Rabi period
    n = jz.size - 1
    freqs = np.fft.rfftfreq(n, d=8 * math.pi / 511)
    peak = freqs[int(np.argmax(spec))]
    assert peak == pytest.approx(1.0 / (2 * math.pi), rel=0.02)


def test_amplitude_initial_state(tmp_path):
    cfg = write_config(
        tmp_path, "amp.ini",
        "[model]\ntwice_j = 2\ncoeffs = 0,1,0\ntheta = 1.5707963267948966\nphi = 0.0\n"
        "[evolve]\nt_max = 12.0\nnum_points = 100\ninitial = amplitudes:0,0.70710678,0.70710678\n",
    )
    out = tmp_path / "amp.json"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"t", "jz_exact", "jz_paper_formula", "jy_exact"}
    assert len(doc["t"]) == 100


def test_recipes_deterministic_across_runs_and_threads(tmp_path):
    for recipe in ("recipes/fig2.ini",):
        outs = []
        for i, threads in enumerate(("1", "4")):
            out = tmp_path / f"run{i}.csv"
            code = main(["evolve", "--config", recipe, "--out", str(out),
                         "--threads", threads])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_verify_report_and_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = main(["verify", "--max-j", "10", "--draws", "4", "--seed", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(d["cv"] < 1e-6 for d in report["diagnostics"])

    # corrupted build: flip a sign in the ladder coefficients and watch verify fail
    true_fn = exactspin.verify.operator_matrix

    def broken(j, kind):
        mat = true_fn(j, kind)
        if kind == "Jplus":
            mat = -mat.T  # wrong band and sign
        return mat

    monkeypatch.setattr(exactspin.verify, "operator_matrix", broken)
    code = main(["verify", "--max-j", "10", "--draws", "4", "--seed", "0",
                 "--out", str(tmp_path / "broken.json")])
    assert code == EXIT_CHECK


@pytest.mark.parametrize("command,section", [
    ("ground", "[ground]\nfloor = 0.1\n"),
    ("evolve", "[evolve]\nt_max = 10.0\nnum_points = 5\ninitial = dicke:4\nobservables = Jz\n"),
    ("verify", "[verify]\nsweep_points = 5\n"),
], ids=["ground-floor", "evolve-observables", "verify-sweep_points"])
def test_removed_config_keys_rejected(tmp_path, command, section):
    cfg = write_config(tmp_path, "dead.ini",
                       "[model]\ntwice_j = 4\ncoeffs = 0,1,0.05\ntheta = 1.1\n" + section)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize("initial", ["dicke:x", "rotated:x", "dicke:", "rotated:3", "dicke:6"])
def test_bad_initial_state_is_config_error(tmp_path, initial):
    cfg = write_config(
        tmp_path, "init.ini",
        "[model]\ntwice_j = 4\ncoeffs = 0,1,0.05\ntheta = 1.1\n"
        f"[evolve]\nt_max = 10.0\nnum_points = 5\ninitial = {initial}\n",
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize("times", ["t_max = inf", "t_max = nan", "t_min = -inf\nt_max = 1.0"],
                         ids=["t_max-inf", "t_max-nan", "t_min-minus-inf"])
def test_non_finite_evolve_times_are_config_errors(tmp_path, times):
    cfg = write_config(
        tmp_path, "times.ini",
        "[model]\ntwice_j = 4\ncoeffs = 0,1,0.05\ntheta = 1.1\n"
        f"[evolve]\n{times}\nnum_points = 5\ninitial = dicke:4\n",
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_convention_flag_removed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--j", "2", "--A", "0,1", "--theta", "0.5",
              "--out", str(tmp_path / "s.csv"), "--convention", "standard"])
    assert exc.value.code == EXIT_CONFIG


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _make_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_value_flag_is_its_config_key():
    commands = _subcommands()
    for name, sub in commands.items():
        for action in sub._actions:
            if action.nargs == 0 or action.dest in ("config", "threads"):
                continue
            section, _, key = action.dest.partition(".")
            assert key in ALLOWED_KEYS.get(section, ()), (name, action.option_strings)
    flags = {name: {opt for a in sub._actions for opt in a.option_strings if a.nargs != 0}
             for name, sub in commands.items()}
    assert flags["verify"] == {"--config", "--out", "--threads", "--max-j", "--draws", "--seed"}
    for name in ("spectrum", "ground", "evolve"):
        assert flags[name] == {"--config", "--out", "--format", "--threads",
                               "--j", "--theta", "--phi", "--A"}
    verify_dests = {a.dest for a in commands["verify"]._actions}
    assert not any(d.startswith("model.") for d in verify_dests)
    assert "output.format" not in verify_dests


@pytest.mark.parametrize("flag", ["--j=5", "--theta=9", "--phi=1", "--A=1,2", "--format=csv"])
def test_verify_refuses_flags_it_never_reads(tmp_path, flag):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", str(out), flag])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_model_flag_overrides_its_config_key(tmp_path):
    cfg = write_config(tmp_path, "m.ini", "[model]\ntwice_j = 4\ncoeffs = 0,1,0.05\ntheta = 1.1\n")
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", cfg, "--j", "6", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 7


def test_verify_flag_overrides_config_and_writes_output_path(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "v.ini", f"[verify]\ndraws = 0\n\n[output]\npath = {out}\n")
    assert main(["verify", "--config", cfg, "--draws", "2"]) == EXIT_OK
    assert json.loads(out.read_text())["settings"]["draws"] == 2
    assert capsys.readouterr().out == ""


_MODEL_SECTION = "[model]\ntwice_j = 4\ncoeffs = 0,1,0.05\ntheta = 1.1\n"
_EVOLVE_SECTION = "[evolve]\nt_max = 10.0\nnum_points = 5\ninitial = dicke:4\n"


@pytest.mark.parametrize("command,sections", [
    ("verify", "[model]\ntheta = 9\n"),
    ("verify", "[output]\nformat = csv\n"),
    ("verify", _EVOLVE_SECTION),
    ("spectrum", _MODEL_SECTION + "[verify]\nseed = 1\n"),
    ("spectrum", _MODEL_SECTION + _EVOLVE_SECTION),
    ("ground", _MODEL_SECTION + "[verify]\ndraws = 2\n"),
    ("ground", _MODEL_SECTION + _EVOLVE_SECTION),
    ("evolve", _MODEL_SECTION + _EVOLVE_SECTION + "[verify]\nmax_twice_j = 2\n"),
], ids=["verify-model", "verify-output-format", "verify-evolve", "spectrum-verify",
        "spectrum-evolve", "ground-verify", "ground-evolve", "evolve-verify"])
def test_config_sections_a_command_does_not_read_are_refused(tmp_path, command, sections):
    cfg = write_config(tmp_path, "unread.ini", sections)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command,sections", [
    ("spectrum", _MODEL_SECTION),
    ("ground", _MODEL_SECTION),
    ("evolve", _MODEL_SECTION + _EVOLVE_SECTION),
])
def test_each_table_command_reads_its_own_config_sections(tmp_path, command, sections):
    out = tmp_path / "table.json"
    cfg = write_config(tmp_path, "own.ini", sections + f"[output]\npath = {out}\nformat = json\n")
    assert main([command, "--config", cfg]) == EXIT_OK
    assert isinstance(json.loads(out.read_text()), dict)


@pytest.mark.parametrize("argv,section", [
    (["--max-j", "0"], ""),
    (["--draws", "0"], ""),
    (["--draws", "-3"], ""),
    ([], "max_twice_j = 0\n"),
    ([], "draws = -1\n"),
    (["--seed", "-1"], ""),
    ([], "seed = -2\n"),
], ids=["max-j-flag-0", "draws-flag-0", "draws-flag-negative", "max_twice_j-key-0",
        "draws-key-negative", "seed-flag-negative", "seed-key-negative"])
def test_verify_bad_sizes_are_config_errors(tmp_path, argv, section):
    cfg = write_config(tmp_path, "verify.ini", "[verify]\n" + section)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("twice_j", [2000, 0])
def test_evolve_memory_budget_checked_before_allocating(tmp_path, twice_j):
    # without the check, np.linspace would ask for 8 TB and raise MemoryError
    cfg = write_config(
        tmp_path, "huge.ini",
        f"[model]\ntwice_j = {twice_j}\ncoeffs = 0,1,0.01\ntheta = 1.1\n"
        f"[evolve]\nt_max = 10.0\nnum_points = {10**12}\ninitial = dicke:{twice_j}\n",
    )
    out = tmp_path / "o.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def _read_csv_table(path):
    meta = {}
    lines = path.read_text().splitlines()
    while lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return meta, header, rows


def _meta_value(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("argv,section", [
    (["spectrum", "--j", "45", "--A", "0.3,1,-0.2,0.05", "--theta", "1.2", "--phi", "0.7"], None),
    (["ground", "--j", "41", "--A", "0,0,1", "--theta", "0.9"], None),
    (["ground", "--j", "30", "--A", "0.1234567890123,1,0.3", "--theta", "0.7"], None),
    (["evolve"], "include_printed_formula = true\n"),
    (["evolve"], "include_printed_formula = false\n"),
], ids=["spectrum", "ground-degenerate", "ground", "evolve-printed", "evolve-no-printed"])
def test_csv_and_json_tables_carry_the_same_fields_and_floats(tmp_path, argv, section):
    if section is not None:
        argv = argv + ["--config", write_config(
            tmp_path, "e.ini",
            "[model]\ntwice_j = 7\ncoeffs = 0.2,1,0.05\ntheta = 1.1\nphi = 0.4\n"
            "[evolve]\nt_max = 20.0\nnum_points = 60\n"
            "initial = amplitudes:1,2,0,1j,3,0.5,0,1\n" + section)]
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
    assert main(argv + ["--out", str(json_out), "--format", "json"]) == EXIT_OK
    meta, header, rows = _read_csv_table(csv_out)
    doc = json.loads(json_out.read_text())
    assert list(doc) == list(meta) + header
    if argv[0] == "ground":
        assert list(meta) == ["m0", "energy", "degenerate", "method"]
        assert doc["degenerate"] is (argv[4] == "0,0,1")
    if argv[0] == "evolve":
        assert ("jz_paper_formula" in header) is ("true" in section)
    for key, text in meta.items():
        assert _meta_value(text) == doc[key]
        assert type(_meta_value(text)) is type(doc[key])
    for i, name in enumerate(header):
        column = [float(row[i]) for row in rows]
        assert column == doc[name]
        assert all(type(x) is float for x in doc[name])


@pytest.mark.parametrize("twice_m", [-7, -1, 3, 7])
def test_rotated_initial_state_is_exactly_a_unit_vector(twice_m):
    j = HalfInt(7)
    params = ModelParams.quadratic(1.0, 0.05, theta=1.1, phi=0.4)
    state = _parse_initial(f"rotated:{twice_m}", params, j)
    e_k = np.zeros(8, dtype=complex)
    e_k[dicke_index(j, HalfInt(twice_m))] = 1.0
    assert np.array_equal(state.coeffs, e_k)
    # the same state as rotating U†|m> into the eigenbasis, up to rounding
    dense = to_eigenbasis(params, j, rotated_basis_state(j, params.angles, HalfInt(twice_m)))
    assert np.max(np.abs(dense.coeffs - e_k)) < 1e-12


@pytest.mark.parametrize("twice_j", [10**6, 8192])
@pytest.mark.parametrize("command", ["spectrum", "ground", "evolve"])
def test_huge_j_refused_before_dense_arrays_are_built(tmp_path, capsys, command, twice_j):
    # 64 * dim^2 bytes: ~64 TB at twice_j = 10**6, just over 4 GiB at 8192
    cfg = write_config(tmp_path, "e.ini",
                       "[evolve]\nt_max = 10.0\nnum_points = 5\ninitial = dicke:0\n")
    out = tmp_path / "o.csv"
    code = main([command, "--j", str(twice_j), "--A", "0,1,0.01", "--theta", "1.1",
                 "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "byte budget" in err and "Traceback" not in err


@pytest.mark.parametrize("twice_j", [7, 200])
@pytest.mark.parametrize("phi", [0.0, 1.1])
def test_dicke_initial_state_is_the_signed_rotated_column(twice_j, phi):
    j = HalfInt(twice_j)
    params = ModelParams.quadratic(1.0, 0.01, theta=1.5, phi=phi)
    for twice_m in (-twice_j, 2 - twice_j, twice_j % 2, twice_j - 2, twice_j):
        e_k = np.zeros(twice_j + 1, dtype=complex)
        e_k[dicke_index(j, HalfInt(twice_m))] = 1.0
        state = _parse_initial(f"dicke:{twice_m}", params, j)
        np.testing.assert_allclose(state.coeffs, to_eigenbasis(params, j, e_k).coeffs,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("twice_j,num_points,chunk_rows", [
    (7, 300, 7), (200, 3001, None), (2000, 601, None), (2000, 90, 13)])
def test_fused_evolve_columns_equal_the_separate_series(tmp_path, monkeypatch,
                                                        twice_j, num_points, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(exactspin.dynamics, "SERIES_CHUNK_BYTES", 8 * twice_j * chunk_rows)
    rows = exactspin.dynamics.SERIES_CHUNK_BYTES // (8 * twice_j)
    assert 0 < num_points % rows < num_points  # several chunks, the last one partial
    cfg = write_config(tmp_path, "e.ini",
                       f"[model]\ntwice_j = {twice_j}\ncoeffs = 0.3,-1.1,0.012\n"
                       f"theta = 1.1\nphi = 2.3\n[evolve]\nt_max = 300.0\n"
                       f"num_points = {num_points}\ninitial = dicke:{twice_j - 2}\n")
    out = tmp_path / "e.json"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    j = HalfInt(twice_j)
    params = ModelParams.quadratic(-1.1, 0.012, theta=1.1, phi=2.3, a0=0.3)
    state = _parse_initial(f"dicke:{twice_j - 2}", params, j)
    times = np.array(doc["t"])
    expected = {"jz_exact": evolve_observable(params, j, state, "Jz", times).values,
                "jz_paper_formula": paper_jz_series(params, j, state, times).values,
                "jy_exact": evolve_observable(params, j, state, "Jy", times).values}
    assert list(doc) == ["t", *expected]
    for name, ref in expected.items():
        np.testing.assert_allclose(doc[name], ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_table_values_are_refused(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["spectrum", "--j", "4", "--A", "0,1e308,1e308", "--theta", "1",
                 "--format", "json", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists() and os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert "'energy'" in err and "Traceback" not in err
    assert main(["spectrum", "--j", "4", "--A", "0,1,0.5", "--theta", "1",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(doc["energy"]) == 5


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("twice_j,coeffs", [(400, "0,1,-1e308"), (40, "0,1,0,-1e308")])
def test_ground_with_overflowing_energies_is_refused(tmp_path, capsys, twice_j, coeffs):
    out = tmp_path / "g.csv"
    code = main(["ground", f"--j={twice_j}", f"--A={coeffs}", "--theta=1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert os.listdir(tmp_path) == []
    err = capsys.readouterr().err
    assert "'energy'" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_ground_with_finite_extreme_coefficients_still_runs(tmp_path):
    out = tmp_path / "g.json"
    assert main(["ground", "--j", "4", "--A", "0,1e308,1e308", "--theta", "1",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["m0"] == -1.0 and doc["degenerate"] is True


def test_ground_and_evolve_never_load_scipy_linalg(tmp_path):
    # the library imports no scipy: no command loads scipy.linalg
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactspin.verify.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    amplitudes = tmp_path / "amplitudes.ini"
    amplitudes.write_text("[model]\ntwice_j = 3\ncoeffs = 0,1,0.1\ntheta = 0.4\nphi = 0.2\n\n"
                          "[evolve]\nt_max = 5\nnum_points = 11\n"
                          "initial = amplitudes:0.5,0.5j,-0.5,0.5\n")
    runs = {"": False,
            "ground --config recipes/fig1a.ini": False,
            "evolve --config recipes/fig2.ini": False,
            f"evolve --config {amplitudes}": False,
            "spectrum --j 20 --A 0,1,0.1 --theta 0.4": False,
            "verify": False}
    for argv, loaded in runs.items():
        out = tmp_path / "out.csv"
        code = ("import sys, exactspin, exactspin.cli\n"
                f"argv = {argv.split()!r}\n"
                f"assert not argv or exactspin.cli.main(argv + ['--out', {str(out)!r}]) == 0\n"
                "print('scipy.linalg' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(loaded), argv


@pytest.mark.parametrize("twice_j", [7, 45])
def test_spectrum_block_residuals_match_per_pair_certificates(tmp_path, twice_j):
    out = tmp_path / "s.json"
    argv = ["spectrum", f"--j={twice_j}", "--A=0.3,1,-0.2,0.05", "--theta=1.2", "--phi=0.7"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    params = ModelParams(order=3, coeffs=(0.3, 1.0, -0.2, 0.05), angles=RotationAngles(1.2, 0.7))
    pairs = exact_spectrum(params, HalfInt(twice_j))
    ref = [residual_norm(params, HalfInt(twice_j), p) for p in pairs]
    scale = max(1.0, max(abs(p.energy) for p in pairs))
    np.testing.assert_allclose(doc["residual"], ref, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("twice_j,theta,phi", [(45, 1.2, 0.7), (45, math.pi, 0.4),
                                               (451, 1.2, 0.7)])
def test_spectrum_does_not_depend_on_the_row_block(tmp_path, monkeypatch, twice_j, theta, phi):
    # blocks of 3 rows leave a partial last block at dims 46 and 452
    argv = ["spectrum", f"--j={twice_j}", "--A=0.3,1,-0.2,0.05", f"--theta={theta!r}",
            f"--phi={phi!r}"]
    default, small = tmp_path / "default.csv", tmp_path / "small.csv"
    assert main([*argv, "--out", str(default)]) == EXIT_OK
    monkeypatch.setattr(exactspin.rotation, "ROW_BLOCK_BYTES", 8 * (twice_j + 1) * 3)
    assert main([*argv, "--out", str(small)]) == EXIT_OK
    assert small.read_bytes() == default.read_bytes()


def test_table_commands_never_import_verify(tmp_path):
    # the package resolves verify's names on first use, so only the verify command loads it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactspin.verify.__file__)))
    out = str(tmp_path / "out.csv")
    code = ("import sys, exactspin, exactspin.cli\n"
            "for argv in (['spectrum', '--j=6', '--A=0,1,0.1', '--theta=0.4'],\n"
            "             ['ground', '--config', 'recipes/fig1a.ini'],\n"
            "             ['evolve', '--config', 'recipes/fig2.ini']):\n"
            f"    assert exactspin.cli.main(argv + ['--out', {out!r}]) == 0\n"
            "print('exactspin.verify' in sys.modules)\n"
            "print(exactspin.build_report is sys.modules['exactspin.verify'].build_report)\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=root,
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_write_table_gives_the_bytes_of_per_value_formatting(tmp_path):
    from exactspin.cli import _write_table

    floats = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 3.0, -2.0, 1e300])
    ints = np.arange(-3, 5, dtype=np.int64)
    columns = {"x": floats, "k": ints, "y": list(floats[::-1])}
    meta = {"twice_j": 4, "theta": 0.1 + 0.2, "flag": True, "label": "t"}
    # the writer before column formatting: repr(float(x)) per value, row by row
    rows = [",".join(repr(float(x)) for x in row) for row in zip(*columns.values())]
    head = ["# twice_j=4.0", f"# theta={0.1 + 0.2!r}", "# flag=true", "# label=t", "x,k,y"]
    csv_path = tmp_path / "t.csv"
    _write_table(str(csv_path), "csv", columns, meta)
    assert csv_path.read_bytes() == ("\n".join(head + rows) + "\n").encode()
    json_path = tmp_path / "t.json"
    _write_table(str(json_path), "json", columns, meta)
    doc = {**meta, **{name: [float(x) for x in col] for name, col in columns.items()}}
    assert json_path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


_UNKNOWN = {"unknown-section": "[mystery]\nkey = 1\n",
            "empty-unknown-section": "[mystery]\n"}


@pytest.mark.parametrize("case", ["unknown-section", "empty-unknown-section", "unknown-key"])
@pytest.mark.parametrize("command", ["spectrum", "ground", "evolve", "verify"])
def test_unknown_config_sections_and_keys_are_refused(tmp_path, capsys, command, case):
    own = {"spectrum": _MODEL_SECTION, "ground": _MODEL_SECTION,
           "evolve": _MODEL_SECTION + _EVOLVE_SECTION, "verify": "[verify]\ndraws = 1\n"}[command]
    extra = _UNKNOWN.get(case, "what = 1\n")  # an unknown key lands in the last own section
    cfg = write_config(tmp_path, "unknown.ini", own + extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert os.listdir(tmp_path) == ["unknown.ini"]
    err = capsys.readouterr().err
    assert ("mystery" if case != "unknown-key" else "what") in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "ground"])
def test_an_empty_section_of_another_command_is_accepted(tmp_path, command):
    cfg = write_config(tmp_path, "empty.ini", _MODEL_SECTION + "[verify]\n[evolve]\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == EXIT_OK


@pytest.mark.parametrize("word,printed", [
    ("on", True), ("ON", True), ("Yes", True), ("1", True), ("true", True),
    ("off", False), ("No", False), ("0", False), ("FALSE", False)])
def test_include_printed_formula_reads_configparser_boolean_words(tmp_path, word, printed):
    cfg = write_config(tmp_path, "b.ini", _MODEL_SECTION + _EVOLVE_SECTION
                       + f"include_printed_formula = {word}\n")
    out = tmp_path / "b.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert ("jz_paper_formula" in header) is printed


@pytest.mark.parametrize("word", ["maybe", "ture", "y", ""])
def test_include_printed_formula_refuses_other_words(tmp_path, capsys, word):
    cfg = write_config(tmp_path, "b.ini", _MODEL_SECTION + _EVOLVE_SECTION
                       + f"include_printed_formula = {word}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == EXIT_CONFIG
    assert os.listdir(tmp_path) == ["b.ini"]
    assert "include_printed_formula" in capsys.readouterr().err


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=["022", "027", "002"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--j", "4", "--A", "0,1,0.05", "--theta", "1.1"],
    ["verify", "--max-j", "4", "--draws", "1"],
], ids=["spectrum", "verify"])
def test_outputs_take_the_umask_mode_and_leave_no_temp_file(tmp_path, argv, umask):
    old = os.umask(umask)
    try:
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
        # a failed rename (the target is a directory) removes its temp file
        (tmp_path / "taken").mkdir()
        assert main(argv + ["--out", str(tmp_path / "taken")]) == EXIT_IO
    finally:
        os.umask(old)
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["out", "taken"]
    assert os.listdir(tmp_path / "taken") == []
