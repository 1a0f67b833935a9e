"""Tests for the command-line interface: validation, outputs, determinism."""

import json
import math

import numpy as np
import pytest

import exactspin.verify
from exactspin.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main


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
