"""The benchmark's own tests: output checks, failure counting, self-time arithmetic.

    python3 perfbench/selftest.py

Run from the root of an exactspin checkout (the ground check uses the
library's count_peaks).  Takes a few seconds; it is kept out of the
library's pytest suite on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

MODEL = {"twice_j": 7, "coeffs": [0.3, -1.1, 0.2, 0.01], "theta": 1.1, "phi": 0.4}


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _spectrum_csv(model: dict, energies=None, residual: float = 1e-13) -> str:
    m = checks.m_grid(model["twice_j"])
    e = checks.horner(model["coeffs"], m) if energies is None else energies
    rows = [f"{float(a)!r},{float(b)!r},{residual!r}\n" for a, b in zip(m, e)]
    return "m,energy,residual\n" + "".join(rows)


def _lobes(twice_j: int, centres: list[int]) -> np.ndarray:
    m = checks.m_grid(twice_j)
    p = sum(np.exp(-((m - c) ** 2) / 8.0) for c in centres)
    return p / np.sum(p)


def _ground_csv(twice_j: int, probs: np.ndarray) -> str:
    lines = ["# m0=0.0", "# energy=-1.0", "# degenerate=false", "# method=closed_form",
             "m,probability"]
    lines += [f"{float(m)!r},{float(p)!r}" for m, p in zip(checks.m_grid(twice_j), probs)]
    return "\n".join(lines) + "\n"


def _evolve_csv(twice_j: int, jz0: float, jy0: float = 0.0, points: int = 5) -> str:
    t = np.linspace(0.0, 1.0, points)
    rows = [f"{float(ti)!r},{jz0 if i == 0 else 0.5!r},0.0,{jy0 if i == 0 else 0.1!r}"
            for i, ti in enumerate(t)]
    return "t,jz_exact,jz_paper_formula,jy_exact\n" + "\n".join(rows) + "\n"


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def check(self, name: str, text: str, spec: dict):
        return checks.check_output(_write(self.dir, name, text), spec)

    def test_spectrum(self):
        spec = {"type": "spectrum", "model": MODEL}
        self.assertIsNone(self.check("ok.csv", _spectrum_csv(MODEL), spec))
        energies = checks.horner(MODEL["coeffs"], checks.m_grid(MODEL["twice_j"]))
        energies[3] += 1e-6
        self.assertIn("Horner", self.check("e.csv", _spectrum_csv(MODEL, energies), spec))
        big = 2 * checks.residual_bound(MODEL)
        self.assertIn("residual", self.check("r.csv", _spectrum_csv(MODEL, residual=big), spec))
        truncated = "".join(_spectrum_csv(MODEL).splitlines(keepends=True)[:-1])
        self.assertIsNotNone(self.check("t.csv", truncated, spec))
        not_a_number = _spectrum_csv(MODEL).replace("1e-13", "nan")
        self.assertIsNotNone(self.check("n.csv", not_a_number, spec))
        self.assertIn("unreadable", checks.check_output(os.path.join(self.dir, "none"), spec))

    def test_ground_lobes_and_normalisation(self):
        spec = {"type": "ground", "twice_j": 100, "lobes": 2}
        two = _lobes(100, [-20, 20])
        self.assertIsNone(self.check("ok.csv", _ground_csv(100, two), spec))
        self.assertIn("lobes", self.check("one.csv", _ground_csv(100, _lobes(100, [0])), spec))
        off = two.copy()
        off[50] += 1e-8
        self.assertIn("sum", self.check("sum.csv", _ground_csv(100, off), spec))

    def test_evolve_initial_values(self):
        spec = {"type": "evolve", "twice_j": 10, "twice_m": 10, "t_min": 0.0, "t_max": 1.0,
                "num_points": 5, "printed": True}
        self.assertIsNone(self.check("ok.csv", _evolve_csv(10, 5.0), spec))
        self.assertIn("jz(0)", self.check("jz.csv", _evolve_csv(10, 5.0 + 1e-6), spec))
        self.assertIn("jy(0)", self.check("jy.csv", _evolve_csv(10, 5.0, jy0=1e-6), spec))
        self.assertIn("rows", self.check("pts.csv", _evolve_csv(10, 5.0, points=4), spec))
        no_printed = dict(spec, printed=False)
        self.assertIn("header", self.check("hdr.csv", _evolve_csv(10, 5.0), no_printed))

    def test_verify_and_confront(self):
        report = {"passed": True, "required": [
            {"name": "spectrum_vs_oracle", "passed": True, "measured": 1e-12, "limit": 1e-9}]}
        spec = {"type": "verify"}
        self.assertIsNone(self.check("v.json", json.dumps(report), spec))
        report["passed"] = False
        self.assertIsNotNone(self.check("f.json", json.dumps(report), spec))

        exact = checks.horner(MODEL["coeffs"], checks.m_grid(MODEL["twice_j"]))
        spec = {"type": "confront", "model": MODEL}
        doc = {"brute": list(exact[::-1] + 1e-13), "exact": list(exact)}
        self.assertIsNone(self.check("c.json", json.dumps(doc), spec))
        doc["brute"][0] += 1e-3
        self.assertIn("gap", self.check("g.json", json.dumps(doc), spec))

    def test_real_spectrum_output_and_its_corruption(self):
        """Run the program once; its output passes, a corrupted copy fails."""
        import exactspin.cli

        path = os.path.join(self.dir, "real.csv")
        argv = ["spectrum", *workloads._model_flags(MODEL), "--out", path]
        self.assertEqual(exactspin.cli.main(argv), 0)
        spec = {"type": "spectrum", "model": MODEL}
        self.assertIsNone(checks.check_output(path, spec))
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        m, e, r = lines[2].split(",")
        lines[2] = f"{m},{float(e) * (1 + 1e-9)!r},{r}"
        self.assertIsNotNone(self.check("bad.csv", "".join(lines), spec))


class FailureCounting(unittest.TestCase):
    def test_corrupted_output_counts_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            command = {"name": "s", "check": {"type": "spectrum", "model": MODEL}}
            good = _write(tmp, "good.csv", _spectrum_csv(MODEL))
            bad = _write(tmp, "bad.csv", _spectrum_csv(MODEL).replace("m,energy", "m,e"))
            counted = run.Run([command], tmp, deadline=0.0)
            counted.record(command, 0, good)
            counted.record(command, 0, bad)
            counted.record(command, 3, good)
            self.assertEqual(counted.attempted, 3)
            self.assertEqual(len(counted.failures), 2)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent=None, command="0"):
        return [name, start, end, parent, command, {}]

    def test_nested_overlapping_and_clipped_children(self):
        spans = [
            self.span("a", 0.0, 10.0),
            self.span("b", 1.0, 3.0, parent=0),
            self.span("c", 2.0, 4.0, parent=0),     # overlaps b: covered once
            self.span("d", 9.0, 12.0, parent=0),    # clipped to the parent's end
            self.span("e", 1.5, 2.5, parent=1),     # a grandchild of a
        ]
        own = spantrace.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - (3.0 + 1.0))
        self.assertAlmostEqual(own[1], 2.0 - 1.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_summarize_sums_per_name_and_keeps_commands(self):
        spans = [self.span("cli.main", 0.0, 4.0, command="1:0"),
                 self.span("spectrum.exact_spectrum", 1.0, 2.0, parent=0, command="1:0"),
                 self.span("cli.main", 5.0, 6.0, command="0:0")]
        total = spantrace.summarize(spans)
        self.assertEqual(total["cli.main"]["calls"], 2)
        self.assertAlmostEqual(total["cli.main"]["self_s"], 3.0 + 1.0)
        warm = spantrace.summarize(spans, keep=lambda c: c.startswith("1:"))
        self.assertEqual(warm["cli.main"]["calls"], 1)
        self.assertAlmostEqual(warm["cli.main"]["self_s"], 3.0)
        self.assertEqual(warm["rotation.little_d"]["calls"], 0)


class TracerInstall(unittest.TestCase):
    def test_wraps_every_binding_restores_and_reports_absent(self):
        import exactspin
        import exactspin.cli
        import exactspin.rotation
        import exactspin.spectrum

        original = exactspin.rotation.rotated_basis_state
        tracer = spantrace.Tracer()
        saved = spantrace.TARGETS
        spantrace.TARGETS = dict(saved, rotation=saved["rotation"] + ("no_such_function",))
        try:
            absent = tracer.install()
            self.assertEqual(absent, ["rotation.no_such_function"])
            self.assertIsNot(exactspin.spectrum.rotated_basis_state, original)
            self.assertIs(exactspin.spectrum.rotated_basis_state,
                          exactspin.rotation.rotated_basis_state)
            tracer.command = "0"
            exactspin.spectrum.exact_spectrum(
                exactspin.ModelParams.quadratic(1.0, 0.1, theta=0.5), exactspin.HalfInt(4))
        finally:
            tracer.uninstall()
            spantrace.TARGETS = saved
        self.assertIs(exactspin.spectrum.rotated_basis_state, original)
        self.assertIs(exactspin.rotated_basis_state, original)
        counts = spantrace.summarize(tracer.spans)
        self.assertEqual(counts["spectrum.exact_spectrum"]["calls"], 1)
        self.assertEqual(counts["rotation.rotated_basis_state"]["calls"], 5)
        self.assertEqual(counts["rotation.little_d_row"]["calls"], 5)
        self.assertGreater(counts["spectrum.exact_spectrum"]["peak_bytes"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))

    def test_same_seed_same_commands(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                first = workloads.build_commands(name, 7, ROOT, tmp)
                self.assertEqual(first, workloads.build_commands(name, 7, ROOT, tmp))


if __name__ == "__main__":
    unittest.main()
