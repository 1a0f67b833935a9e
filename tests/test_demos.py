"""Every narrative script in demos/ runs to a clean end."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_documented_demos_are_collected():
    assert {"closed_form_spectrum", "collapse_revival", "ground_state_superposition",
            "two_mode_condensate"} <= {path.stem for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
