"""The demos run to completion against the current API.

catalog_tour.py is left out: it takes seconds, and criterion 4 of
test_acceptance.py runs the same invariant suite over the catalog.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "contact_numbers_tour.py",
        "diagonal_family.py",
        "render_figure.py",
        "separability_basics.py",
    ],
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
