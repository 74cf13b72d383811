"""The demos run to completion against the current API.

catalog_tour.py is left out: it takes seconds, and criterion 4 of
test_acceptance.py runs the same invariant suite over the catalog.
"""

import runpy
import sys
from pathlib import Path

import pytest

from sepack import core

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


def test_diagonal_demo_builds_one_kdtree_per_packing(tmp_path, monkeypatch, capsys):
    # seven packings, one contact graph each; 17 KD-trees when the degree
    # check, the closest pair and sep each built their own
    builds = []
    tree_class = core.cKDTree
    monkeypatch.setattr(core, "cKDTree", lambda *a, **k: builds.append(1) or tree_class(*a, **k))
    test_demo_runs("diagonal_family.py", tmp_path, monkeypatch, capsys)
    assert len(builds) == 7
