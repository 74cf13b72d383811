"""The demos run to completion against the current API."""

import runpy
import sys
from pathlib import Path

import pytest

from sepack import constructible_ids, core

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


def test_catalog_tour_holds_every_invariant(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["catalog_tour.py"])
    runpy.run_path(str(DEMOS / "catalog_tour.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert sum("all invariants hold" in line for line in lines) == len(constructible_ids()) == 25
    assert not any("PROBLEM" in line for line in lines)
