import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepack
from sepack.cli import build_parser, main

from conftest import bad_packing_files, traced_peak, within_seconds


# child processes import sepack from the same sources as this process
SRC = Path(sepack.__file__).resolve().parents[1]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}


def run(*argv):
    return main(list(argv))


class TestGenVerifyPipeline:
    def test_gen_then_verify(self, tmp_path, capsys):
        pack = tmp_path / "k6.json"
        rep = tmp_path / "report.json"
        assert run("gen", "--name", "K6", "--window", "12", "--out", str(pack)) == 0
        assert run("verify", str(pack), "--report", str(rep)) == 0
        report = json.loads(rep.read_text())
        assert report["regularity"] == {"status": "regular", "k": 3}
        assert report["separability"]["status"] == "WindowCertified"
        assert report["separability"]["sep"] == "1"
        out = capsys.readouterr().out
        assert "k=3" in out and "sep=1" in out

    def test_margin_flag(self, tmp_path):
        pack = tmp_path / "p.json"
        assert run("gen", "--name", "P1", "--window", "8", "--margin", "5", "--out", str(pack)) == 0
        doc = json.loads(pack.read_text())
        assert doc["window"]["margin"] == 5.0

    def test_full_audit_flag(self, tmp_path):
        pack = tmp_path / "t.json"
        rep = tmp_path / "r.json"
        assert run("gen", "--name", "TRI", "--window", "6", "--out", str(pack)) == 0
        assert run("verify", str(pack), "--full-audit", "--report", str(rep)) == 0
        report = json.loads(rep.read_text())
        assert report["separability"]["status"] == "ViolationFound"
        assert len(report["separability"]["violations"]) > 0

    def test_product_whose_factor_windows_hold_no_contact(self, tmp_path):
        pack = tmp_path / "j9.json"
        assert run("gen", "--name", "J9", "--window", "3", "--out", str(pack)) == 0
        assert json.loads(pack.read_text())["centers"]

    def test_unknown_id_exits_nonzero_and_lists_ids(self, capsys):
        assert run("gen", "--name", "Z9", "--window", "6", "--out", "x.json") == 2
        err = capsys.readouterr().err
        assert "P1" in err and "O103" in err

    def test_catalog_only_id_explains(self, capsys):
        assert run("gen", "--name", "O132", "--window", "6", "--out", "x.json") == 2
        err = capsys.readouterr().err
        assert "catalog-only" in err

    @pytest.mark.parametrize("name", ["P1", "A", "TRI"])
    def test_infinite_window_exits_2_without_file(self, tmp_path, capsys, name):
        pack = tmp_path / "x.json"
        assert run("gen", "--name", name, "--window", "inf", "--out", str(pack)) == 2
        assert "finite" in capsys.readouterr().err
        assert not pack.exists()

    @pytest.mark.parametrize("window", ["1e9", "1e300"])
    def test_huge_window_exits_2_without_file(self, tmp_path, capsys, window):
        pack = tmp_path / "x.json"
        with traced_peak() as peak:
            assert run("gen", "--name", "P1", "--window", window, "--out", str(pack)) == 2
        assert peak[0] < 1_000_000
        assert "budget" in capsys.readouterr().err
        assert not pack.exists()

    @pytest.mark.parametrize("radius", ["NaN", "Infinity", "1e400"])
    def test_non_finite_radius_exits_2_without_report(self, tmp_path, capsys, radius):
        pack = tmp_path / "p.json"
        rep = tmp_path / "r.json"
        assert run("gen", "--name", "P1", "--window", "4", "--out", str(pack)) == 0
        pack.write_text(pack.read_text().replace('"radius": 1.0', f'"radius": {radius}'))
        assert run("verify", str(pack), "--report", str(rep)) == 2
        assert run("measure", str(pack)) == 2
        assert "radius must be 1.0" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("radius", ["2.0", "0.5"])
    def test_radius_other_than_one_exits_2_without_report(self, tmp_path, capsys, radius):
        pack, rep = tmp_path / "p.json", tmp_path / "r.json"
        assert run("gen", "--name", "P1", "--window", "4", "--out", str(pack)) == 0
        pack.write_text(pack.read_text().replace('"radius": 1.0', f'"radius": {radius}'))
        assert run("verify", str(pack), "--report", str(rep)) == 2
        assert capsys.readouterr().err == f"error: radius must be 1.0, got {radius}\n"
        assert not rep.exists()


    @pytest.mark.parametrize("case", sorted(bad_packing_files()))
    def test_malformed_file_exits_2_without_report(self, tmp_path, capsys, case):
        pack, rep = tmp_path / "p.json", tmp_path / "r.json"
        pack.write_bytes(bad_packing_files()[case])
        assert run("verify", str(pack), "--report", str(rep)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not rep.exists()


class TestOtherCommands:
    def test_measure(self, tmp_path, capsys):
        pack = tmp_path / "tri.json"
        run("gen", "--name", "TRI", "--window", "6", "--out", str(pack))
        assert run("measure", str(pack)) == 0
        out = capsys.readouterr().out
        assert "sep = 0" in out and "ViolationFound" in out

    @pytest.mark.parametrize("centers", [[[0.0, 0.0]], np.zeros((0, 2))], ids=["one", "none"])
    def test_measure_of_edgeless_file(self, tmp_path, capsys, centers):
        # measure labels a window without contacts NoEdges; verify of the
        # same file certifies it with sep 1
        pack, rep = tmp_path / "p.json", tmp_path / "r.json"
        sepack.save_packing(sepack.Packing(centers, sepack.Window([-2.0, -2.0], [2.0, 2.0])), pack)
        assert run("measure", str(pack)) == 0
        assert capsys.readouterr().out == "sep = 1 (1.000000)\nstatus = NoEdges\n"
        assert run("verify", str(pack), "--report", str(rep)) == 0
        separability = json.loads(rep.read_text())["separability"]
        assert (separability["status"], separability["sep"]) == ("WindowCertified", "1")

    def test_formulas(self, capsys):
        assert run("formulas", "--n", "27", "--d", "3") == 0
        assert "= 54" in capsys.readouterr().out
        assert run("formulas", "--n", "10", "--d", "2") == 0
        out = capsys.readouterr().out
        assert "c2_formula(10) = 13" in out

    def test_contact_opt_with_oracle(self, tmp_path, capsys):
        pack = tmp_path / "c.json"
        assert run("contact-opt", "--n", "10", "--d", "2", "--oracle", "--out", str(pack)) == 0
        out = capsys.readouterr().out
        assert "achieved contacts: 13" in out
        assert "oracle: 13" in out

    def test_contact_opt_box(self, tmp_path, capsys):
        pack = tmp_path / "b.json"
        assert run("contact-opt", "--n", "8", "--d", "3", "--out", str(pack)) == 0
        out = capsys.readouterr().out
        assert "achieved contacts: 12" in out

    def test_oracle_limit_is_an_error(self, tmp_path, capsys):
        pack = tmp_path / "c.json"
        assert run("contact-opt", "--n", "50", "--d", "2", "--oracle", "--out", str(pack)) == 2
        assert "limit" in capsys.readouterr().err

    def test_oracle_limit_leaves_no_file(self, tmp_path, capsys):
        pack = tmp_path / "c.json"
        assert run("contact-opt", "--n", "11", "--d", "2", "--oracle", "--out", str(pack)) == 2
        assert "limit" in capsys.readouterr().err
        assert not pack.exists()

    @pytest.mark.parametrize("d", ["2", "3"])
    def test_contact_opt_over_budget_exits_2_without_file(self, tmp_path, capsys, d):
        pack = tmp_path / "x.json"
        with traced_peak() as peak:
            assert run("contact-opt", "--n", str(10**12), "--d", d, "--out", str(pack)) == 2
        assert peak[0] < 1_000_000
        assert "budget" in capsys.readouterr().err
        assert not pack.exists()

    def test_contact_opt_in_forty_dimensions_is_an_error(self, tmp_path, capsys):
        # 5 cells in 37 sides of 1 and 3 of 2: the padded box of 3^37 * 4^3
        # cells has no int64 codes; at d = 30 it has
        pack = tmp_path / "x.json"
        with within_seconds(10):
            assert run("contact-opt", "--n", "5", "--d", "40", "--out", str(pack)) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert not pack.exists()
            assert run("contact-opt", "--n", "5", "--d", "30", "--out", str(pack)) == 0
        assert sepack.load_packing(pack).n_spheres == 5

    def test_formulas_at_huge_n(self, capsys):
        n = 10**400
        assert run("formulas", "--n", str(n), "--d", "3") == 0
        m = int(capsys.readouterr().out.split("=")[-1])
        assert (3 * n - m - 1) ** 3 < 27 * n**2 <= (3 * n - m) ** 3

    def test_formulas_over_the_power_budget_is_an_error(self, capsys):
        with within_seconds(1):
            assert run("formulas", "--n", "5", "--d", "30000") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_construct_diagonal(self, tmp_path, capsys):
        pack = tmp_path / "d.json"
        assert run("construct-diagonal", "--d", "2", "--depth", "1", "--out", str(pack)) == 0
        doc = json.loads(pack.read_text())
        assert len(doc["centers"]) == 20

    def test_sep_sequence(self, capsys):
        assert run("sep-sequence", "--name", "P1", "--windows", "6,10,14") == 0
        out = capsys.readouterr().out
        assert out.count("sep = 1") == 3
        assert "stable to 3 decimals over last two windows: True" in out

    def test_render(self, tmp_path):
        pack = tmp_path / "k.json"
        fig = tmp_path / "k.svg"
        run("gen", "--name", "K6", "--window", "8", "--out", str(pack))
        assert run("render", str(pack), "--out", str(fig), "--edges", "--tangents") == 0
        assert fig.read_text().startswith("<?xml")

    def test_render_rejects_3d(self, tmp_path, capsys):
        pack = tmp_path / "j.json"
        run("gen", "--name", "J1", "--window", "4", "--out", str(pack))
        assert run("render", str(pack), "--out", str(tmp_path / "j.svg")) == 2

    def test_missing_file_is_error(self, capsys):
        assert run("measure", "/nonexistent/file.json") == 2


# arguments out of range or of the wrong kind, one case per check a command
# reaches; the commands that write a file get an --out
ARGUMENT_ERRORS = {
    "gen-nan-window": ["gen", "--name", "P1", "--window", "nan"],
    "gen-negative-window": ["gen", "--name", "P1", "--window", "-1"],
    "gen-negative-margin": ["gen", "--name", "P1", "--window", "4", "--margin", "-1"],
    "contact-opt-zero-n": ["contact-opt", "--n", "0", "--d", "2"],
    "contact-opt-d1": ["contact-opt", "--n", "5", "--d", "1"],
    "formulas-zero-n": ["formulas", "--n", "0", "--d", "3"],
    "construct-diagonal-d1": ["construct-diagonal", "--d", "1", "--depth", "1"],
    "construct-diagonal-negative-depth": ["construct-diagonal", "--d", "2", "--depth", "-1"],
    "sep-sequence-decreasing": ["sep-sequence", "--name", "P1", "--windows", "6,4"],
    "sep-sequence-one-window": ["sep-sequence", "--name", "P1", "--windows", "6"],
    "sep-sequence-not-a-number": ["sep-sequence", "--name", "P1", "--windows", "6,x"],
}
WRITES_A_FILE = {"gen", "contact-opt", "construct-diagonal"}


@pytest.mark.parametrize("case", list(ARGUMENT_ERRORS))
def test_argument_error_exits_2_with_one_line_and_no_file(tmp_path, capsys, case):
    argv, out = ARGUMENT_ERRORS[case], tmp_path / "x.json"
    if argv[0] in WRITES_A_FILE:
        argv = [*argv, "--out", str(out)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestRepeatedCalls:
    """One parser serves every call in a process; no call leaves state behind."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_parser_is_not_built_at_import(self):
        code = "import sepack.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert out.returncode == 0 and out.stdout.strip() == "0"

    def test_full_audit_does_not_carry_over(self, tmp_path):
        pack, full, brief = tmp_path / "t.json", tmp_path / "full.json", tmp_path / "brief.json"
        assert run("gen", "--name", "TRI", "--window", "6", "--out", str(pack)) == 0
        assert run("verify", str(pack), "--full-audit", "--report", str(full)) == 0
        assert run("verify", str(pack), "--report", str(brief)) == 0
        audited = json.loads(full.read_text())["separability"]
        sep = json.loads(brief.read_text())["separability"]
        edges = [tuple(w["edge"]) for w in sep["violations"]]
        # the brief report names one witness per dirty edge
        assert len(edges) == len(set(edges)) == sep["total_edges"] - sep["clean_edges"] > 0
        assert len(audited["violations"]) > len(edges)

    def test_margin_does_not_carry_over(self, tmp_path):
        wide, plain = tmp_path / "wide.json", tmp_path / "plain.json"
        assert run("gen", "--name", "P1", "--window", "8", "--margin", "5", "--out", str(wide)) == 0
        assert run("gen", "--name", "P1", "--window", "8", "--out", str(plain)) == 0
        assert json.loads(wide.read_text())["window"]["margin"] == 5.0
        assert json.loads(plain.read_text())["window"]["margin"] == 3.0

    def test_usage_error_then_valid_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--name", "P1", "--window")
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err
        assert run("formulas", "--n", "8", "--d", "3") == 0
        assert "= 12" in capsys.readouterr().out


# runs the commands of its JSON argument in order and prints, as its last
# line, the scipy modules loaded after the import and after each command
SCIPY_PROBE = """
import json, sys
from sepack.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""

# sha256 of the file that `gen --name P1 --window 12` writes
P1_L12_SHA256 = "156ac3000d4fb419e11b8ae28e69640e5426deaa676b6b29f2a76f37cdfdccb2"


def test_scipy_loads_on_the_first_kdtree_build(tmp_path):
    oracle, diag, fig, p1 = (tmp_path / f for f in ("o.json", "d.json", "o.svg", "p1.json"))
    commands = [
        ["formulas", "--n", "8", "--d", "3"],
        ["contact-opt", "--n", "9", "--d", "2", "--oracle", "--out", str(oracle)],
        ["construct-diagonal", "--d", "2", "--depth", "1", "--out", str(diag)],
        ["render", str(oracle), "--out", str(fig)],
        ["gen", "--name", "P1", "--window", "12", "--out", str(p1)],
    ]
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded[:-1] == [[]] * len(commands)
    assert "scipy.spatial" in loaded[-1]
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == P1_L12_SHA256


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "sepack", "formulas", "--n", "8", "--d", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert out.returncode == 0
    assert "= 12" in out.stdout
