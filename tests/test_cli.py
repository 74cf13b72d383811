import json
import subprocess
import sys

import pytest

from sepack.cli import main


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


class TestOtherCommands:
    def test_measure(self, tmp_path, capsys):
        pack = tmp_path / "tri.json"
        run("gen", "--name", "TRI", "--window", "6", "--out", str(pack))
        assert run("measure", str(pack)) == 0
        out = capsys.readouterr().out
        assert "sep = 0" in out and "ViolationFound" in out

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

    def test_formulas_at_huge_n(self, capsys):
        n = 10**400
        assert run("formulas", "--n", str(n), "--d", "3") == 0
        m = int(capsys.readouterr().out.split("=")[-1])
        assert (3 * n - m - 1) ** 3 < 27 * n**2 <= (3 * n - m) ** 3

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


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "sepack", "formulas", "--n", "8", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "= 12" in out.stdout
