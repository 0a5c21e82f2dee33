"""CLI behavior: exit codes, output formats, baseline flow."""

import json

import pytest

from repro.analysis import main

VIOLATING = "import random\n\nSHUFFLE = random.shuffle\n"
CLEAN = "import math\n\nTOTAL: float = math.pi\n"


@pytest.fixture()
def violating_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(VIOLATING, encoding="utf-8")
    return path


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(CLEAN, encoding="utf-8")
    return path


class TestExitCodes:
    def test_exit_zero_on_clean_tree(self, clean_file, capsys):
        assert main([str(clean_file), "--no-baseline"]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_exit_one_on_findings(self, violating_file, capsys):
        assert main([str(violating_file), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "1 new finding(s)" in out

    def test_exit_two_on_unknown_rule(self, clean_file, capsys):
        assert main([str(clean_file), "--select", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_exit_two_without_paths(self, capsys):
        assert main([]) == 2


class TestSelection:
    def test_select_limits_rules(self, violating_file, capsys):
        # DET002 fires on the fixture, but only NUM is selected.
        assert main([str(violating_file), "--no-baseline", "--select", "NUM"]) == 0

    def test_ignore_drops_rule(self, violating_file):
        assert main([str(violating_file), "--no-baseline", "--ignore", "DET002"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET005", "NUM001", "REG001", "API001"):
            assert code in out


class TestOutputFormats:
    def test_json_format(self, violating_file, capsys):
        assert main([str(violating_file), "--no-baseline", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["new"] == 1
        assert report["findings"][0]["rule"] == "DET002"
        assert report["findings"][0]["fingerprint"]

    def test_output_file_written_even_in_text_mode(self, violating_file, tmp_path, capsys):
        out_path = tmp_path / "findings.json"
        assert (
            main(
                [str(violating_file), "--no-baseline", "--output", str(out_path)]
            )
            == 1
        )
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["counts"]["total"] == 1


class TestBaselineFlow:
    def test_write_then_gate(self, violating_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        # Writing the baseline grandfathers the finding...
        assert (
            main([str(violating_file), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert baseline.is_file()
        # ...so the same tree now gates clean...
        assert main([str(violating_file), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # ...but a new violation still fails.
        violating_file.write_text(VIOLATING + "from random import choice\n\nCHOICE = choice\n", "utf-8")
        assert main([str(violating_file), "--baseline", str(baseline)]) == 1

    def test_default_baseline_discovered_in_cwd(self, violating_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([str(violating_file), "--write-baseline"]) == 0
        assert (tmp_path / "analysis-baseline.json").is_file()
        assert main([str(violating_file)]) == 0
        assert main([str(violating_file), "--no-baseline"]) == 1
