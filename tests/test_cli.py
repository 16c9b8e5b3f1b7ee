"""Tests for the threatraptor command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.data import FIGURE2_REPORT


@pytest.fixture()
def audit_log(tmp_path):
    path = tmp_path / "audit.log"
    exit_code = main(
        ["simulate", str(path), "--seed", "3", "--scale", "0.3", "--attack", "figure2-data-leakage"]
    )
    assert exit_code == 0
    return path


@pytest.fixture()
def report_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(FIGURE2_REPORT.text, encoding="utf-8")
    return path


class TestSimulate:
    def test_simulate_writes_log(self, audit_log, capsys):
        assert audit_log.exists()
        assert audit_log.stat().st_size > 0

    def test_simulate_default_attacks(self, tmp_path, capsys):
        path = tmp_path / "demo.log"
        assert main(["simulate", str(path), "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "malicious=" in output


class TestExtractAndSynthesize:
    def test_extract_prints_graph(self, report_file, capsys):
        assert main(["extract", str(report_file)]) == 0
        output = capsys.readouterr().out
        assert "/bin/tar --[read]--> /etc/passwd" in output

    def test_synthesize_prints_tbql(self, report_file, capsys):
        assert main(["synthesize", str(report_file)]) == 0
        output = capsys.readouterr().out
        assert 'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1' in output
        assert "return distinct" in output

    def test_synthesize_path_patterns(self, report_file, capsys):
        assert main(["synthesize", str(report_file), "--path-patterns"]) == 0
        assert "~>" in capsys.readouterr().out

    def test_missing_report_file_is_error(self, capsys):
        assert main(["extract", "/nonexistent/report.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestHuntAndQuery:
    def test_hunt_finds_attack(self, report_file, audit_log, capsys):
        assert main(["hunt", str(report_file), str(audit_log)]) == 0
        output = capsys.readouterr().out
        assert "Synthesized TBQL query" in output
        assert "192.168.29.128" in output
        assert "matched events=8" in output

    def test_hunt_unoptimized_backend_graph(self, report_file, audit_log, capsys):
        assert main(["hunt", str(report_file), str(audit_log), "--backend", "graph", "--no-optimize"]) == 0
        assert "matched events=8" in capsys.readouterr().out

    def test_query_command(self, tmp_path, audit_log, capsys):
        query_file = tmp_path / "query.tbql"
        query_file.write_text(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p, f\n',
            encoding="utf-8",
        )
        assert main(["query", str(query_file), str(audit_log)]) == 0
        output = capsys.readouterr().out
        assert "/etc/passwd" in output

    def test_query_syntax_error_reports_cleanly(self, tmp_path, audit_log, capsys):
        query_file = tmp_path / "bad.tbql"
        query_file.write_text("this is not tbql", encoding="utf-8")
        assert main(["query", str(query_file), str(audit_log)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateCampaign:
    def test_campaign_writes_log_and_ground_truth(self, tmp_path, capsys):
        import json

        log = tmp_path / "campaign.log"
        truth = tmp_path / "truth.json"
        assert main(
            ["simulate", str(log), "--campaign", "--seed", "21", "--ground-truth", str(truth)]
        ) == 0
        output = capsys.readouterr().out
        assert "campaign campaign-21" in output
        assert log.stat().st_size > 0
        payload = json.loads(truth.read_text(encoding="utf-8"))
        assert payload["name"] == "campaign-21"
        assert payload["event_ids"]
        assert {hunt["name"] for hunt in payload["hunts"]} == {"staging", "exfiltration"}
        for hunt in payload["hunts"]:
            assert "return distinct" in hunt["tbql"]
            assert set(hunt["expected_event_ids"]) <= set(payload["event_ids"])

    def test_campaign_log_is_huntable(self, tmp_path, capsys):
        import json

        log = tmp_path / "campaign.log"
        truth = tmp_path / "truth.json"
        assert main(
            ["simulate", str(log), "--campaign", "--seed", "33", "--ground-truth", str(truth)]
        ) == 0
        payload = json.loads(truth.read_text(encoding="utf-8"))
        query_file = tmp_path / "hunt.tbql"
        query_file.write_text(payload["hunts"][1]["tbql"], encoding="utf-8")
        capsys.readouterr()
        assert main(["query", str(query_file), str(log)]) == 0
        expected = len(payload["hunts"][1]["expected_event_ids"])
        assert f"{expected} matched events" in capsys.readouterr().out

    def test_ground_truth_without_campaign_is_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "x.log"), "--ground-truth", "gt.json"]) == 2
        assert "--ground-truth requires --campaign" in capsys.readouterr().err

    def test_campaign_rejects_attack_selection(self, tmp_path, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(tmp_path / "x.log"),
                    "--campaign",
                    "--attack",
                    "figure2-data-leakage",
                ]
            )
            == 2
        )
        assert "--attack cannot be combined" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_subcommand_exits_nonzero_with_stderr(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["sql", "relational"])
    @pytest.mark.parametrize("subcommand", ["hunt", "watch"])
    def test_removed_backends_are_not_a_choice(
        self, subcommand, backend, report_file, audit_log, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, str(report_file), str(audit_log), "--backend", backend])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{backend}'" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["sql", "relational", "graph"])
    def test_lint_has_no_backend_flag(self, backend, report_file, capsys):
        """No lint rule depends on the backend since TR402 went."""
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(report_file), "--backend", backend])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_trace_file_is_error(self, report_file, capsys):
        assert main(["hunt", str(report_file), "/nonexistent/audit.log"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_query_file_is_error(self, audit_log, capsys):
        assert main(["query", "/nonexistent/query.tbql", str(audit_log)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_tbql_from_stdin_is_error(self, audit_log, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("proc p read read read"))
        assert main(["query", "-", str(audit_log)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_watch_missing_report_is_error(self, audit_log, capsys):
        assert main(["watch", "/nonexistent/report.txt", str(audit_log)]) == 1
        assert "error:" in capsys.readouterr().err


class TestLint:
    CLEAN = 'proc p["%sh%"] read file f["/etc/%"] as e1 return p, f\n'
    BAD = 'proc p["x"] read file f[id > 100 and id < 10] as e1 return p, f\n'
    WARN_ONLY = 'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 return p, f\n'

    @pytest.fixture()
    def query_file(self, tmp_path):
        def write(name, text):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            return path

        return write

    def test_clean_file_exits_zero(self, query_file, capsys):
        path = query_file("clean.tbql", self.CLEAN)
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_diagnostics_exit_nonzero(self, query_file, capsys):
        path = query_file("bad.tbql", self.BAD)
        assert main(["lint", str(path)]) == 1
        output = capsys.readouterr().out
        assert "error[TR101]" in output
        assert f"{path}:1:" in output

    def test_warnings_alone_exit_zero(self, query_file, capsys):
        path = query_file("warn.tbql", self.WARN_ONLY)
        assert main(["lint", str(path)]) == 0
        assert "warning[TR301]" in capsys.readouterr().out

    def test_multiple_files_worst_exit_wins(self, query_file, capsys):
        good = query_file("clean.tbql", self.CLEAN)
        bad = query_file("bad.tbql", self.BAD)
        assert main(["lint", str(good), str(bad)]) == 1
        output = capsys.readouterr().out
        assert "clean" in output
        assert "TR101" in output

    def test_unparseable_file_exits_nonzero(self, query_file, capsys):
        path = query_file("broken.tbql", "proc p read blob b as e1 return p\n")
        assert main(["lint", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_json_format(self, query_file, capsys):
        import json

        path = query_file("bad.tbql", self.BAD)
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["errors"] == 1
        assert payload[0]["diagnostics"][0]["rule"] == "TR101"

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.CLEAN))
        assert main(["lint", "-"]) == 0
        assert "<stdin>: clean" in capsys.readouterr().out

    def test_log_feeds_cost_statistics(self, query_file, audit_log, capsys):
        path = query_file("scan.tbql", "proc p read file f as e1 return p, f\n")
        # The default TR304 threshold is far above the small simulated log, so
        # the lint stays warning-free; the command must still load the log and
        # exit cleanly.
        assert main(["lint", "--log", str(audit_log), str(path)]) == 0
