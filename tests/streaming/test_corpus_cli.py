"""Tests for the ``threatraptor corpus`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.data.osctireports import corpus_variants


@pytest.fixture()
def audit_log(tmp_path):
    path = tmp_path / "audit.log"
    exit_code = main(["simulate", str(path), "--seed", "3", "--scale", "0.3"])
    assert exit_code == 0
    return path


@pytest.fixture()
def report_directory(tmp_path):
    directory = tmp_path / "reports"
    directory.mkdir()
    for variant in corpus_variants(8, seed=2):
        (directory / f"{variant.name}.txt").write_text(variant.text, encoding="utf-8")
    return directory


class TestCorpusCommand:
    def test_corpus_dedups_and_alerts_with_provenance(
        self, report_directory, audit_log, capsys
    ):
        assert main(["corpus", str(report_directory), str(audit_log)]) == 0
        output = capsys.readouterr().out
        # 8 overlapping reports registered fewer standing hunts.
        assert "8 reports -> 5 standing hunts" in output
        assert "dedup ratio" in output
        assert "ALERT [corpus-" in output
        assert "reports=" in output

    def test_removed_worker_pool_flag_is_rejected(self, report_directory, audit_log):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", str(report_directory), str(audit_log), "--workers", "2"])
        assert excinfo.value.code == 2

    def test_corpus_bundled_literal(self, audit_log, capsys):
        assert main(["corpus", "bundled", str(audit_log)]) == 0
        output = capsys.readouterr().out
        # The unauditable bundled report is skipped, not fatal.
        assert "skipped phishing-infrastructure" in output

    def test_corpus_jsonl_and_alert_file(self, tmp_path, audit_log, capsys):
        feed = tmp_path / "feed.jsonl"
        records = [
            {"id": variant.name, "text": variant.text}
            for variant in corpus_variants(4, seed=5)
        ]
        feed.write_text(
            "\n".join(json.dumps(record) for record in records), encoding="utf-8"
        )
        alerts_path = tmp_path / "alerts.jsonl"
        assert main(
            ["corpus", str(feed), str(audit_log), "--alerts", str(alerts_path)]
        ) == 0
        lines = [
            json.loads(line)
            for line in alerts_path.read_text(encoding="utf-8").splitlines()
            if line
        ]
        assert lines
        assert all("reports" in line for line in lines)
        assert all(line["reports"] for line in lines)

    def test_corpus_missing_directory_is_error(self, audit_log, capsys):
        assert main(["corpus", "/nonexistent/reports", str(audit_log)]) == 1
        assert "error:" in capsys.readouterr().err
