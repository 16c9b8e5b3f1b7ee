"""Tests for the ``threatraptor watch`` subcommand."""

from __future__ import annotations

import json

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


class TestWatch:
    def test_watch_raises_alert_and_matches_hunt(self, report_file, audit_log, capsys):
        assert main(["watch", str(report_file), str(audit_log), "--batch-size", "40"]) == 0
        output = capsys.readouterr().out
        assert "Standing TBQL query" in output
        assert "ALERT [watch]" in output
        assert "192.168.29.128" in output
        # Same matched set as the one-shot `hunt` subcommand on this log.
        assert "matched events=8" in output

    def test_watch_writes_jsonl_alerts(self, report_file, audit_log, tmp_path, capsys):
        alerts_path = tmp_path / "alerts.jsonl"
        assert (
            main(
                [
                    "watch",
                    str(report_file),
                    str(audit_log),
                    "--batch-size",
                    "64",
                    "--alerts",
                    str(alerts_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = alerts_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        alert = json.loads(lines[0])
        assert alert["hunt"] == "watch"
        assert len(alert["matched_event_ids"]) == 8
        assert alert["entities"]["i1"] == "192.168.29.128"

    def test_watch_max_events_bounds_the_stream(self, report_file, audit_log, capsys):
        assert (
            main(
                ["watch", str(report_file), str(audit_log), "--batch-size", "10", "--max-events", "30"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "events=30" in output

    def test_watch_missing_log_is_error(self, report_file, capsys):
        assert main(["watch", str(report_file), "/nonexistent/audit.log"]) == 1
        assert "error:" in capsys.readouterr().err


    def test_removed_storage_partition_flag_is_rejected(self, report_file, audit_log):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(report_file), str(audit_log), "--shards", "4"])
        assert excinfo.value.code == 2


class TestWatchCheckpoint:
    def test_first_run_creates_checkpoint_and_journal(
        self, report_file, audit_log, tmp_path, capsys
    ):
        ckpt = tmp_path / "state"
        assert (
            main(
                [
                    "watch",
                    str(report_file),
                    str(audit_log),
                    "--batch-size",
                    "40",
                    "--checkpoint-dir",
                    str(ckpt),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Resumed" not in output
        assert "ALERT [watch]" in output
        assert (ckpt / "checkpoint.json").exists()
        assert (ckpt / "alerts.jsonl").read_text(encoding="utf-8").count("\n") == 1

    def test_second_run_resumes_and_never_reemits(
        self, report_file, audit_log, tmp_path, capsys
    ):
        ckpt = tmp_path / "state"
        args = [
            "watch",
            str(report_file),
            str(audit_log),
            "--batch-size",
            "40",
            "--checkpoint-dir",
            str(ckpt),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "Resumed from checkpoint" in output
        assert "ALERT" not in output  # already journaled: suppressed on replay
        # The journal still holds exactly the one original alert.
        assert (ckpt / "alerts.jsonl").read_text(encoding="utf-8").count("\n") == 1
