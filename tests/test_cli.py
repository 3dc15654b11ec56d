"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def test_study_command_prints_table1(capsys):
    assert main(["study"]) == 0
    output = capsys.readouterr().out
    assert "26 unique crash-consistency bugs" in output
    assert "btrfs" in output


def test_list_bugs_command(capsys):
    assert main(["list-bugs"]) == 0
    output = capsys.readouterr().out
    assert "known-1" in output
    assert "new-11" in output
    assert "outside B3 bounds" in output


def test_generate_command_reports_count(capsys):
    assert main(["generate", "--preset", "seq-1", "--limit", "25"]) == 0
    err = capsys.readouterr().err
    assert "generated 25 workloads" in err


def test_generate_can_print_workloads(capsys):
    main(["generate", "--seq-length", "1", "--limit", "2", "--print-workloads"])
    out = capsys.readouterr().out
    assert "sync" in out or "fsync" in out


def test_test_command_runs_a_workload_file(tmp_path, capsys):
    workload_file = tmp_path / "figure1.wl"
    workload_file.write_text(
        "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"
    )
    # Buggy file system: exit code 1 and a bug report.
    assert main(["test", str(workload_file), "--filesystem", "btrfs"]) == 1
    assert "Bug report" in capsys.readouterr().out
    # Patched file system: exit code 0.
    assert main(["test", str(workload_file), "--filesystem", "btrfs", "--patched"]) == 0


def test_campaign_command_with_patched_fs(capsys):
    code = main([
        "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
        "--limit", "20", "--patched",
    ])
    assert code == 0
    assert "workloads" in capsys.readouterr().out


def test_reproduce_command_for_a_new_bug(capsys):
    assert main(["reproduce", "new-11"]) == 0
    assert "REPRODUCED" in capsys.readouterr().out


def test_reproduce_command_out_of_bounds_bug(capsys):
    assert main(["reproduce", "known-25"]) == 2
    assert "outside B3" in capsys.readouterr().out


def test_reproduce_patched_returns_nonzero(capsys):
    assert main(["reproduce", "new-11", "--patched"]) == 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_running_the_main_module_imports_it_once():
    """``python -m repro.cli.main`` must not find the module pre-imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli.main", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "RuntimeWarning" not in completed.stderr


#: recording/replay sharing flags the campaign command no longer has
REMOVED_SHARING_FLAGS = ("--share-prefixes", "--no-share-prefixes", "--share-replay",
                         "--no-share-replay", "--spine-memory-budget", "--spine-spill-dir")


def test_campaign_help_lists_no_removed_sharing_flags():
    campaign = build_parser()._subparsers._group_actions[0].choices["campaign"]
    help_text = campaign.format_help()
    for flag in REMOVED_SHARING_FLAGS:
        assert flag not in help_text, flag


@pytest.mark.parametrize("flag", REMOVED_SHARING_FLAGS)
def test_campaign_rejects_a_removed_sharing_flag(flag, capsys):
    # A script still passing a removed flag fails at parse time instead of
    # running a campaign that silently ignores it.
    value = {"--spine-memory-budget": ["0"], "--spine-spill-dir": ["spill"]}.get(flag, [])
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--preset", "seq-1", "--limit", "1", flag, *value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCheckSelection:
    def test_list_checks_subcommand(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("mount", "read", "directory", "atomicity", "write", "hardlink", "xattr"):
            assert name in out

    def test_list_checks_flag_on_test_and_campaign(self, capsys):
        assert main(["test", "--list-checks"]) == 0
        assert "hardlink" in capsys.readouterr().out
        assert main(["campaign", "--list-checks"]) == 0
        assert "xattr" in capsys.readouterr().out

    def test_test_without_workload_or_list_checks_errors(self, capsys):
        assert main(["test"]) == 2
        assert "workload file" in capsys.readouterr().err

    def test_checks_flag_restricts_the_pipeline(self, tmp_path, capsys):
        workload_file = tmp_path / "figure1.wl"
        workload_file.write_text(
            "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"
        )
        # The figure-1 workload produces an unmountable state; restricting the
        # pipeline to the read check makes the unmountable state invisible.
        assert main(["test", str(workload_file), "--checks", "read"]) == 0
        # The mount check alone still catches it.
        assert main(["test", str(workload_file), "--checks", "mount"]) == 1

    def test_skip_checks_flag(self, tmp_path):
        workload_file = tmp_path / "dir-bug.wl"
        workload_file.write_text(
            "mkdir A\ncreat A/foo\nsync\ncreat A/bar\nfsync A\nfsync A/bar\n"
        )
        assert main(["test", str(workload_file)]) == 1
        assert main([
            "test", str(workload_file),
            "--skip-checks", "write,directory,read,hardlink,xattr",
        ]) == 0

    def test_unknown_check_name_is_rejected(self, tmp_path):
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", "raed"])

    def test_empty_checks_value_is_rejected(self, tmp_path):
        # An empty selection must not silently run zero checks and pass.
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", ""])
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", ","])

    def test_campaign_with_check_selection(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "15", "--checks", "mount,read",
        ])
        assert code in (0, 1)
        assert "workloads" in capsys.readouterr().out


class TestCrashPlanFlags:
    def test_reorder_plan_finds_the_barrier_bug(self, tmp_path, capsys):
        workload_file = tmp_path / "barrier.wl"
        workload_file.write_text("creat foo\nwrite foo 0 4096\nfsync foo\n")
        # Ordered (prefix) replay cannot see the missing post-commit flush.
        assert main(["test", str(workload_file), "--filesystem", "f2fs"]) == 0
        capsys.readouterr()
        # The reorder plan drops the in-flight commit record and catches it.
        assert main([
            "test", str(workload_file), "--filesystem", "f2fs",
            "--crash-plan", "reorder", "--reorder-bound", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "reorder[drop=" in out

    def test_campaign_accepts_crash_plan_flags(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--crash-plan", "reorder", "--reorder-bound", "1",
        ])
        assert code == 0
        assert "workloads" in capsys.readouterr().out

    def test_invalid_plan_and_bound_are_rejected(self, tmp_path):
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--crash-plan", "chaos"])
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--reorder-bound", "0"])


class TestMechanismCli:
    WORKLOAD = "creat foo\nwrite foo 0 4096\nfsync foo\nsync\n"

    def test_list_planners_flag_names_every_registered_plan(self, capsys):
        from repro.crashmonkey import PLAN_NAMES

        assert main(["test", "--list-planners"]) == 0
        out = capsys.readouterr().out
        for name in PLAN_NAMES:
            assert name in out
        assert main(["campaign", "--list-planners"]) == 0
        assert "mechanism" in capsys.readouterr().out

    def test_analyze_prints_the_report_without_running_crash_states(self, tmp_path, capsys):
        workload_file = tmp_path / "both.wl"
        workload_file.write_text(self.WORKLOAD)
        assert main(["analyze", str(workload_file), "--filesystem", "f2fs"]) == 0
        out = capsys.readouterr().out
        assert "mechanism report" in out
        assert "journal-commit" in out
        assert "checkpoint-generation" in out
        assert "audit journal-commit: ok" in out
        assert "checkpoint windows:" in out
        assert "x reduction" in out
        assert "fleet cost" in out

    def test_analyze_json_out_is_the_full_schema2_report(self, tmp_path, capsys):
        import json as json_module

        workload_file = tmp_path / "both.wl"
        workload_file.write_text(self.WORKLOAD)
        json_out = tmp_path / "report.json"
        assert main(["analyze", str(workload_file), "--filesystem", "f2fs",
                     "--json-out", str(json_out)]) == 0
        capsys.readouterr()
        payload = json_module.loads(json_out.read_text())
        assert payload["schema"] == 2
        assert {e["mechanism"] for e in payload["evidence"]} \
            == {"journal-commit", "checkpoint-generation"}
        # The report is audited before it is written: every claim passed.
        assert {v["mechanism"] for v in payload["audit_verdicts"]} \
            == {"journal-commit", "checkpoint-generation"}
        assert all(v["ok"] for v in payload["audit_verdicts"])
        assert payload["demoted_evidence"] == []
        assert payload["scenarios_mechanism"] <= payload["scenarios_exhaustive"]
        assert payload["scenario_reduction"] >= 1.0
        assert sum(payload["window_kinds"].values()) == payload["checkpoints"]
        # The full MechanismReport schema round-trips from the file.
        from repro.analysis import MechanismReport
        restored = MechanismReport.from_dict(payload)
        assert restored.audited and restored.demotions == 0

    def test_mechanism_campaign_reports_the_torn_bug_set(self, capsys):
        base = ["campaign", "--filesystem", "f2fs", "--preset", "seq-1",
                "--limit", "30"]
        assert main([*base, "--crash-plan", "torn"]) == 1
        torn_out = capsys.readouterr().out
        assert main([*base, "--crash-plan", "mechanism"]) == 1
        mechanism_out = capsys.readouterr().out

        def bug_lines(text):
            return sorted(line.split("scenario")[0] for line in text.splitlines()
                          if "Bug report" in line)

        assert bug_lines(torn_out) == bug_lines(mechanism_out)


class TestCampaignServiceCommands:
    CAMPAIGN = ["--preset", "seq-1", "--limit", "12", "--chunk-size", "4"]

    def test_durable_requires_state_db(self, capsys):
        assert main(["campaign", "--durable", *self.CAMPAIGN]) == 2
        assert "--state-db" in capsys.readouterr().err

    def test_durable_campaign_runs_and_reruns(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        args = ["campaign", "--durable", "--state-db", db, *self.CAMPAIGN]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 already done" in err
        # Same invocation resumes the same campaign: everything is done.
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 chunks executed" in err
        assert "3 already done" in err

    def test_json_out_round_trips(self, tmp_path, capsys):
        import json as json_module

        from repro.core.results import CampaignResult

        out = tmp_path / "result.json"
        assert main(["campaign", *self.CAMPAIGN, "--json-out", str(out)]) == 0
        capsys.readouterr()
        payload = json_module.loads(out.read_text())
        assert CampaignResult.from_dict(payload).workloads_tested == 12
        assert payload["derived"]["workloads_tested"] == 12

    def test_progress_flag_reports_throughput_on_a_fresh_run(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        assert main(["campaign", "--durable", "--state-db", db, "--progress",
                     *self.CAMPAIGN]) == 0
        err = capsys.readouterr().err
        # The first session discovers the census as it streams, so it knows
        # rates but no totals (and hence no ETA) — like the bare engine.
        assert "chunk 1:" in err
        assert "workloads/s" in err
        assert "ETA" not in err

    def test_progress_totals_and_eta_once_the_census_is_stored(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        main(["submit", "--state-db", db, "--name", "prog", *self.CAMPAIGN])
        main(["serve", "--state-db", db, "--slice-chunks", "1", "--max-slices", "1"])
        capsys.readouterr()
        # The first slice drained the stream, so the stored census gives the
        # resume session chunk/workload totals and an ETA.
        assert main(["resume", "--state-db", db, "prog", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "chunk 2/3" in err
        assert "/12 workloads" in err
        assert "ETA" in err

    def test_submit_serve_status_results_flow(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        assert main(["submit", "--state-db", db, "--tenant", "alice",
                     *self.CAMPAIGN]) == 0
        captured = capsys.readouterr()
        campaign_id = captured.out.strip()
        assert campaign_id == "alice-c1"
        assert "queued" in captured.err

        assert main(["status", "--state-db", db]) == 0
        assert "alice-c1" in capsys.readouterr().out

        assert main(["serve", "--state-db", db, "--slice-chunks", "2"]) == 0
        captured = capsys.readouterr()
        assert "completed" in captured.err
        assert "served" in captured.out

        assert main(["status", "--state-db", db, campaign_id, "--usage"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "tenant usage" in out

        json_out = tmp_path / "r.json"
        assert main(["results", "--state-db", db, campaign_id,
                     "--json-out", str(json_out)]) == 0
        assert json_out.exists()

    def test_results_of_unfinished_campaign_fail(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        main(["submit", "--state-db", db, "--name", "pending", *self.CAMPAIGN])
        capsys.readouterr()
        assert main(["results", "--state-db", db, "pending"]) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_finishes_a_served_slice(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        main(["submit", "--state-db", db, "--name", "halfway", *self.CAMPAIGN])
        main(["serve", "--state-db", db, "--slice-chunks", "1", "--max-slices", "1"])
        capsys.readouterr()
        assert main(["resume", "--state-db", db, "halfway"]) == 0
        captured = capsys.readouterr()
        assert "1 already done" in captured.err
        assert "workloads" in captured.out
        assert main(["results", "--state-db", db, "halfway"]) == 0

    def test_status_of_empty_store(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        assert main(["status", "--state-db", db]) == 0
        assert "no campaigns" in capsys.readouterr().out
