"""Tests for the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.workloads import EXPERIMENTS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_quick_experiment(self, capsys, tmp_path):
        assert main(["run", "SAMPLE-ACC", "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "SAMPLE-ACC" in out
        assert list(tmp_path.glob("sample-acc-*.md"))

    def test_describe(self, capsys):
        assert main(["describe", "LB-DET", "T1-SCALING"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 6" in out
        assert "Theorem 1" in out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "NOPE"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_epilog_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("list", "describe", "run", "run-all", "sweep"):
            assert command in out


class TestSweepCommand:
    _grid = [
        "sweep", "--name", "cli-test", "--family", "complete", "--n", "32",
        "--algorithm", "trivial", "--seeds", "3",
    ]

    def test_smoke_and_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        assert main([*self._grid, "--workers", "1", "--out", str(out_file)]) == 0
        assert "cli-test" in capsys.readouterr().out
        assert len(out_file.read_text().splitlines()) == 3

    def test_workers_do_not_change_output(self, capsys, tmp_path):
        serial_out = tmp_path / "serial.jsonl"
        fanned_out = tmp_path / "fanned.jsonl"
        assert main([*self._grid, "--workers", "1", "--out", str(serial_out)]) == 0
        assert main([*self._grid, "--workers", "2", "--out", str(fanned_out)]) == 0
        assert serial_out.read_bytes() == fanned_out.read_bytes()

    def test_cache_dir_resume(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = [*self._grid, "--workers", "1", "--cache-dir", str(cache)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "3 served from cache" in capsys.readouterr().out

    def test_bad_spec_rejected(self, capsys):
        assert main(["sweep", "--family", "nope"]) == 2
        assert "bad sweep spec" in capsys.readouterr().err

    def test_run_time_failure_is_a_clean_error(self, capsys, refusing_family):
        # A valid spec whose trials fail: the family's generator refuses
        # every instance.  The run-time failure must not escape as a
        # traceback.
        args = [
            "sweep", "--family", refusing_family, "--n", "21", "--delta", "9",
            "--algorithm", "trivial",
            "--preset", "testing", "--seeds", "3", "--workers", "1",
        ]
        assert main(args) == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_stream_mode_prints_summary(self, capsys):
        assert main([*self._grid, "--workers", "2", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "streaming: peak" in out

    def test_stream_rejects_out_file(self, capsys, tmp_path):
        args = [*self._grid, "--stream", "--out", str(tmp_path / "x.jsonl")]
        assert main(args) == 2
        assert "--stream" in capsys.readouterr().err

    def test_removed_no_fabric_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self._grid, "--workers", "1", "--no-fabric"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-fabric" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lockstep", "--no-lockstep"])
    def test_removed_lockstep_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*self._grid, "--workers", "1", flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestReportCommand:
    def test_report_streams_a_summary(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        assert main([
            "sweep", "--name", "report-test", "--family", "complete", "--n", "32",
            "--algorithm", "trivial", "--seeds", "3", "--workers", "1",
            "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "RECORDS records.jsonl" in out
        assert "trivial" in out
        assert "3 records in 1 group(s)" in out

    @pytest.mark.parametrize("source", ["jsonl", "warehouse"])
    def test_report_keeps_scenarios_apart(self, capsys, tmp_path, source):
        """One row per scenario, as the sweep table prints them."""
        export, cache = tmp_path / "records.jsonl", tmp_path / "cache"
        assert main([
            "sweep", "--name", "two-worlds", "--family", "er-min-degree",
            "--n", "60", "--algorithm", "random-walk", "--scenario", "none",
            "--scenario", "edge-churn", "--seeds", "4", "--workers", "1",
            "--out", str(export), "--cache-dir", str(cache), "--warehouse",
        ]) == 0
        sweep_rows = capsys.readouterr().out.splitlines()[3:5]
        (warehouse,) = cache.glob("*.wh")
        assert main(["report", str(export if source == "jsonl" else warehouse)]) == 0
        out = capsys.readouterr().out
        assert "8 records in 2 group(s)" in out
        report_rows = out.splitlines()[3:5]
        # (scenario, met, mean, median): sweep columns 5-8, report columns 4-7.
        assert [row.split()[4:] for row in report_rows] == [
            row.split()[5:] for row in sweep_rows
        ]
        assert [row.split()[4] for row in report_rows] == ["none", "edge-churn"]

    def test_report_missing_file(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_malformed_file_is_a_clean_error(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text('{"not": "a record"}\nnot json at all\n')
        assert main(["report", str(garbage)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def _export(self, tmp_path):
        out_file = tmp_path / "records.jsonl"
        assert main([
            "sweep", "--name", "report-test", "--family", "complete", "--n", "32",
            "--algorithm", "trivial", "--seeds", "3", "--workers", "1",
            "--out", str(out_file),
        ]) == 0
        return out_file

    def test_report_line_nested_too_deep_is_a_bad_line(self, capsys, tmp_path):
        # Valid JSON the decoder cannot descend into raised RecursionError.
        export = self._export(tmp_path)
        lines = export.read_text().splitlines(keepends=True)
        deep = "[" * 100_000 + "]" * 100_000 + "\n"
        capsys.readouterr()
        export.write_text("".join(lines) + deep)  # the final line: skipped
        with pytest.warns(UserWarning, match="truncated final line"):
            assert main(["report", str(export)]) == 0
        assert "3 records in 1 group(s)" in capsys.readouterr().out
        export.write_text(lines[0] + deep + "".join(lines[1:]))  # mid-file
        assert main(["report", str(export)]) == 2
        err = capsys.readouterr().err
        assert "is not a JSON-lines record export" in err and "too deep" in err

    def test_report_rounds_beyond_int64_is_a_clean_error(self, capsys, tmp_path):
        export = self._export(tmp_path)
        record = json.loads(export.read_text().splitlines()[0])
        assert record["met"]
        record["rounds"] = 99999999999999999999
        export.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        assert main(["report", str(export)]) == 2
        assert "is not a JSON-lines record export" in capsys.readouterr().err


class TestProfileSetupFlag:
    def test_profile_setup_prints_breakdown(self, capsys):
        assert main([
            "sweep", "--name", "profile-test", "--family", "complete",
            "--n", "32", "--algorithm", "trivial", "--seeds", "2",
            "--workers", "1", "--profile-setup",
        ]) == 0
        out = capsys.readouterr().out
        assert "SETUP PROFILE profile-test" in out
        for column in ("generate", "label", "compile", "export", "trial"):
            assert column in out

    def test_no_profile_by_default(self, capsys):
        assert main([
            "sweep", "--name", "plain", "--family", "complete", "--n", "32",
            "--algorithm", "trivial", "--seeds", "2", "--workers", "1",
        ]) == 0
        assert "SETUP PROFILE" not in capsys.readouterr().out


class TestWarehouseCli:
    _grid = [
        "sweep", "--name", "wh-test", "--family", "complete", "--n", "32",
        "--algorithm", "trivial", "--seeds", "3", "--workers", "1",
    ]

    def _warehouse_dir(self, cache_dir):
        dirs = [p for p in cache_dir.iterdir() if p.suffix == ".wh"]
        assert len(dirs) == 1
        return dirs[0]

    def test_sweep_warehouse_requires_cache_dir(self, capsys):
        assert main([*self._grid, "--warehouse"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_sweep_warehouse_then_report(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main([*self._grid, "--cache-dir", str(cache), "--warehouse"]) == 0
        capsys.readouterr()
        warehouse = self._warehouse_dir(cache)
        assert main(["report", str(warehouse)]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out
        assert "3 records in 1 group(s)" in out

    def test_warehouse_report_matches_jsonl_report(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        out_file = tmp_path / "records.jsonl"
        assert main([
            *self._grid, "--cache-dir", str(cache), "--warehouse",
        ]) == 0
        assert main([*self._grid, "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_file)]) == 0
        jsonl_out = capsys.readouterr().out
        assert main(["report", str(self._warehouse_dir(cache))]) == 0
        warehouse_out = capsys.readouterr().out
        # Same table modulo the title line, which names the source.
        strip = lambda text: text.splitlines()[1:]
        assert strip(jsonl_out) == strip(warehouse_out)

    def test_sweep_warehouse_resume(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = [*self._grid, "--cache-dir", str(cache), "--warehouse"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "3 served from cache" in capsys.readouterr().out

    def test_report_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        assert main(["report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "empty" in err

    def test_report_non_warehouse_dir(self, capsys, tmp_path):
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "manifest.json" in err

    def test_manifest_nested_too_deep_is_a_typed_error(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main([*self._grid, "--cache-dir", str(cache), "--warehouse"]) == 0
        manifest = self._warehouse_dir(cache) / "manifest.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        capsys.readouterr()
        assert main(["report", str(manifest.parent)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "unreadable manifest" in err

    def test_malformed_warehouse_is_a_typed_error(self, capsys, tmp_path):
        # A dictionary column without its value list must end in a typed
        # error, not a KeyError traceback, in report and resume alike.
        cache = tmp_path / "cache"
        args = [*self._grid, "--cache-dir", str(cache), "--warehouse"]
        assert main(args) == 0
        manifest = self._warehouse_dir(cache) / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["dict_columns"]["algorithm"]["values"]
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(manifest.parent)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "malformed manifest" in err
        assert main(args) == 1
        assert "sweep failed:" in capsys.readouterr().err
