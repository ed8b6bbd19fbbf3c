"""Tests for the command-line interface (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_paper_scale_flag_parsed(self):
        args = build_parser().parse_args(["fig6", "--paper-scale"])
        assert args.paper_scale is True

    def test_design_defaults(self):
        args = build_parser().parse_args(["design"])
        assert args.grid == 4
        assert "qv" in args.applications

    def test_calibration_defaults(self):
        args = build_parser().parse_args(["calibration"])
        assert args.gate_types == 4
        assert args.horizon == pytest.approx(168.0)


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "ok" in output and "FAILED" not in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "G7" in output and "FullfSim" in output

    def test_fig11a(self, capsys):
        assert main(["fig11a"]) == 0
        output = capsys.readouterr().out
        assert "Figure 11a" in output
        assert "1000q" in output

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        output = capsys.readouterr().out
        for name in ("qv", "qaoa", "fh", "qft", "adder"):
            assert name in output

    def test_calibration(self, capsys):
        code = main([
            "calibration", "--gate-types", "2", "--edges", "3", "--horizon", "48",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "periodic" in output and "never" in output

    def test_design_small(self, capsys):
        code = main([
            "design", "--grid", "3", "--unitaries", "1", "--max-types", "2",
            "--max-layers", "3", "--applications", "qaoa", "swap",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "knee of the curve" in output


class TestSimulatorCommands:
    def test_simulators_listing(self, capsys):
        assert main(["simulators"]) == 0
        output = capsys.readouterr().out
        for name in ("density-matrix", "trajectory", "estimator", "auto"):
            assert name in output

    def test_simulators_listing_reports_active_kernel(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert main(["simulators"]) == 0
        assert "active kernel: fused" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        assert main(["simulators"]) == 0
        assert "active kernel: reference" in capsys.readouterr().out

    def test_backend_flag_accepted(self):
        args = build_parser().parse_args(["fig10", "--backend", "trajectory"])
        assert args.backend == "trajectory"

    def test_backend_unknown_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig10", "--backend", "no-such-backend"])

    def test_cache_stats_surfaces_in_process_caches(self, capsys, monkeypatch):
        # No disk cache configured: the in-process section (including the
        # previously invisible ideal-distribution cache) still renders.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 0
        output = capsys.readouterr().out
        assert "no disk compilation/simulation cache configured" in output
        assert "ideal distributions" in output
        assert "simulation results (memory)" in output
        assert "noise programs" in output
        assert "autotuner verdicts" in output
        # Every in-process cache reports its LRU bound alongside counters.
        assert "max_entries" in output

    def test_cache_stats_reports_batched_replay(self, capsys, monkeypatch):
        from repro.simulators.superop import reset_batched_replay_stats

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_batched_replay_stats()
        assert main(["cache", "stats"]) == 0
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        ]
        assert [row[1:] for row in rows if row[0] == "batched replay"] == [
            ["batched_passes", "0"],
            ["batched_items", "0"],
        ]

    def test_cache_stats_with_cache_dir_reports_sim_counters(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cc")]) == 0
        output = capsys.readouterr().out
        assert "sim_hits" in output and "sim_writes" in output
        assert "ideal distributions" in output


class TestPipelineFlags:
    def test_pipeline_auto_accepted(self):
        args = build_parser().parse_args(["fig10", "--pipeline", "auto"])
        assert args.pipeline == "auto"

    def test_pipeline_unknown_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig10", "--pipeline", "no-such-pipeline"])

    def test_pipelines_stats_view(self, capsys):
        assert main(["pipelines", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "Per-pass rewrite statistics" in output
        # Every registered pipeline gets a per-pass table...
        for name in ("default", "optimized", "fused", "euler-zxz"):
            assert f"pipeline: {name}" in output
        for pass_name in ("layout", "routing", "nuop", "merge-1q"):
            assert pass_name in output
        # ...and the autotuner's verdict closes the report.
        assert "auto picks:" in output


class TestCheckCommand:
    def test_defaults_select_all_prongs(self):
        args = build_parser().parse_args(["check"])
        assert args.source is False and args.circuits is False
        assert args.scales == (1.0, 2.0, 3.0)
        assert args.qubits == 2

    def test_source_prong_clean(self, capsys):
        assert main(["check", "--source"]) == 0
        output = capsys.readouterr().out
        assert "[source] clean" in output
        assert "all prongs clean" in output

    def test_source_prong_json(self, capsys):
        import json

        assert main(["check", "--source", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["findings"] == 0
        assert report["prongs"] == {"source": []}

    def test_dirty_tree_sets_exit_code(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(
            'import os\nVALUE = os.environ.get("X")\n', encoding="utf-8"
        )
        assert main(["check", "--source", "--root", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "env-policy" in output
        assert "1 finding(s)" in output

    def test_restricted_circuit_sweep(self, capsys):
        code = main([
            "check", "--circuits", "--device", "sycamore", "--sets", "S1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "[circuits] clean" in output

    def test_restricted_program_sweep(self, capsys):
        code = main([
            "check", "--programs", "--device", "aspen-8", "--sets", "S2",
            "--scales", "1.0", "--qubits", "2",
        ])
        assert code == 0
        assert "[programs] clean" in capsys.readouterr().out

    def test_unknown_set_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--circuits", "--device", "sycamore", "--sets", "NoSuchSet"])
