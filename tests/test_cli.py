"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["coverage"], ["cancellation"], ["gains"],
                     ["latency"], ["fingerprint"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "gains"])
        assert args.seed == 7


class TestCommands:
    def test_cancellation_runs(self, capsys):
        assert main(["cancellation", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "dB total" in out

    def test_fingerprint_runs(self, capsys):
        assert main(["fingerprint", "--locations", "4",
                     "--packets", "5"]) == 0
        out = capsys.readouterr().out
        assert "false positives" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["coverage", "--scenario", "nonexistent"])

    def test_latency_prints_sweep(self, capsys):
        assert main(["latency", "--clients", "4",
                     "--latencies", "100", "500"]) == 0
        out = capsys.readouterr().out
        assert "median gain" in out
        assert "100 ns" in out and "500 ns" in out


class TestSweepCommand:
    def test_all_experiments_parse(self):
        parser = build_parser()
        for name in ("gains", "siso", "uplink", "scenarios", "latency",
                     "no-cnf", "cancellation", "faults", "coverage",
                     "link-health"):
            args = parser.parse_args(["sweep", name])
            assert callable(args.func)

    def test_sweep_gains_prints_engine_stats(self, capsys):
        assert main(["sweep", "gains", "--clients", "3", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine:" in out
        assert "backend=process jobs=2" in out

    def test_sweep_cache_stats_printed(self, capsys, tmp_path):
        argv = ["sweep", "gains", "--clients", "3",
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "0 hits" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 misses" in out and "100% hit rate" in out

    def test_sweep_checkpoint_written(self, capsys, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        assert main(["sweep", "coverage", "--spacing", "8",
                     "--cache", str(tmp_path / "cache"),
                     "--checkpoint", str(manifest)]) == 0
        assert manifest.exists()
        assert len(manifest.read_text().splitlines()) > 1


class TestReportCommand:
    def test_all_experiments_parse(self):
        parser = build_parser()
        for name in ("gains", "siso", "uplink", "scenarios", "latency",
                     "no-cnf", "cancellation", "faults", "coverage",
                     "link-health"):
            args = parser.parse_args(["report", name])
            assert callable(args.func)

    def test_shares_engine_flags_with_sweep(self):
        args = build_parser().parse_args(
            ["report", "gains", "--clients", "5", "--jobs", "2",
             "--backend", "process", "--cache", "c"])
        assert args.clients == 5 and args.jobs == 2
        assert args.backend == "process" and args.cache == "c"

    def test_export_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["report", "gains", "--jsonl", "run.jsonl",
             "--trace", "trace.json", "--csv"])
        assert args.jsonl == "run.jsonl"
        assert args.trace == "trace.json"
        assert args.csv

    def test_from_file_makes_experiment_optional(self):
        args = build_parser().parse_args(["report", "--from", "saved.jsonl"])
        assert args.experiment is None
        assert args.from_file == "saved.jsonl"

    def test_report_runs_and_prints_engine_summary(self, capsys):
        assert main(["report", "siso", "--clients", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "## Spans" in out
        assert "exec.shard" in out
        # Experiment output first, telemetry tables after.
        assert out.index("clients:") < out.index("## Spans")

    def test_link_health_prints_per_site_table(self, capsys):
        assert main(["sweep", "link-health", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "post-si-cancellation" in out
        assert "post-amplification" in out
        assert "ns CP" in out


class TestServeCommand:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert callable(args.func)
        assert args.sessions == 16 and args.tenants == 2
        assert not args.once

    def test_rejects_engine_flags(self, capsys):
        # serve runs no sweep, so it takes none of the engine flags.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--jobs", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_once_runs_and_reports_conservation(self, capsys):
        assert main(["serve", "--once", "--sessions", "4",
                     "--duration", "0.1", "--rate", "30"]) == 0
        out = capsys.readouterr().out
        assert "served 4/4 sessions" in out
        assert "conservation" in out
        assert "chain chain-0" in out

    def test_once_writes_status_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "status"
        assert main(["serve", "--once", "--sessions", "3",
                     "--duration", "0.1",
                     "--status-dir", str(out_dir)]) == 0
        assert (out_dir / "status.json").exists()
        assert (out_dir / "link_health.html").exists()
        assert "status.json" in capsys.readouterr().out

    def test_storm_flag_reports_jumps(self, capsys):
        assert main(["--seed", "17", "serve", "--once", "--sessions", "6",
                     "--duration", "0.2", "--rate", "60",
                     "--storm", "20"]) == 0
        out = capsys.readouterr().out
        assert "SI jumps" in out


class TestReportFromFile:
    def test_missing_file_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="cannot read --from file") as info:
            main(["report", "--from", str(tmp_path / "nope.jsonl")])
        assert "Traceback" not in str(info.value)

    def test_invalid_jsonl_errors_cleanly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not telemetry\n{xxx}\n")
        with pytest.raises(SystemExit,
                           match="not a valid telemetry JSONL"):
            main(["report", "--from", str(bad)])

    def test_from_roundtrip_renders_html(self, tmp_path, capsys):
        jsonl = tmp_path / "probes.jsonl"
        html = tmp_path / "report.html"
        assert main(["report", "link-health", "--clients", "2",
                     "--jobs", "2", "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        assert main(["report", "--from", str(jsonl),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert f"wrote link-health report to {html}" in out
        text = html.read_text(encoding="utf-8")
        for panel in ("panel-constellation", "panel-spectrum",
                      "panel-latency", "panel-evm"):
            assert f'id="{panel}"' in text
        assert "<script" not in text.lower()
