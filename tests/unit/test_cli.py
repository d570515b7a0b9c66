"""Unit tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "fig3a", "fig3b", "ablations", "demo", "trace"):
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_trace_scenario_choices(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "rocpanda"])
        assert args.scenario == "rocpanda"
        assert parser.parse_args(["trace"]).scenario == "all"
        with pytest.raises(SystemExit):
            parser.parse_args(["trace", "nosuch"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["--quick", "--runs", "5", "--seed", "9", "--out", "/tmp/x", "demo"]
        )
        assert args.quick
        assert args.runs == 5
        assert args.seed == 9
        assert args.out == "/tmp/x"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_commands_and_faultbench_flags_are_exactly_these(self):
        """Host time is measured by benchmarks/e2e and scalebench only:
        no micro-benchmark command, and faultbench times nothing."""
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "table1", "fig3a", "fig3b", "ablations", "demo", "trace",
            "scalebench", "faultbench",
        }
        faultbench = sub.choices["faultbench"]
        flags = {o for a in faultbench._actions for o in a.option_strings}
        assert flags == {"-h", "--help", "--only"}
        with pytest.raises(SystemExit):
            parser.parse_args(["faultbench", "--quick"])


class TestDemoCommand:
    def test_quick_demo_runs_and_saves(self, tmp_path, capsys):
        rc = main(["--quick", "--out", str(tmp_path), "demo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rocpanda" in out
        assert "visible I/O" in out
        saved = os.path.join(str(tmp_path), "demo.txt")
        assert os.path.exists(saved)
        assert "rochdf" in open(saved).read()
        payload = json.load(open(os.path.join(str(tmp_path), "BENCH_demo.json")))
        assert set(payload["modes"]) == {"rochdf", "trochdf", "rocpanda"}
        for mode in payload["modes"]:
            assert payload["modes"][mode]["modules"][mode]["nrecords"] > 0


class TestTraceCommand:
    def test_trace_single_scenario(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "trace", "trochdf"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank 0:" in out
        assert "write_attribute" in out
        assert "Instrumentation summary" in out
        payload = json.load(open(os.path.join(str(tmp_path), "BENCH_trace.json")))
        trochdf = payload["scenarios"]["trochdf"]["modules"]["trochdf"]
        assert trochdf["overlap_ratio"] > 0.5
        assert payload["scenarios"]["trochdf"]["comm"]["messages_sent"] > 0
