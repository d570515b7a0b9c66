"""Unit tests for the ``python -m repro`` command-line interface."""

import argparse
import dataclasses
import json
import os

import pytest

from repro.__main__ import build_parser, main
from repro.bench import ARTEFACTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("paper", "demo", "trace"):
            args = parser.parse_args([cmd])
            assert callable(args.func)
        assert parser.parse_args(["paper"]).names == []
        args = parser.parse_args(["paper", "table1", "fig3b"])
        assert args.names == ["table1", "fig3b"]

    def test_trace_scenario_choices(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "rocpanda"])
        assert args.scenario == "rocpanda"
        assert parser.parse_args(["trace"]).scenario == "all"
        with pytest.raises(SystemExit):
            parser.parse_args(["trace", "nosuch"])

    def test_flags(self):
        args = build_parser().parse_args(
            ["--quick", "--seed", "9", "--out", "/tmp/x", "demo"]
        )
        assert args.quick
        assert args.seed == 9
        assert args.out == "/tmp/x"
        # Run count and size belong to each artefact's definition.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--runs", "5", "demo"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["paper", "fig99"])

    def test_commands_and_paper_flags_are_exactly_these(self):
        """Host time is measured by benchmarks/e2e and the paper sweeps
        only: no micro-benchmark command.  One command runs the paper's
        artefacts, the scaling curves and the chaos matrix among them,
        by their registry names."""
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {"paper", "demo", "trace"}
        (names,) = [
            a for a in sub.choices["paper"]._actions if a.dest == "names"
        ]
        assert list(names.choices) == list(ARTEFACTS)
        paper = sub.choices["paper"]
        flags = {o for a in paper._actions for o in a.option_strings}
        assert flags == {"-h", "--help", "--baseline", "--max-regression"}
        assert "faults" in names.choices
        with pytest.raises(SystemExit):
            parser.parse_args(["faultbench"])


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


class TestPaperCommand:
    def test_regenerates_the_committed_file(self, tmp_path, capsys):
        """The drift check CI runs for every artefact, on the fastest."""
        rc = main(["--out", str(tmp_path), "paper", "ablation_a6_load_balancing"])
        assert rc == 0
        name = "ablation_a6_load_balancing.txt"
        committed = os.path.join(os.path.dirname(__file__), "..", "..", "bench_results", name)
        with open(tmp_path / name) as new, open(committed) as old:
            assert new.read() == old.read()


    def test_a_broken_shape_fails_naming_the_artefact_and_the_assertion(
        self, monkeypatch, capsys
    ):
        """A6 with the balanced partition slower than the static one: the
        table is still printed, and ``paper`` exits 1 naming A6's check."""
        name = "ablation_a6_load_balancing"
        broken = dataclasses.replace(ARTEFACTS[name], run=lambda: {"static": 1.0, "balanced": 2.0})
        monkeypatch.setitem(ARTEFACTS, name, broken)
        with pytest.raises(SystemExit) as exit_:
            main(["paper", name])
        assert exit_.value.code == 1
        out, err = capsys.readouterr()
        assert "A6 — dynamic load balancing" in out
        assert f'SHAPE FAILED: {name}: assert result["balanced"] < result["static"]' in err

    def test_baseline_gate_holds_cells_exact(self, tmp_path, capsys):
        """``--baseline`` compares each sweep with a committed grid: host
        columns against the floor, every cell exactly, old -> new."""
        argv = ["--quick", "--out", str(tmp_path), "paper", "ablation_a1_active_buffering"]
        assert main(argv) == 0
        with open(tmp_path / "BENCH_paper.json") as fh:
            grids = json.load(fh)
        for point in grids["ablation_a1_active_buffering"]["points"]:
            # A far slower baseline: every host ratio clears the floor.
            point["host"] = {"host_wall_s": 1e6, "events_per_sec": 1e-6, "host_mb_per_s": 1e-6}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(grids))
        assert main([*argv, "--baseline", str(baseline)]) == 0
        assert "buffered host_wall_s" in capsys.readouterr().out
        point = grids["ablation_a1_active_buffering"]["points"][0]
        old = point["cells"]["visible_io"]
        point["cells"]["visible_io"] = 2 * old
        baseline.write_text(json.dumps(grids))
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--baseline", str(baseline)])
        assert exit_.value.code == 1
        assert f"buffered visible_io: {2 * old} -> {old}" in capsys.readouterr().err


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
