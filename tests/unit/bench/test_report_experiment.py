"""Unit tests for the bench harness: rendering and run policies."""

import pytest

from repro.bench import render_series, render_table
from repro.bench.sweep import sizing, summarize


class TestRenderTable:
    def test_alignment_and_headers(self):
        out = render_table(
            ["metric", "16p", "32p"],
            [["compute", 846.64, 393.05], ["io", 51.58, 83.28]],
        )
        lines = out.splitlines()
        assert lines[0].startswith("metric")
        assert "846.6" in out
        assert "-+-" in lines[1]
        # All rows equally wide.
        assert len({len(l) for l in (lines[0], lines[2], lines[3])}) == 1

    def test_title_included(self):
        out = render_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_none_rendered_as_dash(self):
        out = render_table(["a"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_float_formatting(self):
        out = render_table(["x"], [[0.000123], [12.5], [1234.5]])
        assert "0.000123" in out
        assert "12.50" in out
        assert "1234.5" in out

    def test_empty_rows(self):
        out = render_table(["col"], [])
        assert "col" in out


class TestRenderSeries:
    def test_series_columns(self):
        out = render_series(
            "procs", [1, 2], {"tp": [10.0, 20.0], "err": [0.1, 0.2]}
        )
        assert "procs" in out
        assert "tp" in out
        lines = out.splitlines()
        assert lines[2].startswith("1")
        assert "20.00" in lines[3]


class TestEnvKnobs:
    """One function reads the two knobs; ``--quick`` maps onto the pair."""

    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_RUNS", raising=False)
        assert sizing() == (1.0, None)
        assert sizing(quick=True) == (0.25, 1)

    def test_bench_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert sizing()[0] == 0.25

    def test_bench_runs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RUNS", "7")
        assert sizing()[1] == 7


class TestRepeatAndSummarize:
    def test_summarize_best(self):
        samples = [{"t": 5.0}, {"t": 3.0}, {"t": 4.0}]
        out = summarize(samples, "best")
        assert out["t"].value == 3.0

    def test_summarize_mean_ci(self):
        samples = [{"t": 1.0}, {"t": 3.0}]
        out = summarize(samples, "mean_ci")
        assert out["t"].value == 2.0
        assert out["t"].halfwidth > 0

    def test_summarize_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            summarize([{"t": 1.0}], "median")
        with pytest.raises(ValueError):
            summarize([], "best")
