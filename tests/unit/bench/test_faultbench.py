"""Unit tests for the faultbench harness (repro.bench.faults)."""

import inspect

import numpy as np
import pytest

from repro.bench import render_faults, run_faultbench, scenario_names
from repro.bench.faults import digest_blocks


class TestScenarioCatalog:
    def test_acceptance_rows_present(self):
        names = scenario_names()
        # The ISSUE acceptance matrix: single-server crash, transient
        # EIO and disk-full must be covered, across all three modules
        # where they apply.
        for required in (
            "server_crash/rocpanda",
            "transient_eio/rocpanda",
            "disk_full/rocpanda",
            "transient_eio/rochdf",
            "disk_full/rochdf",
            "transient_eio/trochdf",
            "disk_full/trochdf",
        ):
            assert required in names
        assert len(names) == len(set(names))

    def test_unknown_only_rejected(self):
        with pytest.raises(ValueError):
            run_faultbench(only=["no_such/row"])

    def test_matrix_is_all_it_runs(self):
        """Faultbench times nothing on the host: its only knobs pick the
        seed and the rows."""
        assert list(inspect.signature(run_faultbench).parameters) == [
            "seed",
            "only",
        ]


class TestDigest:
    def test_digest_is_order_independent(self):
        a = np.arange(6, dtype=np.float64)
        b = np.ones((2, 3))
        m1 = {1: {"x": a, "y": b}, 2: {"x": b}}
        m2 = {2: {"x": b.copy()}, 1: {"y": b.copy(), "x": a.copy()}}
        assert digest_blocks(m1) == digest_blocks(m2)

    def test_digest_sensitive_to_data(self):
        a = np.arange(6, dtype=np.float64)
        assert digest_blocks({1: {"x": a}}) != digest_blocks({1: {"x": a + 1}})
        assert digest_blocks({1: {"x": a}}) != digest_blocks({2: {"x": a}})


class TestSingleScenario:
    def test_transient_eio_rochdf_recovers(self):
        payload = run_faultbench(only=["transient_eio/rochdf"])
        assert payload["schema"] == "faultbench-v1"
        assert set(payload) == {
            "schema", "seed", "matrix", "recovery_rate", "determinism_rate",
        }
        (row,) = payload["matrix"]
        assert row["scenario"] == "transient_eio"
        assert row["module"] == "rochdf"
        assert row["recovered"] is True
        assert row["runs_identical"] is True
        assert row["digest"] == row["reference_digest"]
        assert row["counters"]["faults"]["eio_injected"] == 2
        assert payload["recovery_rate"] == 1.0
        assert payload["determinism_rate"] == 1.0

    def test_render_mentions_rows_and_rates(self):
        payload = run_faultbench(only=["transient_eio/trochdf"])
        text = render_faults(payload)
        assert "transient_eio" in text
        assert "trochdf" in text
        assert "recovery rate" in text
        assert "100.0%" in text
