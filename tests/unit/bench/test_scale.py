"""Unit tests for the scaling benchmark harness (PR 7 tentpole)."""

import pytest

from repro.bench.scale import (
    DRAIN_TERMS,
    QUICK_POINTS,
    STRONG_POINTS,
    attach_scale_speedups,
    bench_scale_point,
    check_scale_regressions,
    render_scale,
    server_drain,
)
from repro.cluster import Machine, turing
from repro.genx import GENxConfig, run_genx
from repro.genx.workloads import lab_scale_motor


def tiny_workload():
    return lab_scale_motor(
        scale=0.002, nblocks_fluid=16, nblocks_solid=8,
        steps=4, snapshot_interval=2,
    )


def make_point(curve_n, host_wall):
    return {
        "nclients": curve_n,
        "nservers": max(1, curve_n // 8),
        "nranks": curve_n + max(1, curve_n // 8),
        "host_wall_s": host_wall,
        "virtual_wall_s": 10.0,
        "computation_s": 2.0,
        "visible_io_s": 0.1,
        "events_processed": 1000,
        "events_per_sec": 1000 / host_wall,
        "max_queue_depth": 40,
        "payload_bytes": 2**20,
        "host_mb_per_s": 1 / host_wall,
    }


def make_payload(points, host_walls, quick=False):
    return {
        "schema": "scalebench-v1",
        "quick": quick,
        "points": list(points),
        "strong": [make_point(n, w) for n, w in zip(points, host_walls)],
        "weak": [make_point(n, w) for n, w in zip(points, host_walls)],
    }


class TestBenchScalePoint:
    def test_reports_both_clocks(self):
        point = bench_scale_point(tiny_workload(), 8, prefix="ts")
        assert point["nclients"] == 8
        assert point["nservers"] == 1
        assert point["nranks"] == 9
        assert point["host_wall_s"] > 0
        assert point["virtual_wall_s"] > 0
        assert point["computation_s"] > 0
        assert point["events_processed"] > 0
        assert point["events_per_sec"] > 0
        assert point["max_queue_depth"] >= 0
        # Byte-path unit: array bytes the servers landed / host wall.
        assert point["payload_bytes"] > 0
        assert point["host_mb_per_s"] > 0
        again = bench_scale_point(tiny_workload(), 8, prefix="ts")
        assert again["payload_bytes"] == point["payload_bytes"]
        # Virtual count, exact per seed: the filesystem transfers made.
        assert again["fs_write_ops"] == point["fs_write_ops"] > 0

    def test_sweep_points(self):
        assert STRONG_POINTS == (64, 128, 256, 512, 1024)
        assert QUICK_POINTS == (128,)

    def test_drain_terms_sum_to_the_slowest_servers_records(self):
        point = bench_scale_point(tiny_workload(), 8, prefix="ts")
        assert list(point["drain"]) == [f"{term}_s" for term in DRAIN_TERMS]
        config = GENxConfig(
            workload=tiny_workload(), io_mode="rocpanda", nservers=2, prefix="td"
        )
        result = run_genx(Machine(turing(), seed=100), 10, config)
        drain = server_drain(result)
        # The slowest server never queues for the slot here; the other does.
        assert drain["slot_wait_s"] == 0.0
        assert all(value > 0 for term, value in drain.items() if term != "slot_wait_s")
        assert [s.stats.slot_wait_time > 0 for s in result.servers] == [True, False]
        # Every second of a server's drain is in exactly one hidden
        # record of its lander.
        drains = [
            sum(
                r.duration
                for r in result.recorder.io_records
                if r.rank == s.rank and r.module == "rocpanda"
                and r.op in ("bg_write", "land", "settle", "slot_wait")
            )
            for s in result.servers
        ]
        assert sum(drain.values()) == pytest.approx(max(drains), rel=0.01)
        hdf = run_genx(
            Machine(turing(), seed=100), 4,
            GENxConfig(workload=tiny_workload(), io_mode="rochdf", prefix="th"),
        )
        assert set(server_drain(hdf).values()) == {0.0}


class TestSpeedupAttachment:
    def test_speedups_attach_per_point(self):
        baseline = make_payload([64, 128], [10.0, 20.0])
        payload = make_payload([64, 128], [5.0, 40.0])
        attach_scale_speedups(payload, baseline)
        speedups = payload["speedup_vs_baseline"]
        assert speedups["strong_64"] == 2.0
        assert speedups["strong_128"] == 0.5
        assert speedups["weak_64"] == 2.0
        assert payload["baseline"] is baseline

    def test_host_rates_attach_and_gate(self):
        baseline = make_payload([64], [10.0])
        payload = make_payload([64], [40.0])
        attach_scale_speedups(payload, baseline)
        speedups = payload["speedup_vs_baseline"]
        assert speedups["weak_64_events_per_sec"] == 0.25
        assert speedups["weak_64_host_mb_per_s"] == 0.25
        assert ("weak_64_host_mb_per_s", 0.25) in check_scale_regressions(
            payload, threshold=0.5
        )

    def test_baseline_without_mb_per_s_is_not_compared(self):
        baseline = make_payload([64], [10.0])
        for point in baseline["strong"] + baseline["weak"]:
            del point["host_mb_per_s"]
        payload = make_payload([64], [5.0])
        attach_scale_speedups(payload, baseline)
        speedups = payload["speedup_vs_baseline"]
        assert "weak_64_host_mb_per_s" not in speedups
        assert speedups["weak_64_events_per_sec"] == 2.0

    def test_mismatched_points_drop_comparison(self):
        baseline = make_payload([64, 128], [10.0, 20.0])
        payload = make_payload([128], [5.0], quick=True)
        attach_scale_speedups(payload, baseline)
        assert "speedup_vs_baseline" not in payload

    def test_none_baseline_is_noop(self):
        payload = make_payload([64], [5.0])
        attach_scale_speedups(payload, None)
        assert "speedup_vs_baseline" not in payload

    def test_missing_point_in_baseline_skipped(self):
        baseline = make_payload([64, 128], [10.0, 20.0])
        baseline["strong"] = baseline["strong"][:1]  # drop 128 from strong
        payload = make_payload([64, 128], [5.0, 10.0])
        attach_scale_speedups(payload, baseline)
        speedups = payload["speedup_vs_baseline"]
        assert "strong_128" not in speedups
        assert speedups["weak_128"] == 2.0


class TestRegressionGate:
    def test_no_regressions_when_faster(self):
        payload = make_payload([64], [5.0])
        payload["speedup_vs_baseline"] = {"strong_64": 1.4, "weak_64": 1.1}
        assert check_scale_regressions(payload) == []

    def test_gate_floor_arithmetic(self):
        payload = make_payload([64], [5.0])
        payload["speedup_vs_baseline"] = {"strong_64": 0.76, "weak_64": 0.74}
        assert check_scale_regressions(payload, threshold=0.25) == [
            ("weak_64", 0.74)
        ]

    def test_no_baseline_means_no_findings(self):
        assert check_scale_regressions(make_payload([64], [5.0])) == []


class TestRender:
    def test_render_lists_every_point(self):
        payload = make_payload([64, 128], [1.0, 2.0])
        payload["speedup_vs_baseline"] = {"strong_64": 1.2}
        text = render_scale(payload)
        assert "strong" in text and "weak" in text
        assert "64" in text and "128" in text
        assert "1.2" in text
        assert "host MB/s" in text
