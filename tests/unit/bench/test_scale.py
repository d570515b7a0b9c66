"""The scaling curves: two sweeps of the paper registry, their host
columns and the one comparison against a committed baseline grid."""

import json

import pytest

from repro.bench import ARTEFACTS, Grid, Row, Sweep, compare
from repro.bench.sweep import (
    QUICK_CLIENTS, SCALING_CLIENTS, SCALING_COLUMNS, SCALING_METRICS, SCALING_STRONG,
    SCALING_WEAK,
)
from repro.cluster import Machine, turing
from repro.genx import GENxConfig, run_genx
from repro.genx.workloads import lab_scale_motor
from repro.io.rocpanda.server import DRAIN_TERMS, server_drain
from repro.util.stats import Summary


def tiny_workload():
    return lab_scale_motor(
        scale=0.002, nblocks_fluid=16, nblocks_solid=8,
        steps=4, snapshot_interval=2,
    )


def make_grid(xs, host_walls, virtual_wall=10.0):
    """A grid with one virtual cell and the three host columns per point;
    its ``payload()`` is a baseline."""
    return Grid(
        list(xs),
        {"virtual_wall_s": {x: Summary(virtual_wall, 0.0, 1) for x in xs}},
        {
            x: {"host_wall_s": w, "events_per_sec": 1000 / w, "host_mb_per_s": 1 / w}
            for x, w in zip(xs, host_walls)
        },
    )


def tiny_scaling_grid():
    sweep = Sweep(
        preset=turing, workload=lambda _scale: tiny_workload(),
        rows=[Row(8, "rocpanda", 8, SCALING_METRICS, servers=1)],
        runs=1, seed=100, policy="best", prefix="ts",
    )
    return sweep()


class TestBenchScalePoint:
    def test_reports_both_clocks(self):
        grid = tiny_scaling_grid()
        cells = grid.rows()[8]
        assert set(cells) == set(SCALING_COLUMNS)
        assert cells["virtual_wall_s"] > 0
        assert cells["computation_s"] > 0
        assert cells["events"] > 0
        assert cells["max_queue_depth"] >= 0
        assert cells["payload_bytes"] > 0
        assert cells["peak_write_demand"] == 1
        # Host columns sit apart from the cells, per point.
        host = grid.host[8]
        assert host["host_wall_s"] > 0
        assert host["events_per_sec"] > 0
        # Byte-path unit: array bytes written / host wall.
        assert host["host_mb_per_s"] > 0
        # Every cell is virtual: exact per seed, the transfers included.
        again = tiny_scaling_grid()
        assert again.rows() == grid.rows()
        assert again.value("fs_write_ops", 8) == cells["fs_write_ops"] > 0

    def test_sweep_points(self):
        assert SCALING_CLIENTS == (64, 128, 256, 512, 1024)
        assert QUICK_CLIENTS == (128,)
        for sweep, prefix in ((SCALING_STRONG, "sstrong"), (SCALING_WEAK, "sweak")):
            assert sweep.seed == 100 and sweep.runs == 1
            full = sweep.rows(sweep, 1.0)
            assert [r.x for r in full] == list(SCALING_CLIENTS)
            assert [r.servers for r in full] == [n // 8 for n in SCALING_CLIENTS]
            assert [r.config["prefix"] for r in full] == [
                f"{prefix}_{n}" for n in SCALING_CLIENTS
            ]
            # Quick: the 128-client point alone, its workload at full size.
            assert [r.x for r in sweep.rows(sweep, 0.25)] == [128]
            small, big = sweep.workload(0.25), sweep.workload(1.0)
            assert small.blocks_for(128) == big.blocks_for(128)
            assert small.steps == big.steps
            assert sweep.preset().total_cpus() >= 1024 + 128

    def test_drain_terms_sum_to_the_slowest_servers_records(self):
        grid = tiny_scaling_grid()
        assert [m for m in grid.cells if m.endswith("_s") and m[:-2] in DRAIN_TERMS] == [
            f"{term}_s" for term in DRAIN_TERMS
        ]
        config = GENxConfig(
            workload=tiny_workload(), io_mode="rocpanda", nservers=2, prefix="td"
        )
        result = run_genx(Machine(turing(), seed=100), 10, config)
        drain = server_drain(s.stats for s in result.servers)
        # The slowest server never queues for the slot here; the other does.
        assert drain["slot_wait_s"] == 0.0
        assert all(value > 0 for term, value in drain.items() if term != "slot_wait_s")
        assert [s.stats.seconds.get("slot_wait", 0.0) > 0 for s in result.servers] == [
            True, False
        ]
        # Every second of a server's drain is in exactly one hidden
        # record of its lander.
        drains = [
            sum(
                r.duration
                for r in result.recorder.io_records
                if r.rank == s.rank and r.module == "rocpanda"
                and r.op in DRAIN_TERMS.values()
            )
            for s in result.servers
        ]
        assert sum(drain.values()) == pytest.approx(max(drains), rel=0.01)
        hdf = run_genx(
            Machine(turing(), seed=100), 4,
            GENxConfig(workload=tiny_workload(), io_mode="rochdf", prefix="th"),
        )
        assert set(server_drain(s.stats for s in hdf.servers).values()) == {0.0}


class TestSpeedupAttachment:
    def test_speedups_attach_per_point(self):
        ratios, failures = compare(
            make_grid([64, 128], [5.0, 40.0]), make_grid([64, 128], [10.0, 20.0]).payload()
        )
        assert ratios["64 host_wall_s"] == 2.0
        assert ratios["128 host_wall_s"] == 0.5
        assert ratios["64 events_per_sec"] == 2.0
        assert failures == ["128 host_wall_s at 0.5x baseline (floor 0.75x)",
                            "128 events_per_sec at 0.5x baseline (floor 0.75x)",
                            "128 host_mb_per_s at 0.5x baseline (floor 0.75x)"]

    def test_host_rates_attach_and_gate(self):
        ratios, failures = compare(
            make_grid([64], [40.0]), make_grid([64], [10.0]).payload(), max_regression=0.5
        )
        assert ratios["64 events_per_sec"] == 0.25
        assert ratios["64 host_mb_per_s"] == 0.25
        assert "64 host_mb_per_s at 0.25x baseline (floor 0.50x)" in failures

    def test_baseline_without_mb_per_s_is_not_compared(self):
        baseline = make_grid([64], [10.0]).payload()
        del baseline["points"][0]["host"]["host_mb_per_s"]
        ratios, _failures = compare(make_grid([64], [5.0]), baseline)
        assert "64 host_mb_per_s" not in ratios
        assert ratios["64 events_per_sec"] == 2.0

    def test_mismatched_points_drop_comparison(self):
        # A quick grid against the full baseline: not even the moved cell counts.
        quick = make_grid([128], [5.0], virtual_wall=3.0)
        assert compare(quick, make_grid([64, 128], [10.0, 20.0]).payload()) == ({}, [])

    def test_none_baseline_is_noop(self):
        assert compare(make_grid([64], [5.0], virtual_wall=3.0), None) == ({}, [])

    def test_missing_point_in_baseline_skipped(self):
        baseline = make_grid([64, 128], [10.0, 20.0]).payload()
        baseline["points"][1].update(cells={}, host={})
        grid = make_grid([64, 128], [5.0, 10.0], virtual_wall=3.0)
        ratios, failures = compare(grid, baseline)
        assert "128 host_wall_s" not in ratios
        assert ratios["64 host_wall_s"] == 2.0
        assert failures == ["64 virtual_wall_s: 10.0 -> 3.0"]


class TestRegressionGate:
    def test_no_regressions_when_faster(self):
        ratios, failures = compare(make_grid([64], [5.0]), make_grid([64], [7.0]).payload())
        assert ratios["64 host_wall_s"] == 1.4
        assert failures == []

    def test_gate_floor_arithmetic(self):
        # host wall 0.76x: above a 0.75 floor; 0.74x: below it.
        _ratios, kept = compare(make_grid([64], [1.0]), make_grid([64], [0.76]).payload())
        assert kept == []
        _ratios, failed = compare(make_grid([64], [1.0]), make_grid([64], [0.74]).payload())
        assert "64 host_wall_s at 0.74x baseline (floor 0.75x)" in failed

    def test_no_baseline_means_no_findings(self):
        """A grid against its own JSON: the same cells, the same host
        columns — nothing to report."""
        grid = tiny_scaling_grid()
        ratios, failures = compare(grid, json.loads(json.dumps(grid.payload())))
        assert failures == [] and set(ratios.values()) == {1.0}

    def test_a_moved_cell_is_reported_old_to_new(self):
        baseline = make_grid([64, 128], [1.0, 1.0]).payload()
        baseline["points"][1]["cells"]["virtual_wall_s"] = 1.808971
        _ratios, failures = compare(make_grid([64, 128], [1.0, 1.0]), baseline)
        assert failures == ["128 virtual_wall_s: 1.808971 -> 10.0"]


class TestRender:
    def test_render_lists_every_point(self):
        xs = [64, 128]
        cells = {
            m: {x: Summary(0.5 if m.endswith("_s") else 7, 0.0, 1) for x in xs}
            for m in SCALING_COLUMNS
        }
        grid = Grid(xs, cells, {x: {"host_wall_s": 1.25} for x in xs})
        text = ARTEFACTS["scaling_strong"].text(grid)
        lines = text.splitlines()
        assert len(lines) == 3 + len(xs)
        assert "virt wall (s)" in text and "fs writes" in text and "payload (B)" in text
        assert [c.strip() for c in lines[3].split("|")][:4] == ["64", "72", "0.500000", "0.500000"]
        # Only the deterministic columns: no host time in the file.
        assert "host" not in text and "1.25" not in text
