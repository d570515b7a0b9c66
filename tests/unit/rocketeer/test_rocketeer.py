"""Unit tests for the Rocketeer post-processing package."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.rocketeer import (
    SnapshotSeries,
    discover_snapshots,
    load_snapshot,
    render_profile,
    sparkline,
    summary_report,
)


@pytest.fixture(scope="module")
def run_disks():
    """One Rochdf run and one Rocpanda run over the same workload."""
    wl = lab_scale_motor(
        scale=0.02, nblocks_fluid=12, nblocks_solid=6, steps=10,
        snapshot_interval=5,
    )
    disks = {}
    for mode, nprocs, nservers in (("rochdf", 3, 0), ("rocpanda", 4, 1)):
        result = run_genx(
            Machine(make_testbox(), seed=1),
            nprocs,
            GENxConfig(workload=wl, io_mode=mode, nservers=nservers, prefix="rk"),
        )
        disks[mode] = result.machine.disk
    return disks


class TestDiscovery:
    def test_steps_found(self, run_disks):
        assert discover_snapshots(run_disks["rochdf"], "rk") == [0, 5, 10]
        assert discover_snapshots(run_disks["rocpanda"], "rk") == [0, 5, 10]

    def test_unknown_run_empty(self, run_disks):
        assert discover_snapshots(run_disks["rochdf"], "nope") == []


class TestLoadSnapshot:
    @pytest.mark.parametrize("mode", ["rochdf", "rocpanda"])
    def test_both_layouts_reassemble_identically(self, run_disks, mode):
        snap = load_snapshot(run_disks[mode], "rk", 0)
        assert set(snap.windows) == {"rocflo", "rocfrac", "rocburn"}
        assert len(snap.window("rocflo")) == 12
        assert len(snap.window("rocfrac")) == 6
        assert snap.attrs["time_step"] == 0

    def test_layouts_agree_on_content(self, run_disks):
        a = load_snapshot(run_disks["rochdf"], "rk", 10)
        b = load_snapshot(run_disks["rocpanda"], "rk", 10)
        for bid, block in a.window("rocflo").items():
            other = b.window("rocflo")[bid]
            np.testing.assert_array_equal(
                block.arrays["pressure"], other.arrays["pressure"]
            )

    def test_missing_snapshot_raises(self, run_disks):
        with pytest.raises(FileNotFoundError):
            load_snapshot(run_disks["rochdf"], "rk", 999)

    def test_field_values_and_stats(self, run_disks):
        snap = load_snapshot(run_disks["rochdf"], "rk", 0)
        values = snap.field_values("rocflo", "pressure")
        stats = snap.field_stats("rocflo", "pressure")
        assert values.size == stats["count"]
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_unknown_window_or_field(self, run_disks):
        snap = load_snapshot(run_disks["rochdf"], "rk", 0)
        with pytest.raises(KeyError):
            snap.window("rocwarp")
        with pytest.raises(KeyError):
            snap.field_values("rocflo", "entropy")


class TestSeries:
    def test_series_navigation(self, run_disks):
        series = SnapshotSeries(run_disks["rochdf"], "rk")
        assert len(series) == 3
        assert series.first().step == 0
        assert series.last().step == 10
        with pytest.raises(KeyError):
            series.at(7)

    def test_series_unknown_run(self, run_disks):
        with pytest.raises(FileNotFoundError):
            SnapshotSeries(run_disks["rochdf"], "ghost")

    def test_time_series_monotone_burn(self, run_disks):
        series = SnapshotSeries(run_disks["rochdf"], "rk")
        trend = series.time_series("rocburn", "burn_distance")
        values = [v for _, v in trend]
        assert values == sorted(values)  # burning only accumulates
        assert values[-1] > values[0]

    def test_cache_returns_same_object(self, run_disks):
        series = SnapshotSeries(run_disks["rochdf"], "rk")
        assert series.at(0) is series.at(0)


class TestRendering:
    def test_sparkline_shapes(self):
        assert len(sparkline([1, 2, 3])) == 3
        assert sparkline([5, 5, 5]) == "▄▄▄"
        assert sparkline([float("nan"), 1.0])[0] == " "
        line = sparkline([0, 10])
        assert line[0] < line[1]

    def test_render_profile(self, run_disks):
        snap = load_snapshot(run_disks["rochdf"], "rk", 0)
        line = render_profile(snap, "rocflo", "pressure")
        assert "rocflo.pressure" in line
        assert "|" in line

    def test_summary_report(self, run_disks):
        series = SnapshotSeries(run_disks["rochdf"], "rk")
        report = summary_report(
            series,
            {"rocflo": ["pressure"], "rocburn": ["burn_distance"]},
        )
        assert "rocflo.pressure" in report
        assert "rocburn.burn_distance" in report
        assert "3 snapshots" in report


def test_snapshot_pattern_reads_every_server_file_name():
    """Rocketeer's file pattern accepts every name ``server_file_path``
    builds — a failover generation's too — and the individual-mode one."""
    from repro.io.rocpanda import server_file_path
    from repro.rocketeer.reader import _SNAPSHOT_RE

    for index, gen in ((0, 0), (3, 0), (1, 1), (12, 3)):
        name = server_file_path("run_000010_rocflo", index, gen)
        m = _SNAPSHOT_RE.match(name)
        assert m, name
        assert (m.group("run"), m.group("step"), m.group("window")) == (
            "run", "000010", "rocflo",
        )
    assert server_file_path("p", 1, 2) == "p_s0001g2.shdf"
    assert _SNAPSHOT_RE.match("run_000010_rocflo_p00003.shdf")
