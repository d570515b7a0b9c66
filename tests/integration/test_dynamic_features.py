"""Integration tests: load balancing + mesh adaptation under live I/O.

The paper's §4.1 flexibility claims, exercised end-to-end:

* "the mesh blocks can expand or shrink over time ... and the
  simulation developers need not to redefine the data distribution for
  I/O";
* "it allows dynamic load-balancing, where data blocks may be migrated
  among processors, without affecting how I/O is done".
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.genx.rocman import Rocman
from repro.rocketeer import SnapshotSeries, load_snapshot


def workload(steps=16, interval=8):
    return lab_scale_motor(
        scale=0.02, nblocks_fluid=16, nblocks_solid=8,
        steps=steps, snapshot_interval=interval,
    )


def make_machine(seed=0, disk=None):
    return Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=seed, disk=disk)


class TestAdaptationWithIO:
    @pytest.mark.parametrize("io_mode,nprocs,nservers", [
        ("rochdf", 4, 0),
        ("rocpanda", 5, 1),
    ])
    def test_snapshots_track_changing_block_sizes(self, io_mode, nprocs, nservers):
        config = GENxConfig(
            workload=workload(), io_mode=io_mode, nservers=nservers,
            prefix="am", adapt_mesh=True, adapt_interval=4,
        )
        result = run_genx(make_machine(), nprocs, config)
        disk = result.machine.disk
        first = load_snapshot(disk, "am", 0)
        last = load_snapshot(disk, "am", 16)
        solid_first = sum(b.nelems for b in first.window("rocfrac").values())
        solid_last = sum(b.nelems for b in last.window("rocfrac").values())
        fluid_first = sum(b.nelems for b in first.window("rocflo").values())
        fluid_last = sum(b.nelems for b in last.window("rocflo").values())
        # Propellant consumed, chamber grown — visible purely from files.
        assert solid_last < solid_first
        assert fluid_last > fluid_first
        # Block count itself unchanged: blocks resize, not split.
        assert len(last.window("rocfrac")) == len(first.window("rocfrac"))

    def test_restart_from_adapted_state(self):
        config = GENxConfig(
            workload=workload(), io_mode="rochdf", prefix="am2",
            adapt_mesh=True, adapt_interval=4,
        )
        first = run_genx(make_machine(seed=1), 4, config)
        # Restart run reads the adapted (resized) checkpoint.
        restart = run_genx(
            make_machine(seed=2, disk=first.machine.disk),
            4,
            GENxConfig(
                workload=workload(), io_mode="rochdf", prefix="am3",
                restart_step=16, restart_prefix="am2", steps=0,
            ),
        )
        assert restart.restart_time > 0
        a = load_snapshot(first.machine.disk, "am2", 16)
        b = load_snapshot(first.machine.disk, "am3", 0)
        for bid, block in a.window("rocfrac").items():
            other = b.window("rocfrac")[bid]
            assert other.nelems == block.nelems
            np.testing.assert_array_equal(
                block.arrays["stress"], other.arrays["stress"]
            )

    def test_a_restarted_adapted_mesh_is_charged_its_restored_size(self, monkeypatch):
        """Restarted from an adapted checkpoint, each module counts the
        cells it restored, not the ones its block specs were generated
        with: its blocks are the restored panes' arrays, and the compute
        it charges per step follows."""
        first = run_genx(make_machine(seed=1), 4, GENxConfig(
            workload=workload(), io_mode="rochdf", prefix="am2",
            adapt_mesh=True, adapt_interval=4,
        ))
        seen = {}
        restore = Rocman.restore

        def restore_and_look(self, step, run_prefix=None):
            elapsed = yield from restore(self, step, run_prefix)
            for module in self.physics:
                window = self.com.window(module.window_name)
                cells = sum(pane.nelems for pane in window.panes())
                assert module.total_cells == cells, module
                assert module.nominal_step_cost() == module.cost_per_cell * cells
                assert [b.block_id for b in module.blocks] == window.pane_ids()
                for block in module.blocks:
                    assert block.coords is window.get_array("coords", block.block_id)
                    assert block.conn is window.get_array("conn", block.block_id)
                seen[self.ctx.rank, module.window_name] = (
                    cells, sum(s.nelems for s in module._specs)
                )
            return elapsed

        monkeypatch.setattr(Rocman, "restore", restore_and_look)
        run_genx(make_machine(seed=2, disk=first.machine.disk), 4, GENxConfig(
            workload=workload(), io_mode="rochdf", prefix="am3",
            restart_step=16, restart_prefix="am2", steps=2,
        ))
        assert len(seen) == 4 * 3
        # The adaptation grew the fluid and shrank the solid since the
        # specs were generated.
        assert all(cells > generated for (_, w), (cells, generated) in seen.items()
                   if w == "Rocflo")
        assert all(cells < generated for (_, w), (cells, generated) in seen.items()
                   if w == "Rocfrac")


class TestLoadBalancingWithIO:
    def test_migration_does_not_affect_io(self):
        """Every block appears in every snapshot exactly once, no matter
        where it currently lives (§4.1)."""
        config = GENxConfig(
            workload=workload(), io_mode="rocpanda", nservers=1,
            prefix="lb", load_balance=True, lb_interval=4, lb_threshold=1.001,
        )
        result = run_genx(make_machine(seed=3), 5, config)
        series = SnapshotSeries(result.machine.disk, "lb")
        expected_ids = set(load_snapshot(result.machine.disk, "lb", 0)
                           .window("rocflo"))
        for step in series.steps:
            snap = series.at(step)
            assert set(snap.window("rocflo")) == expected_ids

    def test_simulation_state_continuous_across_migration(self):
        """Pressure evolution stays smooth even when blocks move."""
        config = GENxConfig(
            workload=workload(steps=20, interval=5),
            io_mode="rochdf", prefix="lb2",
            load_balance=True, lb_interval=3, lb_threshold=1.001,
        )
        result = run_genx(make_machine(seed=4), 4, config)
        series = SnapshotSeries(result.machine.disk, "lb2")
        means = [v for _, v in series.time_series("rocflo", "pressure")]
        # No wild jumps: consecutive snapshot means stay within 10%.
        for a, b in zip(means, means[1:]):
            assert abs(b - a) / abs(a) < 0.10

    def test_both_features_together(self):
        config = GENxConfig(
            workload=workload(), io_mode="rocpanda", nservers=1,
            prefix="both", adapt_mesh=True, adapt_interval=4,
            load_balance=True, lb_interval=8, lb_threshold=1.001,
        )
        result = run_genx(make_machine(seed=5), 5, config)
        assert all(c.rocman.snapshots == 3 for c in result.clients)
        last = load_snapshot(result.machine.disk, "both", 16)
        assert last.nblocks == 16 + 8 + 16  # fluid + solid + burn
