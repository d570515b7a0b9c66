"""Edge-case tests for T-Rochdf's threading and buffering behaviour."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import TRochdfModule, list_snapshot_files
from repro.roccom import AttributeSpec, LOC_ELEMENT, Roccom
from repro.vmpi import run_spmd


def setup_window(com, ctx, nblocks=2, cells=2000):
    w = com.new_window("W")
    w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
    rng = np.random.default_rng(ctx.rank)
    for i in range(nblocks):
        pid = ctx.rank * nblocks + i
        w.register_pane(pid, 0, cells)
        w.set_array("f", pid, rng.random(cells))
    return w


def launch(nprocs, main, seed=0):
    machine = Machine(make_testbox(), seed=seed)
    return run_spmd(machine, nprocs, main), machine


class TestTRochdfThreadLifecycle:
    def test_io_thread_exists_only_with_work(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx)
            busy = [mod._io.busy]
            yield from com.call_function("OUT.write_attribute", "W", None, "ol")
            busy.append(mod._io.busy)
            yield from com.call_function("OUT.sync")
            return busy + [mod._io.busy]

        result, _ = launch(1, main)
        assert result.returns == [[False, True, False]]

    def test_unload_shuts_thread_down(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            yield from com.call_function("OUT.sync")
            yield from com.unload_module("trochdf")
            return mod._io.busy

        result, _ = launch(1, main)
        assert result.returns == [False]

    def test_sync_time_accounted_separately(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx, nblocks=4)
            yield from com.call_function("OUT.write_attribute", "W", None, "st")
            yield from com.call_function("OUT.sync")
            return (mod.stats.visible_write_time, mod.stats.sync_time)

        result, _ = launch(1, main)
        visible, sync = result.returns[0]
        # Without intervening compute the sync bears the write cost.
        assert sync > visible

    def test_sync_with_nothing_pending_is_fast(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            yield from com.call_function("OUT.sync")
            yield from com.call_function("OUT.sync")
            return mod.stats.sync_time

        result, _ = launch(1, main)
        assert result.returns[0] == pytest.approx(0.0, abs=1e-9)

    def test_many_snapshots_in_sequence(self):
        def main(ctx):
            com = Roccom(ctx)
            com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx)
            for step in range(6):
                yield from com.call_function(
                    "OUT.write_attribute", "W", None, f"seq{step}"
                )
                yield from ctx.compute(0.5)
            yield from com.call_function("OUT.sync")

        _, machine = launch(2, main)
        for step in range(6):
            assert len(list_snapshot_files(machine.disk, f"seq{step}")) == 2

    def test_stats_blocks_counted_once_per_block(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx, nblocks=3)
            yield from com.call_function("OUT.write_attribute", "W", None, "bc")
            yield from com.call_function("OUT.sync")
            return mod.stats.blocks_written

        result, _ = launch(1, main)
        assert result.returns == [3]
