"""Edge-case tests for the Rocpanda server's buffering machinery."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import (
    PandaServer,
    RocpandaModule,
    ServerConfig,
    datasets_to_blocks,
    rocpanda_init,
)
from repro.roccom import AttributeSpec, LOC_ELEMENT, Roccom
from repro.shdf import decode_file
from repro.vmpi import run_spmd


def panda_job(nprocs, nservers, body, config=None, seed=0):
    outcome = {}

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            stats = yield from PandaServer(ctx, topo, config).run()
            outcome["server"] = stats
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
        yield from body(ctx, topo, com, panda, w)
        yield from panda.finalize()

    machine = Machine(make_testbox(), seed=seed)
    run_spmd(machine, nprocs, main)
    return outcome, machine


def add_blocks(w, topo, ctx, nblocks=2, cells=3000):
    rng = np.random.default_rng(topo.comm.rank)
    for i in range(nblocks):
        pid = topo.comm.rank * nblocks + i
        w.register_pane(pid, 0, cells)
        w.set_array("f", pid, rng.random(cells))


class TestServerStats:
    def test_counters_balance(self):
        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx, nblocks=3)
            yield from com.call_function("OUT.write_attribute", "W", None, "s")
            yield from com.call_function("OUT.sync")

        outcome, _ = panda_job(3, 1, body)
        stats = outcome["server"]
        assert stats.blocks_received == 6  # 2 clients x 3 blocks
        assert stats.blocks_written == stats.blocks_received
        assert stats.bytes_received > 0
        assert stats.files_created == 1
        assert stats.peak_buffered_bytes > 0

    def test_background_write_time_tracked(self):
        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx)
            yield from com.call_function("OUT.write_attribute", "W", None, "bw")
            yield from ctx.compute(2.0)
            yield from com.call_function("OUT.sync")

        outcome, _ = panda_job(2, 1, body)
        assert outcome["server"].background_write_time > 0

    def test_no_output_means_clean_shutdown(self):
        def body(ctx, topo, com, panda, w):
            yield from ctx.compute(0.5)

        outcome, _ = panda_job(2, 1, body)
        stats = outcome["server"]
        assert stats.blocks_received == 0
        assert stats.files_created == 0


class TestSyncSemantics:
    def test_double_sync(self):
        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx)
            yield from com.call_function("OUT.write_attribute", "W", None, "d")
            yield from com.call_function("OUT.sync")
            yield from com.call_function("OUT.sync")  # second is a no-op wait
            assert panda.stats.sync_time >= 0

        panda_job(2, 1, body)

    def test_sync_without_prior_write(self):
        def body(ctx, topo, com, panda, w):
            yield from com.call_function("OUT.sync")

        panda_job(2, 1, body)


class TestBufferAccounting:
    def test_peak_bounded_by_config(self):
        """With a small buffer the peak usage stays near the cap (one
        oversized block may exceed it transiently)."""
        cells = 3000
        block_bytes = cells * 8 + 512
        config = ServerConfig(buffer_bytes=2 * block_bytes)

        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx, nblocks=4, cells=cells)
            yield from com.call_function("OUT.write_attribute", "W", None, "pk")
            yield from com.call_function("OUT.sync")

        outcome, _ = panda_job(2, 1, body, config=config)
        stats = outcome["server"]
        assert stats.overflow_flushes > 0
        assert stats.peak_buffered_bytes <= 3 * block_bytes

    def test_write_through_mode_has_zero_peak(self):
        config = ServerConfig(active_buffering=False)

        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx)
            yield from com.call_function("OUT.write_attribute", "W", None, "wt")
            yield from com.call_function("OUT.sync")

        outcome, machine = panda_job(2, 1, body, config=config)
        assert outcome["server"].peak_buffered_bytes == 0
        # Data still lands.
        image = decode_file(machine.disk.open("wt_s0000.shdf").read())
        assert len(image) == 2


class TestMultiSnapshotInterleave:
    def test_consecutive_snapshots_one_file_each(self):
        def body(ctx, topo, com, panda, w):
            add_blocks(w, topo, ctx)
            for step in range(3):
                yield from com.call_function(
                    "OUT.write_attribute", "W", None, f"ms{step}"
                )
            yield from com.call_function("OUT.sync")

        _, machine = panda_job(3, 1, body)
        for step in range(3):
            image = decode_file(machine.disk.open(f"ms{step}_s0000.shdf").read())
            blocks = datasets_to_blocks(list(image))
            assert len(blocks) == 4  # 2 clients x 2 blocks
