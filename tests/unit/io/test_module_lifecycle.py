"""Unload/reload lifecycle tests for the threaded I/O services.

Unload must never lose buffered data: T-Rochdf waits for its I/O thread
to run out of buffered snapshots, and the Rocpanda client (in
client-buffering mode) for its background sender — all before the
module's window is torn down.  A reload after unload must not leave a
second I/O thread running.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import (
    PandaServer,
    RocpandaModule,
    TRochdfModule,
    list_snapshot_files,
    rocpanda_init,
)
from repro.roccom import AttributeSpec, LOC_ELEMENT, Roccom
from repro.shdf import decode_file
from repro.vmpi import run_spmd


def setup_window(com, rank, nblocks=2, cells=2000, name="W"):
    w = com.new_window(name)
    w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
    rng = np.random.default_rng(rank)
    for i in range(nblocks):
        pid = rank * nblocks + i
        w.register_pane(pid, 0, cells)
        w.set_array("f", pid, rng.random(cells))
    return w


def launch(nprocs, main, seed=0):
    machine = Machine(make_testbox(), seed=seed)
    return run_spmd(machine, nprocs, main), machine


class TestTRochdfUnload:
    def test_unload_without_sync_flushes_buffered_snapshot(self):
        """A buffered-but-unsynced snapshot must survive unload."""

        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx.rank, nblocks=3)
            yield from com.call_function("OUT.write_attribute", "W", None, "ul")
            # No sync: the I/O thread still has the snapshot to write.
            assert mod._io.busy
            yield from com.unload_module("trochdf")
            assert not mod._io.busy and not mod._jobs

        _, machine = launch(1, main)
        files = list_snapshot_files(machine.disk, "ul")
        assert len(files) == 1
        image = decode_file(machine.disk.open(files[0]).read())
        assert len(image) > 0  # the data actually reached the disk

    def test_unload_joins_thread(self):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx.rank)
            yield from com.call_function("OUT.write_attribute", "W", None, "j")
            busy = [mod._io.busy]
            yield from com.unload_module("trochdf")
            return busy + [mod._io.busy]

        result, _ = launch(1, main)
        assert result.returns == [[True, False]]

    def test_unload_reload_cycle_no_duplicate_threads(self):
        """After unload + reload exactly one I/O thread is alive."""

        def main(ctx):
            com = Roccom(ctx)
            mod1 = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx.rank)
            yield from com.call_function("OUT.write_attribute", "W", None, "c0")
            yield from com.unload_module("trochdf")

            mod2 = com.load_module(TRochdfModule(ctx))
            yield from com.call_function("OUT.write_attribute", "W", None, "c1")
            alive = (mod1._io.busy, mod2._io.busy)
            yield from com.unload_module("trochdf")
            return alive

        result, machine = launch(1, main)
        assert result.returns == [(False, True)]
        # Both rounds' data landed.
        assert len(list_snapshot_files(machine.disk, "c0")) == 1
        assert len(list_snapshot_files(machine.disk, "c1")) == 1

    def test_reload_guard_while_thread_alive(self):
        """Popping the module without driving its unload leaves the old
        thread writing; a reload must refuse rather than fork a twin."""

        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(TRochdfModule(ctx))
            setup_window(com, ctx.rank)
            yield from com.call_function("OUT.write_attribute", "W", None, "g")
            com.unload_module("trochdf")  # generator never driven
            with pytest.raises(RuntimeError, match="still"):
                mod.load(com)
            # Clean up: drive the real teardown path.
            yield from mod.unload(com)

        launch(1, main)


class TestRocpandaClientUnload:
    def _run(self, body, nprocs=3, nservers=1, client_buffering=True):
        outcome = {}

        def main(ctx):
            topo = yield from rocpanda_init(ctx, nservers)
            if topo.is_server:
                stats = yield from PandaServer(ctx, topo).run()
                outcome["server"] = stats
                return
            com = Roccom(ctx)
            panda = com.load_module(
                RocpandaModule(ctx, topo, client_buffering=client_buffering)
            )
            setup_window(com, topo.comm.rank)
            yield from body(ctx, topo, com, panda)
            yield from panda.finalize()

        machine = Machine(make_testbox(), seed=0)
        run_spmd(machine, nprocs, main)
        return outcome

    def test_unload_drains_buffered_sends(self):
        """Blocks queued on the background sender reach the server even
        when the module is unloaded right after write_attribute."""

        def body(ctx, topo, com, panda):
            yield from com.call_function("OUT.write_attribute", "W", None, "pul")
            assert panda._sender.busy  # still shipping client-side
            yield from com.unload_module("rocpanda")
            assert not panda._sender.busy and not panda._sends

        outcome = self._run(body)
        # 2 clients x 2 blocks, none lost.
        assert outcome["server"].blocks_received == 4
        assert outcome["server"].blocks_written == 4

    def test_unload_reload_cycle(self):
        def body(ctx, topo, com, panda):
            yield from com.call_function("OUT.write_attribute", "W", None, "r0")
            yield from com.unload_module("rocpanda")
            assert not panda._sender.busy

            panda2 = com.load_module(
                RocpandaModule(ctx, topo, client_buffering=True)
            )
            yield from com.call_function("OUT.write_attribute", "W", None, "r1")
            assert panda2._sender.busy and not panda._sender.busy
            yield from com.unload_module("rocpanda")
            assert not panda2._sender.busy

        outcome = self._run(body)
        # Two snapshots of 2 blocks from each of the 2 clients.
        assert outcome["server"].blocks_received == 8

    def test_unbuffered_unload_is_eager_friendly(self):
        """Without client buffering unload has nothing to drain but the
        generator contract still holds."""

        def body(ctx, topo, com, panda):
            yield from com.call_function("OUT.write_attribute", "W", None, "nb")
            yield from com.call_function("OUT.sync")
            yield from com.unload_module("rocpanda")

        outcome = self._run(body, client_buffering=False)
        assert outcome["server"].blocks_received == 4
