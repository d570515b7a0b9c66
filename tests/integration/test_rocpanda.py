"""Integration tests: the full Rocpanda client/server protocol."""

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
    server_file_path,
    server_ranks,
)
from repro.roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, Roccom
from repro.shdf import decode_file
from repro.vmpi import run_spmd


def setup_window(com, topo, ctx, nblocks=2, seed_base=7, nnodes=1200):
    """Register `nblocks` panes per client, globally unique block ids.

    Default block size (~30 KB of coords) is above the eager threshold,
    so block sends use the rendezvous protocol like real GENx blocks.
    """
    w = com.new_window("Fluid")
    w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
    w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT))
    client_rank = topo.comm.rank
    rng = np.random.default_rng(seed_base + client_rank)
    for i in range(nblocks):
        pane_id = client_rank * nblocks + i
        nn, ne = nnodes + i, nnodes // 2 + i
        w.register_pane(pane_id, nn, ne)
        w.set_array("coords", pane_id, rng.random((nn, 3)))
        w.set_array("pressure", pane_id, rng.random(ne))
    return w


def panda_main(nservers, body, server_config=None):
    """Build an SPMD main that splits into servers and clients."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            server = PandaServer(ctx, topo, server_config)
            stats = yield from server.run()
            return ("server", stats)
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        result = yield from body(ctx, topo, com, panda)
        yield from panda.finalize()
        return ("client", result)

    return main


def file_blocks(machine, path):
    """The data blocks one server file restores to."""
    return datasets_to_blocks(list(decode_file(machine.disk.open(path).read())))


def launch(nprocs, main, disk=None, seed=0):
    machine = Machine(
        make_testbox(nnodes=8, cpus_per_node=4), seed=seed, disk=disk
    )
    return run_spmd(machine, nprocs, main), machine


class TestTopology:
    def test_server_ranks_stride(self):
        assert server_ranks(18, 2) == [0, 9]
        assert server_ranks(8, 2) == [0, 4]

    def test_server_ranks_invalid(self):
        with pytest.raises(ValueError):
            server_ranks(4, 0)
        with pytest.raises(ValueError):
            server_ranks(4, 5)
        with pytest.raises(ValueError, match="nclients >= nservers"):
            server_ranks(4, 4)

    def test_init_splits_world(self):
        def body(ctx, topo, com, panda):
            yield from ctx.sleep(0)
            return (ctx.rank, topo.comm.size, topo.my_server)

        result, _ = launch(8, panda_main(2, body))
        clients = [r[1] for r in result.returns if r[0] == "client"]
        servers = [r for r in result.returns if r[0] == "server"]
        assert len(servers) == 2
        assert len(clients) == 6
        # Client communicator has exactly the 6 client ranks.
        assert all(size == 6 for _, size, _ in clients)
        # Clients 1-3 -> server 0; clients 5-7 -> server 4.
        my_servers = {r: s for r, _, s in clients}
        assert my_servers == {1: 0, 2: 0, 3: 0, 5: 4, 6: 4, 7: 4}


class TestCollectiveWrite:
    def test_write_creates_one_file_per_server(self):
        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "snap")
            yield from com.call_function("OUT.sync")
            return panda.stats

        result, machine = launch(8, panda_main(2, body))
        files = sorted(p for p in machine.disk.listdir("snap"))
        assert files == [server_file_path("snap", 0), server_file_path("snap", 1)]

    def test_file_reduction_factor(self):
        """8:1 client:server ratio => 8x fewer files than Rochdf (§7.1)."""

        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "fr")
            yield from com.call_function("OUT.sync")

        result, machine = launch(9, panda_main(1, body))  # 8 clients, 1 server
        assert len(machine.disk.listdir("fr")) == 1

    def test_all_blocks_land_in_files(self):
        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx, nblocks=3)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "all")
            yield from com.call_function("OUT.sync")

        result, machine = launch(8, panda_main(2, body))
        arrays = [
            (block.block_id, attr)
            for path in machine.disk.listdir("all")
            for block in file_blocks(machine, path)
            for attr in block.arrays
        ]
        # 6 clients x 3 blocks x 2 arrays = 36 arrays, each once.
        assert len(arrays) == len(set(arrays)) == 36
        assert {block_id for block_id, _attr in arrays} == set(range(18))

    def test_server_file_attrs_preserved(self):
        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx)
            yield from com.call_function(
                "OUT.write_attribute", "Fluid", None, "fa",
                file_attrs={"time_step": 50, "sim_time": 0.83},
            )
            yield from com.call_function("OUT.sync")

        _, machine = launch(4, panda_main(1, body))
        image = decode_file(machine.disk.open(server_file_path("fa", 0)).read())
        assert image.attrs["time_step"] == 50
        assert image.attrs["sim_time"] == pytest.approx(0.83)

    def test_active_buffering_hides_write_cost(self):
        """Visible time (buffered) << visible time (write-through)."""

        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx, nblocks=6)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ab")
            visible = panda.stats.visible_write_time
            yield from com.call_function("OUT.sync")
            return visible

        buffered, _ = launch(
            8, panda_main(2, body, ServerConfig(active_buffering=True))
        )
        through, _ = launch(
            8, panda_main(2, body, ServerConfig(active_buffering=False))
        )
        vis_buf = max(r[1] for r in buffered.returns if r[0] == "client")
        vis_thr = max(r[1] for r in through.returns if r[0] == "client")
        assert vis_buf < vis_thr

    def test_buffer_overflow_flushes_gracefully(self):
        """Tiny server buffer: data still lands correctly (A4)."""
        config = ServerConfig(buffer_bytes=2048)  # smaller than one block

        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx, nblocks=4)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ovf")
            yield from com.call_function("OUT.sync")

        result, machine = launch(4, panda_main(1, body, config))
        server_stats = next(r[1] for r in result.returns if r[0] == "server")
        assert server_stats.overflow_flushes > 0
        blocks = file_blocks(machine, server_file_path("ovf", 0))
        # 3 clients x 4 blocks x 2 arrays
        assert sum(len(block.arrays) for block in blocks) == 24

    def test_multi_window_back_to_back_outputs(self):
        """Different modules issue back-to-back output requests (§6.1)."""

        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx)
            w2 = com.new_window("Solid")
            w2.declare_attribute(AttributeSpec("disp", LOC_NODE, ncomp=3))
            pid = 1000 + topo.comm.rank
            w2.register_pane(pid, 5, 0)
            w2.set_array("disp", pid, np.full((5, 3), float(pid)))
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "mw_f")
            yield from com.call_function("OUT.write_attribute", "Solid", None, "mw_s")
            yield from com.call_function("OUT.sync")

        _, machine = launch(8, panda_main(2, body))
        assert len(machine.disk.listdir("mw_f")) == 2
        assert len(machine.disk.listdir("mw_s")) == 2


class TestRestart:
    def _write_checkpoint(self, nprocs, nservers, nblocks=2, disk=None):
        saved = {}

        def body(ctx, topo, com, panda):
            w = setup_window(com, topo, ctx, nblocks=nblocks)
            for pid in w.pane_ids():
                saved[pid] = w.get_array("coords", pid).copy()
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
            yield from com.call_function("OUT.sync")

        _, machine = launch(nprocs, panda_main(nservers, body), disk=disk)
        return machine, saved

    def _restart(self, nprocs, nservers, wanted_of, disk):
        restored = {}

        def body(ctx, topo, com, panda):
            w = com.new_window("Fluid")
            for pid in wanted_of(topo.comm.rank):
                w.register_pane(pid, 0, 0)
            ids = yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
            for pid in ids:
                restored[pid] = w.get_array("coords", pid)
            return ids

        result, _ = launch(nprocs, panda_main(nservers, body), disk=disk)
        return result, restored

    def test_same_config_roundtrip(self):
        machine, saved = self._write_checkpoint(8, 2)
        nblocks = 2

        def wanted(client_rank):
            return range(client_rank * nblocks, client_rank * nblocks + nblocks)

        result, restored = self._restart(8, 2, wanted, machine.disk)
        assert set(restored) == set(saved)
        for pid in saved:
            np.testing.assert_array_equal(restored[pid], saved[pid])

    def test_restart_with_different_server_count(self):
        """§4.1: restart with a different number of servers than wrote."""
        machine, saved = self._write_checkpoint(8, 2)  # 6 clients, 2 servers

        # Restart on 6 procs with 3 servers => 3 clients, 12 blocks.
        def wanted(client_rank):
            return range(client_rank * 4, client_rank * 4 + 4)

        result, restored = self._restart(6, 3, wanted, machine.disk)
        assert set(restored) == set(saved)
        for pid in saved:
            np.testing.assert_array_equal(restored[pid], saved[pid])

    def test_restart_blocks_redistributed(self):
        """Blocks may land on different clients than wrote them."""
        machine, saved = self._write_checkpoint(8, 2)

        # Reverse assignment: client 0 gets the last blocks.
        def wanted(client_rank):
            nclients = 6
            return range((5 - client_rank) * 2, (5 - client_rank) * 2 + 2)

        result, restored = self._restart(8, 2, wanted, machine.disk)
        assert set(restored) == set(saved)

    def test_restart_time_reported(self):
        machine, _ = self._write_checkpoint(8, 2)

        def body(ctx, topo, com, panda):
            w = com.new_window("Fluid")
            for pid in range(topo.comm.rank * 2, topo.comm.rank * 2 + 2):
                w.register_pane(pid, 0, 0)
            yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
            return panda.stats.visible_read_time

        result, _ = launch(8, panda_main(2, body), disk=machine.disk)
        read_times = [r[1] for r in result.returns if r[0] == "client"]
        assert all(t > 0 for t in read_times)


class TestSyncSemantics:
    def test_sync_waits_for_background_writes(self):
        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx, nblocks=6)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "sy")
            t_after_write = ctx.now
            yield from com.call_function("OUT.sync")
            t_after_sync = ctx.now
            return (t_after_write, t_after_sync)

        result, machine = launch(8, panda_main(2, body))
        client_times = [r[1] for r in result.returns if r[0] == "client"]
        # Sync must strictly follow the buffered return.
        assert all(ts >= tw for tw, ts in client_times)
        # The file must be complete at sync time: decode and count.
        for path in machine.disk.listdir("sy"):
            blocks = file_blocks(machine, path)
            # clients x blocks x arrays
            assert sum(len(block.arrays) for block in blocks) == 3 * 6 * 2

    def test_compute_overlaps_with_server_writes(self):
        """Total time with overlap < write time + compute time serially."""

        def body(ctx, topo, com, panda):
            setup_window(com, topo, ctx, nblocks=6)
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ov")
            yield from ctx.compute(1.0)
            yield from com.call_function("OUT.sync")
            return panda.stats

        result, _ = launch(8, panda_main(2, body))
        stats = [r[1] for r in result.returns if r[0] == "client"]
        # Visible write time must be far below 1s (the compute time),
        # and sync should find the writes already done (overlapped).
        assert max(s.visible_write_time for s in stats) < 0.5
        assert max(s.sync_time for s in stats) < 0.5
