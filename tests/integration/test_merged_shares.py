"""Latency-bound Rocpanda shares ride one writer (``repro.io.rocpanda.merge``).

On Turing every server queues on the one NFS write slot, so a server
whose clients announce fewer bytes of a path than the network moves in
one write's latency (1.5 ms x 110 MiB/s = 173 015 B) ships them to the
path's writer instead of landing a file of its own.  A share just above
that line lands exactly as it did before shares merged; servers with a
disk each never merge; and a merged file restores bit-identically
whatever number of servers restarts it.
"""

import numpy as np
import pytest

from repro.cluster import Machine, turing
from repro.faults import RetryPolicy
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.io import PandaServer, RocpandaModule, rocpanda_init
from repro.io.base import _BLOCK_WIRE_OVERHEAD
from repro.roccom import Roccom
from repro.rocketeer import load_snapshot
from repro.shdf import hdf4_driver, scan_file
from tests.integration.test_faults import (
    EAGER_NODES, NBLOCKS, _declare, _launch, _registered, _restart_main, _write_main,
)
from tests.restored import by_path, restored

#: Turing's latency-bound line, in announced bytes.
THRESHOLD = 1.5e-3 * 110 * 2**20


def _share(nodes: int, nclients: int = 3) -> int:
    """Bytes one server of :func:`_write_main` announces per snapshot."""
    return sum(
        (nodes + i) * 3 * 8 + (nodes // 2 + i) * 8 + 2 * _BLOCK_WIRE_OVERHEAD
        for _client in range(nclients)
        for i in range(NBLOCKS)
    )


def _stats(result, kind):
    return [s for k, s in result.returns if k == kind]


def test_the_line_is_the_write_latency_times_the_network_bandwidth():
    machine = Machine(turing(), seed=0)
    assert machine.fs.write_latency * machine.spec.network.inter_bw == THRESHOLD


def test_a_share_just_above_the_line_never_joins():
    """668 nodes a block: each server announces 173 232 B, 0.13 % above
    the line.  Files, writes and virtual times are pinned (wall and sync
    last moved, 0.0769 -> 0.0718 and 0.107 -> 0.076, when the lander began
    staging the queue itself; visible write and files did not): no share
    joins.  Two nodes fewer a block (172 728 B) and server 0 joins server
    4's file."""
    assert THRESHOLD < _share(668) < 1.002 * THRESHOLD
    result, machine = _launch(8, _write_main(2, nodes=668), spec=turing())
    servers, clients = _stats(result, "server"), _stats(result, "client")
    assert [(s.joined_shares, s.merged_shares, s.forwarded_bytes) for s in servers] == [
        (0, 0, 0), (0, 0, 0),
    ]
    assert (
        result.wall_time,
        machine.fs.metrics.write_ops,
        machine.disk.listdir(""),
        sum(c.visible_write_time for c in clients),
        sum(c.sync_time for c in clients),
    ) == (
        0.07179015432728494, 2, ["ck_s0000.shdf", "ck_s0001.shdf"],
        0.03644740836010051, 0.07619829248724674,
    )
    assert _share(666) < THRESHOLD
    below, machine = _launch(8, _write_main(2, nodes=666), spec=turing())
    servers = _stats(below, "server")
    assert [(s.joined_shares, s.merged_shares) for s in servers] == [(1, 0), (0, 1)]
    assert machine.disk.listdir("") == ["ck_s0001.shdf"]
    assert servers[0].forwarded_bytes > _share(666)  # blocks plus envelopes
    # The writer seals its own share while the joined one is on the
    # wire, and lands the joined one with the commit footer.
    assert machine.fs.metrics.write_ops == 2


def test_servers_with_a_disk_each_never_join():
    """The test box gives every node its own disk and write lease:
    servers 0 and 4 sit on nodes 0 and 1, so nothing merges."""
    result, machine = _launch(8, _write_main(2, nodes=100))
    assert _share(100) < 0.3e-3 * 120 * 2**20  # latency-bound there too
    assert machine.fs.write_lease(0) is not machine.fs.write_lease(1)
    assert all(s.joined_shares == s.merged_shares == 0 for s in _stats(result, "server"))
    assert machine.disk.listdir("") == ["ck_s0000.shdf", "ck_s0001.shdf"]


def _restores_what_was_registered(machine, path, ranks, nodes):
    """Every block of ``path`` on ``machine``'s disk is, array for array,
    what client ``comm_rank`` in ``ranks`` registered — all of them."""
    (blocks,) = [b for p, b in by_path(restored(machine.disk, path)).items() if p == path]
    expected = {
        pid: arrays for rank in ranks for pid, arrays in _registered(rank, nodes(rank)).items()
    }
    assert sorted(blocks) == sorted(expected)
    for pid, (coords, pressure) in expected.items():
        arrays = blocks[pid][2]
        assert arrays["coords"][3] == coords.tobytes()
        assert arrays["pressure"][3] == pressure.tobytes()


def test_a_writer_does_not_wait_for_a_peer_that_lands_its_own_share():
    """A mixed window.  Server 4's clients ship 34 KB blocks (a
    byte-bound share of ~300 KB), servers 0 and 8 9 KB ones: 0 joins 8,
    the path's writer, and 4 lands its own file.  The writer's own share
    is latency-bound, so it retires the path only once every peer has
    had its say — 0's Join, 4's "local" answer to its poll — but it does
    not wait for 4's share to land, and nobody asks for a sync twice."""

    def nodes(comm_rank):
        return 1200 if comm_rank in (3, 4, 5) else EAGER_NODES

    result, machine = _launch(12, _write_main(3, nodes=nodes), spec=turing())
    servers = _stats(result, "server")
    assert [(s.joined_shares, s.merged_shares) for s in servers] == [(1, 0), (0, 0), (0, 1)]
    assert machine.disk.listdir("") == ["ck_s0001.shdf", "ck_s0002.shdf"]
    records = [r for r in result.recorder.io_records if r.rank == 8]
    staged = max(r.t_end for r in records if r.op in ("merge", "bg_write"))
    committed = max(r.t_end for r in records if r.op == "land")
    patience = RetryPolicy().op_timeout
    assert committed - staged < patience / 10
    assert max(c.sync_time for c in _stats(result, "client")) < patience
    assert sum(c.sync_reasks for c in _stats(result, "client")) == 0
    assert sum(s.refused_joins for s in servers) == 0
    _restores_what_was_registered(machine, "ck", range(9), nodes)


def test_a_writer_hears_local_from_a_peer_none_of_whose_clients_write_the_path():
    """Clients 1-3 (server 0) write ``ck`` and ``d``, clients 5-7
    (server 4) only ``ck``, then compute a while.  Server 0 writes
    ``d``; its own share is latency-bound, so it asks server 4, which
    has no share of ``d`` and answers "local" once its clients are all
    quiet, asking for their syncs.  Both paths restore what was
    registered, and no sync is asked twice."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 2)
        if topo.is_server:
            return ("server", (yield from PandaServer(ctx, topo).run()))
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _declare(com)
        for pid, (coords, pressure) in _registered(topo.comm.rank, EAGER_NODES).items():
            w.register_pane(pid, len(coords), len(pressure))
            w.set_array("coords", pid, coords)
            w.set_array("pressure", pid, pressure)
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
        if ctx.rank < 4:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "d")
        else:
            yield from ctx.sleep(0.02)
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()
        return ("client", panda.stats)

    result, machine = _launch(8, main, spec=turing())
    assert machine.disk.listdir("") == ["ck_s0001.shdf", "d_s0000.shdf"]
    assert sum(c.sync_reasks for c in _stats(result, "client")) == 0
    assert max(c.sync_time for c in _stats(result, "client")) < RetryPolicy().op_timeout
    assert sum(s.refused_joins for s in _stats(result, "server")) == 0
    _restores_what_was_registered(machine, "ck", range(6), lambda _rank: EAGER_NODES)
    _restores_what_was_registered(machine, "d", range(3), lambda _rank: EAGER_NODES)


def test_a_path_some_clients_never_write_lands_without_a_second_ask():
    """Client 1 alone writes ``late`` after ``ck``: server 0's share of it
    is partial.  It lands as soon as client 2 or 3 — which announced no
    ``late`` — asks for its sync, so no sync is asked twice."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 2)
        if topo.is_server:
            return ("server", (yield from PandaServer(ctx, topo).run()))
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _declare(com)
        for pid, (coords, pressure) in _registered(topo.comm.rank, EAGER_NODES).items():
            w.register_pane(pid, len(coords), len(pressure))
            w.set_array("coords", pid, coords)
            w.set_array("pressure", pid, pressure)
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
        if ctx.rank == 1:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "late")
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()
        return ("client", panda.stats)

    result, machine = _launch(8, main, spec=turing())
    assert machine.disk.listdir("") == ["ck_s0001.shdf", "late_s0000.shdf"]
    assert sum(c.sync_reasks for c in _stats(result, "client")) == 0
    assert max(c.sync_time for c in _stats(result, "client")) < RetryPolicy().op_timeout


def test_merged_records_and_counters_say_where_the_shares_went():
    result, machine = _launch(8, _write_main(2, nodes=EAGER_NODES), spec=turing())
    servers = _stats(result, "server")
    assert sum(s.joined_shares for s in servers) == sum(s.merged_shares for s in servers) == 1
    records = result.recorder.io_records
    (join,) = [r for r in records if r.op == "join"]
    (forward,) = [r for r in records if r.op == "forward"]
    (merge,) = [r for r in records if r.op == "merge"]
    assert join.rank == forward.rank == 0 and merge.rank == 4
    assert not (join.visible or forward.visible or merge.visible)
    assert join.t_end <= forward.t_start < forward.t_end <= merge.t_start
    assert forward.nbytes == servers[0].forwarded_bytes
    assert sum(s.forwarded_shares for s in servers) == 1


def _late_joiner_main(ctx):
    """:func:`_write_main`'s checkpoint at 2 servers: server 4's clients
    announce a byte-bound share, server 0's a latency-bound one, whose
    first client writes 0.2 s after the others."""
    topo = yield from rocpanda_init(ctx, 2)
    if topo.is_server:
        stats = yield from PandaServer(ctx, topo).run()
        return ("server", stats)
    com = Roccom(ctx)
    panda = com.load_module(RocpandaModule(ctx, topo))
    w = _declare(com)
    rank = topo.comm.rank
    for pid, (coords, pressure) in _registered(rank, _late_joiner_nodes(rank)).items():
        w.register_pane(pid, len(coords), len(pressure))
        w.set_array("coords", pid, coords)
        w.set_array("pressure", pid, pressure)
    yield from ctx.sleep(0.25 if rank == 0 else 0.05)
    yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
    yield from com.call_function("OUT.sync")
    yield from panda.finalize()
    return ("client", panda.stats)


def _late_joiner_nodes(comm_rank):
    return 1200 if comm_rank >= 3 else EAGER_NODES


def test_a_fault_free_take_back_scans_no_file():
    """Server 4, the path's writer, lands its own byte-bound share and
    waits for no one: it has committed when server 0's Join arrives, and
    refuses it, so 0 takes its share back and lands it.  No rank died, so
    that share was never shipped and no committed file can hold a block
    of it: the take-back scans nothing — no ``open_scan`` / ``close_scan``
    record, and the filesystem's metadata round trips are only the two
    files' creates, per-dataset round trips and closes, and the lease's
    lock RPCs."""
    result, machine = _launch(8, _late_joiner_main, spec=turing())
    servers = _stats(result, "server")
    assert [(s.joined_shares, s.merged_shares, s.refused_joins) for s in servers] == [
        (1, 0, 0), (0, 0, 1),
    ]
    files = machine.disk.listdir("")
    assert files == ["ck_s0000.shdf", "ck_s0001.shdf"]
    records = result.recorder.io_records
    assert not [r for r in records if r.op in ("open_scan", "close_scan")]
    per_dataset = hdf4_driver().fs_meta_ops_per_dataset
    datasets = sum(len(scan_file(machine.disk.open(f).read())[1]) for f in files)
    lock_rpcs = sum(r.op == "lock_rpc" for r in records)
    assert machine.fs.metrics.meta_ops == 2 * len(files) + per_dataset * datasets + lock_rpcs
    _restores_what_was_registered(machine, "ck", range(6), _late_joiner_nodes)


@pytest.fixture(scope="module")
def strong():
    """Step 4 of a 16-client motor at 4 servers: every share is
    latency-bound, so each window lands in one file."""
    motor = lab_scale_motor(
        scale=0.01, steps=4, snapshot_interval=4, nblocks_fluid=32, nblocks_solid=32
    )
    machine = Machine(turing(), seed=100)
    config = GENxConfig(
        workload=motor, io_mode="rocpanda", nservers=4, prefix="s", initial_snapshot=False,
    )
    result = run_genx(machine, 20, config)
    return motor, machine, result


def test_latency_bound_shares_land_one_file_per_window(strong):
    _motor, machine, result = strong
    files = machine.disk.listdir("s_")
    windows = {name.rsplit("_s", 1)[0] for name in files}
    assert len(files) == len(windows) == 3
    assert result.files_created == 3
    assert sum(s.stats.merged_shares for s in result.servers) == 3 * 3
    assert machine.fs.metrics.write_ops == sum(s.stats.write_flushes for s in result.servers)


@pytest.mark.parametrize("nservers", [1, 3, 8])
def test_a_merged_file_restores_at_any_server_count(strong, nservers):
    """Written by 4 servers; restarted by 1, 3 and 8 (twice the writers),
    whose restored windows, written back out, equal what was written."""
    motor, machine, _result = strong
    restart = Machine(turing(), seed=100, disk=machine.disk)
    config = GENxConfig(
        workload=motor, io_mode="rocpanda", nservers=nservers, prefix=f"r{nservers}",
        steps=0, restart_step=4, restart_prefix="s",
    )
    run_genx(restart, 16 + nservers, config)
    written = load_snapshot(machine.disk, "s", 4)
    back = load_snapshot(restart.disk, f"r{nservers}", 0)
    assert sorted(back.windows) == sorted(written.windows)
    for label, blocks in written.windows.items():
        assert sorted(back.window(label)) == sorted(blocks)
        for block_id, block in blocks.items():
            got = back.window(label)[block_id]
            assert sorted(got.arrays) == sorted(block.arrays)
            for attr, array in block.arrays.items():
                assert got.arrays[attr].dtype == array.dtype
                np.testing.assert_array_equal(got.arrays[attr], array)


def test_a_merged_checkpoint_restores_through_the_two_phase_read():
    """The :func:`_write_main` checkpoint, merged into server 4's one
    file, restarts at 1, 3 and 4 servers to exactly the registered arrays."""
    _result, machine = _launch(8, _write_main(2, nodes=EAGER_NODES), spec=turing())
    assert machine.disk.listdir("") == ["ck_s0001.shdf"]
    expected = {
        pid: arrays
        for rank in range(6)
        for pid, arrays in _registered(rank, EAGER_NODES).items()
    }
    for nservers, nclients in ((1, 3), (3, 3), (4, 6)):
        restart, _ = _launch(
            nclients + nservers,
            _restart_main(nservers, per_client=len(expected) // nclients),
            seed=1, disk=machine.disk, spec=turing(),
        )
        restored = {}
        for kind, value in restart.returns:
            if kind == "client":
                restored.update(value)
        assert sorted(restored) == sorted(expected), nservers
        for pid, (coords, pressure) in expected.items():
            np.testing.assert_array_equal(restored[pid]["coords"], coords)
            np.testing.assert_array_equal(restored[pid]["pressure"], pressure)
