"""Property test: the server's write-behind limit never shows in the blocks.

``server.WRITE_BEHIND_BYTES`` (a module constant, patched here) is the
smallest stage the lander seals once it has caught up with the queue —
from every block on its own (0) to as many as the queue holds (2**30) —
while a busy lander's next transfer is whatever queued during its
landing, whatever the limit; the layouts below mix eager-sized and
rendezvous-sized blocks, and both kinds merge.
Each server's lander process holds the filesystem's write-slot lease
for every landing, so on a shared filesystem (Turing's NFS: one slot)
the limit also changes which server lands when, and what its main loop
ingests meanwhile.  A stage lands one record per attribute,
so where the seals fall decides a file's bytes; for any topology, pane
layout and filesystem every server file must restore to the same blocks
across limits, a stage of one block must land the client's records byte
for byte (the write-through ablation stages every block alone), and a
restart must restore exactly the arrays the clients registered.  Every
server must also end drained: no lander, nothing sealed or buffered.
Virtual time is *not* compared: fewer transfers is the point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.cluster import turing
from repro.io import DataBlock, PandaServer, RocpandaModule, ServerConfig, rocpanda_init
from repro.io.base import BLOCK_INDEX, block_to_datasets
from repro.io.rocpanda import server
from repro.roccom import AttributeSpec, Roccom
from repro.shdf import encode_dataset, scan_file
from repro.vmpi import run_spmd
from tests.restored import by_path, restored

LIMITS = (0, 1, 4 * 1024, 64 * 1024, 256 * 1024, 2**30)


def _spec(shared):
    """Turing (one NFS write slot for all servers) or per-node disks."""
    return turing() if shared else make_testbox(nnodes=4, cpus_per_node=4)


SPECS = (AttributeSpec("coords", "node", ncomp=3), AttributeSpec("field", "element"))


def _window(com):
    w = com.new_window("W")
    for spec in SPECS:
        w.declare_attribute(spec)
    return w


def _pane_arrays(seed, rank, layout):
    """{pane_id: (coords, field)} a client registers (pure in its inputs)."""
    rng = np.random.default_rng(seed + rank)
    return {
        rank * 16 + i: (rng.random((nnodes, 3)), rng.random(nelems))
        for i, (nnodes, nelems) in enumerate(layout[rank])
    }


def _write(limit, nservers, nclients, layout, nsnapshots, seed, shared, config=None):
    """One Rocpanda write job; returns (machine, servers' stats, job)."""

    servers = []

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            servers.append(PandaServer(ctx, topo, config))
            return (yield from servers[-1].run())
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _window(com)
        for pid, (coords, field) in _pane_arrays(
            seed, topo.comm.rank, layout
        ).items():
            w.register_pane(pid, len(coords), len(field))
            w.set_array("coords", pid, coords)
            w.set_array("field", pid, field)
        for snap in range(nsnapshots):
            yield from com.call_function(
                "OUT.write_attribute", "W", None, f"wb_{snap:02d}"
            )
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()

    machine = Machine(_spec(shared), seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "WRITE_BEHIND_BYTES", limit)
        job = run_spmd(machine, nservers + nclients, main)
    for panda_server in servers:
        # Drained: the lander is gone, with nothing sealed, staged or
        # buffered left behind, and every path retired.
        assert not panda_server._lander.busy and not panda_server._landings
        assert panda_server._buffered_bytes == 0 and not panda_server._paths
    if shared:
        # The servers took turns at the one slot — the filesystem never
        # saw two writes at once — and the lease ends free.
        lease = machine.fs.write_lease()
        assert lease.count == 0 and not lease.queue
        assert machine.fs.metrics.peak_write_demand <= lease.capacity == 1
    return machine, [r for r in job.returns if r is not None], job


def _restart(disk, prefix, pane_ids, nservers, nclients, seed, shared):
    """Restart from ``disk``; returns {pane_id: (coords, field)} restored."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return None
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _window(com)
        for pid in pane_ids[topo.comm.rank :: nclients]:
            w.register_pane(pid, 0, 0)
        got = yield from com.call_function("OUT.read_attribute", "W", None, prefix)
        restored = {
            pid: (w.get_array("coords", pid).copy(), w.get_array("field", pid).copy())
            for pid in got
        }
        yield from panda.finalize()
        return restored

    machine = Machine(_spec(shared), seed=seed + 1, disk=disk)
    job = run_spmd(machine, nservers + nclients, main)
    merged = {}
    for restored in job.returns:
        merged.update(restored or {})
    return merged


@st.composite
def shapes(draw):
    nservers = draw(st.integers(min_value=1, max_value=3))
    # rocpanda_init's topology contract: nclients >= nservers.
    nclients = draw(st.integers(min_value=nservers, max_value=4))
    layout = [
        [
            (
                draw(st.integers(min_value=1, max_value=600)),
                draw(st.integers(min_value=1, max_value=4000)),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        for _ in range(nclients)
    ]
    return nservers, nclients, layout


@given(
    shapes(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_files_and_restart_do_not_depend_on_the_limit(shape, nsnapshots, seed, shared):
    nservers, nclients, layout = shape
    args = (nservers, nclients, layout, nsnapshots, seed, shared)
    reference, ref_stats, _job = _write(0, *args)
    ref_files = restored(reference.disk, "wb_")
    assert ref_files
    # Limit 0 is the same code: at most one transfer per block, fewer
    # where blocks queued while the lander was busy.
    assert sum(s.write_flushes for s in ref_stats) <= sum(
        s.blocks_written for s in ref_stats
    )
    for limit in LIMITS[1:]:
        machine, stats, _job = _write(limit, *args)
        files = restored(machine.disk, "wb_")
        assert files.keys() == ref_files.keys()
        for path in files:
            assert files[path] == ref_files[path], (limit, path)
        assert sum(s.blocks_written for s in stats) == sum(
            s.blocks_written for s in ref_stats
        )
        assert 0 < sum(s.write_flushes for s in stats) <= sum(
            s.write_flushes for s in ref_stats
        )
    # Write-through stages every block alone: each record is the one the
    # client encoded, byte for byte.  Its servers never merge shares.
    through, _stats, _job = _write(0, *args, config=ServerConfig(active_buffering=False))
    assert by_path(restored(through.disk, "wb_")) == by_path(ref_files)
    sent = {}
    for rank in range(nclients):
        for pid, (coords, field) in _pane_arrays(seed, rank, layout).items():
            block = DataBlock(
                "W", pid, len(coords), len(field),
                {"coords": coords, "field": field}, {s.name: s for s in SPECS},
            )
            sent.update((d.name, encode_dataset(d)) for d in block_to_datasets(block))
    landed = {}
    for path in through.disk.listdir("wb_"):
        data = through.disk.open(path).read()
        for (name, offset, length), header in scan_file(data)[1].items():
            assert BLOCK_INDEX not in header.attrs
            landed[name] = data[offset : offset + length]
    assert landed.keys() <= sent.keys()
    assert all(landed[name] == sent[name] for name in landed)
    # ``machine`` holds the 2**30 run: the fewest, largest transfers.
    expected = {}
    for rank in range(nclients):
        expected.update(_pane_arrays(seed, rank, layout))
    back = _restart(
        machine.disk, f"wb_{nsnapshots - 1:02d}", sorted(expected),
        nservers, nclients, seed, shared,
    )
    assert sorted(back) == sorted(expected)
    for pid, (coords, field) in expected.items():
        np.testing.assert_array_equal(back[pid][0], coords)
        np.testing.assert_array_equal(back[pid][1], field)


@pytest.mark.parametrize("shared", [False, True], ids=["local", "turing"])
def test_limit_zero_merges_what_queues_behind_lander(shared):
    """One server, small blocks arriving faster than the lander books a
    stage's first block (the create cost of its new datasets): under
    limit 0 the blocks that queue while the lander books or lands share
    its next transfer — on its own local disk as on Turing's NFS — and
    every transfer carries whole blocks."""
    layout = [[(100, 500)] * 3 for _ in range(2)]
    _machine, stats, job = _write(0, 1, 2, layout, 2, 7, shared)
    (flushes,), (written,) = ([s.write_flushes for s in stats], [s.blocks_written for s in stats])
    assert written == 12 and 2 <= flushes < written
    records = job.recorder.io_records
    (block,) = {r.nbytes for r in records if (r.module, r.op) == ("rocpanda", "ingest")}
    lands = [r.nbytes for r in records if (r.module, r.op) == ("rocpanda", "land") and r.nbytes]
    assert sum(lands) == written * block and all(n % block == 0 for n in lands)
    assert max(lands) > block
