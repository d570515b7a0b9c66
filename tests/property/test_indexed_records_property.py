"""Property test: records that hold several blocks restore what was registered.

A Rocpanda server lands a write-behind stage's blocks as one record per
attribute, their arrays concatenated behind a block index.  Generated
here: ragged panes, pane-located and ``(n, 1)`` arrays, panes missing
an attribute; the stage limit, the filesystem and the write-through
ablation decide where the seals fall, so a record holds anything from
one block to all of a server's.  The snapshot is written at N servers,
restarted at M != N and read back by Rocketeer, and every array must
come back bit for bit, with its dtype and shape.  A server that dies
holding a sealed stage leaves a torn file that the restart skips, and a
block that a duplicated message delivers twice lands once.

The example budget follows the hypothesis profile: a few in tier-1,
more under ``--hypothesis-profile=long``.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.cluster import turing
from repro.faults import FaultPlan, MessageFault, ServerCrash
from repro.io import PandaServer, RocpandaModule, ServerConfig, rocpanda_init, server_ranks
from repro.io.base import BLOCK_INDEX, record_block_ids
from repro.io.rocpanda import server
from repro.io.rocpanda.protocol import TAG_BLOCK
from repro.roccom import LOC_ELEMENT, LOC_NODE, LOC_PANE, AttributeSpec, Roccom
from repro.rocketeer import load_snapshot
from repro.shdf import TornFileError, scan_file
from repro.vmpi import run_spmd

EXAMPLES = max(25, settings.default.max_examples // 10)
LIMITS = (0, 4 * 1024, 256 * 1024, 2**30)
#: Rocketeer's file naming: run ``ix``, step 0, window ``w``.
PATH = "ix_000000_w"
SPECS = (
    AttributeSpec("coords", LOC_NODE, ncomp=3),
    AttributeSpec("field", LOC_ELEMENT),
    AttributeSpec("tag", LOC_PANE, dtype="i4"),
)


@st.composite
def panes(draw, max_nodes):
    """``(nnodes, nelems, attrs present, field as (n, 1)?, tag's shape)``."""
    return (
        draw(st.integers(min_value=0, max_value=max_nodes)),
        draw(st.integers(min_value=0, max_value=2 * max_nodes)),
        draw(st.sets(st.sampled_from([s.name for s in SPECS]), min_size=1)),
        draw(st.booleans()),
        draw(st.sampled_from([(), (3,), (2, 2)])),
    )


@st.composite
def topologies(draw, max_nodes=600, nservers=None):
    """``(servers writing, servers restarting, clients, per-client panes)``."""
    n = nservers or draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3).filter(lambda m: m != n))
    nclients = draw(st.integers(min_value=max(n, m), max_value=4))
    layout = [
        draw(st.lists(panes(max_nodes), min_size=1, max_size=4)) for _ in range(nclients)
    ]
    return n, m, nclients, layout


def _registered(seed, layout):
    """{pane_id: (nnodes, nelems, {attr: array})} the clients register."""
    out = {}
    for rank, client_panes in enumerate(layout):
        rng = np.random.default_rng(seed + rank)
        for i, (nnodes, nelems, present, column, tag_shape) in enumerate(client_panes):
            arrays = {
                "coords": rng.random((nnodes, 3)),
                "field": rng.random((nelems, 1) if column else nelems),
                "tag": rng.integers(-9, 9, size=tag_shape, dtype=np.int32),
            }
            out[rank * 16 + i] = (
                nnodes, nelems, {a: v for a, v in arrays.items() if a in present},
            )
    return out


def _window(com):
    w = com.new_window("W")
    for spec in SPECS:
        w.declare_attribute(spec)
    return w


def _write(nservers, nclients, layout, seed, spec, config=None, plan=None):
    """One write job; returns (machine, job)."""
    panes_of = _registered(seed, layout)

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            return (yield from PandaServer(ctx, topo, config).run())
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _window(com)
        first = topo.comm.rank * 16
        for pid in range(first, first + len(layout[topo.comm.rank])):
            nnodes, nelems, arrays = panes_of[pid]
            w.register_pane(pid, nnodes, nelems)
            for attr, array in arrays.items():
                w.set_array(attr, pid, array.copy())
        yield from ctx.sleep(0.05)  # past init: faults land mid-write
        yield from com.call_function("OUT.write_attribute", "W", None, PATH)
        yield from com.call_function("OUT.sync")
        # No client shuts its server down before every client's output
        # is durable: a crash after that is outside the recovery
        # protocol (DESIGN, crash-consistency window).
        yield from topo.comm.barrier()
        yield from panda.finalize()
        return None

    machine = Machine(spec(), seed=seed)
    if plan is not None:
        machine.install_faults(plan)
    return machine, run_spmd(machine, nservers + nclients, main)


def _restart(disk, pane_ids, nservers, nclients, seed):
    """Restart from ``disk``; returns ({pane: (nnodes, nelems, arrays)}, servers' stats)."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            return ("server", (yield from PandaServer(ctx, topo).run()))
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = _window(com)
        for pid in pane_ids[topo.comm.rank :: nclients]:
            w.register_pane(pid, 0, 0)
        got = yield from com.call_function("OUT.read_attribute", "W", None, PATH)
        out = {}
        for pid in got:
            pane = w.pane(pid)
            arrays = {
                spec.name: w.get_array(spec.name, pid).copy()
                for spec in SPECS if w.has_array(spec.name, pid)
            }
            out[pid] = (pane.nnodes, pane.nelems, arrays)
        yield from panda.finalize()
        return ("client", out)

    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed + 1, disk=disk)
    job = run_spmd(machine, nservers + nclients, main)
    back, stats = {}, []
    for kind, value in job.returns:
        if kind == "client":
            back.update(value)
        else:
            stats.append(value)
    return back, stats


def _assert_same(got, expected):
    """Every pane's sizes and arrays, bit for bit, exact dtype and shape."""
    assert sorted(got) == sorted(expected)
    for pid, (nnodes, nelems, arrays) in expected.items():
        g_nnodes, g_nelems, g_arrays = got[pid]
        assert (g_nnodes, g_nelems) == (nnodes, nelems), pid
        assert sorted(g_arrays) == sorted(arrays), pid
        for attr, array in arrays.items():
            back = g_arrays[attr]
            assert (back.dtype, back.shape) == (array.dtype, array.shape), (pid, attr)
            assert back.tobytes() == array.tobytes(), (pid, attr)


def _records(disk):
    """``(block_id, attr)`` of every record of the committed files, and the
    number of torn files."""
    held, torn = [], 0
    for path in disk.listdir("ix_"):
        try:
            _attrs, records = scan_file(disk.open(path).read())
        except TornFileError:
            torn += 1
            continue
        for header in records.values():
            event(f"blocks per record: {len(header.attrs.get(BLOCK_INDEX, [0]))}")
            held += [(b, header.attrs["attr"]) for b in record_block_ids(header.attrs)]
    return held, torn


@given(
    topologies(),
    st.sampled_from(LIMITS),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_indexed_records_restore_bit_identically(shape, limit, shared, through, seed):
    n, m, nclients, layout = shape
    expected = _registered(seed, layout)
    config = ServerConfig(active_buffering=not through)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "WRITE_BEHIND_BYTES", limit)
        machine, _job = _write(
            n, nclients, layout, seed, turing if shared else make_testbox, config
        )
    held, torn = _records(machine.disk)
    assert torn == 0
    assert sorted(held) == sorted(
        (pid, attr) for pid, (_n, _e, arrays) in expected.items() for attr in arrays
    )
    snapshot = load_snapshot(machine.disk, "ix", 0).window("w")
    _assert_same(
        {pid: (b.nnodes, b.nelems, b.arrays) for pid, b in snapshot.items()}, expected
    )
    back, _stats = _restart(machine.disk, sorted(expected), m, nclients, seed)
    _assert_same(back, expected)


@given(topologies(max_nodes=150, nservers=2), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=EXAMPLES, deadline=None)
def test_a_sealed_stage_lost_in_a_crash_is_torn_and_duplicates_land_once(shape, seed):
    """Blocks small enough to travel eagerly, so duplicates reach the
    heir; the victim dies in the round trips of its first landing that
    carries blocks — after the seal, before the land."""
    n, m, nclients, layout = shape
    expected = _registered(seed, layout)
    heir, victim = server_ranks(n + nclients, n)
    duplicate = MessageFault("duplicate", dst=heir, tag=TAG_BLOCK, count=2)
    _machine, clean = _write(n, nclients, layout, seed, turing, plan=FaultPlan((duplicate,)))
    lander = [
        r for r in clean.recorder.io_records
        if r.rank == victim and r.module == "rocpanda"
        and r.op in ("settle", "lock_rpc", "slot_wait", "land")
    ]
    i = next(i for i, r in enumerate(lander) if r.op == "land" and r.nbytes)
    crash_at = (lander[i - 1].t_start + lander[i - 1].t_end) / 2
    plan = FaultPlan((duplicate, ServerCrash(rank=victim, at_time=crash_at)))
    machine, job = _write(n, nclients, layout, seed, turing, plan=plan)
    stats = [s for s in job.returns if s is not None]
    assert any(s.crashed for s in stats)
    assert sum(s.duplicate_blocks_dropped for s in stats) >= 1
    held, torn = _records(machine.disk)
    assert torn >= 1
    assert sorted(held) == sorted(
        (pid, attr) for pid, (_n, _e, arrays) in expected.items() for attr in arrays
    )
    back, restart_stats = _restart(machine.disk, sorted(expected), m, nclients, seed)
    assert sum(s.torn_files_skipped for s in restart_stats) >= 1
    _assert_same(back, expected)


def test_a_sync_that_overtakes_its_eager_block_waits_for_it():
    """Shrunk from the crash property.  Client 3's one block is
    eager-sized, so ``write_attribute`` returns with it on the wire, and
    the SyncRequest behind it, smaller, arrives first.  Its server has
    nothing buffered then, but must not answer: a crash before the
    landing would lose a block the client no longer holds for a re-ship.
    The sync returns only once the block has landed."""
    layout = [
        [(0, 0, {"coords"}, False, ())],
        [(113, 112, {"coords", "tag", "field"}, False, ())],
    ]
    _machine, job = _write(2, 2, layout, 0, turing)
    records = job.recorder.io_records
    (sent,) = [r for r in records if (r.rank, r.op) == (3, "write_attribute")]
    (ingest,) = [r for r in records if (r.rank, r.op) == (2, "ingest")]
    (landed,) = [r for r in records if (r.rank, r.op) == (2, "land") and r.nbytes]
    (synced,) = [r for r in records if (r.rank, r.op) == (3, "sync")]
    assert ingest.t_start > sent.t_end
    assert synced.t_end >= landed.t_end


def test_a_sync_waits_for_its_block_whatever_its_other_files_hold():
    """As above, one file over.  Server 2 serves ranks 3 and 4.  Rank
    3's block of window V is in and landed — rank 4 writes a second
    later, so V's file stays open — when its one block of window W is
    still on the wire behind its SyncRequest: a block of one file does
    not stand in for a block of another."""
    arrays = _registered(0, [[(113, 112, {"coords", "tag", "field"}, False, ())]])[0]

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 2)
        if topo.is_server:
            return (yield from PandaServer(ctx, topo).run())
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        yield from ctx.sleep(0.03 + (ctx.rank != 3))
        for name in ("V", "W"):
            w = com.new_window(name)
            for spec in SPECS:
                w.declare_attribute(spec)
            nnodes, nelems, by_attr = arrays
            w.register_pane(topo.comm.rank, nnodes, nelems)
            for attr, array in by_attr.items():
                w.set_array(attr, topo.comm.rank, array.copy())
            yield from com.call_function(
                "OUT.write_attribute", name, None, f"ix_000000_{name.lower()}"
            )
            yield from ctx.sleep(0.02 if name == "V" else 0)
        yield from com.call_function("OUT.sync")
        yield from topo.comm.barrier()
        yield from panda.finalize()

    job = run_spmd(Machine(turing(), seed=0), 5, main)
    records = job.recorder.io_records
    (sent,) = [
        r for r in records if (r.rank, r.op, r.path) == (3, "write_attribute", "ix_000000_w")
    ]
    ingest = next(r for r in records if (r.rank, r.op, r.path) == (2, "ingest", "ix_000000_w"))
    landed = next(
        r for r in records
        if (r.rank, r.op) == (2, "land") and r.nbytes and r.path.startswith("ix_000000_w")
    )
    synced = next(r for r in records if (r.rank, r.op) == (3, "sync"))
    assert ingest.t_start > sent.t_end
    assert synced.t_end >= landed.t_end
