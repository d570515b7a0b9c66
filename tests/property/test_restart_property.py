"""Property tests: sieved restart reads return exactly what was written.

Two layers of the two-phase restart path are checked across random
inputs:

* :class:`repro.fs.ReadCoalescer` — merged-read schedules return
  byte-identical data to issuing every ranged read individually, for
  arbitrary overlapping / adjacent / gapped extent layouts and sieve
  thresholds, and a schedule interrupted by an injected read fault
  raises before handing out any byte (and replays cleanly).
* The Rocpanda restart — two-phase collective reads, every region of
  a server's share in flight at once, restore, bit for bit, the arrays
  the writing job registered, across random write-at-N / restart-at-M
  topologies and pane layouts.  Its example budget follows the
  hypothesis profile: 10 in tier-1, 300 under ``--hypothesis-profile=long``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.des import Environment
from repro.fs import NFSModel, ReadCoalescer, TransientIOError
from repro.io import PandaServer, RocpandaModule, rocpanda_init
from repro.roccom import AttributeSpec, Roccom
from repro.vmpi import run_spmd

RESTART_EXAMPLES = max(10, settings.default.max_examples // 10)


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


@st.composite
def extent_layouts(draw):
    size = draw(st.integers(min_value=1, max_value=2048))
    nextents = draw(st.integers(min_value=1, max_value=24))
    extents = []
    for _ in range(nextents):
        offset = draw(st.integers(min_value=0, max_value=size - 1))
        nbytes = draw(st.integers(min_value=0, max_value=size - offset))
        extents.append((offset, nbytes))
    gap = draw(st.integers(min_value=0, max_value=256))
    return size, extents, gap


@given(extent_layouts())
@settings(max_examples=60, deadline=None)
def test_read_coalescer_is_byte_identical(layout):
    size, extents, gap = layout
    env = Environment()
    fs = NFSModel(env)
    f = fs.disk.create("f")
    f.append(bytes(i % 251 for i in range(size)))
    data = f.read()

    co = ReadCoalescer(fs, f, gap=gap)
    for offset, nbytes in extents:
        co.add(offset, nbytes)
    chunks = drive(env, co.run())

    assert chunks == [data[o : o + n] for o, n in extents]
    # One fs.read per merged run, covering at least the wanted bytes.
    runs = fs.metrics.read_ops
    assert runs <= len(extents) or not any(n for _o, n in extents)


@given(extent_layouts(), st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_read_coalescer_fault_raises_before_handing_out_bytes(layout, nfail):
    size, extents, gap = layout
    env = Environment()
    fs = NFSModel(env)
    f = fs.disk.create("f")
    f.append(bytes(i % 251 for i in range(size)))
    data = f.read()
    budget = [nfail]

    def hook(path, nbytes):
        if budget[0] > 0:
            budget[0] -= 1
            raise TransientIOError(f"injected ({path})")

    fs.disk.read_fault_hook = hook
    co = ReadCoalescer(fs, f, gap=gap)
    for offset, nbytes in extents:
        co.add(offset, nbytes)
    nruns = len(co.plan())

    def attempt():
        try:
            return (yield from co.run())
        except TransientIOError:
            return None

    result = drive(env, attempt())
    if result is not None:
        # Fewer merged runs than the fault budget: the hook never fired
        # (e.g. all extents empty -> no runs at all); data still exact.
        assert nfail >= nruns or budget[0] == 0 or nruns == 0
        assert result == [data[o : o + n] for o, n in extents]
        return
    # Faulted: nothing was handed out, the schedule is fully pending.
    assert co.pending == len(extents)
    retry = drive(env, attempt())
    while retry is None:
        retry = drive(env, attempt())
    assert retry == [data[o : o + n] for o, n in extents]
    assert co.pending == 0


def _write_checkpoint(nservers, nclients, layout, seed):
    """Run one fault-free write job.

    Returns ``(machine, written)`` where ``written`` maps every pane id
    to the ``{attr: array}`` the clients registered.
    """
    written = {}

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("coords", "node", ncomp=3))
        w.declare_attribute(AttributeSpec("field", "element"))
        rng = np.random.default_rng(seed + topo.comm.rank)
        for i, (nnodes, nelems) in enumerate(layout[topo.comm.rank]):
            pane_id = topo.comm.rank * 16 + i
            w.register_pane(pane_id, nnodes, nelems)
            written[pane_id] = {
                "coords": rng.random((nnodes, 3)),
                "field": rng.random(nelems),
            }
            for attr, array in written[pane_id].items():
                w.set_array(attr, pane_id, array.copy())
        yield from com.call_function("OUT.write_attribute", "W", None, "ck")
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()

    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed)
    run_spmd(machine, nservers + nclients, main)
    return machine, written


def _restart(disk, ids, nservers, nclients, seed):
    """One restart job over an existing checkpoint disk; returns the
    merged {block_id: {attr: array}} map restored across clients."""

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return ("server", None)
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("coords", "node", ncomp=3))
        w.declare_attribute(AttributeSpec("field", "element"))
        for pid in ids[topo.comm.rank :: nclients]:
            w.register_pane(pid, 0, 0)
        got = yield from com.call_function("OUT.read_attribute", "W", None, "ck")
        restored = {
            pid: {
                "coords": w.get_array("coords", pid).copy(),
                "field": w.get_array("field", pid).copy(),
            }
            for pid in got
        }
        yield from panda.finalize()
        return ("client", restored)

    machine = Machine(
        make_testbox(nnodes=4, cpus_per_node=4), seed=seed + 1, disk=disk
    )
    job = run_spmd(machine, nservers + nclients, main)
    blockmap = {}
    for kind, value in job.returns:
        if kind == "client":
            blockmap.update(value)
    return blockmap


@st.composite
def restart_shapes(draw):
    nservers_w = draw(st.integers(min_value=1, max_value=3))
    nclients_w = draw(st.integers(min_value=nservers_w, max_value=4))
    layout = [
        [
            (
                draw(st.integers(min_value=1, max_value=400)),
                draw(st.integers(min_value=1, max_value=2000)),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        for _ in range(nclients_w)
    ]
    # Every restart server must own at least one client: a server with
    # no assigned clients exits its serve loop immediately (its
    # expected-shutdown set is empty), so nclients >= nservers is a
    # topology contract.
    nservers_r = draw(st.integers(min_value=1, max_value=3))
    nclients_r = draw(st.integers(min_value=nservers_r, max_value=4))
    return nservers_w, nclients_w, layout, nservers_r, nclients_r


@given(restart_shapes(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=RESTART_EXAMPLES, deadline=None)
def test_batched_restart_restores_bit_identical_data(shape, seed):
    nservers_w, nclients_w, layout, nservers_r, nclients_r = shape
    machine, written = _write_checkpoint(nservers_w, nclients_w, layout, seed)
    restored = _restart(
        machine.disk, sorted(written), nservers_r, nclients_r, seed
    )
    assert sorted(restored) == sorted(written)
    for pid, arrays in written.items():
        for attr, array in arrays.items():
            assert restored[pid][attr].dtype == array.dtype
            np.testing.assert_array_equal(restored[pid][attr], array)
