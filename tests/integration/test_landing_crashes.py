"""A crash at every instant of a file's closing landing, for each service.

A file's last landing is one write carrying its commit footer — and, for
a file that lands once, its header and every record too — between the
round trips before it and the close round trip after.  Whatever instant
a crash hits, the file is either committed, and restores bit-identically,
or torn (no footer, or no byte at all, which the scan reports as
:class:`~repro.shdf.TornFileError` like any torn file), and a restart
skips it.  The instants are read off the fault-free run, which a crashing
run follows up to the crash: the start and end of every filesystem
operation and every instrumentation record inside the landing, and the
midpoint between each two.
"""

import numpy as np
import pytest

from repro.cluster import Machine, turing
from repro.cluster import testbox as make_testbox
from repro.des import Interrupt
from repro.faults import FaultPlan, ServerCrash
from repro.io import RochdfModule, TRochdfModule
from repro.roccom import Roccom
from repro.shdf import TornFileError, scan_file
from repro.vmpi import run_spmd
from tests.integration.test_faults import _checkpoint_then_restart, _declare, _write_main
from tests.restored import file_blocks

VICTIM = 1  # the writer whose file the Rochdf / T-Rochdf sweeps tear
NBLOCKS = 2  # per writer


def _log_fs(fs, spans):
    """Log every round trip and write ``fs`` serves as a (start, end) span."""
    for name in ("meta_op", "meta_ops_bulk", "write"):
        op = getattr(fs, name)

        def logged(*args, _op=op, **kwargs):
            t0 = fs.env.now
            result = yield from _op(*args, **kwargs)
            spans.append((t0, fs.env.now))
            return result

        setattr(fs, name, logged)


def _instants(spans, start, end):
    """Every span edge in ``(start, end]`` and the midpoint between each two."""
    edges = sorted({t for span in spans for t in span if start < t <= end})
    assert len(edges) >= 3
    return edges + [(a + b) / 2 for a, b in zip(edges, edges[1:])]


def _records(result, rank, module, op):
    return [
        r for r in result.recorder.io_records if (r.rank, r.module, r.op) == (rank, module, op)
    ]


def _outcome(data):
    """'committed', 'torn' or 'empty' — the last two refused by the scan."""
    try:
        scan_file(data)
    except TornFileError:
        return "torn" if len(data) else "empty"
    return "committed"


def test_rocpanda_server_crash_anywhere_in_its_closing_landing():
    """Server 4 closes last: its clients' heir has finished by then, and
    lingers to adopt them."""
    _sweep_rocpanda_closing_landing(4)


def test_rocpanda_first_server_to_close_crashes_anywhere_in_its_landing():
    """Server 0 closes first: its clients' heir is still serving."""
    _sweep_rocpanda_closing_landing(0)


def _sweep_rocpanda_closing_landing(victim):
    """The victim's file lands twice; the second carries the footer."""
    machine, spans = Machine(turing(), seed=0), []
    _log_fs(machine.fs, spans)
    clean = run_spmd(machine, 8, _write_main(2))
    closings = {rank: _records(clean, rank, "rocpanda", "settle")[-1] for rank in (0, 4)}
    # Server 0 closes first, so each case above is what its name says.
    assert closings[0].t_end < closings[4].t_end
    closing, path = closings[victim], f"ck_s{victim // 4:04d}.shdf"
    lands = _records(clean, victim, "rocpanda", "land")
    assert [r.path for r in lands] == [path] * 2
    assert closing.t_start == lands[-1].t_end
    spans += [
        (r.t_start, r.t_end) for r in clean.recorder.io_records
        if (r.rank, r.module) == (victim, "rocpanda")
    ]
    _, _, reference = _checkpoint_then_restart(plan=None, spec=turing())
    outcomes = set()
    for at in _instants(spans, lands[0].t_end, closing.t_end):
        plan = FaultPlan((ServerCrash(rank=victim, at_time=at),))
        _, crashed, restored = _checkpoint_then_restart(plan, spec=turing())
        # The heir covers the victim's clients whatever the file holds.
        assert set(restored) == set(reference) == set(range(18)), at
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(restored[pid][name], reference[pid][name])
        data = crashed.disk.open(path).read()
        outcome = _outcome(data)
        if outcome == "committed":
            _attrs, blocks = file_blocks(data)
            first = 9 * (victim // 4)
            assert sorted(blocks) == list(range(first, first + 9)), at
        outcomes.add(outcome)
    # Torn before its closing write appended, committed in the close.
    assert outcomes == {"torn", "committed"}


def _hdf_main(module, arrays, crash_at=None):
    """Every rank writes its panes; ``VICTIM`` dies at ``crash_at`` — its
    I/O thread too (T-Rochdf), which is where the file lands."""

    def main(ctx):
        com = Roccom(ctx)
        mod = com.load_module(module(ctx))
        w = _declare(com)
        for pid, (coords, pressure) in arrays(ctx.rank).items():
            w.register_pane(pid, len(coords), len(pressure))
            w.set_array("coords", pid, coords)
            w.set_array("pressure", pid, pressure)
        if ctx.rank == VICTIM and crash_at is not None and module is TRochdfModule:

            def stop_io():
                yield ctx.env.timeout(crash_at - ctx.now)
                mod._io.interrupt("crash")

            ctx.env.process(stop_io(), name="crash-io")
        try:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
            yield from com.call_function("OUT.sync")
        except Interrupt:
            return "crashed"
        return "ok"

    return main


def _hdf_restart_main(arrays):
    def main(ctx):
        com = Roccom(ctx)
        mod = com.load_module(RochdfModule(ctx))
        w = com.new_window("Fluid")
        for pid in arrays(ctx.rank):
            w.register_pane(pid, 0, 0)
        try:
            yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
        except KeyError:
            return None
        return mod.stats, {
            pid: (w.get_array("coords", pid).copy(), w.get_array("pressure", pid).copy())
            for pid in w.pane_ids()
        }

    return main


def _testbox():
    return make_testbox(nnodes=2, cpus_per_node=1)


@pytest.mark.parametrize("module", [RochdfModule, TRochdfModule], ids=["rochdf", "trochdf"])
def test_writer_crash_anywhere_in_its_closing_landing(module):
    """A Rochdf / T-Rochdf file lands once: header, records and footer."""

    def arrays(rank):
        rng = np.random.default_rng(40 + rank)
        return {
            rank * NBLOCKS + i: (rng.random((30 + i, 3)), rng.random(15 + i))
            for i in range(NBLOCKS)
        }

    machine, spans = Machine(_testbox(), seed=0), []
    _log_fs(machine.fs, spans)
    clean = run_spmd(machine, 2, _hdf_main(module, arrays))
    assert clean.returns == ["ok", "ok"]
    (closing,) = _records(clean, VICTIM, "shdf", "close")
    path = f"ck_p{VICTIM:05d}.shdf"
    reference = machine.disk.open(path).read()
    outcomes = set()
    for at in _instants(spans, closing.t_start, closing.t_end):
        crashed = Machine(_testbox(), seed=0)
        crashed.install_faults(FaultPlan((ServerCrash(rank=VICTIM, at_time=at),)))
        returns = run_spmd(crashed, 2, _hdf_main(module, arrays, at)).returns
        assert returns == ["ok", "crashed"], at
        data = crashed.disk.open(path).read()
        outcome = _outcome(data)
        outcomes.add(outcome)
        if outcome == "committed":
            assert data == reference, at
        restart = run_spmd(
            Machine(_testbox(), seed=1, disk=crashed.disk), 2, _hdf_restart_main(arrays)
        ).returns
        for rank, got in enumerate(restart):
            if rank == VICTIM and outcome != "committed":
                # Skipped as torn; its blocks exist nowhere else.
                assert got is None, at
                continue
            _stats, restored = got
            assert restored.keys() == arrays(rank).keys(), at
            for pid, (coords, pressure) in arrays(rank).items():
                np.testing.assert_array_equal(restored[pid][0], coords)
                np.testing.assert_array_equal(restored[pid][1], pressure)
    # Empty before the one write appended, committed in the close.
    assert outcomes == {"empty", "committed"}
