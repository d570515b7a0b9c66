"""Crashes around a merged share: restore exactly, never twice, never hang.

Three Turing servers (ranks 0, 4 and 8) each take three clients' nine
small blocks of checkpoint ``ck``: every share is latency-bound, server 8
is the path's writer (``path_writer``), servers 0 and 4 join it.  The
crash instants are read off the fault-free run, which a crashing run
follows up to the crash: each joiner's ``join`` and ``forward`` records,
and the writer's ``land`` records and the close round trip after its
last.  Whatever the instant, every committed file holds blocks no other
committed file holds, and a restart at two servers restores every
registered array bit for bit (a torn file is skipped by every reader).
The last case, at two servers, crashes a peer the writer is still
waiting to hear from.
"""

import numpy as np
import pytest

from repro.cluster import turing
from repro.faults import DiskFull, FaultPlan, RetryPolicy, ServerCrash
from repro.io import PandaServer, RocpandaModule, ServerConfig, rocpanda_init
from repro.io.base import record_block_ids
from repro.roccom import Roccom
from repro.shdf import TornFileError, scan_file
from tests.integration.test_faults import (
    EAGER_NODES, _declare, _launch, _registered, _restart_main, _write_main,
)
from tests.restored import file_blocks

WRITER, JOINERS = 8, (0, 4)
NPROCS = 12


def _records(result, rank, op):
    return [r for r in result.recorder.io_records if (r.rank, r.op) == (rank, op)]


@pytest.fixture(scope="module")
def clean():
    result, machine = _launch(NPROCS, _write_main(3, nodes=EAGER_NODES), spec=turing())
    assert machine.disk.listdir("") == ["ck_s0002.shdf"]
    return result


def _committed_blocks(disk):
    """{file: block ids} of every committed file; torn ones left out."""
    out = {}
    for path in disk.listdir(""):
        try:
            _attrs, entries = scan_file(disk.open(path).read())
        except TornFileError:
            continue
        out[path] = {
            b for _extent, header in entries.items() for b in record_block_ids(header.attrs)
        }
    return out


def _assert_restored_once(machine):
    committed = _committed_blocks(machine.disk)
    seen = set()
    for path, ids in committed.items():
        assert not ids & seen, (path, sorted(ids & seen))
        seen |= ids
    expected = {
        pid: arrays for rank in range(9) for pid, arrays in _registered(rank, EAGER_NODES).items()
    }
    assert seen == set(expected)
    restart, _ = _launch(
        5, _restart_main(2, per_client=9), seed=1, disk=machine.disk, spec=turing()
    )
    restored = {}
    for kind, value in restart.returns:
        if kind == "client":
            restored.update(value)
    assert sorted(restored) == sorted(expected)
    for pid, (coords, pressure) in expected.items():
        np.testing.assert_array_equal(restored[pid]["coords"], coords)
        np.testing.assert_array_equal(restored[pid]["pressure"], pressure)


def _crash(rank, at, *faults, config=None):
    result, machine = _launch(
        NPROCS, _write_main(3, nodes=EAGER_NODES, server_config=config),
        plan=FaultPlan((ServerCrash(rank=rank, at_time=at), *faults)), spec=turing(),
    )
    assert machine.is_dead(rank)
    crashed = [s for kind, s in result.returns if kind == "server" and s.crashed]
    assert len(crashed) == 1
    return result, machine


def _writer_before_landing(clean):
    (first_land, *_rest) = _records(clean, WRITER, "land")
    joins = [r.t_end for j in JOINERS for r in _records(clean, j, "join")]
    forwards = [
        t for j in JOINERS for r in _records(clean, j, "forward") for t in (r.t_start, r.t_end)
    ]
    return sorted(t for t in joins + forwards if t < first_land.t_start)


def test_the_fault_free_run_merges_both_joiners(clean):
    for joiner in JOINERS:
        assert len(_records(clean, joiner, "join")) == len(_records(clean, joiner, "forward")) == 1
    assert len(_records(clean, WRITER, "merge")) == 2


def test_writer_crash_before_landing(clean):
    """The joiners find their writer dead with no file committed and land
    their shares themselves; the writer's own clients fail over."""
    instants = _writer_before_landing(clean)
    assert len(instants) >= 4
    for at in instants:
        _result, machine = _crash(WRITER, at)
        assert "ck_s0002.shdf" not in _committed_blocks(machine.disk), at
        _assert_restored_once(machine)


def test_writer_crash_between_commit_and_ack(clean):
    """The footer has landed; the writer dies before its joiners hear.
    They find the committed file holding their shares and land nothing,
    and the heir drops the re-shipped blocks the file already holds."""
    last_land = _records(clean, WRITER, "land")[-1]
    close = [r for r in _records(clean, WRITER, "settle") if r.t_start >= last_land.t_end]
    assert close
    # After the footer's landing, inside the close round trip, at its
    # end (the writer's last instant), and with the answers on the wire.
    end = close[0].t_end
    instants = [(last_land.t_end + end) / 2, end, end + 1e-5]
    for at in instants:
        result, machine = _crash(WRITER, at)
        assert "ck_s0002.shdf" in _committed_blocks(machine.disk), at
        _assert_restored_once(machine)
        joiners = [s for kind, s in result.returns if kind == "server" and not s.crashed]
        assert sum(s.files_created for s in joiners) == 0, at


@pytest.mark.parametrize("joiner", JOINERS)
def test_joiner_crash_after_join(clean, joiner):
    """The writer stops counting a dead joiner's clients unless its share
    already arrived; the heir takes the clients' re-ships."""
    (join,) = _records(clean, joiner, "join")
    (forward,) = _records(clean, joiner, "forward")
    for at in (join.t_end, (join.t_end + forward.t_start) / 2, forward.t_end):
        _result, machine = _crash(joiner, at)
        _assert_restored_once(machine)


def test_heir_asks_a_writer_between_its_retire_and_its_commit():
    """Joiner 0 dies once its share has reached the writer, which retires
    the path and then finds the disk full for 1.5 s: its commit waits,
    retrying.  Meanwhile 0's clients fail over to server 4, whose ask
    about their blocks is answered ``held``, then ``landed`` at the
    commit: the heir lands none of them."""
    config = ServerConfig(retry=RetryPolicy(base_delay=0.1))
    clean, _ = _launch(
        NPROCS, _write_main(3, nodes=EAGER_NODES, server_config=config), spec=turing()
    )
    staged = _records(clean, WRITER, "merge") + _records(clean, WRITER, "bg_write")
    retire = max(r.t_end for r in staged)
    (forward,) = _records(clean, 0, "forward")
    assert forward.t_end < retire
    full = DiskFull(at_time=retire, capacity_bytes=0, duration=1.5)
    result, machine = _crash(0, forward.t_end, full, config=config)
    asks = _records(result, 4, "ask")
    # The attempts the full disk refused land no bytes.
    (commit,) = [r for r in _records(result, WRITER, "land") if r.nbytes]
    assert len(asks) == 3 and all(retire < a.t_start < commit.t_start for a in asks)
    assert machine.disk.listdir("") == ["ck_s0002.shdf"]
    _assert_restored_once(machine)


def test_a_peer_that_dies_before_it_answers_is_not_waited_for():
    """Clients 1-3 write ``d``, a path their server 0 writes; clients 5-7
    (server 4) write nothing and compute a while.  0's share is
    latency-bound, so it asks 4, which keeps its answer until its clients
    are quiet — and dies first.  The writer retires ``d`` without it,
    4's clients fail over to 0, and ``d`` restores exactly."""

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
        if ctx.rank < 4:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "d")
        else:
            yield from ctx.sleep(0.05)
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()
        return ("client", panda.stats)

    crash_at = 0.02
    result, machine = _launch(
        8, main, plan=FaultPlan((ServerCrash(rank=4, at_time=crash_at),)), spec=turing()
    )
    assert machine.is_dead(4)
    assert machine.disk.listdir("") == ["d_s0000.shdf"]
    # The writer's file was committed only after the peer's death.
    close = [r for r in _records(result, 0, "settle") if r.path == "d_s0000.shdf"][-1]
    assert close.t_start > crash_at
    committed = _committed_blocks(machine.disk)
    expected = {
        pid: arrays for rank in range(3) for pid, arrays in _registered(rank, EAGER_NODES).items()
    }
    assert committed == {"d_s0000.shdf": set(expected)}
    _attrs, blocks = file_blocks(machine.disk.open("d_s0000.shdf").read())
    for pid, (coords, pressure) in expected.items():
        assert blocks[pid][2]["coords"][3] == coords.tobytes()
        assert blocks[pid][2]["pressure"][3] == pressure.tobytes()
    clients = [s for kind, s in result.returns if kind == "client"]
    assert sum(c.failovers for c in clients) == 3
