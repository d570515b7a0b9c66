"""One collective restart per snapshot.

``Rocman.restore`` names every physics window in one ``read_attribute``
call, and Rocpanda serves it as one two-phase collective: each client
sends every server one :class:`RestartRequest` carrying all three
windows, each server reads its share of every window's files at once,
scatters the regions as they land and sends each client one
:class:`RestartDone`.  A server that dies mid-restart is resumed by its
heir for each window's still-missing blocks.
"""

from collections import Counter

import pytest

from repro.cluster import Machine, turing
from repro.faults import FaultPlan, ServerCrash
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.genx.rocman import Rocman
from repro.io import collect_blocks, server_ranks
from repro.io.rocpanda.protocol import RestartDone, RestartRequest
from repro.vmpi.comm import Comm

NCLIENTS = 8
WRITE_SERVERS = 4
RESTART_SERVERS = 2
WINDOWS = ("Rocflo", "Rocfrac", "Rocburn")


@pytest.fixture(scope="module")
def checkpoint():
    """The disk of a two-step motor written by 4 servers."""
    machine = Machine(turing(), seed=100)
    run_genx(
        machine, NCLIENTS + WRITE_SERVERS,
        GENxConfig(nservers=WRITE_SERVERS, prefix="w", **_panda()),
    )
    return machine.disk


def _panda():
    motor = lab_scale_motor(
        scale=0.2, steps=2, snapshot_interval=2, nblocks_fluid=16, nblocks_solid=8
    )
    return dict(workload=motor, io_mode="rocpanda")


def _restart(disk, plan=None):
    """Restart the step-2 snapshot at 2 servers (no steps: the restored
    windows are written back out)."""
    machine = Machine(turing(), seed=100, disk=disk)
    if plan is not None:
        machine.install_faults(plan)
    return run_genx(
        machine, NCLIENTS + RESTART_SERVERS,
        GENxConfig(
            nservers=RESTART_SERVERS, prefix="r", steps=0,
            restart_step=2, restart_prefix="w", **_panda(),
        ),
    )


def _block_digest(block):
    return (
        block.nnodes,
        block.nelems,
        {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in block.arrays.items()},
    )


@pytest.fixture
def restored_windows(monkeypatch):
    """rank -> window -> block ID -> the block as the restore left it."""
    out = {}
    restore = Rocman.restore

    def restore_and_keep(self, step, run_prefix=None):
        elapsed = yield from restore(self, step, run_prefix)
        out[self.ctx.rank] = {
            module.window_name: {
                block.block_id: _block_digest(block)
                for block in collect_blocks(self.com, module.window_name)
            }
            for module in self.physics
        }
        return elapsed

    monkeypatch.setattr(Rocman, "restore", restore_and_keep)
    return out


@pytest.fixture
def restart_messages(monkeypatch):
    """Every RestartRequest and RestartDone sent: (source, dest, message)."""
    sent = []
    send = Comm.send

    def recording_send(self, obj, dest, tag=0, nbytes=None):
        if isinstance(obj, (RestartRequest, RestartDone)):
            sent.append((self.global_rank(), self.group[dest], obj))
        return send(self, obj, dest, tag, nbytes)

    monkeypatch.setattr(Comm, "send", recording_send)
    return sent


def test_one_request_and_one_done_per_client_server_pair(checkpoint, restart_messages):
    result = _restart(checkpoint)
    servers = server_ranks(NCLIENTS + RESTART_SERVERS, RESTART_SERVERS)
    clients = [c.rank for c in result.clients]
    requests = Counter(
        (src, dest) for src, dest, msg in restart_messages if isinstance(msg, RestartRequest)
    )
    dones = Counter(
        (src, dest) for src, dest, msg in restart_messages if isinstance(msg, RestartDone)
    )
    assert requests == {(c, s): 1 for c in clients for s in servers}
    assert dones == {(s, c): 1 for s in servers for c in clients}
    for _src, _dest, msg in restart_messages:
        if isinstance(msg, RestartRequest):
            assert msg.window == WINDOWS
            assert all(ids for ids in msg.block_ids), msg


def test_a_server_killed_mid_restart_is_resumed_per_window(
    checkpoint, restored_windows, restart_messages
):
    """Written at 4 servers, restarted at 2, the second server dies while
    its reads are in flight: its heir serves each window's still-missing
    blocks and every window restores bit for bit."""
    reference = _restart(checkpoint)
    expected = dict(restored_windows)
    restored_windows.clear()
    del restart_messages[:]
    victim = server_ranks(NCLIENTS + RESTART_SERVERS, RESTART_SERVERS)[1]
    crash = ServerCrash(rank=victim, at_time=0.02)
    assert crash.at_time < reference.restart_time / 4
    result = _restart(checkpoint, FaultPlan((crash,)))
    assert restored_windows == expected
    assert all(tuple(windows) == WINDOWS for windows in expected.values())
    resumes = [
        msg for _src, _dest, msg in restart_messages
        if isinstance(msg, RestartRequest) and msg.resume_of == victim
    ]
    assert resumes
    # One resume names every window, and carries the missing blocks of
    # more than one of them.
    assert all(msg.window == WINDOWS for msg in resumes)
    assert any(sum(1 for ids in msg.block_ids if ids) > 1 for msg in resumes)
    assert sum(c.io_stats.failovers for c in result.clients) > 0


def test_one_collective_beats_three_one_window_restarts(checkpoint, monkeypatch):
    """At 2 servers, restoring the whole snapshot at once takes less time
    than restoring its three windows in three separate jobs: the two
    smaller windows add less to the largest window's restart than the
    smallest of them costs alone, since their reads overlap its."""
    whole = _restart(checkpoint).restart_time
    restore = Rocman.restore
    singles = []
    for k in range(3):
        def restore_one(self, step, run_prefix=None, k=k):
            physics, self.physics = self.physics, self.physics[k : k + 1]
            try:
                return (yield from restore(self, step, run_prefix))
            finally:
                self.physics = physics

        monkeypatch.setattr(Rocman, "restore", restore_one)
        singles.append(_restart(checkpoint).restart_time)
    assert all(single > 0 for single in singles)
    assert whole < sum(singles)
    assert whole - max(singles) < min(singles)
