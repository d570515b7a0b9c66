"""The weak workload where the write slot is contended, and where it is not.

A busy lander's stage grows for as long as the lander has to wait, so
what bounds it is the server's buffer (``_make_room``), not the stage
limit; and where the filesystem has a slot per server nobody waits at
all.  A server's file holds a record per attribute per stage, so where
the network, the slot and an overflowing buffer's back-pressure put the
seals decides its bytes — across machines and buffer sizes the files
are compared by the blocks they restore to, not byte by byte.
"""

import pytest

from repro.cluster import Machine, frost, turing
from repro.faults import FaultPlan, ServerCrash
from repro.genx import GENxConfig, run_genx, scalability_cylinder
from repro.io import ServerConfig
from tests.restored import by_path, restored

PER_CLIENT = 0.05 * 2**20


def _weak(spec, nclients, nservers, server_config=None, per_client=PER_CLIENT, plan=None):
    """One weak-scaling job; returns (result, fs metrics, lease, blocks)."""
    cylinder = scalability_cylinder(
        blocks_per_client_fluid=2, blocks_per_client_solid=1,
        per_client_bytes=per_client, steps=2, snapshot_interval=2,
    )
    machine = Machine(spec, seed=100)
    if plan is not None:
        machine.install_faults(plan)
    config = GENxConfig(
        workload=cylinder, io_mode="rocpanda", nservers=nservers, prefix="k",
        server_config=server_config,
    )
    result = run_genx(machine, nclients + nservers, config)
    return result, machine.fs.metrics, machine.fs.write_lease(), restored(machine.disk)


def _holds(result):
    return sum(s.stats.seconds.get("land", 0.0) for s in result.servers)


def test_gpfs_grants_two_slots_and_writes_what_turing_writes():
    on_turing, nfs, nfs_lease, turing_files = _weak(turing(), 32, 4)
    on_frost, gpfs, gpfs_lease, frost_files = _weak(frost(), 32, 4)
    assert (nfs_lease.capacity, nfs.peak_write_demand) == (1, 1)
    # Frost's GPFS has a slot per server node: two landers write at once,
    # each hold still nothing but its own bytes.
    assert (gpfs_lease.capacity, gpfs.peak_write_demand) == (2, 2)
    assert _holds(on_frost) == pytest.approx(gpfs.write_busy_time, abs=1e-9)
    assert _holds(on_turing) == pytest.approx(nfs.write_busy_time, abs=1e-9)
    waits = [
        sum(s.stats.seconds.get("slot_wait", 0.0) for s in r.servers)
        for r in (on_frost, on_turing)
    ]
    assert 0 < waits[0] < waits[1]
    assert by_path(frost_files) == by_path(turing_files)
    # A slot per Rocpanda server: nobody queues.
    two_servers, gpfs, gpfs_lease, _files = _weak(frost(), 32, 2)
    assert gpfs.peak_write_demand == gpfs_lease.capacity == 2
    assert [s.stats.seconds.get("slot_wait", 0.0) for s in two_servers.servers] == [0.0, 0.0]


def test_a_buffer_below_one_snapshot_share_bounds_the_stage():
    """16 servers at Turing's one slot, each with room for half of what
    its eight clients ship per snapshot: the stage cannot grow past the
    buffer, the senders wait for landings, and the run ends with the
    same records on disk."""
    roomy, _metrics, _lease, reference = _weak(turing(), 128, 16)
    share = 8 * PER_CLIENT
    tight, metrics, lease, files = _weak(
        turing(), 128, 16, ServerConfig(buffer_bytes=share / 2)
    )
    assert sum(s.stats.overflow_flushes for s in roomy.servers) == 0
    assert sum(s.stats.overflow_flushes for s in tight.servers) > 0
    assert max(s.stats.peak_buffered_bytes for s in roomy.servers) > share / 2
    assert max(s.stats.peak_buffered_bytes for s in tight.servers) <= share / 2
    assert tight.visible_io_time > roomy.visible_io_time
    assert _holds(tight) == pytest.approx(metrics.write_busy_time, abs=1e-9)
    assert metrics.peak_write_demand == 1 and lease.count == 0 and not lease.queue
    assert by_path(files) == by_path(reference)


@pytest.mark.parametrize(
    "fraction, wall, visible",
    [(0.5, 3.6810, 1.9591), (0.1, 4.7822, 3.4439), (0.02, 5.1342, 3.6571)],
)
def test_back_pressure_is_waited_for_with_or_without_an_idle_plan(fraction, wall, visible):
    """A guard that expires against a live server costs nothing but the
    guard.  With room for a tenth of a snapshot share a sender waits
    seconds for landings: its announcement stays posted and keeps its
    place, so the run takes what it took before sends were guarded —
    it used to end in "kept timing out" once any plan was installed."""
    per_client = 0.5 * 2**20
    config = ServerConfig(buffer_bytes=8 * per_client * fraction)
    idle = FaultPlan((ServerCrash(rank=0, at_time=1e9),))
    plain, _metrics, _lease, reference = _weak(turing(), 128, 16, config, per_client)
    guarded, _metrics, _lease, files = _weak(
        turing(), 128, 16, config, per_client, plan=idle
    )
    assert (plain.wall_time, plain.visible_io_time) == pytest.approx((wall, visible), abs=5e-5)
    assert (guarded.wall_time, guarded.visible_io_time) == (
        plain.wall_time, plain.visible_io_time,
    )
    assert files == reference
    for result in (plain, guarded):
        assert sum(c.io_stats.retries + c.io_stats.failovers for c in result.clients) == 0
