"""The Rocpanda restart read at the filesystem's read width.

A server scans every file of its share at once and starts every
region's sieved read at once, each region's merged runs cut into
stripes of at most ``RESTART_STRIPE_BYTES`` queued at one instant; the
filesystem's read slots queue them (eight on Turing's NFS).  The main
loop takes the regions in file order as they land, and its records
split its time into three terms (scan, read wait, scatter) that tile
each restart and fold into its ``ServerStats``.
"""

import pytest

from repro.cluster import Machine, turing
from repro.cluster import testbox as make_testbox
from repro.des import Resource
from repro.faults import FaultPlan, ServerCrash
from repro.fs.models import FileSystemModel
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.genx.rocman import Rocman
from repro.io import collect_blocks, server_ranks
from repro.io.rocpanda import restart as restart_service

NCLIENTS = 8


def _restart(spec, write_servers: int, restart_servers: int, plan=None):
    """Write a two-step motor at ``write_servers``, restart its step-2
    snapshot at ``restart_servers`` under ``plan``; the restart job's
    result.  At this scale every server's share of a window is
    byte-bound, so each writer lands a file per window, a record per
    attribute per stage."""
    motor = lab_scale_motor(
        scale=0.8, steps=2, snapshot_interval=2, nblocks_fluid=16, nblocks_solid=8
    )
    panda = dict(workload=motor, io_mode="rocpanda")
    machine = Machine(spec(), seed=100)
    written = run_genx(
        machine, NCLIENTS + write_servers,
        GENxConfig(nservers=write_servers, prefix="w", **panda),
    )
    assert not any(server.stats.joined_shares for server in written.servers)
    restart = Machine(spec(), seed=100, disk=machine.disk)
    if plan is not None:
        restart.install_faults(plan)
    return run_genx(
        restart, NCLIENTS + restart_servers,
        GENxConfig(
            nservers=restart_servers, prefix="r", steps=0,
            restart_step=2, restart_prefix="w", **panda,
        ),
    )


def test_every_region_of_a_share_is_in_flight_at_once():
    """Written by 4 servers, restarted by 1: the one server's share is
    four files per window, read a region each (one rocflo file in two),
    and all the reads of a window share an instant (a depth-1 read-ahead
    overlaps two)."""
    result = _restart(turing, 4, 1)
    windows = {}
    for r in result.recorder.io_records:
        if r.module == "shdf" and r.op == "read_extents":
            windows.setdefault(r.path.rsplit("_s", 1)[0], []).append(r)
    assert {window: len(reads) for window, reads in windows.items()} == {
        "w_000002_rocflo": 5, "w_000002_rocfrac": 4, "w_000002_rocburn": 4,
    }
    for window, reads in windows.items():
        assert len({r.path for r in reads}) == 4, window
        assert max(r.t_start for r in reads) < min(r.t_end for r in reads), window


def _box():
    return make_testbox(nnodes=4, cpus_per_node=4)


@pytest.mark.parametrize("write_servers, restart_servers", [(2, 1), (3, 2)])
def test_the_restart_ledger_sums_to_each_restart(write_servers, restart_servers):
    """Open and close round trips + waiting for regions + batch sends
    tile the server's collective restart: its records follow each other
    without a gap from the open's start to the close's end, and its
    stats' terms are those records folded."""
    result = _restart(_box, write_servers, restart_servers)
    ops = ("restart_scan", "restart_read_wait", "restart_scatter")
    for server in result.servers:
        stats = server.stats
        terms = [stats.seconds.get(op, 0.0) for op in ops]
        records = [
            r for r in result.recorder.io_records
            if r.op in ops and r.rank == server.rank
        ]
        assert all(term > 0 for term in terms), terms
        assert [r.op for r in records[:: len(records) - 1]] == ["restart_scan"] * 2
        assert all(a.t_end == b.t_start for a, b in zip(records, records[1:]))
        for op, term in zip(ops, terms):
            assert term == sum(r.duration for r in records if r.op == op)
        assert sum(terms) == pytest.approx(
            records[-1].t_end - records[0].t_start, rel=0, abs=1e-12
        )
        # No scatter beats its own link: the sends take at least their
        # bytes at the fastest one.
        intra_bw = result.machine.spec.network.intra_bw
        assert stats.restart_scatter_bytes > 0
        assert stats.seconds["restart_scatter"] >= stats.restart_scatter_bytes / intra_bw


def test_every_restart_read_charges_at_most_one_stripe(monkeypatch):
    """Written by 4 servers, restarted by 1: every ``fs.read`` of the
    restart is a stripe of at most ``RESTART_STRIPE_BYTES``, and the
    multi-megabyte regions are cut into several."""
    charged = []
    read = FileSystemModel.read

    def recording_read(self, nbytes, node=None):
        charged.append(nbytes)
        return read(self, nbytes, node)

    monkeypatch.setattr(FileSystemModel, "read", recording_read)
    result = _restart(turing, 4, 1)
    regions = sum(s.stats.restart_regions_read for s in result.servers)
    assert sum(charged) == result.machine.fs.metrics.bytes_read
    assert max(charged) <= restart_service.RESTART_STRIPE_BYTES
    assert len(charged) > 2 * regions


@pytest.fixture
def restored_windows(monkeypatch):
    """rank -> window -> block ID -> the block's arrays as restored."""
    out = {}
    restore = Rocman.restore

    def restore_and_keep(self, step, run_prefix=None):
        elapsed = yield from restore(self, step, run_prefix)
        out[self.ctx.rank] = {
            module.window_name: {
                block.block_id: {k: a.tobytes() for k, a in block.arrays.items()}
                for block in collect_blocks(self.com, module.window_name)
            }
            for module in self.physics
        }
        return elapsed

    monkeypatch.setattr(Rocman, "restore", restore_and_keep)
    return out


@pytest.fixture
def read_slots(monkeypatch):
    """Every read-slot request of a restart server's reads, as a dict:
    the server's ``rank``, the process that started the read (a
    stripe's ``region``), and the instants it was ``asked``, ``granted``
    (``None`` if never) and ``released`` (``None`` if never)."""
    owner = {}
    start = restart_service.RestartService._start

    def owned_start(self, job, name):
        proc = start(self, job, name)
        owner[proc] = (self.ctx.rank, self.ctx.env.active_process)
        return proc

    held = {}
    request, release = Resource.request, Resource.release

    def logged_request(self):
        req = request(self)
        started = owner.get(self.env.active_process)
        if started is not None:
            rank, region = started
            entry = dict(
                rank=rank, region=region, asked=self.env.now, granted=None, released=None
            )
            req.callbacks.append(lambda _event: entry.update(granted=self.env.now))
            held[req] = entry
            log.append(entry)
        return req

    def logged_release(self, req):
        if req in held:
            held.pop(req)["released"] = self.env.now
        return release(self, req)

    log = []
    monkeypatch.setattr(restart_service.RestartService, "_start", owned_start)
    monkeypatch.setattr(Resource, "request", logged_request)
    monkeypatch.setattr(Resource, "release", logged_release)
    return log


def _split_regions(reads, at: float):
    """The regions with one stripe holding a slot at ``at`` and another
    queued for one."""
    held = {
        r["region"] for r in reads
        if r["granted"] is not None and r["granted"] < at
        and (r["released"] is None or r["released"] >= at)
    }
    queued = {
        r["region"] for r in reads
        if r["asked"] < at and (r["granted"] is None or r["granted"] >= at)
    }
    return held & queued


def test_a_crash_among_a_regions_stripes_keeps_no_read_slot(restored_windows, read_slots):
    """Written by 4 servers, restarted by 2 on Turing's NFS: the second
    server dies while one of its regions has a stripe holding a read
    slot and another waiting for one.  None of its reads holds a slot
    past the crash's instant or is granted one at it, and its heir
    restores every block bit for bit."""
    reference = _restart(turing, 4, 2)
    expected = dict(restored_windows)
    restored_windows.clear()
    victim = server_ranks(NCLIENTS + 2, 2)[1]
    # Mid-hold of the first stripe granted while another of its region
    # still waits.
    reads = [r for r in read_slots if r["rank"] == victim]
    at = next(
        (r["granted"] + r["released"]) / 2
        for r in sorted(reads, key=lambda r: r["granted"])
        if _split_regions(reads, (r["granted"] + r["released"]) / 2)
    )
    assert at < reference.restart_time / 2
    del read_slots[:]
    result = _restart(turing, 4, 2, FaultPlan((ServerCrash(rank=victim, at_time=at),)))
    reads = [r for r in read_slots if r["rank"] == victim]
    assert _split_regions(reads, at)
    # The crash withdraws the queued stripes before the held slots are
    # given back, so no stripe of the victim is granted one at its instant.
    for r in reads:
        assert r["granted"] is None or r["granted"] < at and r["released"] <= at, r
    survivor = [s for s in result.servers if s.rank != victim]
    assert survivor[0].stats.restart_resumes_served > 0
    assert restored_windows == expected
