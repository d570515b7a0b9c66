"""The Rocpanda restart read at the filesystem's read width.

A server scans every file of its share at once and starts every
region's sieved read at once; the filesystem's read slots queue them
(eight on Turing's NFS).  The main loop takes the regions in file order
as they land, and its time splits into three ``ServerStats`` terms that
sum to each restart's ``restart_scan`` record.
"""

import pytest

from repro.cluster import Machine, turing
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx

NCLIENTS = 8


def _restart(spec, write_servers: int, restart_servers: int):
    """Write a two-step motor at ``write_servers``, restart its step-2
    snapshot at ``restart_servers``; the restart job's result.  At this
    scale every server's share of a window is byte-bound, so each writer
    lands a file per window, a record per attribute per stage."""
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
    """Open and close round trips + waiting for regions + batch sends =
    the ``restart_scan`` records of the server, to float rounding."""
    result = _restart(_box, write_servers, restart_servers)
    for server in result.servers:
        stats = server.stats
        terms = (
            stats.restart_scan_time,
            stats.restart_read_wait_time,
            stats.restart_scatter_time,
        )
        records = [
            r for r in result.recorder.io_records
            if r.op == "restart_scan" and r.rank == server.rank
        ]
        assert records and all(term > 0 for term in terms), terms
        assert sum(terms) == pytest.approx(sum(r.duration for r in records), rel=0, abs=1e-12)
