"""A record is the only clock: every second an I/O module or a Rocpanda
server reports is the duration of one of its own ``IORecord`` s, folded
into its stats where the record is made.

Rochdf's ``sync`` on a burst tier waits for the tier's drain; before the
stats folded the records, its ``sync`` records held that wait and
``IOStats.sync_time`` read 0.
"""

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.fs import TierConfig
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.obs import OpSeconds


def run(io_mode, storage_tier="direct"):
    machine = Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=0)
    nservers = 1 if io_mode == "rocpanda" else 0
    config = GENxConfig(
        workload=lab_scale_motor(
            scale=0.05, nblocks_fluid=16, nblocks_solid=8, steps=8, snapshot_interval=4,
        ),
        io_mode=io_mode, nservers=nservers, prefix="rc", storage_tier=storage_tier,
        # Below one snapshot's bytes: the tier evicts, so a sync waits.
        tier_config=TierConfig(capacity_bytes=64 * 1024, drain_chunk_bytes=16 * 1024),
    )
    return run_genx(machine, 4 + nservers, config)


def folded(records, rank, module):
    seconds = OpSeconds()
    for record in records:
        if (record.rank, record.module) == (rank, module):
            seconds.fold(record)
    return seconds.seconds


def test_rochdf_sync_time_is_its_sync_records_on_the_burst_tier():
    result = run("rochdf", "burst")
    assert result.machine.fs.stats.evictions
    for client in result.clients:
        syncs = [
            r.duration for r in result.recorder.io_records
            if (r.rank, r.module, r.op) == (client.rank, "rochdf", "sync")
        ]
        assert client.io_stats.sync_time > 0
        assert client.io_stats.sync_time == sum(syncs)


@pytest.mark.parametrize("io_mode", ["rochdf", "trochdf", "rocpanda"])
@pytest.mark.parametrize("storage_tier", ["direct", "burst"])
def test_every_holders_seconds_are_its_records_folded(io_mode, storage_tier):
    """Client and server stats time nothing the records do not: their
    per-op seconds are exactly their records' durations, summed in
    record order, and the time fields read those sums."""
    result = run(io_mode, storage_tier)
    records = result.recorder.io_records
    for client in result.clients:
        stats = client.io_stats
        assert stats.seconds == folded(records, client.rank, io_mode)
        assert stats.visible_write_time == stats.seconds["write_attribute"] > 0
        assert stats.sync_time == stats.seconds.get("sync", 0.0)
    for server in result.servers:
        assert server.stats.seconds == folded(records, server.rank, "rocpanda")
        assert server.stats.background_write_time > 0
