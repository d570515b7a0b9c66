"""A job's exported counts come from the stats that hold them.

Each count (a retry, a failover, a write flush, a fired fault) lives in
one field: the clients' ``IOStats``, the Rocpanda servers'
``ServerStats``, the burst tier's ``TierStats`` or the fault injector's
``fired``.  ``summary_payload``'s ``counters`` (what ``trace`` and
``demo`` export) must equal, per module, the sum of those fields over
the job's holders, for a Rocpanda write that loses a server and hits
transient EIO and for a T-Rochdf write that meets a full disk.
"""

from collections import Counter

import pytest

from repro.cluster import Machine, turing
from repro.faults import DiskFull, FaultPlan, ServerCrash, TransientEIO
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.obs import summary_payload

MOTOR = dict(scale=0.02, nblocks_fluid=16, nblocks_solid=8, snapshot_interval=2, steps=4)

#: What each holder exports, by field.
CLIENT_COUNTS = (
    "retries", "failovers", "sync_reasks", "torn_files_skipped", "background_write_failures",
)
SERVER_COUNTS = (
    "write_flushes", "write_retries", "overflow_flushes", "orphan_blocks_stashed",
    "duplicate_blocks_dropped", "crashed", "forwarded_shares", "refused_joins",
    "read_retries", "torn_files_skipped", "restart_resumes_served",
)

RUNS = {
    # The first server dies while the first snapshot ships; three
    # writes fault and are retried.
    "rocpanda": (2, (ServerCrash(rank=0, at_time=0.02), TransientEIO(count=3))),
    # The disk is full while the I/O threads land the first snapshot.
    "trochdf": (0, (DiskFull(at_time=0.0, capacity_bytes=4096, duration=0.05),)),
}


def _summed(holders, names) -> Counter:
    total = Counter()
    for holder in holders:
        for name in names:
            total[name] += int(getattr(holder, name))
    return total


@pytest.fixture(scope="module", params=sorted(RUNS))
def faulted(request):
    service = request.param
    nservers, faults = RUNS[service]
    machine = Machine(turing(), seed=100)
    machine.install_faults(FaultPlan(faults))
    config = GENxConfig(
        workload=lab_scale_motor(**MOTOR), io_mode=service, nservers=nservers, prefix="pc",
    )
    return service, run_genx(machine, 8 + nservers, config)


def test_exported_counts_are_the_sums_of_the_stats_fields(faulted):
    service, result = faulted
    held = _summed((c.io_stats for c in result.clients), CLIENT_COUNTS)
    held += _summed((s.stats for s in result.servers), SERVER_COUNTS)
    expected = {"faults": dict(result.machine.faults.fired), service: dict(+held)}
    counters = summary_payload(result.recorder, result.stats())["counters"]
    assert counters == expected


def test_the_faults_left_counts_to_export(faulted):
    """Neither run is vacuous: its faults fired and were recovered."""
    service, result = faulted
    counts = summary_payload(result.recorder, result.stats())["counters"][service]
    if service == "rocpanda":
        assert counts["crashed"] == 1
        assert counts["failovers"] >= 1 and counts["write_retries"] >= 1
    else:
        assert counts["retries"] >= 1
