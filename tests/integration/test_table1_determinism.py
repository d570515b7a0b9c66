"""Virtual-time determinism pin for the Table 1 experiment.

Host-side work (scheduling, matching, codec, shipping and restart
paths) must not move simulated time at all: every Table 1 metric at 64
compute processors must equal these values bit for bit.  A change that
means to move one re-derives the pin and says so.

Captured at ``run_table1(proc_counts=(64,), nruns=1, scale=0.02,
steps=12, snapshot_interval=4)``.  ``restart_rocpanda`` was last moved
(1.1274 -> 0.0926) when the servers began landing a write-behind
stage's blocks as one record per attribute: the sieved restart read
pays a metadata round trip per record, and the files now hold a record
per attribute per stage instead of one per block-array.
"""

from repro.bench.table1 import run_table1

#: Virtual-time results, 64 compute processors (exact floats).
REFERENCE_64P = {
    "computation": 1.550125114528625,
    "rochdf": 6.373118197948319,
    "trochdf": 4.536586323580905,
    "rocpanda": 0.01210131640625011,
    "restart_rochdf": 0.2345703968658447,
    "restart_rocpanda": 0.09262652164233137,
}


def test_table1_64p_virtual_times_are_pinned():
    result = run_table1(
        proc_counts=(64,), nruns=1, scale=0.02, steps=12, snapshot_interval=4
    )
    assert {m: result.value(m, 64) for m in REFERENCE_64P} == REFERENCE_64P
