"""Virtual-time determinism pin for the Table 1 experiment.

Host-side work (scheduling, matching, codec, shipping and restart
paths) must not move simulated time at all: every Table 1 metric at 64
compute processors must equal these values bit for bit.  A change that
means to move one re-derives the pin and says so.

Captured on the 64-processor rows of the Table 1 artefact
(:data:`repro.bench.ARTEFACTS`) at ``scale=0.02, steps=12,
snapshot_interval=4``, one run.  ``restart_rocpanda`` was last moved
(1.1274 -> 0.0926) when the servers began landing a write-behind
stage's blocks as one record per attribute: the sieved restart read
pays a metadata round trip per record, and the files now hold a record
per attribute per stage instead of one per block-array.  ``rochdf``
(6.3731 -> 4.3066), ``trochdf`` (4.5366 -> 2.8461) and ``computation``
(1.5501 -> 1.3958: the Rochdf run's time-step wall, whose collectives
wait less for ranks still writing) moved when a file's header and commit footer began
riding its one landing instead of being two more writes apiece.
``restart_rocpanda`` (0.0926 -> 0.1295) and ``rocpanda`` (one ulp)
moved when latency-bound shares began riding their path's writer: at
this scale each window lands in fewer files, so fewer restart servers
have a file to read (the price DESIGN §8 states).  ``restart_rocpanda``
(0.1295 -> 0.1421) and ``rocpanda`` (one ulp) moved when the servers'
lander began staging their queues itself, sealing a merged file's stages
by the same rule as any other's: the checkpoint's stages, and so its
records and the restart's reads, fall where the lander caught up.
``trochdf`` (2.8461 -> 1.3513) moved when T-Rochdf's I/O threads began
landing under the write-slot lease: one writer at the NFS server at a
time, so no transfer runs at the contention cap, and a snapshot's
drain, which the next snapshot's buffering waits for, ends sooner.
``restart_rocpanda`` (0.1421 -> 0.0623) moved when a snapshot's restart
became one collective: the servers read every window's share at once
and scatter the regions in the order they land.  ``restart_rocpanda``
(0.0623 -> 0.0505) moved when each region began to be read as stripes
of at most 512 KiB, all queued at the filesystem's read slots at one
instant: a region lands in about one stripe's time, and its scatter
overlaps the reads of the regions still in flight.
"""

from dataclasses import replace

from repro.bench import ARTEFACTS
from repro.genx import lab_scale_motor

#: Virtual-time results, 64 compute processors (exact floats).
REFERENCE_64P = {
    "computation": 1.3957797280234925,
    "rochdf": 4.306616666617703,
    "trochdf": 1.3513299997312143,
    "rocpanda": 0.01210131640625011,
    "restart_rochdf": 0.2345703968658447,
    "restart_rocpanda": 0.05049925844658659,
}


def test_table1_64p_virtual_times_are_pinned():
    sweep = ARTEFACTS["table1"].run
    result = replace(
        sweep,
        workload=lambda scale: lab_scale_motor(
            scale=0.02 * scale, steps=12, snapshot_interval=4
        ),
        rows=[row for row in sweep.rows if row.x == 64],
    )(runs=1)
    assert {m: result.value(m, 64) for m in REFERENCE_64P} == REFERENCE_64P
