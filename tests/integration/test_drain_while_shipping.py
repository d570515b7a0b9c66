"""The lander drains a server's queue while its clients are still shipping.

A Rocpanda server's main loop only receives; its lander stages what is
queued, seals and lands.  So in a job with no compute to hide the drain
behind — a restart that writes its restored windows straight back out —
a snapshot's first landing does not wait for its last block, and the
clients see exactly the visible I/O they saw when the main loop staged.
"""

from repro.cluster import Machine, turing
from repro.genx import GENxConfig, lab_scale_motor, run_genx

#: The write-back's visible I/O when the main loop staged between
#: messages (the blocks' sends do not wait on staging either way).  It
#: moved by 14 us when the restart became one collective per snapshot:
#: the write-back starts at another instant of Turing's load draw.  Its
#: last digits moved (float rounding, 2e-16 s) when restart regions
#: began to be read in stripes: the write-back starts sooner.
VISIBLE_IO = 0.10890952525904152


def test_the_first_landing_starts_before_the_last_block_is_in():
    motor = lab_scale_motor(
        scale=0.2, steps=2, snapshot_interval=2, nblocks_fluid=16, nblocks_solid=8
    )
    panda = dict(workload=motor, io_mode="rocpanda", nservers=2)
    machine = Machine(turing(), seed=100)
    run_genx(machine, 10, GENxConfig(prefix="w", **panda))
    restart = Machine(turing(), seed=100, disk=machine.disk)
    result = run_genx(
        restart, 10,
        GENxConfig(prefix="r", steps=0, restart_step=2, restart_prefix="w", **panda),
    )
    # Byte-bound shares at two servers: every server lands its own files.
    assert [s.stats.joined_shares for s in result.servers] == [0, 0]
    assert result.computation_time == 0.0
    records = result.recorder.io_records
    first_land = min(r.t_start for r in records if r.op == "land")
    last_ingest = max(r.t_end for r in records if r.op == "ingest")
    assert first_land < last_ingest
    assert result.visible_io_time == VISIBLE_IO
