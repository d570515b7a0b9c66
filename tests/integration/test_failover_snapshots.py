"""A server crash in a run that writes several snapshots.

Sixteen Turing clients and two servers (ranks 0 and 9) write the
lab-scale motor at steps 0, 2 and 4, and sync once, at the end.  One
server dies; its clients fail over to the other, the heir, and re-ship
every snapshot since their last sync.  The heir drops the re-shipped
blocks a committed file already holds — some of them overtake their
client's re-announcement, which must not count them again — so the
run completes, no block is in two committed files, and every window of
every snapshot restores through Rocketeer bit for bit as in the
fault-free run, the dead server's torn files skipped.
"""

import pytest

from repro.cluster import Machine, turing
from repro.faults import FaultPlan, ServerCrash
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.rocketeer import load_snapshot
from tests.integration.test_merge_crashes import _committed_blocks

NRANKS, NSERVERS, LAST = 18, 2, 4
STEPS = (0, 2, LAST)


def _run(plan=None):
    machine = Machine(turing(), seed=100)
    if plan is not None:
        machine.install_faults(plan)
    motor = lab_scale_motor(scale=0.1, steps=LAST, snapshot_interval=2)
    config = GENxConfig(workload=motor, io_mode="rocpanda", nservers=NSERVERS, prefix="m")
    return run_genx(machine, NRANKS, config)


def _restored(disk, step):
    snapshot = load_snapshot(disk, "m", step)
    return {
        window: {
            block_id: (
                block.nnodes, block.nelems,
                {a: (x.dtype.str, x.shape, x.tobytes()) for a, x in block.arrays.items()},
            )
            for block_id, block in blocks.items()
        }
        for window, blocks in snapshot.windows.items()
    }


@pytest.fixture(scope="module")
def clean():
    disk = _run().machine.disk
    return {step: _restored(disk, step) for step in STEPS}


#: Crashes that leave the dead server's file of a snapshot torn: the
#: steps whose snapshot holds one (a failover generation holds its blocks).
TORN = {(9, 1.4): {2}, (0, 0.05): {0}}


@pytest.mark.parametrize(
    "rank,at_time", [(9, 0.5), (0, 0.5), (9, 1.7), (0, 2.3), *TORN]
)
def test_the_run_completes_and_the_last_snapshot_restores(clean, rank, at_time):
    result = _run(FaultPlan((ServerCrash(rank=rank, at_time=at_time),)))
    disk = result.machine.disk
    torn = {step for step in STEPS if load_snapshot(disk, "m", step).torn}
    assert torn == TORN.get((rank, at_time), set())
    assert [s.stats.crashed for s in result.servers] == [s.rank == rank for s in result.servers]
    seen = set()
    for path, ids in _committed_blocks(disk).items():
        held = {(path.rsplit("_s", 1)[0], block_id) for block_id in ids}
        assert not held & seen, path
        seen |= held
    assert {step: _restored(disk, step) for step in STEPS} == clean
