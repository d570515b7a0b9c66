"""Why ``Environment.run`` may hold the cycle collector: a job's cyclic
garbage does not grow with its length.

The simulator frees what a job allocates by reference count; what is
left for the collector once a job returns is the job's skeleton (rank
contexts, communicators, mailboxes, pooled envelopes), whose size does
not depend on how many steps the job ran.  So with the collector off
for a whole job and its result still alive, one ``gc.collect()`` finds
the same count after 4 steps as after 16 — for Rochdf, T-Rochdf, a
Rocpanda write and a Rocpanda restart, fault-free and with transient
EIO on every snapshot (more faults in the longer job), and for the two
Rocpanda jobs with a server crash.  A path that left a cycle per event,
per message or per fault — an exception parked with its traceback in a
frame it references, say — would make the longer job's count larger.
"""

import gc

import pytest

from repro.cluster import Machine, turing
from repro.faults import FaultPlan, ServerCrash, TransientEIO
from repro.fs.vfs import VirtualDisk
from repro.genx import GENxConfig, lab_scale_motor, run_genx

NCLIENTS, NSERVERS = 8, 2
MOTOR = dict(scale=0.02, nblocks_fluid=16, nblocks_solid=8, snapshot_interval=2)
SHORT, LONG = 4, 16
#: The first server rank, at an instant both lengths share: the write
#: job's first snapshot is still shipping, the restart job still reading.
CRASH = ServerCrash(rank=0, at_time=0.02)


def _eio(prefix: str, steps: int) -> FaultPlan:
    """Two write faults on every snapshot the job writes."""
    return FaultPlan(tuple(
        TransientEIO(path_prefix=f"{prefix}_{step:06d}_", count=2)
        for step in range(0, steps + 1, MOTOR["snapshot_interval"])
    ))


def _config(service: str, steps: int, prefix: str = "gc", **kw) -> GENxConfig:
    return GENxConfig(
        workload=lab_scale_motor(steps=steps, **MOTOR), io_mode=service,
        nservers=NSERVERS if service == "rocpanda" else 0, prefix=prefix, **kw,
    )


def _nranks(config: GENxConfig) -> int:
    return NCLIENTS + config.nservers


@pytest.fixture(scope="module")
def checkpoint():
    """The disk a restart job reads: a Rocpanda snapshot at step 2."""
    machine = Machine(turing(), seed=100)
    config = _config("rocpanda", 2, prefix="ckpt", initial_snapshot=False)
    run_genx(machine, _nranks(config), config)
    return machine.disk


def _cyclic_garbage(job, steps: int, plan: str, checkpoint_disk) -> tuple:
    """``(objects one collection finds, io retries)`` after one job run
    with the collector off throughout and its result alive."""
    service = "rocpanda" if job.startswith("rocpanda") else job
    extra = dict(restart_step=2, restart_prefix="ckpt") if job == "rocpanda_restart" else {}
    config = _config(service, steps, **extra)
    disk = None
    if extra:
        disk = VirtualDisk()
        for path in checkpoint_disk.listdir():
            disk.create(path).append(checkpoint_disk.open(path).read())
    machine = Machine(turing(), seed=100, disk=disk)
    if plan == "eio":
        machine.install_faults(_eio(config.prefix, steps))
    elif plan == "crash":
        machine.install_faults(FaultPlan((CRASH,)))
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        result = run_genx(machine, _nranks(config), config)
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    retries = sum(c.io_stats.retries for c in result.clients) + sum(
        s.stats.write_retries for s in result.servers
    )
    if plan == "crash":
        assert any(s.stats.crashed for s in result.servers)
    return found, retries


CASES = [
    (job, plan)
    for job in ("rochdf", "trochdf", "rocpanda", "rocpanda_restart")
    for plan in ("clean", "eio", "crash")
    if plan != "crash" or job.startswith("rocpanda")
]


@pytest.mark.parametrize("job,plan", CASES, ids=[f"{j}-{p}" for j, p in CASES])
def test_cyclic_garbage_does_not_grow_with_the_job(job, plan, checkpoint):
    short, short_retries = _cyclic_garbage(job, SHORT, plan, checkpoint)
    long, long_retries = _cyclic_garbage(job, LONG, plan, checkpoint)
    if plan == "eio":
        assert long_retries > short_retries > 0
    assert long == short
