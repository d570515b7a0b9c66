"""The seven named workloads, built through the public API only.

Each workload is a short sequence of ``run_genx`` jobs plus the snapshot
to digest afterwards.  Sizes are chosen so one warm job costs 1-2 host
seconds on a 2-core box: the driver makes 158 runs inside 57 minutes,
and a steady median needs six or more timed jobs per run.  ``README.md``
records how each size relates to the paper's and to ISSUE 11's sizing
table.

``SIZES["smoke"]`` shrinks every workload through the same builders so
``test_smoke.py`` exercises the identical code path in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults import FaultPlan, TransientEIO
from repro.fs.tiers import TierConfig
from repro.genx import GENxConfig, lab_scale_motor, scalability_cylinder

MIB = 1024 * 1024

SIZES = {
    "bench": {
        # W1-W5 share one dataset: the lab-scale motor of paper section
        # 7.1 at half its bytes, three output phases instead of five.
        "motor_clients": 64,
        "motor_servers": 8,
        "motor": dict(scale=0.5, steps=8, snapshot_interval=4),
        # Below the ~150 MB the job writes, so watermarks, eviction and
        # the drain all run.
        "burst_capacity": 48 * MIB,
        "eio_start": 5.0,
        "restart_servers": (8, 4, 2),
        "weak_clients": 128,
        "weak": dict(per_client_bytes=0.5 * MIB, steps=2, snapshot_interval=2),
        "strong_clients": 256,
        "strong": dict(
            scale=0.05, steps=4, snapshot_interval=4,
            nblocks_fluid=1024, nblocks_solid=1024,
        ),
    },
    "smoke": {
        "motor_clients": 8,
        "motor_servers": 2,
        "motor": dict(
            scale=0.02, steps=4, snapshot_interval=2,
            nblocks_fluid=16, nblocks_solid=8,
        ),
        "burst_capacity": 1 * MIB,
        "eio_start": 0.2,
        "restart_servers": (2, 1),
        "weak_clients": 8,
        "weak": dict(per_client_bytes=0.05 * MIB, steps=2, snapshot_interval=2),
        "strong_clients": 16,
        "strong": dict(
            scale=0.01, steps=4, snapshot_interval=4,
            nblocks_fluid=32, nblocks_solid=32,
        ),
    },
}

#: Rocpanda's client:server ratio on Turing (paper section 7.1).
RATIO = 8


@dataclass(frozen=True)
class Job:
    """One ``run_genx`` call and the snapshot it must leave behind."""

    nranks: int
    config: GENxConfig
    #: Step of the snapshot (under ``config.prefix``) to digest.
    check_step: int
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class Workload:
    """One named workload; BENCHMARK.json says why each one exists."""

    name: str
    #: Key into golden.json: workloads sharing it must digest equal.
    dataset: str
    #: The timed region runs these back to back.
    jobs: Tuple[Job, ...]
    #: Untimed set-up job whose disk every timed job starts from.
    checkpoint: Optional[Job] = None
    #: Table 1 64-processor visible-I/O cell this workload reproduces.
    paper_visible_io_s: Optional[float] = None


def build(name: str, size: str = "bench") -> Workload:
    """Construct one workload (mesh specs included; part of set-up)."""
    p = SIZES[size]
    nclients, nservers = p["motor_clients"], p["motor_servers"]

    def motor_job(io_mode, **kw):
        motor = lab_scale_motor(**p["motor"])
        servers = nservers if io_mode == "rocpanda" else 0
        config = GENxConfig(
            workload=motor, io_mode=io_mode, nservers=servers, prefix=name, **kw
        )
        return Job(nclients + servers, config, check_step=motor.steps)

    def one(job, dataset="motor", **kw):
        return Workload(name, dataset, (job,), **kw)

    if name == "rochdf_write_64":
        return one(motor_job("rochdf"), paper_visible_io_s=51.19)
    if name == "rocpanda_write_64":
        return one(motor_job("rocpanda"), paper_visible_io_s=1.94)
    if name == "rochdf_burst_64":
        tier = TierConfig(capacity_bytes=p["burst_capacity"])
        return one(motor_job("rochdf", storage_tier="burst", tier_config=tier))
    if name == "trochdf_faults_64":
        job = motor_job("trochdf")
        plan = FaultPlan((TransientEIO(start=p["eio_start"], count=8),))
        return one(Job(job.nranks, job.config, job.check_step, faults=plan))
    if name == "rocpanda_restart_64":
        # One checkpoint at step 2, then restart it at each server count.
        # steps=0 with the default initial snapshot writes the restored
        # windows back out, which is what makes them checkable.
        motor = lab_scale_motor(**dict(p["motor"], steps=2, snapshot_interval=2))
        checkpoint = Job(
            nclients + nservers,
            GENxConfig(
                workload=motor, io_mode="rocpanda", nservers=nservers,
                prefix="ckpt", initial_snapshot=False,
            ),
            check_step=2,
        )
        jobs = tuple(
            Job(
                nclients + ns,
                GENxConfig(
                    workload=motor, io_mode="rocpanda", nservers=ns,
                    prefix=f"restart{ns}", steps=0,
                    restart_step=2, restart_prefix="ckpt",
                ),
                check_step=0,
            )
            for ns in p["restart_servers"]
        )
        return Workload(name, "motor_step2", jobs, checkpoint=checkpoint)
    if name == "rocpanda_weak_128":
        nclients = p["weak_clients"]
        cylinder = scalability_cylinder(
            blocks_per_client_fluid=2, blocks_per_client_solid=1, **p["weak"]
        )
        servers = max(1, nclients // RATIO)
        config = GENxConfig(
            workload=cylinder, io_mode="rocpanda", nservers=servers, prefix=name
        )
        return one(Job(nclients + servers, config, cylinder.steps), dataset="cylinder")
    if name == "rocpanda_strong_256":
        nclients = p["strong_clients"]
        motor = lab_scale_motor(**p["strong"])
        servers = max(1, nclients // RATIO)
        config = GENxConfig(
            workload=motor, io_mode="rocpanda", nservers=servers,
            prefix=name, initial_snapshot=False,
        )
        return one(Job(nclients + servers, config, motor.steps), dataset="motor_2048")
    raise KeyError(f"unknown workload {name!r}")
