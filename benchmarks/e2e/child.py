"""One interpreter's share of a run: set up, warm up, time jobs, verify, count.

Closed loop, one simulator job at a time.  The first job of the process
is cold (page faults, allocator pools, lazy imports) and is reported on
its own; the timed jobs that follow are what ``host_wall_s`` summarises.
Verification and counting sit outside every timed region.

Every host time is taken between two runs of a small fixed calibration
kernel.  This box speeds up and slows down by a quarter for tens of
seconds at a time (a neighbour on the same core), which no median within
a 12-second run can remove; dividing each timing by the calibration
taken beside it does.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import resource
import statistics
import time
from typing import Dict, List, Optional

#: Timed jobs per process before the time budget may end the loop.
MIN_TIMED = 3
#: Seconds one calibration slice takes on the 2-core box this was written
#: on; host times are reported as if the machine always ran at that speed.
CALIB_NOMINAL_S = 0.012

_CHUNK = bytes(4096)
_BIG_CHUNK = bytes(256 * 1024)


def calibration_slice() -> float:
    """A fixed ~12 ms of the kinds of work the simulator does.

    Half is cache-resident (interpreter arithmetic, small appends, a
    short sort), half leans on memory (object allocation and lookup,
    4 MB of ``bytearray.extend``, one pass over a 4 MB array): on
    recordings the first half tracked the event-bound workloads, the
    second the byte-bound ones, and their sum tracked both.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc, buf = 0, bytearray()
    for i in range(80_000):
        acc += i & 7
        if not i & 63:
            buf.extend(_CHUNK)
    np.sort(np.arange(150_000, dtype=np.float64)[::-1])

    pairs = [(i, i + 1) for i in range(12_000)]
    table = dict(enumerate(pairs))
    for i in range(12_000):
        acc += table[i][1]
    buf = bytearray()
    for _ in range(16):
        buf.extend(_BIG_CHUNK)
    (np.arange(500_000, dtype=np.float64) * 1.0001).sum()
    return time.perf_counter() - t0


def calibrate(slices: int = 7) -> float:
    """Median slice: one descheduling spike cannot move it."""
    return statistics.median(calibration_slice() for _ in range(slices))


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            t_start: float, golden: Optional[dict]) -> dict:
    """Run workload ``name`` for about ``seconds`` and report everything seen.

    ``seconds <= 0`` stops after set-up (a set-up-time sample).  With
    ``trace`` half the budget goes to untraced jobs (the base the
    overhead ratio needs) and one more job runs under cProfile.
    """
    # Imports, workload construction and the restart checkpoint are the
    # set-up a user pays per process, so they happen after t_start.
    import repro
    from repro.cluster import Machine, turing
    from repro.genx import run_genx

    import ledger
    from workloads import build

    workload = build(name, size)

    def fresh_machine(job, disk=None):
        machine = Machine(turing(), seed=seed, disk=disk)
        if job.faults is not None:
            machine.install_faults(job.faults)
        return machine

    checkpoint_disk = None
    if workload.checkpoint is not None:
        machine = fresh_machine(workload.checkpoint)
        run_genx(machine, workload.checkpoint.nranks, workload.checkpoint.config)
        checkpoint_disk = machine.disk
    out: dict = {
        "workload": name,
        "dataset": workload.dataset,
        "burst_tier": any(j.config.storage_tier == "burst" for j in workload.jobs),
        "setup_s": time.perf_counter() - t_start,
    }
    out["setup_calib_s"] = calibrate()
    if seconds <= 0:
        return out

    expected = (golden or {}).get(workload.dataset)
    verdict = {"attempted": 0, "failed": 0, "errors": []}

    def verify(disk, job) -> dict:
        nonlocal expected
        snap = digest_snapshot(disk, job.config.prefix, job.check_step)
        if expected is None:
            expected = snap["windows"]  # no golden: later snapshots must agree
        for label in sorted(set(expected) | set(snap["windows"])):
            want, got = expected.get(label), snap["windows"].get(label)
            nblocks = (want or got)["nblocks"]
            verdict["attempted"] += nblocks
            if want != got:
                verdict["failed"] += nblocks
                verdict["errors"].append(
                    f"{job.config.prefix}@{job.check_step} window {label}: "
                    f"expected {want}, restored {got}"
                )
        return snap

    if checkpoint_disk is not None:
        verify(checkpoint_disk, workload.checkpoint)

    def run_once(profiler=None):
        machines = [
            fresh_machine(job, copy_disk(checkpoint_disk)) for job in workload.jobs
        ]
        gc.collect()
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        results = [
            run_genx(m, job.nranks, job.config) for m, job in zip(machines, workload.jobs)
        ]
        wall = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        return wall, machines, results

    def observe(machines, results) -> Dict[str, float]:
        checked = [verify(m.disk, job) for m, job in zip(machines, workload.jobs)]
        # verify() already holds every later job to the same digests.
        out.setdefault("digests", {
            job.config.prefix: snap["windows"] for job, snap in zip(workload.jobs, checked)
        })
        return ledger.counts(machines, results, checked, workload.paper_visible_io_s)

    loop_start = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    walls: List[float] = []
    calibs: List[float] = []  # calibration beside each timed job
    observed: List[dict] = []
    try:
        out["cold_s"], machines, results = run_once()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        observed.append(observe(machines, results))
        after = calibrate()
        while len(walls) < MIN_TIMED or time.perf_counter() - loop_start < budget:
            del machines, results
            before = after
            wall, machines, results = run_once()
            after = calibrate()
            walls.append(wall)
            calibs.append((before + after) / 2)
            observed.append(observe(machines, results))
        if trace:
            del machines, results
            profiler = cProfile.Profile()
            before = calibrate()
            traced_wall, machines, results = run_once(profiler)
            after = calibrate()
            observed.append(observe(machines, results))
            rolled = ledger.rollup(profiler, os.path.dirname(repro.__file__))
            out["trace"] = {
                "wall_s": traced_wall,
                "calib_s": (before + after) / 2,
                "seconds": rolled["seconds"],
                "py_calls": rolled["py_calls"],
            }
    except Exception as exc:  # a job that raises fails every block it owed
        owed = sum(w["nblocks"] for w in (expected or {}).values()) or 1
        verdict["attempted"] += owed
        verdict["failed"] += owed
        verdict["errors"].append(f"{type(exc).__name__}: {exc}")

    out.update(verdict)
    out["walls"] = walls
    out["calibs"] = calibs
    if observed:
        out["counts"] = observed[0]
        # Same seed, same inputs: every job of this process must agree.
        out["unrepeatable"] = sorted(
            key for key in observed[0] if any(o.get(key) != observed[0][key] for o in observed)
        )
        spread = [o["virt_wall_s"] for o in observed]
        out["virt_spread"] = max(spread) - min(spread)
    return out


def copy_disk(disk):
    """A private copy of ``disk`` (None stays None) through its public API."""
    if disk is None:
        return None
    from repro.fs.vfs import VirtualDisk

    clone = VirtualDisk()
    for path in disk.listdir():
        clone.create(path).append(disk.open(path).read())
    return clone


def digest_snapshot(disk, prefix: str, step: int) -> dict:
    """SHA-256 over every block of one snapshot, per window, via Rocketeer."""
    import numpy as np
    from repro.rocketeer import load_snapshot

    snapshot = load_snapshot(disk, prefix, step)
    windows = {}
    for label, blocks in sorted(snapshot.windows.items()):
        h = hashlib.sha256()
        array_bytes = 0
        for block_id in sorted(blocks):
            block = blocks[block_id]
            h.update(f"b{block_id}:{block.nnodes}:{block.nelems};".encode())
            for attr in sorted(block.arrays):
                arr = np.ascontiguousarray(block.arrays[attr])
                h.update(f"{attr}:{arr.dtype.str}:{arr.shape};".encode())
                h.update(arr.data)
                array_bytes += arr.nbytes
        windows[label] = {
            "nblocks": len(blocks),
            "array_bytes": array_bytes,
            "sha256": h.hexdigest(),
        }
    file_bytes = sum(
        disk.open(path).size for path in disk.listdir(f"{prefix}_{step:06d}_")
    )
    return {"windows": windows, "file_bytes": file_bytes}
