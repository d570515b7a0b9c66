"""DESIGN §8's table: where the leased workloads' virtual wall goes.

    python3 benchmarks/drain_ledger.py [--seed 100] [--limit BYTES] [--driver hdf4|hdf5]

One in-process job sequence per ``benchmarks/e2e`` workload that takes
the write-slot lease — the four Rocpanda ones and ``trochdf_faults_64``,
its transient-EIO plan installed — at bench size (about a minute),
printed as the markdown table DESIGN.md carries: virtual wall, the
drain the run failed to hide, filesystem transfers, the most writes the
filesystem ever saw at once (``FSMetrics.peak_write_demand``, the
highest of the sequence's jobs), the files, the latency-bound shares
merged into another server's file and the Joins refused (their writer
had retired the path), the records (datasets) the files hold — what the
format's directory bookkeeping grows with — the five ``ServerStats``
drain terms in server-seconds summed over the servers, ``forward``: the
server-seconds merged shares spent on the wire to their writers (their
``forward`` records), and the first-landing lag: per snapshot, its
first ``land`` record's start minus its first ``ingest``'s, summed over
the snapshots.  T-Rochdf has no servers: its drain terms, shares and
lag read 0.  Everything in it is exact for a seed.  ``--limit`` patches
``server.WRITE_BEHIND_BYTES`` (a module constant, not an option) the
way the tests do, for the "why 256 KiB" rows; ``--driver`` is the
servers' format driver.  Every run asserts one filesystem write per
hold of the write slot that landed its bytes: a server's landings, or
the I/O threads' — a ``shdf`` ``flush`` record per landed file (a
faulted landing is not counted as a write; its retry asks for the
lease again).
"""

import argparse
import dataclasses
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e")]

from repro.cluster import Machine, turing  # noqa: E402
from repro.genx import run_genx  # noqa: E402
from repro.io.rocpanda import ServerConfig, server  # noqa: E402
from repro.io.rocpanda.server import DRAIN_TERMS  # noqa: E402
from repro.shdf import hdf4_driver, hdf5_driver, scan_file  # noqa: E402

from child import copy_disk  # noqa: E402
from workloads import build  # noqa: E402

WORKLOADS = (
    "rocpanda_weak_128", "rocpanda_strong_256", "rocpanda_write_64", "rocpanda_restart_64",
    "trochdf_faults_64",
)


DRIVERS = {"hdf4": hdf4_driver, "hdf5": hdf5_driver}


def first_landing_lag(records) -> float:
    """Sum over snapshots of first ``land`` start minus first ``ingest`` start."""
    first = {}
    for r in records:
        if r.op in ("ingest", "land") and r.path:
            key = (re.search(r"_(\d{6})_", r.path).group(1), r.op)
            first[key] = min(first.get(key, r.t_start), r.t_start)
    return sum(
        t - first[(step, "ingest")] for (step, op), t in first.items() if op == "land"
    )


def holds(result) -> int:
    """Holds of the write slot in one job that landed their bytes: the
    servers' landings, or the T-Rochdf I/O threads' — one ``flush``
    record per landed file (a faulted landing writes nothing)."""
    if result.servers:
        return sum(s.stats.write_flushes for s in result.servers)
    return sum((r.module, r.op) == ("shdf", "flush") for r in result.recorder.io_records)


def ledger(name: str, seed: int, driver: str) -> list:
    workload = build(name)
    servers = ServerConfig(driver=DRIVERS[driver]())

    def run(machine, job):
        config = dataclasses.replace(job.config, server_config=servers)
        if job.faults is not None:
            machine.install_faults(job.faults)
        result = run_genx(machine, job.nranks, config)
        # One filesystem write per hold of the write slot, no hold without one.
        writes, held = machine.fs.metrics.write_ops, holds(result)
        assert writes == held, f"{name}: {writes} writes in {held} holds"
        return result

    disk = None
    if workload.checkpoint is not None:
        machine = Machine(turing(), seed=seed)
        run(machine, workload.checkpoint)
        disk = machine.disk
    wall = sync = ops = peak = files = merged = refused = records = forward = lag = 0
    terms = dict.fromkeys(DRAIN_TERMS, 0.0)
    for job in workload.jobs:
        machine = Machine(turing(), seed=seed, disk=copy_disk(disk))
        result = run(machine, job)
        wall += result.wall_time
        sync += max(c.final_sync_time for c in result.clients)
        ops += machine.fs.metrics.write_ops
        peak = max(peak, machine.fs.metrics.peak_write_demand)
        files += result.files_created
        merged += sum(s.stats.merged_shares for s in result.servers)
        refused += sum(s.stats.refused_joins for s in result.servers)
        lag += first_landing_lag(result.recorder.io_records)
        forward += sum(
            r.t_end - r.t_start for r in result.recorder.io_records if r.op == "forward"
        )
        records += sum(
            len(scan_file(machine.disk.open(path).read())[1])
            for path in machine.disk.listdir(job.config.prefix + "_")
        )
        for term in DRAIN_TERMS:
            terms[term] += sum(getattr(s.stats, f"{term}_time") for s in result.servers)
    drain = (f"{terms[term]:.2f}" for term in DRAIN_TERMS)
    return [
        f"`{name}`", f"{wall:.3f}", f"{sync:.3f}", ops, peak, files, merged, refused, records,
        *drain, f"{forward:.2f}", f"{lag:.3f}",
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--limit", type=int, default=server.WRITE_BEHIND_BYTES)
    parser.add_argument("--driver", choices=sorted(DRIVERS), default="hdf4")
    args = parser.parse_args()
    seed, server.WRITE_BEHIND_BYTES = args.seed, args.limit
    head = ["workload", "`virt_wall_s`", "`virt_final_sync_s`", "`fs.write_ops`",
            "peak writers", "files",
            "merged shares", "refused joins", "records",
            *(term.replace("_", " ") for term in DRAIN_TERMS), "forward", "first-landing lag"]
    print("| " + " | ".join(head) + " |")
    print("|---|" + "--:|" * (len(head) - 1))
    for name in WORKLOADS:
        print("| " + " | ".join(map(str, ledger(name, seed, args.driver))) + " |")


if __name__ == "__main__":
    main()
