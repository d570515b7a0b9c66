"""DESIGN §8's restart table: where each job of ``rocpanda_restart_64`` goes.

    python3 benchmarks/restart_ledger.py [--seed 100]

Writes the ``benchmarks/e2e`` workload's checkpoint (8 servers) and
restarts it at 8, 4 and 2 servers, in process, at bench size (under a
minute), and prints one markdown row per restart job: its virtual wall,
the restart the clients saw (``virt_restart_s``), its read floor — the
bytes the filesystem served over all its read slots at full bandwidth,
``bytes_read / (read_slots * read_bw)`` — the regions the servers read,
the hole bytes their sieved reads charged beside the records
(``sieve_waste_bytes``), and the three ``ServerStats`` restart terms —
open and close round trips, waiting for a region to land, the batch
sends — in server-seconds summed over the servers.  Everything in it is
exact for a seed.  Every run asserts that each server's terms sum to its
``restart_scan`` records, and that its scatter term is no shorter than
its sent bytes at the fastest link (``intra_bw``): a scatter that beats
its own link is a flaw in the network model, not a faster restart.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e")]

from repro.cluster import Machine, turing  # noqa: E402
from repro.genx import run_genx  # noqa: E402

from child import copy_disk  # noqa: E402
from workloads import build  # noqa: E402

TERMS = ("restart_scan", "restart_read_wait", "restart_scatter")


def ledger(seed: int) -> list:
    workload = build("rocpanda_restart_64")
    machine = Machine(turing(), seed=seed)
    checkpoint = workload.checkpoint
    run_genx(machine, checkpoint.nranks, checkpoint.config)
    rows = []
    for job in workload.jobs:
        restart = Machine(turing(), seed=seed, disk=copy_disk(machine.disk))
        result = run_genx(restart, job.nranks, job.config)
        terms = dict.fromkeys(TERMS, 0.0)
        for server in result.servers:
            stats = server.stats
            spent = sum(getattr(stats, f"{term}_time") for term in TERMS)
            recorded = sum(
                r.duration for r in result.recorder.io_records
                if r.op == "restart_scan" and r.rank == server.rank
            )
            assert abs(spent - recorded) < 1e-9, (server.rank, spent, recorded)
            link = stats.restart_scatter_bytes / restart.spec.network.intra_bw
            assert stats.restart_scatter_time >= link, (server.rank, link)
            for term in TERMS:
                terms[term] += getattr(stats, f"{term}_time")
        fs = restart.fs
        floor = fs.metrics.bytes_read / (fs.read_slots * fs.read_bw)
        rows.append([
            len(result.servers), f"{result.wall_time:.3f}", f"{result.restart_time:.3f}",
            f"{floor:.3f}",
            sum(s.stats.restart_regions_read for s in result.servers),
            sum(s.stats.restart_sieve_waste_bytes for s in result.servers),
            *(f"{terms[term]:.3f}" for term in TERMS),
        ])
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    head = ["servers", "`virt_wall_s`", "`virt_restart_s`", "read floor", "regions",
            "`sieve_waste_bytes`", "scan", "read wait", "scatter"]
    print("| " + " | ".join(head) + " |")
    print("|--:|" + "--:|" * (len(head) - 1))
    for row in ledger(args.seed):
        print("| " + " | ".join(map(str, row)) + " |")


if __name__ == "__main__":
    main()
