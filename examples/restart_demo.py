#!/usr/bin/env python
"""Checkpoint/restart round trip — including a changed server count.

Demonstrates the paper's §4.1 restart path:

1. run the simulation with Rocpanda (6 clients + 2 servers), writing
   snapshots that double as checkpoints;
2. restart a *new* run from the checkpoint using **3** servers — the
   architecture allows restarting "with a different number of servers
   than used in the previous run where the restart files were written";
3. verify bit-exact restoration: the restarted run's first snapshot
   equals the checkpoint it restored from;
4. persist the virtual disk to a real directory so the files can be
   inspected (they are ordinary SHDF containers).

Run:  python examples/restart_demo.py
"""

import os
import tempfile

import numpy as np

from repro.cluster import Machine, turing
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.rocketeer import load_snapshot
from repro.shdf import decode_file


def main():
    workload = lab_scale_motor(
        scale=0.03,
        nblocks_fluid=24,
        nblocks_solid=12,
        steps=12,
        snapshot_interval=6,
    )

    # --- 1. original run: 6 clients + 2 servers -----------------------
    first = run_genx(
        Machine(turing(), seed=11),
        8,
        GENxConfig(workload=workload, io_mode="rocpanda", nservers=2, prefix="run1"),
    )
    disk = first.machine.disk
    print(f"original run  : {len(first.clients)} clients, 2 servers")
    print(f"  checkpoint files: {disk.listdir('run1_000012')}")

    # --- 2. restart with a DIFFERENT server count (3) ------------------
    second = run_genx(
        Machine(turing(), seed=22, disk=disk),
        9,  # 6 clients + 3 servers
        GENxConfig(
            workload=workload,
            io_mode="rocpanda",
            nservers=3,
            prefix="run2",
            restart_step=12,
            restart_prefix="run1",
        ),
    )
    print(f"restarted run : {len(second.clients)} clients, 3 servers")
    print(f"  restart latency: {second.restart_time:.3f} s (virtual)")

    # --- 3. bit-exact verification --------------------------------------
    # The restarted run wrote its step-0 snapshot with 3 servers; Rocketeer
    # reassembles both snapshots block by block (a server file holds one
    # record per attribute per write-behind stage), compared array by array.
    checkpoint = load_snapshot(disk, "run1", 12).window("rocflo")
    restored = load_snapshot(disk, "run2", 0).window("rocflo")
    assert sorted(restored) == sorted(checkpoint)
    mismatches = 0
    compared = 0
    for block_id, block in checkpoint.items():
        for attr, array in block.arrays.items():
            compared += 1
            got = restored[block_id].arrays[attr]
            if got.shape != array.shape or not np.array_equal(got, array, equal_nan=True):
                mismatches += 1
    print(f"  arrays compared   : {compared} in {len(restored)} blocks")
    print(f"  mismatches        : {mismatches}")
    assert mismatches == 0, "restart corrupted state!"
    print("  restart is bit-exact across a 2-server -> 3-server change")

    # --- 4. persist to a real directory ----------------------------------
    outdir = tempfile.mkdtemp(prefix="genx_snapshots_")
    written = disk.persist(outdir)
    print(f"\npersisted {len(written)} files under {outdir}")
    sample = written[0]
    print(f"  e.g. {sample} ({os.path.getsize(sample)} real bytes)")
    image = decode_file(open(sample, "rb").read())
    print(f"  decodes to {len(image)} datasets; file attrs: {image.attrs}")


if __name__ == "__main__":
    main()
