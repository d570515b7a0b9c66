"""Ablation studies of the design choices DESIGN.md calls out.

* A1 — active buffering on/off (the §6.1 mechanism);
* A2 — HDF4 vs HDF5 driver scaling with the number of datasets per
  file (the [13] observation the I/O architecture choices lean on),
  plus the driver x storage-tier matrix (the burst buffer sits below
  the format layer, so its win must be driver-independent);
* A3 — client:server ratio sweep (the paper fixes >= 8:1);
* A4 — server buffer-size sweep (graceful overflow handling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.presets import turing
from ..des import Environment
from ..fs.models import NFSModel
from ..genx.driver import GENxConfig, run_genx
from ..genx.workloads import lab_scale_motor
from ..io.rocpanda import ServerConfig
from ..shdf.codec import encode_records
from ..shdf.drivers import HDFDriver, hdf4_driver, hdf5_driver
from ..shdf.file import SHDFReader, SHDFWriter
from ..shdf.model import Dataset
from ..util.units import MB
from .report import render_series, render_table

__all__ = [
    "run_active_buffering_ablation",
    "run_hdf_driver_scaling",
    "run_driver_tier_matrix",
    "run_ratio_sweep",
    "run_buffer_size_sweep",
    "run_client_buffering_ablation",
    "run_load_balancing_ablation",
]


def _small_motor(scale=0.2, steps=20, interval=10):
    return lab_scale_motor(
        scale=scale, nblocks_fluid=64, nblocks_solid=32,
        steps=steps, snapshot_interval=interval,
    )


def run_active_buffering_ablation(
    nclients: int = 32, nservers: int = 4, seed: int = 900
) -> Dict[str, float]:
    """A1: visible I/O time with and without active buffering."""
    workload = _small_motor()
    out = {}
    for label, buffering in (("buffered", True), ("write_through", False)):
        machine = Machine(turing(), seed=seed)
        result = run_genx(
            machine,
            nclients + nservers,
            GENxConfig(
                workload=workload,
                io_mode="rocpanda",
                nservers=nservers,
                prefix=f"a1_{label}",
                server_config=ServerConfig(active_buffering=buffering),
            ),
        )
        out[label] = result.visible_io_time
    return out


def _write_per_dataset(writer: SHDFWriter, count: int, data: np.ndarray):
    """Generator: ``count`` datasets, each staged and landed on its own —
    per-dataset create cost, round trip and transfer, as A2 measures."""
    yield from writer.open()
    for i in range(count):
        yield from writer.write_records(encode_records([Dataset(f"d{i}", data)]))
        yield from writer.flush()
    yield from writer.close()


def run_hdf_driver_scaling(
    dataset_counts: Sequence[int] = (50, 200, 800, 3200),
    dataset_bytes: int = 8192,
) -> Dict[str, Dict[int, Tuple[float, float]]]:
    """A2: (write_time, read_time) per driver vs datasets per file.

    Pure SHDF + NFS micro-benchmark, no GENx in the loop: one dataset
    per write and one directory lookup per dataset read.
    """
    out: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for driver_factory in (hdf4_driver, hdf5_driver):
        driver = driver_factory()
        out[driver.name] = {}
        for count in dataset_counts:
            env = Environment()
            fs = NFSModel(env, write_bw=200 * MB, read_bw=200 * MB)
            data = np.zeros(dataset_bytes // 8)

            def program():
                writer = SHDFWriter(env, fs, "a2.shdf", driver)
                yield from _write_per_dataset(writer, count, data)
                t_write = env.now
                reader = SHDFReader(env, fs, "a2.shdf", driver)
                yield from reader.open_scan()
                for name in reader.names():
                    yield from reader.read_batch([name])
                yield from reader.close()
                return t_write, env.now - t_write

            proc = env.process(program())
            env.run(until=proc)
            out[driver.name][count] = proc.value
    return out


def run_driver_tier_matrix(
    ndatasets: int = 800,
    dataset_bytes: int = 8192,
    drivers=(hdf4_driver, hdf5_driver),
    tiers: Sequence[str] = ("direct", "burst"),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """A2b: driver x storage-tier matrix — visible write vs durable time.

    The same pure SHDF + NFS micro as :func:`run_hdf_driver_scaling`,
    crossed with the storage tier: ``direct`` pays the backing cost in
    the visible write; ``burst`` absorbs at memory bandwidth, so what
    is left of the visible write is the format's per-dataset
    ``create_cost`` bookkeeping.  The drain runs *during* those sleeps,
    so when the writer closes only the last flush is still in flight:
    ``durable_s`` (when the drain barrier releases) trails
    ``visible_write_s`` by that one flush — strictly later, but
    milliseconds, not the backing cost.  The tier sits *below* the
    format drivers, so both the visible-write ratio between the tiers
    and the drain tail should be the same for HDF4 and HDF5 — that
    driver-independence is what this matrix checks.
    """
    from ..fs.tiers import BurstBufferTier

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for driver_factory in drivers:
        driver = driver_factory()
        out[driver.name] = {}
        for tier in tiers:
            env = Environment()
            fs = NFSModel(env, write_bw=200 * MB, read_bw=200 * MB)
            if tier == "burst":
                fs = BurstBufferTier(env, fs)
            data = np.zeros(dataset_bytes // 8)

            def program():
                writer = SHDFWriter(env, fs, "a2t.shdf", driver)
                yield from _write_per_dataset(writer, ndatasets, data)
                t_visible = env.now
                yield from fs.drain_barrier()
                return t_visible, env.now

            proc = env.process(program())
            env.run(until=proc)
            t_visible, t_durable = proc.value
            out[driver.name][tier] = {
                "visible_write_s": t_visible,
                "durable_s": t_durable,
            }
    return out


def run_ratio_sweep(
    ratios: Sequence[int] = (4, 8, 16, 32),
    nclients: int = 32,
    seed: int = 920,
) -> Dict[int, Dict[str, float]]:
    """A3: client:server ratio vs visible I/O time and file count."""
    workload = _small_motor()
    out = {}
    for ratio in ratios:
        nservers = max(1, nclients // ratio)
        machine = Machine(turing(), seed=seed)
        result = run_genx(
            machine,
            nclients + nservers,
            GENxConfig(
                workload=workload,
                io_mode="rocpanda",
                nservers=nservers,
                prefix=f"a3_{ratio}",
            ),
        )
        out[ratio] = {
            "visible_io": result.visible_io_time,
            "files": float(result.files_created),
            "total_procs": float(nclients + nservers),
        }
    return out


def run_buffer_size_sweep(
    buffer_fractions: Sequence[float] = (0.05, 0.25, 1.0, 4.0),
    nclients: int = 16,
    nservers: int = 2,
    seed: int = 940,
) -> Dict[float, Dict[str, float]]:
    """A4: server buffer capacity (fraction of per-server snapshot data)
    vs visible I/O time and overflow flush count."""
    workload = _small_motor()
    # Estimate one server's share of one snapshot.
    probe = Machine(turing(), seed=seed)
    probe_result = run_genx(
        probe,
        nclients + nservers,
        GENxConfig(
            workload=workload, io_mode="rocpanda", nservers=nservers, prefix="a4p"
        ),
    )
    per_server_snapshot = (
        probe_result.bytes_written_per_snapshot / nservers
    )
    out = {}
    for fraction in buffer_fractions:
        machine = Machine(turing(), seed=seed)
        result = run_genx(
            machine,
            nclients + nservers,
            GENxConfig(
                workload=workload,
                io_mode="rocpanda",
                nservers=nservers,
                prefix=f"a4_{fraction}",
                server_config=ServerConfig(
                    buffer_bytes=max(4096, fraction * per_server_snapshot)
                ),
            ),
        )
        flushes = sum(s.stats.overflow_flushes for s in result.servers)
        out[fraction] = {
            "visible_io": result.visible_io_time,
            "overflow_flushes": float(flushes),
        }
    return out


def run_client_buffering_ablation(
    nclients: int = 16, nservers: int = 2, seed: int = 960
) -> Dict[str, float]:
    """A5: the full active-buffering hierarchy of [13].

    Server-side-only buffering (GENx's production setting) vs adding a
    client-side buffer level; visible I/O shrinks from send cost to a
    local memcpy.
    """
    workload = _small_motor()
    out = {}
    for label, client_buffering in (("server_only", False), ("client+server", True)):
        machine = Machine(turing(), seed=seed)
        result = run_genx(
            machine,
            nclients + nservers,
            GENxConfig(
                workload=workload,
                io_mode="rocpanda",
                nservers=nservers,
                prefix=f"a5_{client_buffering}",
                client_buffering=client_buffering,
            ),
        )
        out[label] = result.visible_io_time
    return out


def run_load_balancing_ablation(
    nranks: int = 4, steps: int = 24, seed: int = 980
) -> Dict[str, float]:
    """A6: dynamic load balancing repairs a bad static partition (§4.1).

    Blocks are assigned naively (contiguous chunks of the size-sorted
    list — the kind of distribution a mesh generator hands you), which
    concentrates the big blocks on one rank.  With per-step barriers the
    overloaded rank sets the pace; runtime migration flattens it.
    """
    import numpy as _np

    from ..cluster.presets import testbox
    from ..genx.loadbalance import LoadBalancer
    from ..genx.meshblock import cylinder_blocks
    from ..genx.physics import Rocflo
    from ..roccom.registry import Roccom
    from ..vmpi.launcher import run_spmd

    specs = sorted(
        cylinder_blocks(4 * nranks, 120_000, irregularity=0.9, seed=seed),
        key=lambda s: -s.ncells,
    )

    def make_main(use_lb: bool):
        def main(ctx):
            com = Roccom(ctx)
            fluid = Rocflo()
            # Naive contiguous assignment: rank 0 gets the biggest blocks.
            chunk = len(specs) // ctx.world.size
            mine = specs[ctx.rank * chunk : (ctx.rank + 1) * chunk]
            fluid.setup(com, mine, _np.random.default_rng(seed + ctx.rank))
            balancer = LoadBalancer(threshold=1.05, max_moves_per_rank=2)
            last = 0.0
            for step in range(1, steps + 1):
                yield from fluid.advance(ctx, 1e-6, step)
                yield from ctx.world.barrier()  # per-step sync
                if use_lb and step % 4 == 0:
                    load = ctx.compute_time - last
                    last = ctx.compute_time
                    yield from balancer.rebalance(
                        ctx, com, ctx.world, [fluid], load
                    )
            return ctx.now

        return main

    out = {}
    for label, use_lb in (("static", False), ("balanced", True)):
        machine = Machine(testbox(nnodes=nranks, cpus_per_node=2), seed=seed)
        result = run_spmd(machine, nranks, make_main(use_lb))
        out[label] = result.wall_time
    return out
