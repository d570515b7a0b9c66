"""The micro experiments of the paper registry that launch no GENx job.

* A2 — HDF4 vs HDF5 driver scaling with the number of datasets per
  file (the [13] observation the I/O architecture choices lean on),
  plus A2b, the driver x storage-tier matrix (the burst buffer sits
  below the format layer, so its win must be driver-independent);
* A6 — dynamic load balancing on an irregular block set (§4.1);
* the Fig 3(a) partial attribute read (sieved vs full-record scan).

:mod:`repro.bench.sweep` registers each as an artefact beside the GENx
sweeps (Table 1, Fig 3(a)/(b), A1, A3-A5).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.presets import frost, testbox
from ..des import Environment
from ..fs.models import NFSModel
from ..roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, Roccom
from ..shdf.codec import encode_batch
from ..shdf.drivers import hdf4_driver, hdf5_driver
from ..shdf.file import SHDFReader, SHDFWriter
from ..shdf.model import Dataset
from ..util.units import MB
from ..vmpi import run_spmd

__all__ = [
    "run_hdf_driver_scaling", "run_driver_tier_matrix",
    "run_load_balancing_ablation", "run_fig3a_partial_read",
]


def _write_per_dataset(writer: SHDFWriter, count: int, data: np.ndarray):
    """Generator: ``count`` datasets, each staged and landed on its own —
    per-dataset create cost, round trip and transfer, as A2 measures."""
    yield from writer.open()
    for i in range(count):
        yield from writer.write_records(encode_batch([Dataset(f"d{i}", data)]))
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

    The A2 micro crossed with the storage tier: ``direct`` pays the
    backing cost in the visible write, ``burst`` only the format's
    per-dataset ``create_cost`` bookkeeping, during which the drain
    runs, so ``durable_s`` (the drain barrier) trails
    ``visible_write_s`` by the last flush.  The tier sits below the
    format drivers, so both effects must be the same for HDF4 and HDF5.
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
            out[driver.name][tier] = {"visible_write_s": t_visible, "durable_s": t_durable}
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
    from ..genx.loadbalance import LoadBalancer
    from ..genx.meshblock import cylinder_blocks
    from ..genx.physics import Rocflo

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
            fluid.setup(com, mine, np.random.default_rng(seed + ctx.rank))
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


def run_fig3a_partial_read(
    nprocs: int = 15,
    nblocks_per_rank: int = 4,
    nelems: int = 4096,
    seed: int = 300,
    module: str = "rochdf",
) -> Dict[str, float]:
    """Virtual-time cost of a Fig 3(a)-style partial attribute read.

    Writes one snapshot holding several attributes per block, then
    restores every attribute (``full_read_s``, what a read cost before
    the sieve) and a single one (``partial_read_s``, sieved: only the
    wanted records are read).  ``module`` is ``"rochdf"`` or
    ``"trochdf"`` (T-Rochdf restarts the Rochdf way, §7.1, after
    draining its own buffered snapshots; its writer syncs first).
    """
    from ..io import RochdfModule, TRochdfModule

    if module not in ("rochdf", "trochdf"):
        raise ValueError(f"unknown module {module!r}")
    mod_factory = RochdfModule if module == "rochdf" else TRochdfModule
    attrs = ("pressure", "temperature", "velocity", "density")

    def _window(com, ctx):
        w = com.new_window("Fluid")
        w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
        for name in attrs:
            w.declare_attribute(AttributeSpec(name, LOC_ELEMENT))
        rng = np.random.default_rng(seed + ctx.rank)
        for i in range(nblocks_per_rank):
            pane_id = ctx.rank * nblocks_per_rank + i
            w.register_pane(pane_id, nelems, nelems)
            w.set_array("coords", pane_id, rng.random((nelems, 3)))
            for name in attrs:
                w.set_array(name, pane_id, rng.random(nelems))
        return w

    def writer_main(ctx):
        com = Roccom(ctx)
        com.load_module(mod_factory(ctx))
        _window(com, ctx)
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "f3apr")
        # T-Rochdf buffers and writes in the background; sync before the
        # machine is torn down so the files are durable (no-op cost for
        # plain Rochdf, whose write already blocked).
        yield from com.call_function("OUT.sync")

    machine = Machine(frost(), seed=seed)
    run_spmd(machine, nprocs, writer_main)

    times = {}

    def _reader(attr_names, label):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(mod_factory(ctx))
            w = com.new_window("Fluid")
            for i in range(nblocks_per_rank):
                w.register_pane(ctx.rank * nblocks_per_rank + i, 0, 0)
            t0 = ctx.now
            yield from com.call_function(
                "OUT.read_attribute", "Fluid", attr_names, "f3apr"
            )
            times.setdefault(label, []).append(ctx.now - t0)
            return mod.stats.bytes_read

        return main

    reread = Machine(frost(), seed=seed, disk=machine.disk)
    full = run_spmd(reread, nprocs, _reader(None, "full"))
    reread2 = Machine(frost(), seed=seed, disk=machine.disk)
    partial = run_spmd(reread2, nprocs, _reader(["pressure"], "partial"))
    full_s = max(times["full"])
    partial_s = max(times["partial"])
    return {
        "module": module,
        "nprocs": nprocs,
        "full_read_s": full_s,
        "partial_read_s": partial_s,
        "full_read_bytes": float(sum(full.returns)),
        "partial_read_bytes": float(sum(partial.returns)),
        "speedup": full_s / partial_s if partial_s else float("inf"),
    }
