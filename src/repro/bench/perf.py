"""Wall-clock microbenchmark harness for the simulator's hot paths.

Everything else in :mod:`repro.bench` measures *virtual* time — what the
simulated Turing/Frost machines would have spent.  This module measures
*wall-clock* time: how fast the simulator itself chews through events,
messages, and bytes.  That number caps how large a scenario we can
afford to simulate (the Fig 3a sweep at 480 processors runs millions of
DES events), so it is tracked PR-over-PR as ``BENCH_perf.json``.

Benchmarks:

* ``des_events`` — DES kernel event throughput (timeout alloc +
  schedule + heap pop + generator resume per event);
* ``des_dispatch`` — raw schedule+pop rate of the event queue;
* ``mailbox_backlog_indexed`` / ``mailbox_waiters_indexed`` — vmpi
  matching throughput against a deep backlog / a deep
  selective-waiter list;
* ``vmpi_msgrate_indexed`` — end-to-end message rate through the full
  ``Comm.send``/``recv`` stack (fan-in with source-selective receives,
  the Rocpanda server pattern);
* ``codec_encode`` / ``codec_decode`` / ``codec_decode_zero_copy`` —
  SHDF codec bandwidth in MB/s (``codec_decode`` is the restart
  decode: private writable copies);
* ``ship_batched`` — Rocpanda client→server block shipping through
  the full stack (Roccom call, encode, pack, vmpi flights, server
  ingest + write);
* ``restart_twophase`` — Rocpanda collective restart through the full
  stack (server scan, sieved bulk reads, reply flights, client apply);
* ``vfs_coalesce`` — SHDF dataset writes through the write-coalescing
  scheduler;
* ``vfs_read_coalesce`` — SHDF dataset reads through the structural
  scan + read-coalescing scheduler (one directory pass, sieved merged
  ``fs.read`` calls);
* ``tier_absorb_burst`` / ``tier_absorb_direct`` — the same coalesced
  SHDF write stream through the burst-buffer storage tier vs the bare
  filesystem, drain barrier included (the simulator-overhead cost of
  the tier bookkeeping);
* ``tier_drain_overlap`` — the tier under pressure: capacity below one
  snapshot, so every run crosses the watermarks, evicts clean files
  and spills synchronously while the drain works behind;
* ``table1_64p`` — one end-to-end wall-clock run of the Table 1
  experiment at 64 compute processors (the acceptance workload).

``run_perfbench`` executes the suite and, when a baseline payload is
supplied (normally the committed ``BENCH_perf_baseline.json`` captured
before the matching/DES/codec optimizations), attaches per-benchmark
speedup factors so the before/after comparison ships with the numbers.
``check_regressions`` turns those speedups into a CI gate.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Callable, Dict, Optional

import numpy as np

__all__ = [
    "bench_des_events",
    "bench_des_dispatch",
    "bench_mailbox_backlog",
    "bench_mailbox_waiters",
    "bench_vmpi_msgrate",
    "bench_codec",
    "bench_ship",
    "bench_restart",
    "bench_vfs_coalesce",
    "bench_vfs_read_coalesce",
    "bench_tier_absorb",
    "bench_tier_drain_overlap",
    "bench_table1_e2e",
    "run_perfbench",
    "profile_stats",
    "check_regressions",
    "load_baseline",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_QUICK_BASELINE_PATH",
]

#: Committed pre-optimization numbers this harness compares against.
DEFAULT_BASELINE_PATH = os.path.join("bench_results", "BENCH_perf_baseline.json")
#: Quick-size counterpart (``--quick`` runs use smaller workloads, so
#: size-dependent rates like codec MB/s cannot be compared to the full
#: baseline).
DEFAULT_QUICK_BASELINE_PATH = os.path.join(
    "bench_results", "BENCH_perf_baseline_quick.json"
)


def _timed(fn: Callable[[], int]) -> Dict[str, float]:
    """Run ``fn`` (returns an op count) and report ops/sec.

    Garbage collection is paused for the measurement (the same policy
    as ``timeit``): a collection pause is milliseconds long, which at
    quick sizes is the whole benchmark, and whether one lands inside
    the timed region is a coin flip that the regression gate would
    otherwise inherit.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ops = fn()
        seconds = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return {
        "ops": int(ops),
        "seconds": round(seconds, 6),
        "ops_per_sec": round(ops / seconds, 2) if seconds > 0 else float("inf"),
    }


# -- DES kernel -------------------------------------------------------------

def bench_des_events(nevents: int = 200_000) -> Dict[str, float]:
    """Timeout-chain throughput: one alloc/schedule/pop/resume per event."""
    from ..des import Environment

    env = Environment()

    def ticker():
        timeout = env.timeout
        for _ in range(nevents):
            yield timeout(1.0)

    env.process(ticker(), name="ticker")

    def run() -> int:
        env.run()
        return nevents

    return _timed(run)


def bench_des_dispatch(nevents: int = 200_000) -> Dict[str, float]:
    """Raw schedule+pop dispatch rate through the event queue.

    The fill mixes same-``(time, priority)`` bursts (the tree-collective
    / coalesced-flush shape) with distinct-key singletons, in isolation
    from process-resume cost.
    """
    from ..des import NORMAL, Environment, Event

    env = Environment()

    def run() -> int:
        schedule = env.schedule
        n = 0
        delay = 1.0
        while n < nevents:
            for _ in range(16):  # one same-key burst
                ev = Event(env)
                ev._ok = True
                ev._value = None
                schedule(ev, NORMAL, delay)
                n += 1
            delay += 0.5
            for _ in range(8):  # distinct-key singletons
                ev = Event(env)
                ev._ok = True
                ev._value = None
                schedule(ev, NORMAL, delay)
                delay += 0.25
                n += 1
        env.run()
        return n

    return _timed(run)


# -- vmpi matching ----------------------------------------------------------

def _make_envelope(src: int, tag: int, seq: int):
    from ..vmpi.datatypes import Envelope

    return Envelope(
        comm_id=0, src=src, dst=0, tag=tag,
        payload=None, nbytes=64, mode="eager", seq=seq,
    )


def bench_mailbox_backlog(nsources: int = 64, rounds: int = 60) -> Dict[str, float]:
    """Deliver a full backlog, then take source-selectively in reverse.

    A linear matcher would scan (and ``del``-shift) deep into the
    arrival list for every take; the indexed matcher pops per-key
    deques.
    """
    from ..des import Environment
    from ..vmpi.mailbox import Mailbox

    env = Environment()
    box = Mailbox(env)

    def run() -> int:
        seq = 0
        for r in range(rounds):
            for s in range(nsources):
                seq += 1
                box.deliver(_make_envelope(s, r, seq))
            for s in reversed(range(nsources)):
                assert box.take(s, r) is not None
        return rounds * nsources

    return _timed(run)


def bench_mailbox_waiters(nsources: int = 64, rounds: int = 60) -> Dict[str, float]:
    """Post selective waiters, then deliver in worst-case order.

    Every delivery walks the pending waiter list once.
    """
    from ..des import Environment
    from ..vmpi.mailbox import Mailbox

    env = Environment()
    box = Mailbox(env)

    def run() -> int:
        for r in range(rounds):
            events = [box.get_matching(s, r) for s in range(nsources)]
            for s in reversed(range(nsources)):
                box.deliver(_make_envelope(s, r, s + 1))
            env.run()
            assert all(e.triggered for e in events)
        return rounds * nsources

    return _timed(run)


def bench_vmpi_msgrate(nranks: int = 32, nmsgs: int = 40) -> Dict[str, float]:
    """Fan-in message rate through the full Comm stack.

    ``nranks - 1`` senders stream eager messages at rank 0, which
    receives source-selectively from the highest rank down — the
    Rocpanda server pattern (probe/receive specific clients while a
    backlog of other clients' requests is pending).
    """
    from ..cluster import Machine, testbox
    from ..vmpi.launcher import Job

    machine = Machine(testbox(nnodes=8, cpus_per_node=8), seed=0)
    total = (nranks - 1) * nmsgs

    def main(ctx):
        if ctx.rank == 0:
            for m in range(nmsgs):
                for src in range(ctx.world.size - 1, 0, -1):
                    yield from ctx.world.recv(source=src, tag=m)
        else:
            payload = b"x" * 64
            for m in range(nmsgs):
                yield from ctx.world.send(payload, dest=0, tag=m)

    job = Job(machine, nranks)

    def run() -> int:
        job.run(main)
        return total

    return _timed(run)


# -- SHDF codec -------------------------------------------------------------

def _codec_image(ndatasets: int = 16, nbytes_each: int = 1 << 20):
    from ..shdf.model import Dataset, FileImage

    rng = np.random.default_rng(7)
    image = FileImage({"run": "perfbench", "step": 0})
    n = nbytes_each // 8
    for i in range(ndatasets):
        data = rng.standard_normal(n)
        image.add(Dataset(f"win/b{i:04d}/field", data, {"ncomp": 1, "unit": "Pa"}))
    return image


def bench_codec(
    ndatasets: int = 16, nbytes_each: int = 1 << 20, repeats: int = 8
) -> Dict[str, Dict[str, float]]:
    """SHDF encode/decode bandwidth (MB/s) over a multi-dataset image."""
    from ..shdf.codec import decode_file, encode_file

    image = _codec_image(ndatasets, nbytes_each)
    buf = bytes(encode_file(image))
    total_mb = len(buf) / (1024 * 1024)

    def report(fn) -> Dict[str, float]:
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        seconds = time.perf_counter() - t0
        return {
            "mbytes": round(total_mb, 3),
            "repeats": repeats,
            "seconds": round(seconds, 6),
            "mb_per_sec": round(total_mb * repeats / seconds, 2),
        }

    out = {"encode": report(lambda: encode_file(image))}
    # What restart runs: scan_file + decode_batch into private copies.
    out["decode"] = report(lambda: decode_file(buf, copy=True))
    out["decode_zero_copy"] = report(lambda: decode_file(buf))
    return out


# -- I/O stack --------------------------------------------------------------

def bench_ship(
    nblocks: int = 24,
    nsnapshots: int = 4,
    cells: int = 2048,
) -> Dict[str, float]:
    """Block shipping rate (blocks/sec) through the full Rocpanda stack.

    One client streams ``nsnapshots`` snapshots of ``nblocks`` blocks at
    one server: Roccom interface call, encode, marshalling, vmpi
    flights, server ingest and SHDF write all included.
    """
    from ..cluster import Machine, testbox
    from ..io import PandaServer, RocpandaModule, rocpanda_init
    from ..roccom import AttributeSpec, LOC_ELEMENT, Roccom
    from ..vmpi import run_spmd

    rng = np.random.default_rng(11)
    fields = [rng.random(cells) for _ in range(nblocks)]

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 1)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
        for i in range(nblocks):
            w.register_pane(i, 0, cells)
            w.set_array("f", i, fields[i])
        for snap in range(nsnapshots):
            yield from com.call_function(
                "OUT.write_attribute", "W", None, f"ship_{snap:03d}"
            )
        yield from panda.finalize()

    def run() -> int:
        machine = Machine(testbox(), seed=0)
        run_spmd(machine, 2, main)
        return nblocks * nsnapshots

    return _timed(run)


def bench_restart(
    nblocks: int = 24,
    cells: int = 2048,
    repeats: int = 3,
) -> Dict[str, float]:
    """Collective restart rate (blocks/sec) through the full Rocpanda stack.

    One server writes a snapshot once (setup, untimed); the timed part
    runs ``repeats`` fresh restart jobs against that disk — request
    collection, server-side file scan (sieved bulk regions), reply
    flights, and client-side block apply all included.
    """
    from ..cluster import Machine, testbox
    from ..io import PandaServer, RocpandaModule, rocpanda_init
    from ..roccom import AttributeSpec, LOC_ELEMENT, Roccom
    from ..vmpi import run_spmd

    rng = np.random.default_rng(17)
    fields = [rng.random(cells) for _ in range(nblocks)]

    def write_main(ctx):
        topo = yield from rocpanda_init(ctx, 1)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
        for i in range(nblocks):
            w.register_pane(i, 0, cells)
            w.set_array("f", i, fields[i])
        yield from com.call_function("OUT.write_attribute", "W", None, "rst")
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()

    def restart_main(ctx):
        topo = yield from rocpanda_init(ctx, 1)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return 0
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
        for i in range(nblocks):
            w.register_pane(i, 0, cells)
        ids = yield from com.call_function("OUT.read_attribute", "W", None, "rst")
        yield from panda.finalize()
        return len(ids)

    machine = Machine(testbox(), seed=0)
    run_spmd(machine, 2, write_main)

    def run() -> int:
        restored = 0
        for r in range(repeats):
            rm = Machine(testbox(), seed=1 + r, disk=machine.disk)
            result = run_spmd(rm, 2, restart_main)
            restored += sum(result.returns)
        assert restored == nblocks * repeats
        return restored

    return _timed(run)


def bench_vfs_coalesce(
    ndatasets: int = 256, cells: int = 512, repeats: int = 4,
) -> Dict[str, float]:
    """SHDF dataset write rate (datasets/sec) through the coalesced path.

    The whole file goes through
    :meth:`~repro.shdf.file.SHDFWriter.write_records` (one merged
    VirtualDisk transfer via the write-coalescing scheduler).
    """
    from ..des import Environment
    from ..fs import NFSModel
    from ..shdf.codec import encode_records
    from ..shdf.drivers import hdf4_driver
    from ..shdf.file import SHDFWriter
    from ..shdf.model import Dataset

    rng = np.random.default_rng(13)
    datasets = [
        Dataset(f"W/b{i:04d}/f", rng.random(cells), {"ncomp": 1})
        for i in range(ndatasets)
    ]

    def run() -> int:
        env = Environment()
        fs = NFSModel(env)

        def writes():
            for r in range(repeats):
                writer = SHDFWriter(env, fs, f"co_{r}.shdf", hdf4_driver())
                yield from writer.open()
                yield from writer.write_records(encode_records(datasets))
                yield from writer.close()

        env.process(writes(), name="writes")
        env.run()
        return ndatasets * repeats

    return _timed(run)


def bench_vfs_read_coalesce(
    ndatasets: int = 256, cells: int = 512, repeats: int = 4,
) -> Dict[str, float]:
    """SHDF dataset read rate (datasets/sec) through the sieved path.

    The read-side mirror of :func:`bench_vfs_coalesce`: one file is
    written (coalesced, part of the timed work but amortized over the
    repeats), then each repeat re-opens it by structural scan and pulls
    every dataset through :meth:`~repro.shdf.file.SHDFReader.read_batch`
    — one directory pass plus merged ``fs.read`` calls via the
    read-coalescing scheduler.
    """
    from ..des import Environment
    from ..fs import NFSModel
    from ..shdf.codec import encode_records
    from ..shdf.drivers import hdf4_driver
    from ..shdf.file import SHDFReader, SHDFWriter
    from ..shdf.model import Dataset

    rng = np.random.default_rng(19)
    datasets = [
        Dataset(f"W/b{i:04d}/f", rng.random(cells), {"ncomp": 1})
        for i in range(ndatasets)
    ]

    def run() -> int:
        env = Environment()
        fs = NFSModel(env)

        def reads():
            writer = SHDFWriter(env, fs, "rd.shdf", hdf4_driver())
            yield from writer.open()
            yield from writer.write_records(encode_records(datasets))
            yield from writer.close()
            for _ in range(repeats):
                reader = SHDFReader(env, fs, "rd.shdf", hdf4_driver())
                yield from reader.open_scan()
                out = yield from reader.read_batch()
                assert len(out) == ndatasets
                yield from reader.close()

        env.process(reads(), name="reads")
        env.run()
        return ndatasets * repeats

    return _timed(run)


def bench_tier_absorb(
    ndatasets: int = 256, cells: int = 512, repeats: int = 4,
    tier: str = "burst",
) -> Dict[str, float]:
    """SHDF dataset write rate (datasets/sec) through a storage tier.

    The tier-side mirror of :func:`bench_vfs_coalesce`: the same
    coalesced ``write_records`` stream, but the filesystem is fronted
    by the burst buffer (``tier="burst"``) or left bare
    (``tier="direct"``), and the run ends with the drain barrier so
    both variants pay for full durability.  The pair prices the
    simulator-side cost of the tier bookkeeping (mutation
    notifications, journal, drain process) — the *virtual-time* win is
    Table 1's job, not this one's.
    """
    from ..des import Environment
    from ..fs import BurstBufferTier, NFSModel
    from ..shdf.codec import encode_records
    from ..shdf.drivers import hdf4_driver
    from ..shdf.file import SHDFWriter
    from ..shdf.model import Dataset

    rng = np.random.default_rng(23)
    datasets = [
        Dataset(f"W/b{i:04d}/f", rng.random(cells), {"ncomp": 1})
        for i in range(ndatasets)
    ]

    def run() -> int:
        env = Environment()
        fs = NFSModel(env)
        if tier == "burst":
            fs = BurstBufferTier(env, fs)

        def writes():
            for r in range(repeats):
                writer = SHDFWriter(env, fs, f"tier_{r}.shdf", hdf4_driver())
                yield from writer.open()
                yield from writer.write_records(encode_records(datasets))
                yield from writer.close()
            yield from fs.drain_barrier()
            assert tier != "burst" or fs.backlog_bytes == 0

        env.process(writes(), name="writes")
        env.run()
        return ndatasets * repeats

    return _timed(run)


def bench_tier_drain_overlap(
    ndatasets: int = 256, cells: int = 512, repeats: int = 4,
) -> Dict[str, float]:
    """Tier write rate under pressure (datasets/sec): capacity below
    one snapshot, drain chunked small.

    Every repeat crosses the high watermark, evicts clean files and
    spills dirty bytes synchronously while the drain flushes behind —
    the worst-case bookkeeping path (watermark scans, journal epochs,
    requeues) that a healthy tier only touches under backlog.
    """
    from ..des import Environment
    from ..fs import BurstBufferTier, NFSModel, TierConfig
    from ..shdf.codec import encode_records
    from ..shdf.drivers import hdf4_driver
    from ..shdf.file import SHDFWriter
    from ..shdf.model import Dataset

    rng = np.random.default_rng(29)
    datasets = [
        Dataset(f"W/b{i:04d}/f", rng.random(cells), {"ncomp": 1})
        for i in range(ndatasets)
    ]
    # Half a file's payload: forces eviction + spill on every repeat.
    capacity = max(4096, ndatasets * cells * 8 // 2)

    def run() -> int:
        env = Environment()
        fs = BurstBufferTier(
            env, NFSModel(env),
            TierConfig(capacity_bytes=capacity, drain_chunk_bytes=64 * 1024),
        )

        def writes():
            for r in range(repeats):
                writer = SHDFWriter(env, fs, f"ovl_{r}.shdf", hdf4_driver())
                yield from writer.open()
                yield from writer.write_records(encode_records(datasets))
                yield from writer.close()
                # A compute phase between snapshots: the drain overlaps.
                yield env.sleep(0.05)
            yield from fs.drain_barrier()
            assert fs.backlog_bytes == 0

        env.process(writes(), name="writes")
        env.run()
        assert fs.stats.spills + fs.stats.evictions > 0
        return ndatasets * repeats

    return _timed(run)


# -- end-to-end -------------------------------------------------------------

def bench_table1_e2e(quick: bool = False) -> Dict[str, Any]:
    """One wall-clock run of the Table 1 matrix at 64 compute procs.

    Also reports the *virtual-time* results so before/after payloads
    prove the optimizations left simulated behaviour bit-identical.
    """
    from .table1 import run_table1

    scale = 0.05 if quick else 0.25
    steps = 40 if quick else 200
    snapshot_interval = 10 if quick else 50
    t0 = time.perf_counter()
    result = run_table1(
        proc_counts=(64,), nruns=1, scale=scale,
        steps=steps, snapshot_interval=snapshot_interval,
    )
    seconds = time.perf_counter() - t0
    virtual = {
        metric: result.value(metric, 64) for metric in sorted(result.measured)
    }
    return {
        "nprocs": 64,
        "scale": scale,
        "steps": steps,
        "wall_seconds": round(seconds, 3),
        "virtual_seconds": virtual,
    }


# -- suite ------------------------------------------------------------------

def load_baseline(path: str = DEFAULT_BASELINE_PATH) -> Optional[Dict]:
    """Load a committed baseline payload, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _speedup(after: Optional[Dict], before: Optional[Dict], key: str) -> Optional[float]:
    try:
        a, b = after[key], before[key]
    except (TypeError, KeyError):
        return None
    if not a or not b:
        return None
    return round(a / b, 3) if key.endswith("_per_sec") else round(b / a, 3)


def run_perfbench(
    quick: bool = False,
    baseline: Optional[Dict] = None,
    skip_e2e: bool = False,
) -> Dict[str, Any]:
    """Run the full suite; returns the ``BENCH_perf.json`` payload."""
    if quick:
        sizes = dict(nevents=20_000, nsources=32, rounds=10, nranks=16,
                     nmsgs=10, ndatasets=4, repeats=3,
                     ship_blocks=8, ship_snaps=2, vfs_datasets=64,
                     vfs_repeats=2, restart_blocks=8, restart_repeats=2,
                     vfs_read_datasets=64, vfs_read_repeats=2,
                     tier_datasets=64, tier_repeats=2)
    else:
        sizes = dict(nevents=200_000, nsources=64, rounds=60, nranks=32,
                     nmsgs=40, ndatasets=16, repeats=8,
                     ship_blocks=24, ship_snaps=4, vfs_datasets=256,
                     vfs_repeats=4, restart_blocks=24, restart_repeats=3,
                     vfs_read_datasets=256, vfs_read_repeats=4,
                     tier_datasets=256, tier_repeats=4)

    # Quick sizes finish in well under a millisecond per micro, where a
    # single scheduler hiccup swings the measured rate several-fold and
    # turns the CI regression gate into a coin flip.  Best-of-N strips
    # that downward noise; full sizes run long enough for one pass.
    passes = 3 if quick else 1

    def best(fn: Callable[[], Dict[str, float]]) -> Dict[str, float]:
        return min((fn() for _ in range(passes)),
                   key=lambda numbers: numbers["seconds"])

    micro: Dict[str, Any] = {}
    micro["des_events"] = best(lambda: bench_des_events(sizes["nevents"]))
    micro["des_dispatch"] = best(lambda: bench_des_dispatch(sizes["nevents"]))
    micro["mailbox_backlog_indexed"] = best(
        lambda: bench_mailbox_backlog(sizes["nsources"], sizes["rounds"]))
    micro["mailbox_waiters_indexed"] = best(
        lambda: bench_mailbox_waiters(sizes["nsources"], sizes["rounds"]))
    micro["vmpi_msgrate_indexed"] = best(
        lambda: bench_vmpi_msgrate(sizes["nranks"], sizes["nmsgs"]))
    codec_runs = [
        bench_codec(ndatasets=sizes["ndatasets"], repeats=sizes["repeats"])
        for _ in range(passes)
    ]
    for name in codec_runs[0]:
        micro[f"codec_{name}"] = min(
            (run[name] for run in codec_runs),
            key=lambda numbers: numbers["seconds"])
    micro["ship_batched"] = best(lambda: bench_ship(
        sizes["ship_blocks"], sizes["ship_snaps"]))
    micro["restart_twophase"] = best(lambda: bench_restart(
        sizes["restart_blocks"], repeats=sizes["restart_repeats"]))
    micro["vfs_coalesce"] = best(lambda: bench_vfs_coalesce(
        sizes["vfs_datasets"], repeats=sizes["vfs_repeats"]))
    micro["vfs_read_coalesce"] = best(lambda: bench_vfs_read_coalesce(
        sizes["vfs_read_datasets"], repeats=sizes["vfs_read_repeats"]))
    for name, tier in (
        ("tier_absorb_burst", "burst"), ("tier_absorb_direct", "direct")
    ):
        micro[name] = best(lambda t=tier: bench_tier_absorb(
            sizes["tier_datasets"], repeats=sizes["tier_repeats"], tier=t))
    micro["tier_drain_overlap"] = best(lambda: bench_tier_drain_overlap(
        sizes["tier_datasets"], repeats=sizes["tier_repeats"]))

    payload: Dict[str, Any] = {
        "schema": "perfbench-v1",
        "quick": quick,
        "sizes": sizes,
        "micro": micro,
    }
    if not skip_e2e:
        payload["e2e"] = {"table1_64p": bench_table1_e2e(quick=quick)}

    if baseline is not None and baseline.get("sizes") != sizes:
        # A quick run against a full baseline (or vice versa) would
        # compare rates measured on different workload sizes; drop the
        # comparison rather than report phantom regressions.
        baseline = None
    if baseline is not None:
        speedups: Dict[str, Any] = {}
        base_micro = baseline.get("micro", {})
        for name, numbers in micro.items():
            s = _speedup(numbers, base_micro.get(name), "ops_per_sec")
            if s is None:
                s = _speedup(numbers, base_micro.get(name), "mb_per_sec")
            if s is not None:
                speedups[name] = s
        base_e2e = baseline.get("e2e", {}).get("table1_64p")
        if not skip_e2e and base_e2e:
            s = _speedup(payload["e2e"]["table1_64p"], base_e2e, "wall_seconds")
            if s is not None:
                speedups["table1_64p_wall"] = s
        payload["baseline"] = baseline
        payload["speedup_vs_baseline"] = speedups
    return payload


def profile_stats(profiler, top: int = 20) -> str:
    """Render a cProfile run as its top-``top`` cumulative-time lines."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def check_regressions(
    payload: Dict[str, Any], threshold: float = 0.25
) -> list:
    """Micros slower than ``1 - threshold`` x the committed baseline.

    Returns ``(name, speedup)`` pairs for every microbenchmark whose
    ``speedup_vs_baseline`` entry falls below the floor (e.g. with the
    default 0.25, anything slower than 0.75x baseline).  Empty when no
    baseline was attached or nothing regressed.  The end-to-end wall
    number is excluded: it is the *acceptance* metric, judged on its
    own target, and too noisy for a hard per-run gate at quick sizes.
    """
    speedups = payload.get("speedup_vs_baseline", {})
    floor = 1.0 - threshold
    return [
        (name, s)
        for name, s in sorted(speedups.items())
        if name != "table1_64p_wall" and s is not None and s < floor
    ]


def render_perf(payload: Dict[str, Any]) -> str:
    """Plain-text table of the suite's numbers (and speedups if present)."""
    from .report import render_table

    speedups = payload.get("speedup_vs_baseline", {})
    rows = []
    for name, numbers in payload["micro"].items():
        rate = numbers.get("ops_per_sec") or numbers.get("mb_per_sec")
        unit = "ops/s" if "ops_per_sec" in numbers else "MB/s"
        rows.append([name, rate, unit, numbers["seconds"], speedups.get(name)])
    e2e = payload.get("e2e", {}).get("table1_64p")
    if e2e:
        rows.append([
            "table1_64p (e2e)", e2e["wall_seconds"], "s wall", e2e["wall_seconds"],
            speedups.get("table1_64p_wall"),
        ])
    return render_table(
        ["benchmark", "rate", "unit", "seconds", "speedup vs baseline"],
        rows,
        title="perfbench — simulator wall-clock hot paths",
    )
