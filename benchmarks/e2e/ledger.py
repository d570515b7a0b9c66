"""Per-layer ledger: host self time from a cProfile run, counts from public objects.

A layer is a module path under ``src/repro/``.  The traced run is
profiled from here (no source edits, no monkeypatching); per-function
self time is rolled up by source path, and time spent in code that is
not the program's own (built-ins, numpy, ``bytearray``, the standard
library, generated dataclass methods) is charged to the layer of the
function that called it, following the profile's caller edges.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional

#: First matching prefix (relative to ``src/repro/``) names the layer.
_RULES = (
    ("des/", "des"),
    ("vmpi/", "vmpi"),
    ("vthread/", "vthread"),
    ("cluster/", "cluster"),
    ("fs/vfs.py", "fs.vfs"),
    ("fs/models.py", "fs.models"),
    ("fs/coalesce.py", "fs.coalesce"),
    ("fs/tiers.py", "fs.tiers"),
    ("shdf/codec", "shdf.codec"),
    ("shdf/", "shdf.file"),
    ("io/base.py", "io.base"),
    ("io/rochdf.py", "io.rochdf"),
    ("io/trochdf.py", "io.trochdf"),
    ("io/rocpanda/client.py", "io.rocpanda.client"),
    ("io/rocpanda/server.py", "io.rocpanda.server"),
    ("io/rocpanda/", "io.rocpanda.protocol"),
    ("roccom/", "roccom"),
    ("genx/physics/", "genx.physics"),
    ("genx/", "genx.other"),
    ("obs/", "obs"),
    ("faults/", "faults"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _RULES)) + ("other",)


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """Layer of one of the program's source files; None for foreign code."""
    if not filename.startswith(package_dir + os.sep):
        return None
    rel = filename[len(package_dir) + 1 :].replace(os.sep, "/")
    for prefix, layer in _RULES:
        if rel.startswith(prefix):
            return layer
    return "other"


def rollup(profiler, package_dir: str) -> Dict[str, object]:
    """Self seconds per layer; the parts sum to the profile's total."""
    stats = pstats.Stats(profiler).stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func) -> Dict[str, float]:
        layer = layer_of(func[0], package_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # breaks caller cycles in foreign code
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        if total > 0:
            acc: Dict[str, float] = {}
            for caller, weight in weights.items():
                for layer, share in shares(caller).items():
                    acc[layer] = acc.get(layer, 0.0) + share * weight / total
            memo[func] = acc
        return memo[func]

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = 0
    for func, (_cc, ncalls, self_time, _ct, _callers) in stats.items():
        calls += ncalls
        for layer, share in shares(func).items():
            seconds[layer] += self_time * share
    return {"seconds": seconds, "py_calls": calls}


def counts(machines, results, checked, paper_visible_io_s=None) -> Dict[str, float]:
    """Everything about one job sequence that repeats exactly for a seed.

    The paper's clock (Table 1's rows, summed over the sequence) and the
    counts at the layer boundaries, all read from public objects after
    the jobs ended.  ``checked`` is the digest record of the verified
    snapshots (see ``child.digest_snapshot``).
    """
    from repro import obs
    from repro.fs.tiers import BurstBufferTier

    out: Dict[str, float] = {
        "virt_wall_s": sum(r.wall_time for r in results),
        "virt_compute_s": sum(r.computation_time for r in results),
        "virt_visible_io_s": sum(r.visible_io_time for r in results),
        "virt_final_sync_s": sum(max(c.final_sync_time for c in r.clients) for r in results),
        "virt_restart_s": sum(r.restart_time for r in results),
        "files_created": sum(r.files_created for r in results),
        "check.tier_drained_eq_disk": 1,
    }

    def add(name, value):
        out[name] = out.get(name, 0) + value

    def peak(name, value):
        out[name] = max(out.get(name, 0), value)

    records = []
    written = 0
    out["check.payload_bytes_equal"] = 1
    for machine, result, snap in zip(machines, results, checked):
        env = machine.env
        add("des.events", env.events_processed)
        peak("des.max_queue_depth", env.max_queue_depth)

        comm = result.recorder.comm
        add("vmpi.messages", comm.messages_sent)
        add("vmpi.wire_bytes", comm.bytes_sent)
        add("vmpi.eager_messages", comm.eager_messages)
        add("vmpi.rendezvous_messages", comm.rendezvous_messages)
        add("cluster.net_bytes", machine.network.bytes_transferred)

        tier = machine.fs if isinstance(machine.fs, BurstBufferTier) else None
        fs = (tier.backing if tier else machine.fs).metrics
        add("fs.write_ops", fs.write_ops)
        add("fs.read_ops", fs.read_ops)
        add("fs.meta_ops", fs.meta_ops)
        add("fs.bytes_written", fs.bytes_written)
        add("fs.bytes_read", fs.bytes_read)
        add("fs.virt_write_busy_s", fs.write_busy_time)
        add("fs.virt_read_busy_s", fs.read_busy_time)
        add("fs.disk_bytes", machine.disk.total_bytes)
        if tier is not None:
            ts = tier.stats
            add("fs.tiers.absorbed_bytes", ts.absorbed_bytes)
            add("fs.tiers.drained_bytes", ts.drained_bytes)
            add("fs.tiers.drain_flushes", ts.drain_flushes)
            add("fs.tiers.evictions", ts.evictions)
            add("fs.tiers.spills", ts.spills)
            add("fs.tiers.drain_retries", ts.drain_retries)
            peak("fs.tiers.backlog_peak_bytes", ts.backlog_peak_bytes)
            if ts.drained_bytes != machine.disk.total_bytes or tier.backlog_bytes:
                out["check.tier_drained_eq_disk"] = 0

        records.extend(result.recorder.io_records)
        stats = [c.io_stats for c in result.clients]
        written += sum(s.bytes_written for s in stats)
        add("io.blocks_written", sum(s.blocks_written for s in stats))
        add("io.blocks_read", sum(s.blocks_read for s in stats))
        add("io.payload_bytes", sum(s.bytes_written + s.bytes_read for s in stats))
        # Per-client times: the slowest client, as Table 1 reports them.
        add("io.virt_visible_write_s", max(s.visible_write_time for s in stats))
        add("io.virt_visible_read_s", max(s.visible_read_time for s in stats))
        add("io.virt_sync_s", max(s.sync_time for s in stats))
        add("io.retries", sum(s.retries for s in stats))
        add("io.failovers", sum(s.failovers for s in stats))
        add("genx.snapshots", result.clients[0].rocman.snapshots)

        servers = [s.stats for s in result.servers]
        add("io.rocpanda.server.blocks_received", sum(s.blocks_received for s in servers))
        add("io.rocpanda.server.overflow_flushes", sum(s.overflow_flushes for s in servers))
        add("io.rocpanda.server.virt_background_write_s",
            sum(s.background_write_time for s in servers))
        add("io.rocpanda.server.restart_regions_read",
            sum(s.restart_regions_read for s in servers))
        add("io.rocpanda.server.write_retries", sum(s.write_retries for s in servers))
        peak("io.rocpanda.server.peak_buffered_bytes",
             max((s.peak_buffered_bytes for s in servers), default=0))
        # Whoever writes the files (servers if any, else the clients)
        # must report landing exactly the array bytes of its snapshots.
        landed = sum(s.bytes_written for s in servers or stats)
        owed = result.clients[0].rocman.snapshots * sum(
            w["array_bytes"] for w in snap["windows"].values()
        )
        if landed != owed:
            out["check.payload_bytes_equal"] = 0

    shdf = [r for r in records if r.module == "shdf"]
    out["shdf.records"] = len(shdf)
    out["shdf.bytes"] = sum(r.nbytes for r in shdf)
    out["shdf.virt_busy_s"] = sum(r.duration for r in shdf)
    out["io.virt_background_s"] = sum(r.duration for r in records if not r.visible)
    out["virt_overlap_ratio"] = obs.overlap_ratio(records)

    windows = [w for snap in checked for w in snap["windows"].values()]
    array_bytes = sum(w["array_bytes"] for w in windows)
    out["genx.blocks"] = sum(w["nblocks"] for w in windows)
    out["shdf.format_overhead"] = sum(snap["file_bytes"] for snap in checked) / array_bytes

    # Exact ratios of the numbers above.
    visible = out["virt_visible_io_s"]
    out["io.apparent_write_mb_per_s"] = written / 2**20 / visible
    out["job.virt_unattributed_s"] = out["virt_wall_s"] - visible - sum(
        out[k] for k in ("virt_compute_s", "virt_final_sync_s", "virt_restart_s")
    )
    if paper_visible_io_s:
        out["paper.visible_io_ratio"] = visible / paper_visible_io_s
    return out
