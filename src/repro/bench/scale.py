"""Scaling benchmark: the simulator from 64 to 1024 compute processors.

The paper's own experiments stop at 480 processors (Fig 3a); this
harness pushes the *simulator* an order of magnitude past Table 1's
64-processor acceptance point and records how it holds up as
``BENCH_scaling.json``:

* **strong curve** — the Table 1 workload (:func:`lab_scale_motor`,
  repartitioned onto 1024 blocks so every client owns at least one)
  run under Rocpanda at 64/128/256/512/1024 clients.  Total data and
  computation are fixed; what scales is the rank count, and with it
  the collective traffic the tree collectives exist to tame.
* **weak curve** — :func:`scalability_cylinder` (the paper's Frost
  workload, run here on Turing's single NFS server like the strong
  curve) with a small fixed per-client share, same client counts.
  Total data grows with the job, stressing the DES core, the server
  fan-in and the one write slot instead.

Each point reports both clocks:

* ``host_wall_s`` / ``events_per_sec`` / ``host_mb_per_s`` /
  ``max_queue_depth`` — how fast and how big the *simulator* ran (the
  scalability of the tool; MB/s is the unit for the byte-moving weak
  curve, events/s for the dispatch-bound strong one);
* ``virtual_wall_s`` / ``computation_s`` / ``visible_io_s`` /
  ``fs_write_ops`` — what the simulated machine spent (the scalability
  of the modeled system; ``computation_s`` includes time blocked in
  collectives, which is where O(P) -> O(log P) shows up, and
  ``fs_write_ops`` counts the filesystem transfers the servers'
  write-behind stage merged the blocks into; ``final_sync_s`` is the
  drain the run failed to hide, ``drain`` where the slowest server's
  went (:func:`server_drain`), ``peak_write_demand`` the most writes
  the filesystem had in flight, ``refused_joins`` the latency-bound
  shares a writer turned away because it had retired the path, ``write_mb_per_virt_s`` payload over
  virtual wall, Ertl's curve).

``run_scalebench`` attaches per-point speedups against a committed
baseline payload when one of matching size is supplied, and
``check_scale_regressions`` turns them into CI's host-time gate;
``check_scale_virtual`` holds the virtual fields exact.  Quick mode
runs the 128-client point only (a size a CI box absorbs) against
``BENCH_scaling_baseline_quick.json``.  Scalebench is the host clock
across rank counts; ``benchmarks/e2e`` is the host clock per workload
and, with ``--trace 1``, per layer.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "STRONG_POINTS",
    "QUICK_POINTS",
    "bench_scale_point",
    "run_scalebench",
    "attach_scale_speedups",
    "check_scale_regressions",
    "check_scale_virtual",
    "load_scale_baseline",
    "render_scale",
    "DEFAULT_SCALE_BASELINE_PATH",
    "DEFAULT_SCALE_QUICK_BASELINE_PATH",
]

#: Committed numbers the full and quick suites compare against.
DEFAULT_SCALE_BASELINE_PATH = os.path.join(
    "bench_results", "BENCH_scaling_baseline.json"
)
DEFAULT_SCALE_QUICK_BASELINE_PATH = os.path.join(
    "bench_results", "BENCH_scaling_baseline_quick.json"
)

#: Client counts for the full sweep and the CI quick pass.
STRONG_POINTS = (64, 128, 256, 512, 1024)
QUICK_POINTS = (128,)

#: The paper fixes the Rocpanda client:server ratio at 8:1.
_RATIO = 8


def _strong_workload():
    # Table 1's strong-scaling workload, shrunk to the acceptance size
    # (scale=0.05, 40 steps, 5 output phases) and repartitioned onto
    # 1024 fluid + 1024 solid blocks so 1024 clients each own >= 1.
    from ..genx.workloads import lab_scale_motor

    return lab_scale_motor(
        scale=0.05,
        steps=40,
        snapshot_interval=10,
        nblocks_fluid=1024,
        nblocks_solid=1024,
    )


def _weak_workload():
    # Weak scaling: a small fixed share per client so the 1024-point
    # job stays affordable while total data grows 16x over the sweep.
    from ..genx.workloads import scalability_cylinder

    return scalability_cylinder(
        per_client_bytes=0.25 * 1024 * 1024,
        blocks_per_client_fluid=2,
        blocks_per_client_solid=1,
        steps=12,
        snapshot_interval=4,
    )


def bench_scale_point(
    workload, nclients: int, seed: int = 100, prefix: str = "scale"
) -> Dict[str, Any]:
    """Run one Rocpanda job at ``nclients`` and report both clocks."""
    from ..cluster.machine import Machine
    from ..cluster.presets import turing
    from ..genx.driver import GENxConfig, run_genx

    nservers = max(1, nclients // _RATIO)
    nranks = nclients + nservers
    # Turing's historical 208 nodes hold 416 ranks; larger jobs get a
    # proportionally larger simulated cluster with the same calibration.
    nnodes = max(208, (nranks + 1) // 2)
    machine = Machine(turing(nnodes=nnodes), seed=seed)
    t0 = time.perf_counter()
    result = run_genx(
        machine,
        nranks,
        GENxConfig(
            workload=workload,
            io_mode="rocpanda",
            nservers=nservers,
            prefix=f"{prefix}_{nclients}",
        ),
    )
    host_wall = time.perf_counter() - t0
    env = machine.env
    # Array bytes the servers landed on disk (exact for a workload).
    payload_bytes = sum(s.stats.bytes_written for s in result.servers)
    # Under the write-slot lease only bytes move: the servers' holds are
    # the filesystem's write-busy time, one writer at a time, one write
    # per hold and no hold without one.
    metrics = machine.fs.metrics
    held = sum(s.stats.transfer_time for s in result.servers)
    holds = sum(s.stats.write_flushes for s in result.servers)
    if (abs(held - metrics.write_busy_time) > 1e-9 or metrics.peak_write_demand != 1
            or metrics.write_ops != holds):
        raise AssertionError(
            f"{prefix}_{nclients}: lease held {held} s for {metrics.write_busy_time} s "
            f"of writes, {metrics.peak_write_demand} at once, {metrics.write_ops} "
            f"writes in {holds} holds"
        )
    return {
        "nclients": nclients,
        "nservers": nservers,
        "nranks": nranks,
        "host_wall_s": round(host_wall, 3),
        "virtual_wall_s": round(result.wall_time, 6),
        "computation_s": round(result.computation_time, 6),
        "visible_io_s": round(result.visible_io_time, 6),
        "events_processed": int(env.events_processed),
        "events_per_sec": round(env.events_processed / host_wall, 1)
        if host_wall > 0
        else float("inf"),
        "max_queue_depth": int(env.max_queue_depth),
        # Filesystem transfers the job made (exact for a seed).
        "fs_write_ops": int(metrics.write_ops),
        "final_sync_s": round(max(c.final_sync_time for c in result.clients), 6),
        "drain": server_drain(result),
        "peak_write_demand": int(metrics.peak_write_demand),
        # Latency-bound shares a writer turned away, its file retired.
        "refused_joins": sum(s.stats.refused_joins for s in result.servers),
        "payload_bytes": int(payload_bytes),
        "write_mb_per_virt_s": round(payload_bytes / 2**20 / result.wall_time, 2),
        "host_mb_per_s": round(payload_bytes / 2**20 / host_wall, 1)
        if host_wall > 0
        else float("inf"),
    }


#: The terms of a server's drain, as ``ServerStats`` names them, all on
#: its lander.
DRAIN_TERMS = ("bookkeeping", "meta", "lock_rpc", "slot_wait", "transfer")


def server_drain(result) -> Dict[str, float]:
    """``{term}_s`` per :data:`DRAIN_TERMS` for the server of ``result``
    whose drain (their sum: its ``bg_write``, ``settle``, ``land`` and
    ``slot_wait`` records) was the longest; zeros without servers."""
    drains = [
        [getattr(s.stats, f"{term}_time") for term in DRAIN_TERMS]
        for s in result.servers
    ]
    slowest = max(drains, key=sum, default=[0.0] * len(DRAIN_TERMS))
    return {f"{t}_s": round(v, 6) for t, v in zip(DRAIN_TERMS, slowest)}


def load_scale_baseline(path: str) -> Optional[Dict]:
    """Load a committed scaling baseline payload, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def run_scalebench(
    quick: bool = False,
    baseline: Optional[Dict] = None,
    points: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """Run both curves; returns the ``BENCH_scaling.json`` payload."""
    pts = list(points) if points is not None else list(
        QUICK_POINTS if quick else STRONG_POINTS
    )
    strong_workload = _strong_workload()
    weak_workload = _weak_workload()
    strong = [
        bench_scale_point(strong_workload, n, prefix="sstrong") for n in pts
    ]
    weak = [bench_scale_point(weak_workload, n, prefix="sweak") for n in pts]

    payload: Dict[str, Any] = {
        "schema": "scalebench-v1",
        "quick": quick,
        "points": pts,
        "strong": strong,
        "weak": weak,
    }

    attach_scale_speedups(payload, baseline)
    return payload


def attach_scale_speedups(
    payload: Dict[str, Any], baseline: Optional[Dict]
) -> Dict[str, Any]:
    """Attach per-point host-wall and host-rate speedups vs ``baseline``.

    A baseline measured on a different point set (quick vs full) is
    ignored rather than compared — rates from different sweeps would
    report phantom regressions.  ``<curve>_<n>`` entries compare host
    wall (bigger = faster); ``<curve>_<n>_events_per_sec`` and
    ``<curve>_<n>_host_mb_per_s`` entries compare the host dispatch and
    byte-moving rates (skipped where the baseline predates the field).
    """
    if baseline is None or baseline.get("points") != payload["points"]:
        return payload
    speedups: Dict[str, float] = {}
    for curve in ("strong", "weak"):
        base_by_n = {p["nclients"]: p for p in baseline.get(curve, [])}
        for point in payload[curve]:
            base = base_by_n.get(point["nclients"])
            if not base or not base.get("host_wall_s"):
                continue
            if not point["host_wall_s"]:
                continue
            speedups[f"{curve}_{point['nclients']}"] = round(
                base["host_wall_s"] / point["host_wall_s"], 3
            )
            for rate in ("events_per_sec", "host_mb_per_s"):
                if base.get(rate) and point.get(rate):
                    speedups[f"{curve}_{point['nclients']}_{rate}"] = round(
                        point[rate] / base[rate], 3
                    )
    payload["baseline"] = baseline
    payload["speedup_vs_baseline"] = speedups
    return payload


def check_scale_regressions(
    payload: Dict[str, Any], threshold: float = 0.25
) -> list:
    """Points slower than ``1 - threshold`` x the committed baseline.

    Returns ``(name, speedup)`` pairs for every curve point whose
    host-wall or host-rate speedup falls below the floor; empty when no
    baseline of matching size was attached or nothing regressed.
    """
    speedups = payload.get("speedup_vs_baseline", {})
    floor = 1.0 - threshold
    return [
        (name, s)
        for name, s in sorted(speedups.items())
        if s is not None and s < floor
    ]


def check_scale_virtual(payload: Dict[str, Any]) -> list:
    """``(name, old, new)`` per virtual field (exact at the bench's
    seed) that differs from the attached baseline's: a schedule change."""
    baseline = payload.get("baseline") or {}
    return [
        (f"{curve}_{point['nclients']}.{name}", base.get(name), point[name])
        for curve in ("strong", "weak")
        for point, base in zip(payload[curve], baseline.get(curve, []))
        for name in ("virtual_wall_s", "computation_s", "visible_io_s", "fs_write_ops")
        if base.get(name) != point[name]
    ]


def render_scale(payload: Dict[str, Any]) -> str:
    """Plain-text table of both curves (and speedups if present)."""
    from .report import render_table

    speedups = payload.get("speedup_vs_baseline", {})
    rows = []
    for curve in ("strong", "weak"):
        for p in payload[curve]:
            rows.append([
                curve,
                p["nclients"],
                p["nranks"],
                p["host_wall_s"],
                p["virtual_wall_s"],
                p["computation_s"],
                p["visible_io_s"],
                p.get("final_sync_s"),
                *(p.get("drain", {}).get(f"{term}_s") for term in DRAIN_TERMS),
                p.get("peak_write_demand"),
                p.get("refused_joins"),
                p.get("write_mb_per_virt_s"),
                p["events_per_sec"],
                p.get("host_mb_per_s"),
                p["max_queue_depth"],
                p.get("fs_write_ops"),
                speedups.get(f"{curve}_{p['nclients']}"),
            ])
    return render_table(
        [
            "curve", "clients", "ranks", "host wall (s)", "virt wall (s)",
            "compute (s)", "visible I/O (s)", "final sync (s)",
            *(f"{term.replace('_', ' ')} (s)" for term in DRAIN_TERMS),
            "peak writers", "refused joins", "virt MB/s", "events/s", "host MB/s",
            "max queue", "fs writes",
            "speedup vs baseline",
        ],
        rows,
        title="scalebench — simulator scaling, 64 -> 1024 ranks (Rocpanda)",
    )
