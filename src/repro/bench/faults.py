"""Faultbench: the chaos matrix for the resilience layer (fault type x I/O module).

Every scenario is one :func:`checkpoint_restart`: a checkpoint-write
job, then a restart from the surviving files on a *fresh* machine
sharing the same disk, with an injected :mod:`repro.faults` plan in one
of the two jobs.  The restored arrays (as a SHA-256 digest) are compared
against the fault-free run of the identical workload; a scenario
*recovers* when the digests match bit-for-bit.  Each scenario also runs
twice with the same seed; ``runs_identical`` proves the whole fault
schedule — crashes, retries, failovers and all — replays
deterministically from the :class:`~repro.cluster.Machine` seed.
``python -m repro paper faults`` renders the matrix as ``faults.txt``.

The matrix exercises:

* Rocpanda: I/O-server crash mid-checkpoint (block assignments fail
  over to the surviving server and restart runs with a *different*
  server count), transient ``EIO``, disk-full windows, message
  drop/duplication/extra-delay, a straggler node, and a crash or read
  ``EIO`` during the two-phase collective restart;
* Rochdf / T-Rochdf: transient ``EIO`` and disk-full windows absorbed
  by the write-retry path (for T-Rochdf, on the background I/O thread);
* either, through the burst tier: a crash or a disk-full window while
  the write-behind drain is flushing.

The matrix times nothing on the host.  That an installed but idle
injector costs nothing is a test (``TestIdleInjectorIsTransparent``:
virtual times and disk image bit-identical); host time is measured by
``benchmarks/e2e`` and by the paper sweeps (:attr:`repro.bench.Grid.host`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cluster import Machine
from ..cluster import testbox as make_testbox
from ..faults import (
    DiskFull, FaultPlan, MessageFault, RetryPolicy, ServerCrash, Straggler, TransientEIO,
)
from ..fs.tiers import TierConfig
from ..io import (
    IOStats, PandaServer, RochdfModule, RocpandaModule, ServerConfig, ServerStats,
    TRochdfModule, rocpanda_init,
)
from ..io.rocpanda.protocol import TAG_BLOCK, TAG_CTRL
from ..obs import stat_counts
from ..roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, Roccom
from ..shdf.drivers import apply_storage_tier
from ..vmpi import run_spmd
from .report import render_table

__all__ = [
    "PATIENT_RETRY", "checkpoint_restart", "digest_blocks",
    "render_faults", "run_faultbench", "scenario_names",
]


class _Geometry(NamedTuple):
    """One service's checkpoint: its jobs' shapes and the data it writes.

    Both jobs run on a testbox with one node per writing rank.
    """

    procs: int  # of the write job, servers included
    servers: int
    restart_procs: int
    restart_servers: int
    blocks: int  # per writing client
    size: Tuple[int, int]  # (nodes, elements) of a client's first block
    rng: int  # + client rank: the seed of the client's arrays
    delay: float  # past the init collectives, before the write

    @property
    def total(self) -> int:
        return (self.procs - self.servers) * self.blocks


#: Rocpanda writes on 8 procs / 2 servers (ranks 0 and 4) and restarts
#: on 6 / 3 -- a different server count, so failover must preserve the
#: round-robin block->server restart scan.  Its blocks' ~34 KB coords
#: go as rendezvous sends, and the write waits 0.05 s so the faults
#: (scheduled at t ~= 0.05) land mid-checkpoint.  Rochdf / T-Rochdf
#: write and restart on 4 procs, 2 blocks each.
_GEOMETRY = {
    "rocpanda": _Geometry(8, 2, 6, 3, 3, (1200, 600), 1000, 0.05),
    "rochdf": _Geometry(4, 0, 4, 0, 2, (400, 200), 2000, 0.0),
    "trochdf": _Geometry(4, 0, 4, 0, 2, (400, 200), 2000, 0.0),
}
_HDF_MODULES = {"rochdf": RochdfModule, "trochdf": TRochdfModule}

#: Generous backoff for the disk-full scenarios: the capacity window
#: lasts 0.2 s, so the cumulative backoff (~4 s at 12 attempts) must
#: outlast it or the retries exhaust while the disk is still full.
PATIENT_RETRY = RetryPolicy(max_attempts=12, base_delay=2e-3)

#: Burst-tier config for the drain scenarios: faults land on the
#: *backing* disk, so the write-behind drain (not the module) must
#: outlast the fault window with its own patient backoff.
_BURST_TIER = TierConfig(retry=PATIENT_RETRY)


def digest_blocks(blockmap: Dict[int, Dict[str, np.ndarray]]) -> str:
    """Order-independent SHA-256 over restored (block_id, array) data."""
    h = hashlib.sha256()
    for block_id in sorted(blockmap):
        h.update(str(block_id).encode())
        for name in sorted(blockmap[block_id]):
            arr = np.ascontiguousarray(blockmap[block_id][name])
            h.update(name.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


# -- the two jobs -----------------------------------------------------------

def _attach(ctx, service, nservers, retry, server_config):
    """Generator: ``(com, client rank, module)`` on a client rank; on a
    Rocpanda server rank it serves the job and returns its ``ServerStats``."""
    if service != "rocpanda":
        com = Roccom(ctx)
        return com, ctx.rank, com.load_module(_HDF_MODULES[service](ctx, retry=retry))
    topo = yield from rocpanda_init(ctx, nservers)
    if topo.is_server:
        return (yield from PandaServer(ctx, topo, server_config).run())
    com = Roccom(ctx)
    return com, topo.comm.rank, com.load_module(RocpandaModule(ctx, topo, retry=retry))


def _detach(com, module, service):
    """Generator: tell the servers this client is done, or drain T-Rochdf's thread."""
    if service == "rocpanda":
        yield from module.finalize()
    else:
        yield from com.unload_module(service)


def _write_main(service, retry, server_config):
    g = _GEOMETRY[service]

    def main(ctx):
        client = yield from _attach(ctx, service, g.servers, retry, server_config)
        if isinstance(client, ServerStats):
            return client, {}
        com, rank, module = client
        w = com.new_window("Fluid")
        w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
        w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT))
        # Data keyed by client rank only, so the fault-free reference
        # and every faulted run write identical arrays.
        rng = np.random.default_rng(g.rng + rank)
        for i in range(g.blocks):
            pane_id = rank * g.blocks + i
            nn, ne = g.size[0] + i, g.size[1] + i
            w.register_pane(pane_id, nn, ne)
            w.set_array("coords", pane_id, rng.random((nn, 3)))
            w.set_array("pressure", pane_id, rng.random(ne))
        if g.delay:
            yield from ctx.sleep(g.delay)
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
        yield from com.call_function("OUT.sync")
        yield from _detach(com, module, service)
        return module.stats, {}

    return main


def _restart_main(service, retry, server_config):
    g = _GEOMETRY[service]
    per_client = g.total // (g.restart_procs - g.restart_servers)

    def main(ctx):
        client = yield from _attach(ctx, service, g.restart_servers, retry, server_config)
        if isinstance(client, ServerStats):
            return client, {}
        com, rank, module = client
        w = com.new_window("Fluid")
        for pane_id in range(rank * per_client, (rank + 1) * per_client):
            w.register_pane(pane_id, 0, 0)
        ids = yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
        restored = {
            pid: {name: w.get_array(name, pid).copy() for name in ("coords", "pressure")}
            for pid in ids
        }
        yield from _detach(com, module, service)
        return module.stats, restored

    return main


def checkpoint_restart(
    service: str,
    plan: Optional[FaultPlan] = None,
    phase: str = "write",
    seed: int = 0,
    retry: Optional[RetryPolicy] = None,
    server_config: Optional[ServerConfig] = None,
    storage_tier: str = "direct",
) -> Tuple[str, Dict[str, Any]]:
    """Write a checkpoint with ``service``, restart from its disk on a
    fresh machine, and digest the restored arrays.

    ``plan``, ``retry`` and ``server_config`` belong to the job named by
    ``phase`` (``"write"`` or ``"restart"``); the other runs fault-free
    with the defaults.  The write machine (seed ``seed``) goes through
    ``storage_tier``; the restart (seed ``seed + 1``) reads the shared
    backing disk directly, Rocpanda's on a different server count.

    Returns ``(digest, info)``: ``info`` holds the faulted job's client
    retries and failovers, its counts (:func:`repro.obs.stat_counts` of
    its clients', servers' and machine's stats), and ``missing_blocks``
    when the restart restored fewer blocks than were written.
    """
    if phase not in ("write", "restart"):
        raise ValueError(f"unknown phase {phase!r}; expected 'write' or 'restart'")
    g = _GEOMETRY[service]
    jobs, disk = {}, None
    for seed_offset, (name, main, nprocs) in enumerate((
        ("write", _write_main, g.procs), ("restart", _restart_main, g.restart_procs),
    )):
        settings = (retry, server_config) if name == phase else (None, None)
        machine = Machine(
            make_testbox(nnodes=g.procs, cpus_per_node=4), seed=seed + seed_offset, disk=disk
        )
        if name == phase and plan is not None:
            machine.install_faults(plan)
        if name == "write":
            apply_storage_tier(machine, storage_tier, _BURST_TIER)
        jobs[name] = run_spmd(machine, nprocs, main(service, *settings))
        disk = machine.disk

    # Servers exist only under Rocpanda, so every holder is ``service``'s.
    held = [r[0] for r in jobs[phase].returns]
    clients = [s for s in held if isinstance(s, IOStats)]
    restored: Dict[int, Dict[str, np.ndarray]] = {}
    for r in jobs["restart"].returns:
        restored.update(r[1])
    info: Dict[str, Any] = {
        "client_retries": sum(s.retries for s in clients),
        "client_failovers": sum(s.failovers for s in clients),
    }
    if len(restored) != g.total:
        info["missing_blocks"] = g.total - len(restored)
    info["counters"] = stat_counts(
        [(service, s) for s in held] + jobs[phase].machine.stats()
    )
    return digest_blocks(restored), info


# -- the matrix -------------------------------------------------------------

#: A 0.05 s window of a 4 KiB backing disk, from the start.
_DISK_FULL = (DiskFull(at_time=0.0, capacity_bytes=4096, duration=0.05),)

#: ``(scenario, service, faults, phase, patient, storage tier)``: the
#: plan's faults land in the ``phase`` job; a patient row runs it with
#: :data:`PATIENT_RETRY` on the clients and the servers.
#:
#: Fault start times target t ~= 0.05, when the Rocpanda checkpoint
#: write is in flight (after the init collectives, which are not part
#: of the recovery protocol).  Message faults never target ``TAG_CTRL``
#: drops: a silently dropped eager control message is indistinguishable
#: from a slow one at the transport, and the reply-timeout layer above
#: covers it instead (drops here target the rendezvous block channel).
_SCENARIOS = (
    ("server_crash", "rocpanda", (ServerCrash(rank=4, at_time=0.055),),
     "write", False, "direct"),
    ("transient_eio", "rocpanda", (TransientEIO(start=0.05, count=3),),
     "write", False, "direct"),
    ("disk_full", "rocpanda",
     (DiskFull(at_time=0.05, capacity_bytes=100_000, duration=0.2),),
     "write", True, "direct"),
    ("msg_drop", "rocpanda", (MessageFault("drop", tag=TAG_BLOCK, start=0.05, count=2),),
     "write", False, "direct"),
    ("msg_duplicate", "rocpanda",
     (MessageFault("duplicate", tag=TAG_CTRL, start=0.05, count=2),),
     "write", False, "direct"),
    ("msg_delay", "rocpanda",
     (MessageFault("delay", tag=TAG_BLOCK, start=0.05, count=2, delay=0.1),),
     "write", False, "direct"),
    ("straggler", "rocpanda", (Straggler(node=1, start=0.0, duration=0.5, factor=8.0),),
     "write", False, "direct"),
    # I/O server dies mid-bulk-read during the two-phase restart:
    # clients resume its file share from the heir.
    ("restart_server_crash", "rocpanda", (ServerCrash(rank=2, at_time=0.004),),
     "restart", False, "direct"),
    # Transient read EIO inside the sieved region reads, absorbed by the
    # server-side read-retry path.
    ("restart_read_eio", "rocpanda", (TransientEIO(op="read", path_prefix="ck", count=2),),
     "restart", False, "direct"),
    # Server crash while the burst tier is still draining its file: the
    # torn front copy drains to the backing disk without a commit footer
    # (detectable), the heir's failover generation file drains complete,
    # and restart — which reads the shared backing disk directly —
    # recovers every block.
    ("drain_server_crash", "rocpanda", (ServerCrash(rank=4, at_time=0.055),),
     "write", False, "burst"),
    # The *backing* disk hits its capacity window while the drain is
    # flushing: the tier absorbs the snapshot at memory speed
    # regardless, and the drain's patient backoff outlasts the window
    # (tier backpressure + retry).
    ("drain_disk_full", "rochdf", _DISK_FULL, "write", False, "burst"),
    ("transient_eio", "rochdf", (TransientEIO(count=2),), "write", False, "direct"),
    ("disk_full", "rochdf", _DISK_FULL, "write", True, "direct"),
    ("transient_eio", "trochdf", (TransientEIO(count=2),), "write", False, "direct"),
    ("disk_full", "trochdf", _DISK_FULL, "write", True, "direct"),
)


def scenario_names() -> List[str]:
    """``scenario/module`` labels of the chaos matrix, in run order."""
    return [f"{name}/{service}" for name, service, *_ in _SCENARIOS]


def run_faultbench(
    seed: int = 0, only: Optional[List[str]] = None
) -> Dict[str, Any]:
    """Run the chaos matrix; returns its payload (``faultbench-v1``).

    Each scenario executes twice with the same seed (determinism check)
    and its restored data is compared against the fault-free reference
    digest of the same workload (recovery check).  ``only`` restricts
    the matrix to the named ``scenario/module`` rows (see
    :func:`scenario_names`).
    """
    selected = [
        s for s in _SCENARIOS if only is None or f"{s[0]}/{s[1]}" in only
    ]
    unknown = set(only or ()) - {f"{s[0]}/{s[1]}" for s in selected}
    if unknown:
        raise ValueError(f"unknown faultbench scenarios: {sorted(unknown)}")

    references = {
        service: checkpoint_restart(service, seed=seed)[0]
        for service in dict.fromkeys(s[1] for s in selected)
    }
    patient = {"retry": PATIENT_RETRY, "server_config": ServerConfig(retry=PATIENT_RETRY)}
    matrix: List[Dict[str, Any]] = []
    for name, service, faults, phase, is_patient, tier in selected:
        row: Dict[str, Any] = {
            "scenario": name, "module": service, "reference_digest": references[service],
        }
        kwargs = dict(patient if is_patient else {}, phase=phase, storage_tier=tier)
        try:
            digest_a, info_a = checkpoint_restart(service, FaultPlan(faults), seed=seed, **kwargs)
            digest_b, info_b = checkpoint_restart(service, FaultPlan(faults), seed=seed, **kwargs)
        except Exception as exc:  # a non-recovered run is a result, not a crash
            row.update(recovered=False, runs_identical=False,
                       error=f"{type(exc).__name__}: {exc}")
        else:
            row.update(
                recovered=digest_a == references[service],
                runs_identical=(digest_a, info_a) == (digest_b, info_b),
                digest=digest_a,
                **info_a,
            )
        matrix.append(row)

    nrows = max(len(matrix), 1)
    return {
        "schema": "faultbench-v1",
        "seed": seed,
        "matrix": matrix,
        "recovery_rate": round(sum(r["recovered"] for r in matrix) / nrows, 4),
        "determinism_rate": round(
            sum(r["runs_identical"] for r in matrix) / nrows, 4
        ),
    }


def render_faults(payload: Dict[str, Any], title: str = "Faultbench chaos matrix") -> str:
    """The chaos matrix as a table, with its recovery and determinism rates."""
    rows = []
    for r in payload["matrix"]:
        notes = []
        if r.get("client_retries"):
            notes.append(f"retries={r['client_retries']}")
        if r.get("client_failovers"):
            notes.append(f"failovers={r['client_failovers']}")
        if r.get("missing_blocks"):
            notes.append(f"missing_blocks={r['missing_blocks']}")
        if r.get("error"):
            notes.append(r["error"])
        rows.append([
            r["scenario"], r["module"], "yes" if r["recovered"] else "NO",
            "yes" if r["runs_identical"] else "NO", " ".join(notes) or "-",
        ])
    return "\n".join([
        render_table(
            ["scenario", "module", "recovered", "deterministic", "notes"],
            rows,
            title=title,
        ),
        "",
        f"recovery rate:    {payload['recovery_rate'] * 100:.1f}%",
        f"determinism rate: {payload['determinism_rate'] * 100:.1f}%",
    ])
