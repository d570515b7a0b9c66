"""Faultbench: the chaos matrix for the resilience layer (fault type x I/O module).

Every scenario runs one checkpoint-write job under an injected
:mod:`repro.faults` plan, then restarts from the surviving files in a
*fresh* fault-free machine sharing the same disk, and compares the
restored arrays (as a SHA-256 digest) against a fault-free reference
run of the identical workload.  A scenario *recovers* when the digests
match bit-for-bit.  Each faulted scenario also runs twice with the same
seed; ``runs_identical`` proves the whole fault schedule — crashes,
retries, failovers and all — replays deterministically from the
:class:`~repro.cluster.Machine` seed.  The result ships as
``BENCH_faults.json``.

The matrix exercises:

* Rocpanda: I/O-server crash mid-checkpoint (block assignments fail
  over to the surviving server and restart runs with a *different*
  server count), transient ``EIO``, disk-full windows, message
  drop/duplication/extra-delay, and a straggler node;
* Rochdf / T-Rochdf: transient ``EIO`` and disk-full windows absorbed
  by the write-retry path (for T-Rochdf, on the background I/O thread).

The matrix times nothing on the host.  That an installed but idle
injector costs nothing is a test (``TestIdleInjectorIsTransparent``:
virtual times and disk image bit-identical); host time is measured by
``benchmarks/e2e`` and by the paper sweeps (:attr:`repro.bench.Grid.host`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cluster import Machine
from ..cluster import testbox as make_testbox
from ..faults import (
    DiskFull,
    FaultPlan,
    MessageFault,
    RetryPolicy,
    ServerCrash,
    Straggler,
    TransientEIO,
)
from ..fs.tiers import TierConfig
from ..shdf.drivers import apply_storage_tier
from ..io import (
    PandaServer,
    RochdfModule,
    RocpandaModule,
    ServerConfig,
    TRochdfModule,
    rocpanda_init,
)
from ..io.rocpanda.protocol import TAG_BLOCK, TAG_CTRL
from ..roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, Roccom
from ..vmpi import run_spmd
from .report import render_table

__all__ = ["run_faultbench", "render_faults", "scenario_names"]

# Rocpanda scenario geometry: 8 procs / 2 servers (ranks 0 and 4) when
# writing, restart on 6 procs / 3 servers -- a different server count,
# so failover must preserve the round-robin block->server restart scan.
_PANDA_NPROCS = 8
_PANDA_NSERVERS = 2
_PANDA_NBLOCKS = 3  # per client => 18 blocks total
_PANDA_TOTAL_BLOCKS = (_PANDA_NPROCS - _PANDA_NSERVERS) * _PANDA_NBLOCKS
_RESTART_NPROCS = 6
_RESTART_NSERVERS = 3

# Rochdf/T-Rochdf scenario geometry: 4 writers, 2 blocks each.
_HDF_NPROCS = 4
_HDF_NBLOCKS = 2

#: Generous backoff for the disk-full scenarios: the capacity window
#: lasts 0.2 s, so the cumulative backoff (~4 s at 12 attempts) must
#: outlast it or the retries exhaust while the disk is still full.
_PATIENT_RETRY = RetryPolicy(max_attempts=12, base_delay=2e-3)

#: Burst-tier config for the drain scenarios: faults land on the
#: *backing* disk, so the write-behind drain (not the module) must
#: outlast the fault window with its own patient backoff.
_BURST_TIER = TierConfig(retry=_PATIENT_RETRY)


def _digest_blocks(blockmap: Dict[int, Dict[str, np.ndarray]]) -> str:
    """Order-independent SHA-256 over restored (block_id, array) data."""
    h = hashlib.sha256()
    for block_id in sorted(blockmap):
        h.update(str(block_id).encode())
        for name in sorted(blockmap[block_id]):
            arr = np.ascontiguousarray(blockmap[block_id][name])
            h.update(name.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _counters(recorder) -> Dict[str, Dict[str, float]]:
    return {
        module: dict(sorted(bucket.items()))
        for module, bucket in sorted(recorder.counters.items())
    }


# -- rocpanda workload ------------------------------------------------------

def _panda_write_main(client_retry: RetryPolicy, server_config: ServerConfig):
    def main(ctx):
        topo = yield from rocpanda_init(ctx, _PANDA_NSERVERS)
        if topo.is_server:
            server = PandaServer(ctx, topo, server_config)
            stats = yield from server.run()
            return ("server", stats)
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo, retry=client_retry))
        w = com.new_window("Fluid")
        w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
        w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT))
        # Data keyed by client rank only, so the fault-free reference
        # and every faulted run write identical arrays.
        rng = np.random.default_rng(1000 + topo.comm.rank)
        for i in range(_PANDA_NBLOCKS):
            pane_id = topo.comm.rank * _PANDA_NBLOCKS + i
            nn, ne = 1200 + i, 600 + i  # ~34 KB coords => rendezvous sends
            w.register_pane(pane_id, nn, ne)
            w.set_array("coords", pane_id, rng.random((nn, 3)))
            w.set_array("pressure", pane_id, rng.random(ne))
        # Delay the write past the init collectives so injected faults
        # (scheduled at t ~= 0.05) land mid-checkpoint.
        yield from ctx.sleep(0.05)
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()
        return ("client", (panda.stats.retries, panda.stats.failovers))

    return main


def _panda_restart_main(client_retry: Optional[RetryPolicy] = None):
    per_client = _PANDA_TOTAL_BLOCKS // (_RESTART_NPROCS - _RESTART_NSERVERS)

    def main(ctx):
        topo = yield from rocpanda_init(ctx, _RESTART_NSERVERS)
        if topo.is_server:
            stats = yield from PandaServer(ctx, topo).run()
            return ("server", stats)
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo, retry=client_retry))
        w = com.new_window("Fluid")
        first = topo.comm.rank * per_client
        for pane_id in range(first, first + per_client):
            w.register_pane(pane_id, 0, 0)
        ids = yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
        restored = {
            pid: {
                "coords": w.get_array("coords", pid).copy(),
                "pressure": w.get_array("pressure", pid).copy(),
            }
            for pid in ids
        }
        yield from panda.finalize()
        return ("client", (restored, panda.stats.retries, panda.stats.failovers))

    return main


def _run_rocpanda_scenario(
    plan: Optional[FaultPlan],
    seed: int,
    client_retry: RetryPolicy,
    server_config: ServerConfig,
    storage_tier: str = "direct",
) -> Tuple[str, Dict[str, Any]]:
    """Write under faults, restart fault-free on a different server count."""
    machine = Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=seed)
    if plan is not None:
        machine.install_faults(plan)
    apply_storage_tier(machine, storage_tier, _BURST_TIER)
    result = run_spmd(
        machine, _PANDA_NPROCS, _panda_write_main(client_retry, server_config)
    )
    counters = _counters(result.recorder)
    retries = sum(r[1][0] for r in result.returns if r[0] == "client")
    failovers = sum(r[1][1] for r in result.returns if r[0] == "client")

    restart_machine = Machine(
        make_testbox(nnodes=8, cpus_per_node=4), seed=seed + 1, disk=machine.disk
    )
    restart = run_spmd(restart_machine, _RESTART_NPROCS, _panda_restart_main())
    blockmap: Dict[int, Dict[str, np.ndarray]] = {}
    for kind, value in restart.returns:
        if kind == "client":
            blockmap.update(value[0])
    info = {"client_retries": retries, "client_failovers": failovers}
    if len(blockmap) != _PANDA_TOTAL_BLOCKS:
        info["missing_blocks"] = _PANDA_TOTAL_BLOCKS - len(blockmap)
    return _digest_blocks(blockmap), dict(info, counters=counters)


def _run_rocpanda_restart_fault_scenario(
    plan: FaultPlan,
    seed: int,
    client_retry: RetryPolicy,
) -> Tuple[str, Dict[str, Any]]:
    """Write fault-free, then restart *under faults* on a different
    server count.

    The mirror image of :func:`_run_rocpanda_scenario`: the checkpoint
    lands intact, and the injected faults target the two-phase
    collective read — a server crash mid-bulk-read (clients resume the
    dead server's file share from its heir) or transient read ``EIO``
    during the sieved region reads (absorbed by the server's read-retry
    path).  Recovery still means the restored arrays digest-match the
    fully fault-free reference.
    """
    machine = Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=seed)
    run_spmd(
        machine, _PANDA_NPROCS, _panda_write_main(RetryPolicy(), ServerConfig())
    )

    restart_machine = Machine(
        make_testbox(nnodes=8, cpus_per_node=4), seed=seed + 1, disk=machine.disk
    )
    restart_machine.install_faults(plan)
    restart = run_spmd(
        restart_machine, _RESTART_NPROCS, _panda_restart_main(client_retry)
    )
    counters = _counters(restart.recorder)
    blockmap: Dict[int, Dict[str, np.ndarray]] = {}
    retries = 0
    failovers = 0
    for kind, value in restart.returns:
        if kind == "client":
            restored, client_retries, client_failovers = value
            blockmap.update(restored)
            retries += client_retries
            failovers += client_failovers
    info = {"client_retries": retries, "client_failovers": failovers}
    if len(blockmap) != _PANDA_TOTAL_BLOCKS:
        info["missing_blocks"] = _PANDA_TOTAL_BLOCKS - len(blockmap)
    return _digest_blocks(blockmap), dict(info, counters=counters)


# -- rochdf / trochdf workload ----------------------------------------------

def _hdf_write_main(module_name: str, retry: RetryPolicy):
    def main(ctx):
        com = Roccom(ctx)
        if module_name == "rochdf":
            mod = com.load_module(RochdfModule(ctx, retry=retry))
        else:
            mod = com.load_module(TRochdfModule(ctx, retry=retry))
        w = com.new_window("Fluid")
        w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
        w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT))
        rng = np.random.default_rng(2000 + ctx.rank)
        for i in range(_HDF_NBLOCKS):
            pane_id = ctx.rank * _HDF_NBLOCKS + i
            nn, ne = 400 + i, 200 + i
            w.register_pane(pane_id, nn, ne)
            w.set_array("coords", pane_id, rng.random((nn, 3)))
            w.set_array("pressure", pane_id, rng.random(ne))
        yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
        yield from com.call_function("OUT.sync")
        if module_name == "trochdf":
            yield from com.unload_module(module_name)
        return mod.stats.retries

    return main


def _hdf_restart_main():
    def main(ctx):
        com = Roccom(ctx)
        com.load_module(RochdfModule(ctx))
        w = com.new_window("Fluid")
        for i in range(_HDF_NBLOCKS):
            w.register_pane(ctx.rank * _HDF_NBLOCKS + i, 0, 0)
        ids = yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
        return {
            pid: {
                "coords": w.get_array("coords", pid).copy(),
                "pressure": w.get_array("pressure", pid).copy(),
            }
            for pid in ids
        }

    return main


def _run_hdf_scenario(
    plan: Optional[FaultPlan],
    seed: int,
    module_name: str,
    retry: RetryPolicy,
    storage_tier: str = "direct",
) -> Tuple[str, Dict[str, Any]]:
    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed)
    if plan is not None:
        machine.install_faults(plan)
    apply_storage_tier(machine, storage_tier, _BURST_TIER)
    result = run_spmd(machine, _HDF_NPROCS, _hdf_write_main(module_name, retry))
    counters = _counters(result.recorder)
    retries = sum(result.returns)

    restart_machine = Machine(
        make_testbox(nnodes=4, cpus_per_node=4), seed=seed + 1, disk=machine.disk
    )
    restart = run_spmd(restart_machine, _HDF_NPROCS, _hdf_restart_main())
    blockmap: Dict[int, Dict[str, np.ndarray]] = {}
    for value in restart.returns:
        blockmap.update(value)
    return _digest_blocks(blockmap), {"client_retries": retries, "counters": counters}


# -- the matrix -------------------------------------------------------------

def _scenarios() -> List[Dict[str, Any]]:
    """The chaos matrix: (fault plan, module, runner) per scenario.

    Fault start times target t ~= 0.05, when the Rocpanda checkpoint
    write is in flight (after the init collectives, which are not part
    of the recovery protocol).  Message faults never target ``TAG_CTRL``
    drops: a silently dropped eager control message is indistinguishable
    from a slow one at the transport, and the reply-timeout layer above
    covers it instead (drops here target the rendezvous block channel).
    """
    default = RetryPolicy()
    quiet_server = ServerConfig()
    patient_server = ServerConfig(retry=_PATIENT_RETRY)

    def panda(plan, client_retry=default, server_config=quiet_server,
              storage_tier="direct"):
        return lambda seed: _run_rocpanda_scenario(
            plan, seed, client_retry, server_config, storage_tier
        )

    def hdf(plan, module_name, retry=default, storage_tier="direct"):
        return lambda seed: _run_hdf_scenario(
            plan, seed, module_name, retry, storage_tier
        )

    def panda_restart(plan, client_retry=default):
        return lambda seed: _run_rocpanda_restart_fault_scenario(
            plan, seed, client_retry
        )

    return [
        {
            "scenario": "server_crash",
            "module": "rocpanda",
            "run": panda(FaultPlan((ServerCrash(rank=4, at_time=0.055),))),
        },
        {
            "scenario": "transient_eio",
            "module": "rocpanda",
            "run": panda(FaultPlan((TransientEIO(start=0.05, count=3),))),
        },
        {
            "scenario": "disk_full",
            "module": "rocpanda",
            "run": panda(
                FaultPlan(
                    (DiskFull(at_time=0.05, capacity_bytes=100_000, duration=0.2),)
                ),
                client_retry=_PATIENT_RETRY,
                server_config=patient_server,
            ),
        },
        {
            "scenario": "msg_drop",
            "module": "rocpanda",
            "run": panda(
                FaultPlan((MessageFault("drop", tag=TAG_BLOCK, start=0.05, count=2),))
            ),
        },
        {
            "scenario": "msg_duplicate",
            "module": "rocpanda",
            "run": panda(
                FaultPlan(
                    (MessageFault("duplicate", tag=TAG_CTRL, start=0.05, count=2),)
                )
            ),
        },
        {
            "scenario": "msg_delay",
            "module": "rocpanda",
            "run": panda(
                FaultPlan(
                    (
                        MessageFault(
                            "delay", tag=TAG_BLOCK, start=0.05, count=2, delay=0.1
                        ),
                    )
                )
            ),
        },
        {
            "scenario": "straggler",
            "module": "rocpanda",
            "run": panda(
                FaultPlan((Straggler(node=1, start=0.0, duration=0.5, factor=8.0),))
            ),
        },
        {
            # I/O server dies mid-bulk-read during the two-phase
            # restart: clients resume its file share from the heir.
            "scenario": "restart_server_crash",
            "module": "rocpanda",
            "run": panda_restart(
                FaultPlan((ServerCrash(rank=2, at_time=0.004),))
            ),
        },
        {
            # Transient read EIO inside the sieved region reads,
            # absorbed by the server-side read-retry path.
            "scenario": "restart_read_eio",
            "module": "rocpanda",
            "run": panda_restart(
                FaultPlan((TransientEIO(op="read", path_prefix="ck", count=2),))
            ),
        },
        {
            # Server crash while the burst tier is still draining its
            # file: the torn front copy drains to the backing disk
            # without a commit footer (detectable), the heir's failover
            # generation file drains complete, and restart — which reads
            # the shared backing disk directly — recovers every block.
            "scenario": "drain_server_crash",
            "module": "rocpanda",
            "run": panda(
                FaultPlan((ServerCrash(rank=4, at_time=0.055),)),
                storage_tier="burst",
            ),
        },
        {
            # The *backing* disk hits its capacity window while the
            # drain is flushing: the tier absorbs the snapshot at
            # memory speed regardless, and the drain's patient backoff
            # outlasts the window (tier backpressure + retry).
            "scenario": "drain_disk_full",
            "module": "rochdf",
            "run": hdf(
                FaultPlan((DiskFull(at_time=0.0, capacity_bytes=4096, duration=0.05),)),
                "rochdf",
                storage_tier="burst",
            ),
        },
        {
            "scenario": "transient_eio",
            "module": "rochdf",
            "run": hdf(FaultPlan((TransientEIO(count=2),)), "rochdf"),
        },
        {
            "scenario": "disk_full",
            "module": "rochdf",
            "run": hdf(
                FaultPlan((DiskFull(at_time=0.0, capacity_bytes=4096, duration=0.05),)),
                "rochdf",
                retry=_PATIENT_RETRY,
            ),
        },
        {
            "scenario": "transient_eio",
            "module": "trochdf",
            "run": hdf(FaultPlan((TransientEIO(count=2),)), "trochdf"),
        },
        {
            "scenario": "disk_full",
            "module": "trochdf",
            "run": hdf(
                FaultPlan((DiskFull(at_time=0.0, capacity_bytes=4096, duration=0.05),)),
                "trochdf",
                retry=_PATIENT_RETRY,
            ),
        },
    ]


def scenario_names() -> List[str]:
    """``scenario/module`` labels of the chaos matrix, in run order."""
    return [f"{s['scenario']}/{s['module']}" for s in _scenarios()]


def _reference_digests(seed: int, modules) -> Dict[str, str]:
    """Fault-free digests, one per distinct workload (module)."""
    refs = {}
    default = RetryPolicy()
    if "rocpanda" in modules:
        refs["rocpanda"], _ = _run_rocpanda_scenario(
            None, seed, default, ServerConfig()
        )
    for module_name in ("rochdf", "trochdf"):
        if module_name in modules:
            refs[module_name], _ = _run_hdf_scenario(
                None, seed, module_name, default
            )
    return refs


def run_faultbench(
    seed: int = 0, only: Optional[List[str]] = None
) -> Dict[str, Any]:
    """Run the chaos matrix; returns the ``BENCH_faults.json`` payload.

    Each scenario executes twice with the same seed (determinism check)
    and its restored data is compared against the fault-free reference
    digest of the same workload (recovery check).  ``only`` restricts
    the matrix to the named ``scenario/module`` rows (see
    :func:`scenario_names`).
    """
    selected = _scenarios()
    if only is not None:
        wanted = set(only)
        selected = [
            s for s in selected if f"{s['scenario']}/{s['module']}" in wanted
        ]
        unknown = wanted - {f"{s['scenario']}/{s['module']}" for s in selected}
        if unknown:
            raise ValueError(f"unknown faultbench scenarios: {sorted(unknown)}")

    references = _reference_digests(seed, {s["module"] for s in selected})
    matrix: List[Dict[str, Any]] = []
    for spec in selected:
        row: Dict[str, Any] = {
            "scenario": spec["scenario"],
            "module": spec["module"],
            "reference_digest": references[spec["module"]],
        }
        try:
            digest_a, info_a = spec["run"](seed)
            digest_b, info_b = spec["run"](seed)
        except Exception as exc:  # a non-recovered run is a result, not a crash
            row.update(
                recovered=False,
                runs_identical=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        else:
            row.update(
                recovered=digest_a == references[spec["module"]],
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


def render_faults(payload: Dict[str, Any]) -> str:
    """Human-readable BENCH_faults report."""
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
        rows.append(
            [
                r["scenario"],
                r["module"],
                "yes" if r["recovered"] else "NO",
                "yes" if r["runs_identical"] else "NO",
                " ".join(notes) or "-",
            ]
        )
    return "\n".join([
        render_table(
            ["scenario", "module", "recovered", "deterministic", "notes"],
            rows,
            title="Faultbench chaos matrix",
        ),
        "",
        f"recovery rate:    {payload['recovery_rate'] * 100:.1f}%",
        f"determinism rate: {payload['determinism_rate'] * 100:.1f}%",
    ])
