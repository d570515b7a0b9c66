"""The GENx driver: assemble modules, run the coupled simulation SPMD.

This is the top of the public API: pick a machine, a workload, and an
I/O mode; :func:`run_genx` launches the whole job (including dedicated
Rocpanda servers when requested) and returns an aggregate result with
the paper's headline metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..io.rochdf import RochdfModule
from ..io.rocpanda import PandaServer, RocpandaModule, ServerConfig, rocpanda_init
from ..io.trochdf import TRochdfModule
from ..roccom.module import IO_WINDOW
from ..roccom.registry import Roccom
from ..shdf.drivers import STORAGE_TIERS, HDFDriver, apply_storage_tier, hdf4_driver
from ..vmpi.launcher import run_spmd
from . import physics as phys
from .partition import partition_blocks
from .rocface import Rocface
from .rocman import Rocman, RocmanConfig, RocmanReport
from .workloads import WorkloadSpec

__all__ = ["GENxConfig", "ClientReport", "ServerReport", "GENxRunResult", "run_genx", "genx_main"]

IO_MODES = ("rochdf", "trochdf", "rocpanda")

_FLUID = {"rocflo": phys.Rocflo, "rocflu": phys.Rocflu}
_SOLID = {"rocfrac": phys.Rocfrac, "rocsolid": phys.Rocsolid}


@dataclass
class GENxConfig:
    """Everything one GENx run needs besides the machine."""

    workload: WorkloadSpec
    io_mode: str = "rocpanda"
    #: Rocpanda servers (required iff io_mode == "rocpanda").
    nservers: int = 0
    #: Scientific-format driver factory, for every service's files.
    driver_factory: Callable[[], HDFDriver] = hdf4_driver
    #: Rocpanda servers' tunables; an explicit one wins, driver included
    #: (None: the defaults, with ``driver_factory``'s driver).
    server_config: Optional[ServerConfig] = None
    #: Full active-buffering hierarchy ([13]): buffer on the clients
    #: too, shipping to servers from a background sender thread.
    client_buffering: bool = False
    prefix: str = "genx"
    #: Restart: read state written at this step of ``restart_prefix``.
    restart_step: Optional[int] = None
    restart_prefix: Optional[str] = None
    #: Steps to run (defaults to the workload's).
    steps: Optional[int] = None
    initial_snapshot: bool = True
    #: Regression-driven mesh adaptation (solid shrinks, fluid grows).
    adapt_mesh: bool = False
    adapt_interval: int = 10
    #: Dynamic load balancing: migrate blocks between compute ranks.
    load_balance: bool = False
    lb_interval: int = 10
    lb_threshold: float = 1.10
    #: Where writes land: "direct" (executable spec) or "burst"
    #: (burst-buffer tier fronting the machine's fs; see fs/tiers.py).
    storage_tier: str = "direct"
    #: Optional :class:`~repro.fs.tiers.TierConfig` for the burst tier.
    tier_config: Optional[Any] = None

    def __post_init__(self):
        if self.io_mode not in IO_MODES:
            raise ValueError(f"io_mode must be one of {IO_MODES}")
        if self.io_mode == "rocpanda" and self.nservers <= 0:
            raise ValueError("rocpanda mode needs nservers > 0")
        if self.storage_tier not in STORAGE_TIERS:
            raise ValueError(f"storage_tier must be one of {STORAGE_TIERS}")


@dataclass
class ClientReport:
    """Per-compute-rank outcome."""

    rank: int
    rocman: RocmanReport
    io_stats: Any
    restart_time: float = 0.0
    final_sync_time: float = 0.0
    wall_time: float = 0.0


@dataclass
class ServerReport:
    """Per-I/O-server outcome."""

    rank: int
    stats: Any


@dataclass
class GENxRunResult:
    """Aggregate of one GENx run (what the benches consume)."""

    clients: List[ClientReport]
    servers: List[ServerReport]
    wall_time: float
    machine: Machine
    #: The job's instrumentation stream (see :mod:`repro.obs`).
    recorder: Any = None
    #: The clients' I/O module (``GENxConfig.io_mode``).
    io_mode: str = ""

    def stats(self) -> List[Tuple[str, Any]]:
        """``(module, holder)`` of every count the job kept
        (:func:`repro.obs.stat_counts`): the clients' ``IOStats``, the
        Rocpanda servers' ``ServerStats``, the machine's tier and fault
        injector."""
        return (
            [(self.io_mode, c.io_stats) for c in self.clients]
            + [("rocpanda", s.stats) for s in self.servers]
            + self.machine.stats()
        )

    @property
    def computation_time(self) -> float:
        """Total time on timestep iterations (max over clients), §7.1."""
        return max(c.rocman.compute_wall_time for c in self.clients)

    @property
    def visible_io_time(self) -> float:
        """Total time in output-interface calls (max over clients)."""
        return max(c.rocman.output_wall_time for c in self.clients)

    @property
    def restart_time(self) -> float:
        return max(c.restart_time for c in self.clients)

    @property
    def bytes_written_per_snapshot(self) -> float:
        total = sum(c.io_stats.bytes_written for c in self.clients)
        snaps = max(1, self.clients[0].rocman.snapshots)
        return total / snaps

    @property
    def files_created(self) -> int:
        client_files = sum(c.io_stats.files_created for c in self.clients)
        server_files = sum(s.stats.files_created for s in self.servers)
        return client_files + server_files


def _build_physics(config: GENxConfig, com, assignment, crank: int, rng):
    """The physics modules with their windows declared, and their Rocface.

    A fresh start builds each module's initial condition from ``rng``;
    a restart builds nothing, since ``Rocman.restore`` reads it all.
    """
    workload = config.workload
    fluid = _FLUID[workload.fluid_kind]()
    solid = _SOLID[workload.solid_kind]()
    burn = phys.Rocburn(model=workload.burn_model)
    for module in (fluid, solid, burn):
        module.cost_per_cell *= workload.compute_scale

    for module, key in ((fluid, "fluid"), (solid, "solid"), (burn, "burn")):
        module.declare(com, assignment[key][crank])
        if config.restart_step is None:
            module.initialize(rng)
    rocface = Rocface(fluid, solid, burn)
    return [fluid, solid, burn], rocface


def genx_main(config: GENxConfig):
    """Build the SPMD main function for one GENx run."""
    #: nclients -> {kind: [bucket per client rank]}, built by the first
    #: client rank to need it and shared by the rest (GENx partitions
    #: once per job, not once per rank).  Read-only after that:
    #: ``BlockSpec`` is frozen, ``PhysicsModule.declare`` only iterates.
    assignments: Dict[int, Dict[str, list]] = {}

    def main(ctx):
        workload = config.workload
        if config.io_mode == "rocpanda":
            topo = yield from rocpanda_init(ctx, config.nservers)
            if topo.is_server:
                server = PandaServer(
                    ctx, topo,
                    config.server_config or ServerConfig(driver=config.driver_factory()),
                )
                stats = yield from server.run()
                return ServerReport(rank=ctx.rank, stats=stats)
            comm = topo.comm
        else:
            topo = None
            comm = ctx.world

        com = Roccom(ctx)
        if config.io_mode == "rocpanda":
            io_module = RocpandaModule(ctx, topo, client_buffering=config.client_buffering)
        elif config.io_mode == "trochdf":
            io_module = TRochdfModule(ctx, config.driver_factory())
        else:
            io_module = RochdfModule(ctx, config.driver_factory())
        com.load_module(io_module)

        rng = np.random.default_rng(1000 + comm.rank)
        assignment = assignments.get(comm.size)
        if assignment is None:
            assignment = assignments[comm.size] = {
                kind: partition_blocks(specs, comm.size)
                for kind, specs in workload.blocks_for(comm.size).items()
            }
        physics, rocface = _build_physics(config, com, assignment, comm.rank, rng)

        hooks = []
        if config.adapt_mesh:
            from .adaptation import MeshAdaptor

            fluid, solid, burn = physics
            adaptor = MeshAdaptor(
                fluid, solid, burn, interval=config.adapt_interval
            )
            hooks.append(adaptor.hook)
        if config.load_balance:
            from .loadbalance import LoadBalancer

            balancer = LoadBalancer(threshold=config.lb_threshold)
            last_compute = [0.0]

            def lb_hook(hctx, hcom, hcomm, step):
                if step % config.lb_interval:
                    return
                load = hctx.compute_time - last_compute[0]
                last_compute[0] = hctx.compute_time
                yield from balancer.rebalance(hctx, hcom, hcomm, physics, load)

            hooks.append(lb_hook)

        rocman = Rocman(
            ctx,
            com,
            comm,
            physics,
            rocface,
            RocmanConfig(
                steps=config.steps if config.steps is not None else workload.steps,
                snapshot_interval=workload.snapshot_interval,
                dt=workload.dt,
                prefix=config.prefix,
                initial_snapshot=config.initial_snapshot,
            ),
            hooks=hooks,
        )

        restart_time = 0.0
        if config.restart_step is not None:
            restart_time = yield from rocman.restore(
                config.restart_step, config.restart_prefix
            )

        t_start = ctx.now
        yield from rocman.run()
        # Final sync: make sure overlapped output is on disk before the
        # job ends (outside the paper's visible-I/O accounting).
        t_sync = ctx.now
        yield from com.call_function(f"{IO_WINDOW}.sync")
        final_sync = ctx.now - t_sync

        if config.io_mode == "rocpanda":
            yield from io_module.finalize()
        # The paper's unload_module: the module leaves the registry and
        # drops its window, so the job's heap is freed by reference
        # counting, without waiting for a cyclic collection.
        yield from com.unload_module(io_module.name)

        return ClientReport(
            rank=ctx.rank,
            rocman=rocman.report,
            io_stats=io_module.stats,
            restart_time=restart_time,
            final_sync_time=final_sync,
            wall_time=ctx.now - t_start,
        )

    return main


def run_genx(
    machine: Machine,
    nprocs: int,
    config: GENxConfig,
    placement: Optional[Callable] = None,
) -> GENxRunResult:
    """Launch a full GENx job and aggregate the results."""
    if config.io_mode == "rocpanda" and nprocs - config.nservers < config.nservers:
        # Fail at setup instead of deadlocking mid-run: Rocpanda's
        # topology contract (enforced by ``rocpanda_init``) requires at
        # least as many clients as servers.
        raise ValueError(
            f"Rocpanda needs nclients >= nservers: {nprocs} ranks with "
            f"{config.nservers} servers leaves only "
            f"{nprocs - config.nservers} clients"
        )
    apply_storage_tier(machine, config.storage_tier, config.tier_config)
    job = run_spmd(machine, nprocs, genx_main(config), placement=placement)
    clients = [r for r in job.returns if isinstance(r, ClientReport)]
    servers = [r for r in job.returns if isinstance(r, ServerReport)]
    if not clients:
        raise RuntimeError("run produced no client reports")
    return GENxRunResult(
        clients=clients,
        servers=servers,
        wall_time=job.wall_time,
        machine=machine,
        recorder=job.recorder,
        io_mode=config.io_mode,
    )
