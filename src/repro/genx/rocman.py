"""Rocman analogue: orchestrator of the coupled simulation (§3.1).

Rocman "orchestrates the control- and data-flow of the overall
simulation": the timestep loop (fluid -> interface transfer -> solid ->
combustion -> global dt reduction) and the periodic snapshot policy.
Snapshots go through the uniform Roccom I/O interface, so Rocman is
identical no matter which I/O service module is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..roccom.module import IO_WINDOW
from ..roccom.registry import Roccom
from .rocface import Rocface

__all__ = ["RocmanConfig", "Rocman", "snapshot_prefix"]


def snapshot_prefix(run_prefix: str, step: int, window: str) -> str:
    """Output path prefix for one window's part of one snapshot."""
    return f"{run_prefix}_{step:06d}_{window.lower()}"


@dataclass
class RocmanConfig:
    """Timestep-loop and output policy."""

    steps: int = 200
    snapshot_interval: int = 50
    dt: float = 1.0e-6
    #: Run-level output prefix (snapshot files extend it).
    prefix: str = "genx"
    #: Take the initial (step-0) snapshot (the paper's runs do: "five
    #: output phases (including the initial snapshot)", §7.1).
    initial_snapshot: bool = True


@dataclass
class RocmanReport:
    """Per-rank timing breakdown of one run."""

    steps: int = 0
    snapshots: int = 0
    #: Wall time inside the timestep loop, excluding output calls.
    compute_wall_time: float = 0.0
    #: Wall time inside output (write_attribute) calls.
    output_wall_time: float = 0.0
    #: Trajectory diagnostics (global chamber pressure per sample).
    pressure_history: List[float] = field(default_factory=list)


class Rocman:
    """The manager module: drives modules and snapshots via Roccom."""

    def __init__(
        self,
        ctx,
        com: Roccom,
        comm,
        physics: List,
        rocface: Optional[Rocface],
        config: RocmanConfig,
        hooks: Optional[List] = None,
    ):
        self.ctx = ctx
        self.com = com
        self.comm = comm
        self.physics = physics
        self.rocface = rocface
        self.config = config
        #: Per-step service hooks: generator callables
        #: ``hook(ctx, com, comm, step)`` run after the physics update
        #: (mesh adaptation, dynamic load balancing, diagnostics...).
        self.hooks = list(hooks or [])
        self.report = RocmanReport()

    # -- output -----------------------------------------------------------
    def snapshot(self, step: int):
        """Generator: write every physics window through OUT (§5).

        One high-level call per module window — "write the mesh
        coordinates and the pressure value on all the mesh blocks" —
        with back-to-back requests for the multi-component state.
        """
        t0 = self.ctx.now
        sid = f"{self.config.prefix}@{step}"
        for module in self.physics:
            path = snapshot_prefix(self.config.prefix, step, module.window_name)
            yield from self.com.call_function(
                f"{IO_WINDOW}.write_attribute",
                module.window_name,
                None,
                path,
                file_attrs={"time_step": step, "prefix": self.config.prefix},
                **_maybe_snapshot_id(self.com, sid),
            )
        self.report.snapshots += 1
        self.report.output_wall_time += self.ctx.now - t0

    def restore(self, step: int, run_prefix: Optional[str] = None):
        """Generator: collective restart of all physics windows."""
        prefix = run_prefix if run_prefix is not None else self.config.prefix
        t0 = self.ctx.now
        for module in self.physics:
            path = snapshot_prefix(prefix, step, module.window_name)
            yield from self.com.call_function(
                f"{IO_WINDOW}.read_attribute", module.window_name, None, path
            )
        return self.ctx.now - t0

    # -- main loop -------------------------------------------------------------
    def run(self):
        """Generator: the whole timestep loop; returns a RocmanReport."""
        cfg = self.config
        ctx = self.ctx
        if cfg.initial_snapshot:
            yield from self.snapshot(0)
        dt = cfg.dt
        for step in range(1, cfg.steps + 1):
            t0 = ctx.now
            for module in self.physics:
                yield from module.advance(ctx, dt, step)
            if self.rocface is not None:
                pressure = yield from self.rocface.transfer(ctx, self.com, self.comm, step)
                if step % max(1, cfg.steps // 20) == 0:
                    self.report.pressure_history.append(pressure)
            for hook in self.hooks:
                yield from hook(self.ctx, self.com, self.comm, step)
            # Global stable-dt reduction: the per-step synchronization.
            local_limit = min(
                (m.local_dt_limit() for m in self.physics), default=cfg.dt
            )
            dt = yield from self.comm.allreduce(min(cfg.dt, local_limit), op=min)
            self.report.compute_wall_time += ctx.now - t0
            self.report.steps += 1
            if step % cfg.snapshot_interval == 0:
                yield from self.snapshot(step)
        return self.report


def _maybe_snapshot_id(com: Roccom, sid: str) -> Dict[str, str]:
    """Pass snapshot_id only to services that accept it (T-Rochdf)."""
    fn = com.window(IO_WINDOW).function("write_attribute")
    code = getattr(fn, "__func__", fn).__code__
    if "snapshot_id" in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]:
        return {"snapshot_id": sid}
    return {}
