"""Turns a :class:`FaultPlan` into live hooks on a machine and job.

The injector owns three attachment points:

* the virtual disk's ``fault_hook`` (transient EIO) and capacity limit
  (disk-full windows) — installed at :meth:`FaultInjector.install`;
* per-node external load (stragglers) — DES processes scheduled at
  install time;
* the network's ``fault_filter`` (message drop/duplicate/delay) and
  rank-crash processes — installed by :meth:`FaultInjector.attach_job`,
  which :meth:`repro.vmpi.launcher.Job.run` calls automatically when
  ``machine.faults`` is set.

Everything is deterministic: fault times and budgets come straight from
the plan, and the injector's private RNG stream is derived from the
machine seed, so two runs with identical (spec, seed, plan) inject
identical faults.  Every injected fault is recorded as an obs trace
event and counted in :attr:`FaultInjector.fired`, so post-run rollups
show what was done to the run.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from ..fs.vfs import TransientIOError
from .plan import (
    DiskFull,
    FaultPlan,
    MessageFault,
    ServerCrash,
    Straggler,
    TransientEIO,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Live fault state for one machine (one run)."""

    def __init__(self, machine, plan: FaultPlan):
        self.machine = machine
        self.plan = plan
        #: Private stream so fault randomness never perturbs the
        #: machine's own noise/load sampling.
        self.rng = np.random.default_rng((machine.seed << 8) ^ 0xFA)
        self._recorder = None
        #: Fault name -> times it fired (``"server_crash"``, ``"msg_drop"``, ...).
        self.fired: Counter = Counter()
        #: Remaining-failure budgets, one mutable cell per plan spec,
        #: split by direction (write vs read hooks).
        self._eio_budgets: List[Tuple[TransientEIO, List[int]]] = [
            (spec, [spec.count])
            for spec in plan.of_type(TransientEIO)
            if spec.op == "write"
        ]
        self._read_eio_budgets: List[Tuple[TransientEIO, List[int]]] = [
            (spec, [spec.count])
            for spec in plan.of_type(TransientEIO)
            if spec.op == "read"
        ]
        self._msg_budgets: List[Tuple[MessageFault, List[int]]] = [
            (spec, [spec.count]) for spec in plan.of_type(MessageFault)
        ]
        self._installed = False

    # -- observability ---------------------------------------------------
    def _record(self, name: str, rank: int, message: str) -> None:
        self.fired[name] += 1
        if self._recorder is not None:
            self._recorder.log_event(self.machine.env.now, "fault", rank, message)

    # -- machine-level hooks (disk, stragglers) --------------------------
    def install(self) -> None:
        """Install disk hooks and schedule time-windowed faults."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        env = self.machine.env
        if self._eio_budgets:
            self.machine.disk.fault_hook = self._disk_hook
        if self._read_eio_budgets:
            self.machine.disk.read_fault_hook = self._disk_read_hook
        for spec in self.plan.of_type(DiskFull):
            env.process(self._disk_full_proc(spec), name="fault-diskfull")
        for spec in self.plan.of_type(Straggler):
            env.process(self._straggler_proc(spec), name="fault-straggler")

    def _disk_hook(self, path: str, nbytes: int) -> None:
        now = self.machine.env.now
        for spec, budget in self._eio_budgets:
            if budget[0] <= 0 or now < spec.start:
                continue
            if not path.startswith(spec.path_prefix):
                continue
            budget[0] -= 1
            self._record("eio_injected", -1, f"EIO on write to {path}")
            raise TransientIOError(f"injected transient EIO ({path})")

    def _disk_read_hook(self, path: str, nbytes: int) -> None:
        now = self.machine.env.now
        for spec, budget in self._read_eio_budgets:
            if budget[0] <= 0 or now < spec.start:
                continue
            if not path.startswith(spec.path_prefix):
                continue
            budget[0] -= 1
            self._record("eio_injected", -1, f"EIO on read of {path}")
            raise TransientIOError(f"injected transient read EIO ({path})")

    def _disk_full_proc(self, spec: DiskFull):
        env = self.machine.env
        yield env.timeout(max(0.0, spec.at_time - env.now))
        disk = self.machine.disk
        prev = disk.capacity_bytes
        disk.set_capacity(spec.capacity_bytes)
        self._record("disk_full_window", -1, f"capacity clamped to {spec.capacity_bytes}")
        if spec.duration is not None:
            yield env.timeout(spec.duration)
            disk.set_capacity(prev)
            self._record("disk_full_cleared", -1, "capacity restored")

    def _straggler_proc(self, spec: Straggler):
        env = self.machine.env
        yield env.timeout(max(0.0, spec.start - env.now))
        node = self.machine.nodes[spec.node]
        prev = node.external_load
        node.external_load = prev * spec.factor
        self._record("straggler_window", -1, f"node {spec.node} load x{spec.factor}")
        yield env.timeout(spec.duration)
        node.external_load = prev
        self._record("straggler_cleared", -1, f"node {spec.node} load restored")

    # -- job-level hooks (crashes, message faults) -----------------------
    def attach_job(self, job, procs) -> None:
        """Arm per-job faults; called by ``Job.run`` after spawning ranks."""
        self._recorder = job.recorder
        if self._msg_budgets:
            job.network.fault_filter = self._message_decision
        env = self.machine.env
        for spec in self.plan.of_type(ServerCrash):
            if 0 <= spec.rank < len(procs):
                env.process(self._crash_proc(spec, procs), name=f"fault-crash{spec.rank}")

    def _crash_proc(self, spec: ServerCrash, procs):
        env = self.machine.env
        yield env.timeout(max(0.0, spec.at_time - env.now))
        victim = procs[spec.rank]
        if not victim.is_alive:
            return
        # Mark dead *before* the interrupt resumes the victim (URGENT):
        # survivors that poll ``machine.is_dead`` during the victim's
        # unwinding must already see the truth.
        self.machine.dead_ranks().add(spec.rank)
        self._record("server_crash", spec.rank, f"rank {spec.rank} crashed")
        victim.interrupt(f"injected crash of rank {spec.rank}")

    def _message_decision(
        self, src: int, dst: int, tag: int, nbytes: int
    ) -> Optional[Tuple[str, float]]:
        """Network fault filter: ``(kind, extra_delay)`` or ``None``."""
        now = self.machine.env.now
        for spec, budget in self._msg_budgets:
            if budget[0] <= 0 or now < spec.start:
                continue
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            if spec.tag is not None and spec.tag != tag:
                continue
            budget[0] -= 1
            self._record(f"msg_{spec.kind}", src, f"{spec.kind} msg {src}->{dst} tag {tag}")
            return (spec.kind, spec.delay)
        return None
