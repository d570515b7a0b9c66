"""SPMD job launcher: binds rank processes to a machine and runs them.

``run_spmd(machine, nprocs, main)`` starts ``nprocs`` DES processes,
each executing the generator function ``main(ctx)`` with its own
:class:`RankContext` (rank, world communicator, compute/timing helpers,
filesystem access).  It returns a :class:`JobResult` with every rank's
return value and run-level metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import ROLE_COMPUTE, ROLE_SERVER
from ..des import Environment, SimulationError
from ..obs.records import IORecord, Recorder
from .comm import Comm
from .mailbox import Mailbox
from . import placement as placement_policies

__all__ = ["RankContext", "Job", "JobResult", "run_spmd"]


class RankContext:
    """Everything one SPMD rank needs: identity, comms, time, storage."""

    def __init__(self, job: "Job", rank: int, node, cpu):
        self.job = job
        self.rank = rank
        self.node = node
        self.cpu = cpu
        #: MPI_COMM_WORLD equivalent for this rank.
        self.world = Comm(job, comm_id=0, group=tuple(range(job.nprocs)), rank=rank)
        #: Per-rank deterministic RNG stream.
        self.rng = np.random.default_rng((job.machine.seed << 20) ^ (rank + 1))
        #: Total simulated seconds spent in :meth:`compute`.
        self.compute_time = 0.0
        #: Scratch dict for application state (e.g. Roccom instance).
        self.state: Dict[str, Any] = {}

    # -- convenience accessors -------------------------------------------
    @property
    def env(self) -> Environment:
        return self.job.env

    @property
    def machine(self) -> Machine:
        return self.job.machine

    @property
    def fs(self):
        return self.job.machine.fs

    @property
    def disk(self):
        return self.job.machine.disk

    @property
    def recorder(self) -> Recorder:
        return self.job.recorder

    @property
    def now(self) -> float:
        return self.job.env.now

    # -- actions ------------------------------------------------------------
    def compute(self, nominal_seconds: float):
        """Generator: perform ``nominal_seconds`` of computation.

        The wall time charged includes CPU speed, external load and
        OS-noise effects from the machine model.
        """
        actual = self.machine.compute_time(self.node, nominal_seconds)
        self.compute_time += actual
        yield self.env.sleep(actual)

    def sleep(self, seconds: float):
        """Generator: idle wait (no compute accounting)."""
        yield self.env.sleep(seconds)

    def memcpy(self, nbytes: float):
        """Generator: local memory copy at the node's memory bandwidth.

        Used by T-Rochdf's buffered writes: the *visible* cost of a
        buffered output call is exactly this copy (§6.2).
        """
        yield self.env.sleep(nbytes / self.job.memcpy_bw)

    def set_role(self, role: str) -> None:
        """Re-label this rank's CPU (``"compute"`` or ``"server"``).

        Rocpanda marks its dedicated I/O processors as servers so the
        OS-noise model knows their CPU is mostly idle (§4.1).
        """
        self.cpu.role = role

    def log_fault(self, message: str) -> None:
        """Say what happened at a fault or recovery site (``recorder.events``)."""
        self.job.recorder.log_event(self.env.now, "fault", self.rank, message)

    def io_record(
        self,
        module: str,
        op: str,
        *,
        path: str = "",
        nbytes: int = 0,
        t_start: float,
        visible: bool = True,
    ) -> IORecord:
        """Emit one instrumentation record ending now (see :mod:`repro.obs`)
        and return it, for its holder's :meth:`~repro.obs.OpSeconds.fold`."""
        return self.job.recorder.record_io(
            module, op, self.rank, path=path, nbytes=nbytes, t_start=t_start,
            t_end=self.env.now, visible=visible,
        )

    def __repr__(self) -> str:
        return f"<RankContext rank={self.rank} node={self.node.index} cpu={self.cpu.index}>"


@dataclass
class JobResult:
    """Outcome of an SPMD run."""

    #: Per-rank return values of ``main``.
    returns: List[Any]
    #: Total simulated wall time of the job.
    wall_time: float
    #: Per-rank compute seconds.
    compute_times: List[float]
    machine: Machine = None
    #: The job's instrumentation stream (see :mod:`repro.obs`).
    recorder: Recorder = None

    @property
    def max_compute_time(self) -> float:
        return max(self.compute_times) if self.compute_times else 0.0


class Job:
    """One SPMD job bound to a machine."""

    #: Node memory-copy bandwidth used by :meth:`RankContext.memcpy`.
    DEFAULT_MEMCPY_BW = 300 * 1024 * 1024

    def __init__(
        self,
        machine: Machine,
        nprocs: int,
        placement: Optional[Callable] = None,
        memcpy_bw: Optional[float] = None,
    ):
        if nprocs <= 0:
            raise ValueError("nprocs must be > 0")
        self.machine = machine
        self.env = machine.env
        self.nprocs = nprocs
        #: Instrumentation stream: one recorder per job collects I/O
        #: records, fault events and comm counters.
        self.recorder = Recorder()
        self.memcpy_bw = (
            memcpy_bw
            if memcpy_bw
            else getattr(machine.spec, "memcpy_bw", self.DEFAULT_MEMCPY_BW)
        )
        self.network = machine.build_network(nprocs)

        policy = placement or placement_policies.block
        slots = policy(machine.spec, nprocs)
        if len(slots) != nprocs:
            raise ValueError("placement returned wrong number of slots")
        self.contexts: List[RankContext] = []
        for rank, (node_idx, cpu_idx) in enumerate(slots):
            node = machine.nodes[node_idx]
            cpu = node.cpus[cpu_idx]
            cpu.assign(rank, ROLE_COMPUTE)
            self.contexts.append(RankContext(self, rank, node, cpu))

        #: comm_id -> per-global-rank mailbox array.  Global ranks are
        #: dense, so each communicator holds a flat list instead of a
        #: (comm_id, rank)-keyed dict — one list index per message in
        #: place of a tuple hash.
        self._mailboxes: Dict[int, List[Optional[Mailbox]]] = {}
        self._next_comm_id = 1  # 0 = world
        #: Shared Envelope freelist (job-wide: envelopes are created by
        #: the sender's Comm and released by the receiver's).  Only the
        #: fault-free receive path recycles — a duplicate-fault filter
        #: can deliver one envelope twice, so recycling is disabled the
        #: moment a fault filter is installed.
        self.envelope_pool: list = []
        #: State the ranks' services share for the job's lifetime, by
        #: name, as they share the machine's death oracle (the Rocpanda
        #: servers' finalize keeps its ``Finale`` here).
        self.shared: Dict[str, Any] = {}

    # -- registry used by Comm ----------------------------------------------
    def context(self, global_rank: int) -> RankContext:
        return self.contexts[global_rank]

    def mailbox(self, comm_id: int, global_rank: int) -> Mailbox:
        boxes = self._mailboxes.get(comm_id)
        if boxes is None:
            boxes = self._mailboxes[comm_id] = [None] * self.nprocs
        box = boxes[global_rank]
        if box is None:
            box = boxes[global_rank] = Mailbox(self.env)
        return box

    def alloc_comm_id(self) -> int:
        self._next_comm_id += 1
        return self._next_comm_id

    # -- execution --------------------------------------------------------------
    def run(self, main: Callable, until: Optional[float] = None) -> JobResult:
        """Run ``main(ctx)`` on every rank to completion."""
        procs = [
            self.env.process(main(ctx), name=f"rank{ctx.rank}") for ctx in self.contexts
        ]
        faults = getattr(self.machine, "faults", None)
        if faults is not None:
            faults.attach_job(self, procs)
        # A tiered fs (fs/tiers.py) adopts the job's recorder so drain
        # activity lands in the same instrumentation stream.
        attach_fs = getattr(self.machine.fs, "attach_job", None)
        if attach_fs is not None:
            attach_fs(self)
        done = self.env.all_of(procs)
        try:
            self.env.run(until=done if until is None else until)
        except SimulationError:
            stuck = [p.name for p in procs if p.is_alive]
            raise RuntimeError(
                f"deadlock: ranks {stuck} blocked with no pending events "
                f"(unmatched recv/probe or a lost message?)"
            ) from None
        if until is not None and not done.triggered:
            if self.env.peek() == float("inf"):
                stuck = [p.name for p in procs if p.is_alive]
                raise RuntimeError(
                    f"deadlock: ranks {stuck} blocked with no pending events "
                    f"(unmatched recv/probe or a lost message?)"
                )
            raise RuntimeError(f"job did not finish by t={until}")
        returns = [p.value for p in procs]
        return JobResult(
            returns=returns,
            wall_time=self.env.now,
            compute_times=[ctx.compute_time for ctx in self.contexts],
            machine=self.machine,
            recorder=self.recorder,
        )


def run_spmd(
    machine: Machine,
    nprocs: int,
    main: Callable,
    placement: Optional[Callable] = None,
) -> JobResult:
    """Convenience wrapper: build a :class:`Job` and run it."""
    return Job(machine, nprocs, placement=placement).run(main)
