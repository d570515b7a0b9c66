"""Machine assembly: nodes + network + filesystem + noise, per run.

A :class:`MachineSpec` is pure data (what the hardware looks like); a
:class:`Machine` is one *run instance*: it owns a fresh DES environment
and samples per-run randomness (external load on shared nodes).  The
virtual disk may be shared between machines so one run can restart from
files written by a previous run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set, Tuple

import numpy as np

from ..des import Environment
from ..fs.models import FileSystemModel
from ..fs.vfs import VirtualDisk
from ..util.units import GB, MB
from .network import Network, NetworkSpec
from .node import Node
from .noise import ExternalLoad, NoExternalLoad, NoiseModel, NoNoise

__all__ = ["MachineSpec", "Machine"]


@dataclass
class MachineSpec:
    """Static description of a platform."""

    name: str
    nnodes: int
    cpus_per_node: int
    mem_per_node: float = 1 * GB
    #: Relative per-CPU compute speed (1.0 = the reference CPU).
    cpu_speed: float = 1.0
    #: Node memory-copy bandwidth (bytes/s): the cost of buffering data
    #: locally (T-Rochdf's visible cost, Rocpanda server ingest copy).
    memcpy_bw: float = 300 * 1024 * 1024
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Builds the filesystem model: ``fs_factory(env, disk)``.
    fs_factory: Callable[[Environment, VirtualDisk], FileSystemModel] = None
    noise: NoiseModel = field(default_factory=NoNoise)
    external_load: ExternalLoad = field(default_factory=NoExternalLoad)
    #: Rocpanda's CPU costs on this platform: a client marshals each
    #: block in ``pack_overhead`` seconds plus its bytes at ``pack_bw``;
    #: a server books each message in ``ingest_overhead`` seconds and
    #: copies its bytes into the buffer at ``ingest_bw`` (Panda's large
    #: streaming memcpys, faster than T-Rochdf's per-array buffering).
    pack_overhead: float = 0.2e-3
    pack_bw: float = 350 * MB
    ingest_overhead: float = 0.4e-3
    ingest_bw: float = 350 * MB

    def total_cpus(self) -> int:
        return self.nnodes * self.cpus_per_node


class Machine:
    """One run instance of a platform."""

    def __init__(
        self,
        spec: MachineSpec,
        seed: int = 0,
        disk: Optional[VirtualDisk] = None,
    ):
        if spec.fs_factory is None:
            raise ValueError("MachineSpec.fs_factory must be set")
        self.spec = spec
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.env = Environment()
        self.nodes: List[Node] = [
            Node(i, spec.cpus_per_node, spec.mem_per_node, spec.cpu_speed)
            for i in range(spec.nnodes)
        ]
        spec.external_load.apply(self.nodes, self.rng)
        self.disk = disk if disk is not None else VirtualDisk()
        self.fs: FileSystemModel = spec.fs_factory(self.env, self.disk)
        self.noise: NoiseModel = spec.noise
        self._network: Optional[Network] = None
        #: Armed fault injector (:meth:`install_faults`), or ``None``.
        self.faults = None
        #: The liveness oracle of the recovery protocols: the ranks the
        #: injector has crashed so far (nothing else can kill one).
        self._dead: Set[int] = set()

    def install_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` on this run.

        Returns the live :class:`repro.faults.FaultInjector`; jobs
        launched on this machine pick it up automatically.
        """
        from ..faults.injector import FaultInjector

        if self.faults is not None:
            raise RuntimeError("faults already installed on this machine")
        self.faults = FaultInjector(self, plan)
        self.faults.install()
        return self.faults

    def stats(self) -> List[Tuple[str, Any]]:
        """``(module, holder)`` of the counts the machine keeps beside its
        jobs' (:func:`repro.obs.stat_counts`): its storage tier's
        ``TierStats`` and its fault injector's ``fired``."""
        from ..fs.tiers import BurstBufferTier

        held: List[Tuple[str, Any]] = []
        if isinstance(self.fs, BurstBufferTier):
            held.append(("tier", self.fs.stats))
        if self.faults is not None:
            held.append(("faults", self.faults.fired))
        return held

    def is_dead(self, rank: int) -> bool:
        """True once ``rank`` has been crashed."""
        return rank in self._dead

    def dead_ranks(self) -> Set[int]:
        """The crashed ranks (a live view: it only ever grows)."""
        return self._dead

    def build_network(self, nprocs: int) -> Network:
        """Instantiate the network for a job of ``nprocs`` processes."""
        self._network = Network(self.env, self.spec.network, self.nodes, nprocs)
        return self._network

    @property
    def network(self) -> Network:
        if self._network is None:
            raise RuntimeError("network not built yet; launch a job first")
        return self._network

    def compute_time(self, node: Node, nominal: float) -> float:
        """Wall time for ``nominal`` seconds of compute on ``node``.

        Applies CPU speed, external load (shared nodes), and OS noise.
        """
        if nominal < 0:
            raise ValueError("negative compute time")
        base = nominal / node.cpu_speed * node.external_load
        return base + self.noise.compute_penalty(node, base, self.rng)

    def __repr__(self) -> str:
        return (
            f"<Machine {self.spec.name!r}: {self.spec.nnodes} nodes x "
            f"{self.spec.cpus_per_node} cpus, seed={self.seed}>"
        )
