"""Declarative fault plans.

A :class:`FaultPlan` is pure data: a tuple of fault specs describing
*what* goes wrong and *when* (virtual time).  The
:class:`repro.faults.injector.FaultInjector` turns a plan into live
hooks on a :class:`repro.cluster.machine.Machine`; everything the
injector does is derived from the plan plus the machine seed, so two
runs with the same (spec, seed, plan) triple fail identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ServerCrash",
    "TransientEIO",
    "DiskFull",
    "MessageFault",
    "Straggler",
    "FaultPlan",
]


@dataclass(frozen=True)
class ServerCrash:
    """Kill rank ``rank`` (its DES process is interrupted) at ``at_time``.

    Named for its main use — killing a Rocpanda I/O server — but any
    rank can be targeted.  The victim must already be past collective
    initialization at ``at_time``, and its surviving peers must be able
    to make progress without it (see DESIGN.md, fault model).
    """

    rank: int
    at_time: float


@dataclass(frozen=True)
class TransientEIO:
    """Fail the next ``count`` I/O ops matching ``path_prefix``.

    ``op`` selects which direction faults: ``"write"`` (the default,
    hooked before any byte lands) or ``"read"`` (hooked in the checked
    read entry point the sieved restart path uses).  Failures begin
    at virtual time ``start``; each raises
    :class:`repro.fs.vfs.TransientIOError`.  A retry after the budget is
    exhausted succeeds — the canonical transient-EIO shape.
    """

    path_prefix: str = ""
    start: float = 0.0
    count: int = 1
    op: str = "write"

    def __post_init__(self):
        if self.op not in ("write", "read"):
            raise ValueError(f"unknown TransientEIO op {self.op!r}")


@dataclass(frozen=True)
class DiskFull:
    """Clamp disk capacity to ``capacity_bytes`` during a time window.

    At ``at_time`` the disk's capacity is set so writes overflowing
    ``capacity_bytes`` raise :class:`repro.fs.vfs.DiskFullError`; after
    ``duration`` seconds the previous capacity is restored (an operator
    freed space).  ``duration=None`` leaves the clamp in place forever.
    """

    at_time: float
    capacity_bytes: int
    duration: Optional[float] = None


@dataclass(frozen=True)
class MessageFault:
    """Drop, duplicate, or delay point-to-point messages.

    Applies to the first ``count`` messages at/after ``start`` that
    match the (``src``, ``dst``, ``tag``) filter — ``None`` matches any.
    ``kind`` is ``"drop"``, ``"duplicate"``, or ``"delay"`` (adding
    ``delay`` seconds of extra flight time).
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    start: float = 0.0
    count: int = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("drop", "duplicate", "delay"):
            raise ValueError(f"unknown message fault kind {self.kind!r}")


@dataclass(frozen=True)
class Straggler:
    """Multiply node ``node``'s external load by ``factor`` for a window.

    Slows both compute and transfers touching the node — the classic
    slow-node failure mode on shared Turing nodes (§7.1).
    """

    node: int
    start: float
    duration: float
    factor: float = 4.0


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault specs."""

    faults: Tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, kind: type) -> Tuple:
        return tuple(f for f in self.faults if isinstance(f, kind))
