"""Darshan-style structured I/O instrumentation records.

The paper's argument is about *where time goes*: visible write cost on
the compute ranks vs background write-behind on Panda servers and
T-Rochdf threads (§6.1–§7.1).  This module provides the per-rank,
per-operation record layer that makes those claims inspectable:

* :class:`IORecord` — one timed I/O operation (module, op, path, bytes,
  ``t_start``/``t_end`` on the DES clock, rank, visibility);
* :class:`TraceRecord` — a free-form event message: what happened at
  a fault or recovery site (which server died, which heir took over,
  which file was torn), where a timed record cannot say it;
* :class:`CommCounters` — message counters and bytes-on-wire totals fed
  by the :class:`repro.vmpi.comm.Comm` hooks;
* :class:`Recorder` — the per-job sink all of the above land in (it
  keeps no counts: those live in the owners' stats, see :mod:`repro.obs`);
* :class:`OpSeconds` — the per-op fold of a stats holder's own records:
  a record is the only clock, so a holder's seconds are its records'.

A record is *visible* when its duration was spent inside a blocking
interface call on the caller's critical path (``write_attribute``,
``read_attribute``, ``sync``), and *background* when the time was
hidden behind computation (T-Rochdf's I/O thread, Rocpanda's
write-behind servers and background senders).  The ratio of the two is
the overlap metric computed in :mod:`repro.obs.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = [
    "IORecord",
    "TraceRecord",
    "CommCounters",
    "OpSeconds",
    "Recorder",
]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """A free-form event: one fault or recovery step on one rank."""

    time: float
    category: str
    rank: int
    message: str

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] r{self.rank:<4d} {self.category:<12s} {self.message}"


@dataclass(frozen=True, slots=True)
class IORecord:
    """One timed I/O operation on one rank (Darshan-style).

    Allocated once per traced operation on every rank, so it is slotted
    like the DES event hierarchy.
    """

    #: Which subsystem produced the record ("rochdf", "trochdf",
    #: "rocpanda", "shdf", ...).
    module: str
    #: Operation kind ("write_attribute", "bg_write", "ingest",
    #: "open", "write_records", ...).
    op: str
    rank: int
    path: str = ""
    nbytes: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    #: True when the duration sat on the caller's critical path; False
    #: for background (overlapped) work.
    visible: bool = True

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __str__(self) -> str:
        kind = "visible" if self.visible else "background"
        where = f" {self.path}" if self.path else ""
        return (
            f"[{self.t_start:12.6f} .. {self.t_end:12.6f}] r{self.rank:<4d} "
            f"{self.module:<10s} {self.op:<16s} {self.nbytes:>12d} B "
            f"({kind}){where}"
        )


@dataclass
class OpSeconds:
    """Virtual seconds per op of a holder's own records, summed in
    record order: the base of ``IOStats`` and ``ServerStats``, which
    fold each record where it is made, ``stats.fold(ctx.io_record(...))``."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def fold(self, record: IORecord) -> None:
        """Add ``record``'s duration to its op's seconds."""
        self.seconds[record.op] = self.seconds.get(record.op, 0.0) + record.duration


@dataclass
class CommCounters:
    """Message counters and bytes on the wire (fed from ``Comm``)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    eager_messages: int = 0
    rendezvous_messages: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    #: Global sender rank -> messages / payload bytes originated there.
    sent_by_rank: Dict[int, int] = field(default_factory=dict)
    bytes_by_rank: Dict[int, int] = field(default_factory=dict)

    def count_send(self, src: int, dst: int, nbytes: int, eager: bool) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if eager:
            self.eager_messages += 1
        else:
            self.rendezvous_messages += 1
        self.sent_by_rank[src] = self.sent_by_rank.get(src, 0) + 1
        self.bytes_by_rank[src] = self.bytes_by_rank.get(src, 0) + nbytes

    def count_recv(self, dst: int, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the counters."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "eager_messages": self.eager_messages,
            "rendezvous_messages": self.rendezvous_messages,
            "messages_received": self.messages_received,
            "bytes_received": self.bytes_received,
            "sent_by_rank": dict(sorted(self.sent_by_rank.items())),
            "bytes_by_rank": dict(sorted(self.bytes_by_rank.items())),
        }


class Recorder:
    """Per-job sink for I/O records, fault events, and comm counters.

    Every record is a small frozen dataclass appended to a list, so a
    job can always be inspected after the fact.
    """

    def __init__(self):
        self.io_records: List[IORecord] = []
        #: Free-form fault and recovery events, in emission order.
        self.events: List[TraceRecord] = []
        self.comm = CommCounters()

    # -- I/O records ----------------------------------------------------
    def record_io(
        self,
        module: str,
        op: str,
        rank: int,
        *,
        path: str = "",
        nbytes: int = 0,
        t_start: float = 0.0,
        t_end: float = 0.0,
        visible: bool = True,
    ) -> IORecord:
        """Append one :class:`IORecord`; return it."""
        record = IORecord(module, op, rank, path, int(nbytes), t_start, t_end, visible)
        self.io_records.append(record)
        return record

    # -- fault / recovery events -------------------------------------------
    def log_event(self, time: float, category: str, rank: int, message: str) -> None:
        """Append one :class:`TraceRecord`."""
        self.events.append(TraceRecord(time, category, rank, message))

    # -- comm hooks ------------------------------------------------------
    def count_send(self, src: int, dst: int, nbytes: int, eager: bool) -> None:
        """Count one message leaving ``src`` (called by ``Comm.send``)."""
        self.comm.count_send(src, dst, nbytes, eager)

    def count_recv(self, dst: int, nbytes: int) -> None:
        """Count one message consumed at ``dst`` (called by ``Comm.recv``)."""
        self.comm.count_recv(dst, nbytes)

    def __len__(self) -> int:
        return len(self.io_records)
