"""Rollups over the instrumentation record stream.

Aggregation answers the paper's central question per module: how much
I/O time sat on the callers' critical path (*visible*) vs how much was
hidden behind computation (*background* write-behind on Panda servers,
T-Rochdf threads, and client-side background senders).  The headline
metric is the **overlap ratio**::

    overlap_ratio = background_time / (background_time + visible_write_time)

Plain Rochdf does everything in the callers' faces, so its ratio is 0;
T-Rochdf and Rocpanda hide most of the file time, so theirs approach 1.

Records are also bucketed into coarse *phases* (``output``, ``restart``,
``sync``, ``write-behind``) for per-phase rollups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .records import IORecord

__all__ = [
    "OpRollup",
    "ModuleRollup",
    "aggregate",
    "overlap_ratio",
    "phase_of",
    "phase_rollup",
    "records_by_rank",
]

#: Visible operations that belong to the restart (read) phase: the I/O
#: modules' restore calls, the Rocpanda servers' collective restart
#: (scans, waits for a region, scatters), and every record
#: :class:`~repro.shdf.file.SHDFReader` emits.
_READ_OPS = frozenset({
    "read_attribute", "restart_scan", "restart_read_wait", "restart_scatter",
    "open_scan", "read_extents", "read_batch", "close_scan",
})


@dataclass
class OpRollup:
    """Totals for one (module, op) pair."""

    module: str
    op: str
    count: int = 0
    nbytes: int = 0
    time: float = 0.0
    visible: bool = True

    def add(self, record: IORecord) -> None:
        self.count += 1
        self.nbytes += record.nbytes
        self.time += record.duration


@dataclass
class ModuleRollup:
    """Per-module totals with the visible/background split."""

    module: str
    visible_time: float = 0.0
    background_time: float = 0.0
    visible_write_time: float = 0.0
    bytes_total: int = 0
    nrecords: int = 0
    ops: Dict[str, OpRollup] = field(default_factory=dict)

    @property
    def overlap_ratio(self) -> float:
        """Fraction of write-path time hidden behind computation."""
        denom = self.background_time + self.visible_write_time
        return self.background_time / denom if denom > 0 else 0.0

    def add(self, record: IORecord) -> None:
        self.nrecords += 1
        self.bytes_total += record.nbytes
        if record.visible:
            self.visible_time += record.duration
            if phase_of(record) == "output":
                self.visible_write_time += record.duration
        else:
            self.background_time += record.duration
        rollup = self.ops.get(record.op)
        if rollup is None:
            rollup = self.ops[record.op] = OpRollup(
                module=record.module, op=record.op, visible=record.visible
            )
        rollup.add(record)


def aggregate(records: Iterable[IORecord]) -> Dict[str, ModuleRollup]:
    """Collapse a record stream into per-module rollups."""
    out: Dict[str, ModuleRollup] = {}
    for record in records:
        rollup = out.get(record.module)
        if rollup is None:
            rollup = out[record.module] = ModuleRollup(module=record.module)
        rollup.add(record)
    return out


def overlap_ratio(records: Iterable[IORecord], module: Optional[str] = None) -> float:
    """Overlap ratio over ``records``, optionally for one module only."""
    rollup = ModuleRollup(module=module or "")
    for record in records:
        if module is None or record.module == module:
            rollup.add(record)
    return rollup.overlap_ratio


def phase_of(record: IORecord) -> str:
    """Coarse phase bucket of one record."""
    if not record.visible:
        return "write-behind"
    if record.op in _READ_OPS:
        return "restart"
    if record.op == "sync":
        return "sync"
    return "output"


def phase_rollup(records: Iterable[IORecord]) -> Dict[str, Dict[str, float]]:
    """``{module: {phase: seconds}}`` over the record stream."""
    out: Dict[str, Dict[str, float]] = {}
    for record in records:
        phases = out.setdefault(record.module, {})
        phase = phase_of(record)
        phases[phase] = phases.get(phase, 0.0) + record.duration
    return out


def records_by_rank(records: Iterable[IORecord]) -> Dict[int, List[IORecord]]:
    """Group records per rank, each group sorted by start time."""
    out: Dict[int, List[IORecord]] = {}
    for record in records:
        out.setdefault(record.rank, []).append(record)
    for rank_records in out.values():
        rank_records.sort(key=lambda r: (r.t_start, r.t_end))
    return out
