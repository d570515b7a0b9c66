"""Structured I/O instrumentation (Darshan-style observability).

Per-rank, per-operation I/O records emitted by the I/O service modules
and the SHDF file layer; message counters from the virtual MPI;
aggregation into per-module/per-phase rollups with the overlap ratio;
JSON/CSV exporters and timeline rendering.

A record is the only clock; stats hold counts plus a per-op fold of
their own records.  A count (a write flush, a retry, a failover) lives
in one field of the stats that own it (``ServerStats.write_flushes``,
``IOStats.retries``, ``TierStats``, the fault injector's ``fired``),
and :func:`summary_payload` derives its ``counters`` from those stats
(:func:`stat_counts`).  A duration lives only in the
:class:`IORecord` that times it: its holder folds it into its
:class:`OpSeconds` where the record is made, and every time field is a
read of that fold.
"""

from .aggregate import (
    ModuleRollup,
    OpRollup,
    aggregate,
    overlap_ratio,
    phase_of,
    phase_rollup,
    records_by_rank,
)
from .export import (
    records_to_csv,
    records_to_dicts,
    render_timeline,
    stat_counts,
    summary_payload,
)
from .records import CommCounters, IORecord, OpSeconds, Recorder, TraceRecord

__all__ = [
    "IORecord",
    "TraceRecord",
    "CommCounters",
    "OpSeconds",
    "Recorder",
    "OpRollup",
    "ModuleRollup",
    "aggregate",
    "overlap_ratio",
    "phase_of",
    "phase_rollup",
    "records_by_rank",
    "records_to_dicts",
    "records_to_csv",
    "stat_counts",
    "summary_payload",
    "render_timeline",
]
