"""Exporters for the instrumentation stream: JSON, CSV, timelines.

The JSON payload is what benchmark reports embed (``BENCH_*.json``);
the CSV form mirrors Darshan's flat per-record log for offline
plotting; the timeline renderer backs ``python -m repro trace``.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .aggregate import aggregate, phase_rollup, records_by_rank
from .records import IORecord, Recorder

__all__ = [
    "records_to_dicts",
    "records_to_csv",
    "stat_counts",
    "summary_payload",
    "render_timeline",
]

_CSV_FIELDS = ("module", "op", "rank", "path", "nbytes", "t_start", "t_end", "visible")


def records_to_dicts(records: Iterable[IORecord]) -> List[Dict]:
    """Plain-dict form of the records (JSON/CSV ready)."""
    return [
        {
            "module": r.module,
            "op": r.op,
            "rank": r.rank,
            "path": r.path,
            "nbytes": r.nbytes,
            "t_start": r.t_start,
            "t_end": r.t_end,
            "visible": r.visible,
        }
        for r in records
    ]


def records_to_csv(records: Iterable[IORecord]) -> str:
    """Darshan-style flat CSV of the per-operation records."""
    buf = io.StringIO()
    buf.write(",".join(_CSV_FIELDS) + "\n")
    for r in records:
        buf.write(
            f"{r.module},{r.op},{r.rank},{r.path},{r.nbytes},"
            f"{r.t_start!r},{r.t_end!r},{int(r.visible)}\n"
        )
    return buf.getvalue()


def stat_counts(stats: Iterable[Tuple[str, Any]]) -> Dict[str, Dict[str, int]]:
    """Per module, each count summed over the objects that hold it.

    ``stats`` are ``(module, holder)`` pairs: a stats dataclass, whose
    ``COUNTS`` name the fields that are counts, or a mapping of counts
    (the fault injector's).  Zero counts, and modules with none, are
    left out.
    """
    buckets: Dict[str, Counter] = {}
    for module, holder in stats:
        if not isinstance(holder, Mapping):
            holder = {name: int(getattr(holder, name)) for name in holder.COUNTS}
        buckets.setdefault(module, Counter()).update(holder)
    return {
        module: dict(sorted((+bucket).items()))
        for module, bucket in sorted(buckets.items()) if +bucket
    }


def summary_payload(
    recorder: Recorder, stats: Iterable[Tuple[str, Any]], include_records: bool = False
) -> Dict:
    """Aggregated JSON-ready payload of one job's instrumentation.

    Per-module rollups of the records (visible/background split, per-op
    totals, the overlap ratio), per-phase times, the comm counters, and
    the job's counts from the stats that hold them
    (:func:`stat_counts`).  With ``include_records`` the raw
    per-operation records ride along too.
    """
    modules = {}
    for name, rollup in sorted(aggregate(recorder.io_records).items()):
        modules[name] = {
            "visible_time": rollup.visible_time,
            "visible_write_time": rollup.visible_write_time,
            "background_time": rollup.background_time,
            "overlap_ratio": rollup.overlap_ratio,
            "bytes_total": rollup.bytes_total,
            "nrecords": rollup.nrecords,
            "ops": {
                op: {
                    "count": r.count,
                    "nbytes": r.nbytes,
                    "time": r.time,
                    "visible": r.visible,
                }
                for op, r in sorted(rollup.ops.items())
            },
        }
    payload = {
        "nrecords": len(recorder.io_records),
        "modules": modules,
        "phases": phase_rollup(recorder.io_records),
        "comm": recorder.comm.as_dict(),
        "counters": stat_counts(stats),
    }
    if include_records:
        payload["records"] = records_to_dicts(recorder.io_records)
    return payload


def render_timeline(
    records: Sequence[IORecord],
    ranks: Optional[Sequence[int]] = None,
    modules: Optional[Sequence[str]] = None,
    limit_per_rank: Optional[int] = None,
) -> str:
    """Per-rank timeline of the records, one line per operation."""
    wanted_ranks = set(ranks) if ranks is not None else None
    wanted_modules = set(modules) if modules is not None else None
    lines: List[str] = []
    for rank, rank_records in sorted(records_by_rank(records).items()):
        if wanted_ranks is not None and rank not in wanted_ranks:
            continue
        if wanted_modules is not None:
            rank_records = [r for r in rank_records if r.module in wanted_modules]
        if not rank_records:
            continue
        lines.append(f"rank {rank}:")
        shown = rank_records if limit_per_rank is None else rank_records[:limit_per_rank]
        for record in shown:
            lines.append(f"  {record}")
        omitted = len(rank_records) - len(shown)
        if omitted > 0:
            lines.append(f"  ... {omitted} more record(s)")
    return "\n".join(lines)
