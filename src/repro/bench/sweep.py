"""One registry of the paper's artefacts: Table 1, Fig 3(a)/(b), A1-A6,
the simulator's strong and weak scaling curves, the restart ledger and
the chaos matrix.

Each :class:`Artefact` is a name (its ``bench_results/<name>.txt``), a
title, a renderer, a run — a :class:`Sweep` of GENx jobs, collapsed
by the paper's §7 policies (best of N on Turing, mean with a 95% CI on
Frost), or a plain callable for the micro experiments of
:mod:`repro.bench.micro` and the chaos matrix of :mod:`repro.bench.faults`
— and the shape its result must have (who wins, by roughly how much).
``python -m repro paper`` runs :data:`ARTEFACTS` and checks each shape:
one definition and one check per file.

A sweep also times each job on the host.  Those columns are kept apart
from the (virtual, exact per seed) cells, in :attr:`Grid.host`: the
``.txt`` files hold only cells, and :meth:`Grid.payload` holds both
for :func:`compare` against a committed baseline.
"""

from __future__ import annotations

import gc
import os
import re
import time
import traceback
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.machine import Machine, MachineSpec
from ..cluster.presets import frost, turing
from ..genx.driver import GENxConfig, GENxRunResult, run_genx
from ..genx.workloads import WorkloadSpec, lab_scale_motor, scalability_cylinder
from ..io.rocpanda import ServerConfig
from ..io.rocpanda.server import DRAIN_TERMS, server_drain
from ..shdf import scan_file
from ..util.stats import Summary, best_of, mean_ci
from ..util.units import MB
from ..vmpi import placement as placements
from . import micro
from .faults import render_faults, run_faultbench
from .report import render_series, render_table

__all__ = [
    "ARTEFACTS", "Artefact", "Grid", "Row", "Sweep", "compare", "sizing", "summarize",
    "PARALLEL_HDF5_REFERENCE_BPS", "TABLE1_PAPER",
]

Metric = Callable[[GENxRunResult], float]

#: The FLASH parallel-HDF5 reference measured on Frost ([8], §7.2):
#: Rocpanda's 512-processor apparent throughput was "more than five
#: times higher".
PARALLEL_HDF5_REFERENCE_BPS = 160 * MB


def sizing(quick: bool = False) -> Tuple[float, Optional[int]]:
    """``(scale, runs)``: a factor on each definition's workload size (a
    scaling curve keeps its size, and below 1 runs one point) and a run
    count replacing its own (None keeps it).  ``quick`` is ``(0.25, 1)``;
    otherwise the environment decides: ``REPRO_BENCH_SCALE`` is the
    workload scale factor (default 1.0, the paper-faithful sizes) and
    ``REPRO_BENCH_RUNS`` the repetitions per configuration (default:
    each artefact's own)."""
    if quick:
        return 0.25, 1
    runs = os.environ.get("REPRO_BENCH_RUNS")
    return float(os.environ.get("REPRO_BENCH_SCALE", 1.0)), int(runs) if runs else None


def summarize(
    samples: Sequence[Dict[str, float]], policy: str
) -> Dict[str, Summary]:
    """Collapse per-run metric dicts with ``"best"`` or ``"mean_ci"``."""
    if not samples:
        raise ValueError("no samples")
    if policy not in ("best", "mean_ci"):
        raise ValueError(f"unknown policy {policy!r}")
    collapse = best_of if policy == "best" else mean_ci
    return {key: collapse([s[key] for s in samples]) for key in samples[0]}


@dataclass(frozen=True)
class Row:
    """One ``run_genx`` job and the metric columns it fills at point ``x``.

    ``config`` overrides :class:`GENxConfig` fields, ``server`` builds its
    :class:`ServerConfig`; ``restart`` metrics come from a job restarting
    from this one's last snapshot on its disk, seeded ``seed + restart_seed``,
    on ``restart_servers`` servers (None keeps this job's count).
    """

    x: Any
    io_mode: str
    clients: int
    metrics: Mapping[str, Metric]
    servers: int = 0
    placement: Optional[Callable] = None
    config: Mapping[str, Any] = field(default_factory=dict)
    server: Mapping[str, Any] = field(default_factory=dict)
    restart: Mapping[str, Metric] = field(default_factory=dict)
    restart_seed: int = 0
    restart_servers: Optional[int] = None


#: A point's host columns, and whether bigger is faster.
HOST_COLUMNS = {"host_wall_s": False, "events_per_sec": True, "host_mb_per_s": True}


@dataclass
class Grid:
    """A sweep's result: metric -> sweep point -> :class:`Summary`, and
    per point what its jobs cost the host (:data:`HOST_COLUMNS`)."""

    xs: List[Any]
    cells: Dict[str, Dict[Any, Summary]]
    host: Dict[Any, Dict[str, float]] = field(default_factory=dict)

    def value(self, metric: str, x: Any) -> float:
        return self.cells[metric][x].value

    def column(self, metric: str) -> Dict[Any, float]:
        """``{x: value}`` of one metric, in sweep order."""
        return {x: s.value for x, s in self.cells[metric].items()}

    def rows(self) -> Dict[Any, Dict[str, float]]:
        """``{x: {metric: value}}``, one dict per sweep point."""
        return {x: {m: c[x].value for m, c in self.cells.items() if x in c} for x in self.xs}

    def payload(self) -> Dict[str, Any]:
        """The JSON form: per point its cells' values and host columns."""
        rows = self.rows()
        return {"schema": "grid-v1", "points": [
            {"x": x, "cells": rows[x], "host": self.host.get(x, {})} for x in self.xs
        ]}


def compare(
    grid: Grid, baseline: Optional[Dict[str, Any]], max_regression: float = 0.25
) -> Tuple[Dict[str, float], List[str]]:
    """``grid`` against ``baseline``, the :meth:`Grid.payload` of a
    committed run of the same sweep: ``(ratios, failures)``.

    ``ratios`` maps ``"<x> <column>"`` to each host column's speedup
    over the baseline (bigger is faster); ``failures`` names every ratio
    below ``1 - max_regression`` and every cell whose value moved, old
    -> new (cells are virtual: exact for a seed).  A baseline over other
    points, or none, compares nothing; a point or column it lacks is
    skipped.
    """
    if baseline is None or [p["x"] for p in baseline["points"]] != grid.xs:
        return {}, []
    ratios, moved, rows = {}, [], grid.rows()
    for point in baseline["points"]:
        x, new = point["x"], grid.host.get(point["x"], {})
        for column, bigger_is_faster in HOST_COLUMNS.items():
            old = point["host"].get(column)
            if old and new.get(column):
                ratio = new[column] / old
                ratios[f"{x} {column}"] = round(ratio if bigger_is_faster else 1 / ratio, 3)
        moved += [
            f"{x} {metric}: {old} -> {rows[x][metric]}"
            for metric, old in point["cells"].items()
            if metric in rows[x] and rows[x][metric] != old
        ]
    floor = 1.0 - max_regression
    return ratios, [
        f"{name} at {ratio}x baseline (floor {floor:.2f}x)"
        for name, ratio in ratios.items() if ratio < floor
    ] + moved


def _host_columns(seconds: float, events: int, payload: int) -> Dict[str, float]:
    return {
        "host_wall_s": round(seconds, 3),
        "events_per_sec": round(events / seconds, 1),
        "host_mb_per_s": round(payload / MB / seconds, 1),
    }


def _payload(result: GENxRunResult) -> int:
    """Array bytes the job's compute ranks wrote."""
    return sum(c.io_stats.bytes_written for c in result.clients)


@dataclass(frozen=True)
class Sweep:
    """Rows of GENx jobs on one machine preset, on fresh machines seeded
    ``seed, seed + 1, ...`` (``runs`` of them).  ``workload`` maps the
    scale factor to the workload; ``rows`` is a list or a function of
    ``(sweep, scale)`` returning one."""

    preset: Callable[[], MachineSpec]
    workload: Callable[[float], WorkloadSpec]
    rows: Any
    runs: int
    seed: int
    policy: str
    prefix: str

    def write(self, workload: WorkloadSpec, row: Row, seed: int):
        """Run a row's job on a fresh machine: ``(config, result, cost)``,
        ``cost`` what the job cost the host, ``(seconds, DES events,
        payload bytes)``.  A run holds the cycle collector, so what
        earlier jobs left is collected first, untimed."""
        gc.collect()
        kw = {"prefix": self.prefix, **row.config}
        if row.server:
            kw["server_config"] = ServerConfig(**row.server)
        config = GENxConfig(
            workload=workload, io_mode=row.io_mode, nservers=row.servers, **kw
        )
        machine = Machine(self.preset(), seed=seed)
        t0 = time.perf_counter()
        result = run_genx(machine, row.clients + row.servers, config, placement=row.placement)
        cost = (time.perf_counter() - t0, machine.env.events_processed, _payload(result))
        return config, result, cost

    def sample(
        self, workload: WorkloadSpec, row: Row, seed: int, write=None
    ) -> Tuple[Dict[str, float], Tuple[float, int, int]]:
        """Run a row once on a fresh machine (and its restart on that disk),
        reduced to its metrics and what the write job cost the host.
        ``write`` is a :meth:`write` of a row that differs from this one
        only in its restart, reused instead of run again."""
        config, result, cost = write or self.write(workload, row, seed)
        sample = {k: metric(result) for k, metric in row.metrics.items()}
        if row.restart:
            gc.collect()
            servers = row.servers if row.restart_servers is None else row.restart_servers
            again = Machine(
                self.preset(), seed=seed + row.restart_seed, disk=result.machine.disk
            )
            restarted = run_genx(again, row.clients + servers, replace(
                config, prefix=config.prefix + "r", steps=0, initial_snapshot=False,
                restart_step=workload.steps, restart_prefix=config.prefix, nservers=servers,
            ), placement=row.placement)
            sample.update({k: metric(restarted) for k, metric in row.restart.items()})
        return sample, cost

    def __call__(self, scale: float = 1.0, runs: Optional[int] = None) -> Grid:
        workload = self.workload(scale)
        rows = self.rows(self, scale) if callable(self.rows) else self.rows
        seeds = range(self.seed, self.seed + (runs or self.runs))
        # Rows that differ only in their restart share one write per
        # seed, kept until the last of them has restarted from it.
        writes = [replace(row, x=None, restart={}, restart_seed=0, restart_servers=None)
                  for row in rows]
        kept: Dict[Tuple[int, int], Any] = {}
        cells: Dict[str, Dict[Any, Summary]] = {}
        costs: Dict[Any, List] = {}
        for i, row in enumerate(rows):
            first = writes.index(writes[i])
            later = writes[i] in writes[i + 1:]
            samples = []
            for seed in seeds:
                write = kept.pop((first, seed), None)
                if later:
                    write = kept[first, seed] = write or self.write(workload, row, seed)
                sample, cost = self.sample(workload, row, seed, write)
                samples.append(sample)
                costs.setdefault(row.x, []).append(cost)
            for key, summary in summarize(samples, self.policy).items():
                cells.setdefault(key, {})[row.x] = summary
        # A point's host columns: all its write jobs, summed.
        host = {x: _host_columns(*map(sum, zip(*jobs))) for x, jobs in costs.items()}
        return Grid(list(dict.fromkeys(r.x for r in rows)), cells, host)


@dataclass(frozen=True)
class Artefact:
    """One ``bench_results/`` file: its title, renderer, run and shape."""

    name: str
    title: str
    #: ``(result, title) -> text``.
    render: Callable[[Any, str], str]
    #: A :class:`Sweep`, or a callable taking no arguments.
    run: Callable[..., Any]
    #: Asserts the result's shape (who wins, by roughly how much) with
    #: ``assert`` statements, so not under ``python -O``; None checks nothing.
    shape: Optional[Callable[[Any], None]] = None

    @property
    def filename(self) -> str:
        return f"{self.name}.txt"

    def result(self, scale: float = 1.0, runs: Optional[int] = None) -> Any:
        """Run the definition (a micro experiment has one fixed size)."""
        return self.run(scale, runs) if isinstance(self.run, Sweep) else self.run()

    def text(self, result: Any) -> str:
        return self.render(result, self.title)

    def check(self, result: Any) -> None:
        """Assert the shape of ``result``: an ``AssertionError`` names the
        artefact and the failed assertion."""
        if self.shape is None:
            return
        try:
            self.shape(result)
        except AssertionError as failed:
            line = traceback.extract_tb(failed.__traceback__)[-1].line
            detail = f" ({failed})" if str(failed) else ""
            raise AssertionError(f"{self.name}: {line}{detail}") from None


# ---- metrics ----------------------------------------------------------

computation = attrgetter("computation_time")
visible = attrgetter("visible_io_time")
restart = attrgetter("restart_time")


def _throughput(result: GENxRunResult) -> float:
    """Apparent write throughput: bytes written / visible output cost."""
    cost = result.visible_io_time
    return _payload(result) / cost if cost > 0 else 0.0


# ---- renderers --------------------------------------------------------

def _table(x_label: str, columns: Mapping[str, str], x_fmt=lambda x: x):
    """One row per sweep point; ``columns`` maps metric -> header."""
    def render(grid: Grid, title: str) -> str:
        return render_table(
            [x_label, *columns.values()],
            [[x_fmt(x), *(grid.value(m, x) for m in columns)] for x in grid.xs],
            title=title,
        )
    return render


def _figure(unit_label: str, unit: float = 1):
    """One row per processor count; a value and a ± column per series."""
    def render(grid: Grid, title: str) -> str:
        series = {}
        for name, cells in grid.cells.items():
            series[f"{name} ({unit_label})"] = [s.value / unit for s in cells.values()]
            series[f"{name} ±"] = [s.halfwidth / unit for s in cells.values()]
        return render_series("compute procs", grid.xs, series, title=title)
    return render


def _table1(grid: Grid, title: str) -> str:
    """Metrics down, a measured and a paper column per processor count."""
    headers = ["metric (s)"]
    for n in grid.xs:
        headers += [f"{n}p meas", f"{n}p paper"]
    rows = [
        [label, *(v for n in grid.xs for v in (grid.value(key, n), paper.get(n)))]
        for key, (label, paper) in TABLE1_PAPER.items()
    ]
    return render_table(headers, rows, title=title)


def _a2(result, title: str) -> str:
    counts = sorted(next(iter(result.values())))
    return render_series(
        "datasets/file", counts,
        {
            f"{name} {op} (s)": [result[name][c][i] for c in counts]
            for name in result
            for i, op in ((0, "write"), (1, "read"))
        },
        title=title,
    )


def _a2_tiers(result, title: str) -> str:
    return render_table(
        ["driver", "tier", "visible write (s)", "durable (s)", "drain tail (ms)"],
        [
            [driver, tier, v["visible_write_s"], v["durable_s"],
             (v["durable_s"] - v["visible_write_s"]) * 1e3]
            for driver, tiers in result.items()
            for tier, v in tiers.items()
        ],
        title=title,
    )


def _partial_read(result, title: str) -> str:
    return "\n".join([title] + [
        f"partial attribute read, {module} (1 of 4 attrs, {pr['nprocs']} "
        f"procs): {pr['partial_read_s']*1e3:.2f} ms sieved vs "
        f"{pr['full_read_s']*1e3:.2f} ms full-record scan "
        f"({pr['speedup']:.2f}x less visible read time)"
        for module, pr in result.items()
    ])


# ---- Table 1 (§7.1) ---------------------------------------------------
# "We partitioned and distributed the same set of simulation data onto
# different numbers of compute processors ... executed the simulation
# for 200 time-steps and performed snapshots every 50 time-steps" (~64
# MB per snapshot).  Rocpanda adds dedicated servers at 8:1; each
# restart re-reads the last snapshot of its write job.

#: metric -> (row label, the paper's value per processor count).
TABLE1_PAPER = {
    "computation": ("compu. time", {16: 846.64, 32: 393.05, 64: 203.24}),
    "rochdf": ("visible I/O: Rochdf", {16: 51.58, 32: 83.28, 64: 51.19}),
    "trochdf": ("visible I/O: T-Rochdf", {16: 0.38, 32: 0.18, 64: 0.11}),
    "rocpanda": ("visible I/O: Rocpanda", {16: 2.40, 32: 1.48, 64: 1.94}),
    "restart_rochdf": ("restart: Rochdf", {16: 5.33, 32: 1.93, 64: 0.72}),
    "restart_rocpanda": ("restart: Rocpanda", {16: 69.9, 32: 39.2, 64: 18.2}),
}

TABLE1 = Sweep(
    preset=turing,
    workload=lambda scale: lab_scale_motor(scale=scale),
    rows=[
        row
        for n in (16, 32, 64)
        for row in (
            Row(n, "rochdf", n, {"computation": computation, "rochdf": visible},
                restart={"restart_rochdf": restart}, restart_seed=1000),
            Row(n, "trochdf", n, {"trochdf": visible}),
            Row(n, "rocpanda", n, {"rocpanda": visible}, servers=max(1, n // 8),
                restart={"restart_rocpanda": restart}, restart_seed=2000),
        )
    ],
    runs=3, seed=100, policy="best", prefix="t1",
)

# ---- Fig 3(a) and 3(b) (§7.2) -----------------------------------------
# The Frost "scalability" test: fixed data per compute processor, 15
# compute processors per 16-way node.  Fig 3(a)'s Rocpanda puts a server
# on each node's 16th CPU; ``frost()`` carries its 375 MHz POWER3 costs.

FIG3A = Sweep(
    preset=frost,
    workload=lambda scale: scalability_cylinder(
        per_client_bytes=scale * MB, steps=2, snapshot_interval=1,
    ),
    rows=[
        row
        for n in (1, 3, 7, 15, 30, 60, 120, 480)
        for row in (
            Row(n, "rocpanda", n, {"rocpanda": _throughput}, servers=max(1, n // 15)),
            Row(n, "rochdf", n, {"rochdf": _throughput},
                placement=placements.leave_one_idle),
        )
    ],
    runs=2, seed=300, policy="mean_ci", prefix="f3a",
)

# 16NS: 16 compute ranks per node on Rochdf; 15NS: 15 and an idle CPU;
# 15S: 15 and a Rocpanda server on the 16th.  Computation time is the
# measurement, so each step's compute time is pinned.
FIG3B = Sweep(
    preset=frost,
    workload=lambda scale: scalability_cylinder(
        per_client_bytes=scale * 0.25 * MB, steps=10, snapshot_interval=5,
        nominal_step_seconds=20.0,
    ),
    rows=[
        row
        for n in (15, 60, 240)
        for row in (
            Row(n, "rochdf", n, {"16NS": computation}, placement=placements.block),
            Row(n, "rochdf", n, {"15NS": computation},
                placement=placements.leave_one_idle),
            Row(n, "rocpanda", n, {"15S": computation}, servers=max(1, n // 15),
                placement=placements.block),
        )
    ],
    runs=3, seed=500, policy="mean_ci", prefix="f3b",
)


def _fig3b_shape(grid: Grid) -> None:
    """As the job grows, 16 compute ranks per node fall visibly behind
    15 (AIX background work preempts compute, and per-step sync
    amplifies the slowest rank); 15S costs slightly more than an idle
    16th CPU and stays below 16NS — the server CPU pays for itself."""
    v16, v15, v15s = grid.column("16NS"), grid.column("15NS"), grid.column("15S")
    smallest, largest = grid.xs[0], grid.xs[-1]
    assert v16[largest] > 1.02 * v15[largest]
    assert v16[largest] - v15[largest] > v16[smallest] - v15[smallest]
    assert v15s[largest] >= 0.995 * v15[largest]
    assert v15s[largest] < v16[largest]
    for n in grid.xs:
        assert v15s[n] < 1.05 * v16[n]


# ---- A1, A3-A5: the Rocpanda design choices on a small motor ----------


def _small_motor(scale: float) -> WorkloadSpec:
    return lab_scale_motor(
        scale=0.2 * scale, nblocks_fluid=64, nblocks_solid=32,
        steps=20, snapshot_interval=10,
    )


def _ablation(seed: int, rows) -> Sweep:
    return Sweep(preset=turing, workload=_small_motor, rows=rows, runs=1,
                 seed=seed, policy="best", prefix="a")


A1 = _ablation(900, [
    Row(label, "rocpanda", 32, {"visible_io": visible}, servers=4,
        config={"prefix": f"a1_{label}"}, server={"active_buffering": on})
    for label, on in (("buffered", True), ("write_through", False))
])


def _a1_shape(grid: Grid) -> None:
    """Buffering at the servers hides the write cost (§6.1)."""
    result = grid.column("visible_io")
    assert result["buffered"] < result["write_through"] / 2


A3 = _ablation(920, [
    Row(ratio, "rocpanda", 32, {
        "visible_io": visible,
        "files": lambda r: float(r.files_created),
        "total_procs": lambda r: float(len(r.clients) + len(r.servers)),
    }, servers=max(1, 32 // ratio), config={"prefix": f"a3_{ratio}"})
    for ratio in (4, 8, 16, 32)
])


def _a3_shape(grid: Grid) -> None:
    """Fewer servers: fewer files but more visible I/O, both monotone."""
    result = grid.rows()
    ratios = sorted(result)
    files = [result[r]["files"] for r in ratios]
    assert all(b <= a for a, b in zip(files, files[1:]))
    assert result[ratios[-1]]["visible_io"] > result[ratios[0]]["visible_io"]


def _a4_rows(sweep: Sweep, scale: float) -> List[Row]:
    """Buffer capacities as fractions of one server's snapshot share,
    measured by a probe job of the same workload."""
    probe = Row(None, "rocpanda", 16, {"snapshot": attrgetter("bytes_written_per_snapshot")},
                servers=2, config={"prefix": "a4p"})
    sample, _cost = sweep.sample(sweep.workload(scale), probe, sweep.seed)
    share = sample["snapshot"] / 2
    return [
        Row(fraction, "rocpanda", 16, {
            "visible_io": visible,
            "overflow_flushes":
                lambda r: float(sum(s.stats.overflow_flushes for s in r.servers)),
        }, servers=2, config={"prefix": f"a4_{fraction}"},
            server={"buffer_bytes": max(4096, fraction * share)})
        for fraction in (0.05, 0.25, 1.0, 4.0)
    ]


A4 = _ablation(940, _a4_rows)


def _a4_shape(grid: Grid) -> None:
    """Undersized buffers degrade gracefully: they overflow and cost
    more visible time; amply sized ones never overflow."""
    result = grid.rows()
    tiny, huge = min(result), max(result)
    assert result[tiny]["overflow_flushes"] > 0
    assert result[huge]["overflow_flushes"] == 0
    assert result[tiny]["visible_io"] > result[huge]["visible_io"]

# The full active-buffering hierarchy of [13]: a client-side buffer
# level on top of GENx's production server-side buffering.
A5 = _ablation(960, [
    Row(label, "rocpanda", 16, {"visible_io": visible}, servers=2,
        config={"prefix": f"a5_{on}", "client_buffering": on})
    for label, on in (("server_only", False), ("client+server", True))
])


def _a5_shape(grid: Grid) -> None:
    """The full buffer hierarchy shrinks visible I/O further."""
    result = grid.column("visible_io")
    assert result["client+server"] < result["server_only"] / 3


# ---- the simulator's scaling curves ------------------------------------
# Past the paper's 480 processors: Rocpanda at 8:1 on Turing, 64 -> 1024
# clients, all on one 576-node Turing (the 1024-client point's 1152
# ranks; every node past the 208th has Turing's calibration).  The
# strong curve fixes the total: Table 1's motor at the acceptance size,
# repartitioned onto 1024 + 1024 blocks so every client owns one, and
# what scales is the rank count, with it the collective traffic.  The
# weak curve fixes the share: the Frost cylinder at 0.25 MB per client,
# so total data grows 16x over the sweep and stresses the DES core, the
# servers' fan-in and the one write slot.  Below full size a curve runs
# its 128-client point alone, at full size.

SCALING_CLIENTS = (64, 128, 256, 512, 1024)
QUICK_CLIENTS = (128,)


def _leased_writes(result: GENxRunResult) -> int:
    """The filesystem's writes, checked against its write-slot lease:
    under it only bytes move — one write per hold, the holds summing to
    the write-busy time, one writer at a time."""
    metrics = result.machine.fs.metrics
    held = sum(s.stats.seconds.get("land", 0.0) for s in result.servers)
    holds = sum(s.stats.write_flushes for s in result.servers)
    if (abs(held - metrics.write_busy_time) > 1e-9 or metrics.peak_write_demand != 1
            or metrics.write_ops != holds):
        raise AssertionError(
            f"{len(result.clients)} clients: lease held {held} s for "
            f"{metrics.write_busy_time} s of writes, {metrics.peak_write_demand} at "
            f"once, {metrics.write_ops} writes in {holds} holds"
        )
    return metrics.write_ops


def _drain(term: str) -> Metric:
    return lambda r: server_drain(s.stats for s in r.servers)[f"{term}_s"]


def _records(result: GENxRunResult) -> int:
    """Records (datasets) the job's files hold: what the format's
    directory bookkeeping grows with."""
    disk = result.machine.disk
    return sum(len(scan_file(disk.open(path).read())[1]) for path in disk.listdir())


def _first_landing_lag(result: GENxRunResult) -> float:
    """Per snapshot, its first ``land`` record's start minus its first
    ``ingest``'s, summed over the snapshots."""
    first: Dict[Tuple[str, str], float] = {}
    for r in result.recorder.io_records:
        if r.op in ("ingest", "land") and r.path:
            key = (re.search(r"_(\d{6})_", r.path).group(1), r.op)
            first[key] = min(first.get(key, r.t_start), r.t_start)
    lags = (t - first[(step, "ingest")] for (step, op), t in first.items() if op == "land")
    return sum(lags, 0.0)


#: metric -> (header, metric); every column exact for a seed.
SCALING_COLUMNS: Dict[str, Tuple[str, Metric]] = {
    "virtual_wall_s": ("virt wall (s)", attrgetter("wall_time")),
    "computation_s": ("compute (s)", computation),
    "visible_io_s": ("visible I/O (s)", visible),
    "final_sync_s": ("final sync (s)", lambda r: max(c.final_sync_time for c in r.clients)),
    **{f"{term}_s": (f"{term.replace('_', ' ')} (s)", _drain(term)) for term in DRAIN_TERMS},
    # Server-seconds merged shares spent on the wire to their writers.
    "forward_s": ("forward (s)", lambda r: sum(
        (rec.duration for rec in r.recorder.io_records if rec.op == "forward"), 0.0)),
    "first_landing_lag_s": ("first-landing lag (s)", _first_landing_lag),
    "fs_write_ops": ("fs writes", _leased_writes),
    "peak_write_demand": ("peak writers", lambda r: r.machine.fs.metrics.peak_write_demand),
    "files": ("files", attrgetter("files_created")),
    "merged_shares": ("merged shares", lambda r: sum(s.stats.merged_shares for s in r.servers)),
    "refused_joins": ("refused joins", lambda r: sum(s.stats.refused_joins for s in r.servers)),
    "records": ("records", _records),
    "payload_bytes": ("payload (B)", _payload),
    "landed_bytes": ("landed (B)", lambda r: sum(s.stats.bytes_written for s in r.servers)),
    "events": ("events", lambda r: r.machine.env.events_processed),
    "max_queue_depth": ("max queue", lambda r: r.machine.env.max_queue_depth),
}
SCALING_METRICS = {name: metric for name, (_header, metric) in SCALING_COLUMNS.items()}


def _scaling_rows(sweep: Sweep, scale: float) -> List[Row]:
    return [
        Row(n, "rocpanda", n, SCALING_METRICS, servers=n // 8,
            config={"prefix": f"{sweep.prefix}_{n}"})
        for n in (SCALING_CLIENTS if scale >= 1 else QUICK_CLIENTS)
    ]


def _scaling(workload: Callable[[], WorkloadSpec], prefix: str) -> Sweep:
    return Sweep(preset=lambda: turing(nnodes=576), workload=lambda _scale: workload(),
                 rows=_scaling_rows, runs=1, seed=100, policy="best", prefix=prefix)


SCALING_STRONG = _scaling(lambda: lab_scale_motor(
    scale=0.05, steps=40, snapshot_interval=10, nblocks_fluid=1024, nblocks_solid=1024,
), "sstrong")

SCALING_WEAK = _scaling(lambda: scalability_cylinder(
    per_client_bytes=0.25 * MB, blocks_per_client_fluid=2, blocks_per_client_solid=1,
    steps=12, snapshot_interval=4,
), "sweak")


def _scaling_shape(grid: Grid) -> None:
    """At every point the servers landed the bytes the clients shipped,
    and the wall holds the compute and the visible I/O."""
    for n, cells in grid.rows().items():
        busy = cells["computation_s"] + cells["visible_io_s"]
        assert cells["landed_bytes"] == cells["payload_bytes"], f"{n} clients"
        assert cells["virtual_wall_s"] >= busy, f"{n} clients"


def _exact_table(columns: Mapping[str, Tuple[str, Metric]], *x_headers: str,
                 x_cells: Callable[[Any], Sequence] = lambda x: (x,)):
    """One row per sweep point — ``x_cells(x)`` under ``x_headers``, then
    ``columns`` — with seconds to the microsecond."""
    def render(grid: Grid, title: str) -> str:
        return render_table([*x_headers, *(header for header, _metric in columns.values())], [
            [*x_cells(x), *(f"{v:.6f}" if isinstance(v, float) else v
                            for v in (grid.value(m, x) for m in columns))]
            for x in grid.xs
        ], title=title)
    return render


# ---- the restart ledger (§6.1) -----------------------------------------
# ``rocpanda_restart_64``'s checkpoint (the Table 1 motor at half its
# bytes, 64 clients + 8 servers) restarted at 8, 4 and 2 servers; the
# servers' restart terms in server-seconds summed over the servers.

#: Op of a server's restart records -> header.
RESTART_TERMS = {"restart_scan": "scan", "restart_read_wait": "read wait",
                 "restart_scatter": "scatter"}


def _restart_terms(result: GENxRunResult) -> Dict[str, float]:
    """The servers' restart terms, summed, once each server's scatter is
    no faster than its sent bytes at ``intra_bw`` (faster would be a
    flaw in the network model)."""
    for server in result.servers:
        stats = server.stats
        scatter = stats.seconds.get("restart_scatter", 0.0)
        link = stats.restart_scatter_bytes / result.machine.spec.network.intra_bw
        if scatter < link:
            raise AssertionError(
                f"server {server.rank}: scatter {scatter} s for {link} s at its link")
    return {t: sum(s.stats.seconds.get(t, 0.0) for s in result.servers) for t in RESTART_TERMS}


def _read_floor(result: GENxRunResult) -> float:
    """The bytes read over all the filesystem's read slots at full bandwidth."""
    fs = result.machine.fs
    return fs.metrics.bytes_read / (fs.read_slots * fs.read_bw)


RESTART_COLUMNS: Dict[str, Tuple[str, Metric]] = {
    "restart_s": ("restart (s)", restart),
    "read_floor_s": ("read floor (s)", _read_floor),
    "regions": ("regions", lambda r: sum(s.stats.restart_regions_read for s in r.servers)),
    "sieve_waste_bytes": ("sieve waste (B)",
                          lambda r: sum(s.stats.restart_sieve_waste_bytes for s in r.servers)),
    **{f"{term}_s": (f"{header} (s)", lambda r, term=term: _restart_terms(r)[term])
       for term, header in RESTART_TERMS.items()},
}

RESTART_LEDGER = Sweep(
    preset=turing,
    workload=lambda scale: lab_scale_motor(scale=0.5 * scale, steps=2, snapshot_interval=2),
    rows=[
        Row(n, "rocpanda", 64, {}, servers=8, config={"initial_snapshot": False},
            restart={name: metric for name, (_header, metric) in RESTART_COLUMNS.items()},
            restart_servers=n)
        for n in (8, 4, 2)
    ],
    runs=1, seed=100, policy="best", prefix="ckpt",
)


def _restart_shape(grid: Grid) -> None:
    """No restart beats its read floor."""
    for n, cells in grid.rows().items():
        assert cells["restart_s"] >= cells["read_floor_s"], f"{n} servers"


def _faults_shape(payload: Dict[str, Any]) -> None:
    """Every row of the chaos matrix recovered and replayed identically."""
    failed = [
        f"{r['scenario']}/{r['module']}" for r in payload["matrix"]
        if not (r["recovered"] and r["runs_identical"])
    ]
    assert not failed, f"rows not recovered or not replayed: {failed}"


# ---- the micro experiments' shapes -------------------------------------


def _a2_shape(result) -> None:
    """HDF4 wins small files (cheap constants) and loses big ones, its
    per-dataset cost growing with the file (linear directory scan);
    HDF5's stays nearly flat — the [13] observation."""
    counts = sorted(next(iter(result.values())).keys())
    h4, h5 = result["hdf4"], result["hdf5"]
    small, big = counts[0], counts[-1]
    assert h4[small][0] < h5[small][0]
    assert h4[big][0] > h5[big][0]
    assert h4[big][1] > h5[big][1]
    assert h4[big][0] / big > 1.5 * (h4[small][0] / small)
    assert h5[big][0] / big < 1.5 * (h5[small][0] / small)


def _a6_shape(result) -> None:
    """Runtime block migration flattens an imbalanced partition (§4.1)."""
    assert result["balanced"] < result["static"]


_VISIBLE_IO = {"visible_io": "visible I/O (s)"}
_SCALING_TABLE = _exact_table(SCALING_COLUMNS, "clients", "ranks",
                              x_cells=lambda n: (n, n + n // 8))

ARTEFACTS: Dict[str, Artefact] = {a.name: a for a in (
    Artefact("table1", "Table 1 — computation and I/O times on Turing "
             "(best of N runs)", _table1, TABLE1),
    Artefact("fig3a", "Fig 3(a) — apparent aggregate write throughput on "
             "Frost (mean of N runs, 95% CI)", _figure("MB/s", MB), FIG3A),
    Artefact("fig3a_partial_read", "Fig 3(a) — partial attribute read on "
             "Frost, sieved vs full-record scan", _partial_read,
             lambda: {m: micro.run_fig3a_partial_read(module=m)
                      for m in ("rochdf", "trochdf")}),
    Artefact("fig3b", "Fig 3(b) — computation time vs per-node layout on "
             "Frost (mean of N runs, 95% CI)", _figure("s"), FIG3B, _fig3b_shape),
    Artefact("ablation_a1_active_buffering", "A1 — active buffering on/off "
             "(32 clients + 4 servers, Turing)", _table("mode", _VISIBLE_IO), A1,
             _a1_shape),
    Artefact("ablation_a2_hdf_drivers", "A2 — HDF4 vs HDF5 driver scaling "
             "with dataset count", _a2, micro.run_hdf_driver_scaling, _a2_shape),
    Artefact("a2_tiers", "A2b — driver x storage tier", _a2_tiers,
             micro.run_driver_tier_matrix),
    Artefact("ablation_a3_ratio", "A3 — client:server ratio sweep "
             "(32 clients, Turing)", _table("client:server", {
                 **_VISIBLE_IO, "files": "files/snapshot-window",
                 "total_procs": "total procs"}, lambda r: f"{r}:1"), A3, _a3_shape),
    Artefact("ablation_a4_buffer", "A4 — server buffer capacity sweep "
             "(16 clients + 2 servers)", _table("buffer (x snapshot share)", {
                 **_VISIBLE_IO, "overflow_flushes": "overflow flushes"}), A4, _a4_shape),
    Artefact("ablation_a5_client_buffering", "A5 — client-side buffer level "
             "([13]) on top of server buffering", _table("buffering", _VISIBLE_IO), A5,
             _a5_shape),
    Artefact("ablation_a6_load_balancing", "A6 — dynamic load balancing on "
             "an irregular block set", lambda result, title: render_table(
                 ["partition", "computation time (s)"],
                 [[k, v] for k, v in result.items()], title=title,
             ), micro.run_load_balancing_ablation, _a6_shape),
    Artefact("scaling_strong", "Strong scaling — the Table 1 motor under Rocpanda "
             "at 8:1, 64 -> 1024 clients (Turing, seed 100)", _SCALING_TABLE,
             SCALING_STRONG, _scaling_shape),
    Artefact("scaling_weak", "Weak scaling — 0.25 MB per client under Rocpanda "
             "at 8:1, 64 -> 1024 clients (Turing, seed 100)", _SCALING_TABLE,
             SCALING_WEAK, _scaling_shape),
    Artefact("restart_ledger", "Restart ledger — rocpanda_restart_64's checkpoint "
             "(64 clients + 8 servers) restarted at 8, 4 and 2 servers (Turing, seed "
             "100; terms in server-seconds)", _exact_table(RESTART_COLUMNS, "servers"),
             RESTART_LEDGER, _restart_shape),
    Artefact("faults", "Faultbench chaos matrix", render_faults, run_faultbench,
             _faults_shape),
)}
