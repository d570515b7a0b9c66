"""One registry of the paper's artefacts: Table 1, Fig 3(a)/(b), A1-A6.

Each :class:`Artefact` is a name (its ``bench_results/<name>.txt``), a
title, a renderer and a run: a :class:`Sweep` of GENx jobs, collapsed
by the paper's §7 policies (best of N on Turing, mean with a 95% CI on
Frost), or a plain callable for the micro experiments of
:mod:`repro.bench.micro`.  ``python -m repro paper`` and
``benchmarks/test_*.py`` both run :data:`ARTEFACTS`: one definition per
file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.machine import Machine, MachineSpec
from ..cluster.presets import frost, turing
from ..genx.driver import GENxConfig, GENxRunResult, run_genx
from ..genx.workloads import WorkloadSpec, lab_scale_motor, scalability_cylinder
from ..io.rocpanda import ServerConfig
from ..util.stats import Summary, best_of, mean_ci
from ..util.units import MB
from ..vmpi import placement as placements
from . import micro
from .report import render_series, render_table

__all__ = [
    "ARTEFACTS", "Artefact", "Grid", "Row", "Sweep", "sizing", "summarize",
    "PARALLEL_HDF5_REFERENCE_BPS", "TABLE1_PAPER",
]

Metric = Callable[[GENxRunResult], float]

#: The FLASH parallel-HDF5 reference measured on Frost ([8], §7.2):
#: Rocpanda's 512-processor apparent throughput was "more than five
#: times higher".
PARALLEL_HDF5_REFERENCE_BPS = 160 * MB


def sizing(quick: bool = False) -> Tuple[float, Optional[int]]:
    """``(scale, runs)``: a factor on each definition's workload size and
    a run count replacing its own (None keeps it).  ``quick`` is ``(0.25,
    1)``; otherwise ``REPRO_BENCH_SCALE`` (default 1.0, the paper-faithful
    sizes) and ``REPRO_BENCH_RUNS`` decide."""
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
    from this one's last snapshot on its disk, seeded ``seed + restart_seed``.
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


@dataclass
class Grid:
    """A sweep's result: metric -> sweep point -> :class:`Summary`."""

    xs: List[Any]
    cells: Dict[str, Dict[Any, Summary]]

    def value(self, metric: str, x: Any) -> float:
        return self.cells[metric][x].value

    def column(self, metric: str) -> Dict[Any, float]:
        """``{x: value}`` of one metric, in sweep order."""
        return {x: s.value for x, s in self.cells[metric].items()}

    def rows(self) -> Dict[Any, Dict[str, float]]:
        """``{x: {metric: value}}``, one dict per sweep point."""
        return {x: {m: c[x].value for m, c in self.cells.items() if x in c} for x in self.xs}


@dataclass(frozen=True)
class Sweep:
    """Rows of GENx jobs on one machine preset, on fresh machines seeded
    ``seed, seed + 1, ...`` (``runs`` of them).  ``workload`` maps the
    scale factor to the workload; ``rows`` is a list or a function of
    ``(sweep, workload)`` returning one."""

    preset: Callable[[], MachineSpec]
    workload: Callable[[float], WorkloadSpec]
    rows: Any
    runs: int
    seed: int
    policy: str
    prefix: str

    def sample(self, workload: WorkloadSpec, row: Row, seed: int) -> Dict[str, float]:
        """Run a row once on a fresh machine (and its restart on that disk),
        reduced to its metrics: the jobs are freed before the next starts."""
        kw = {"prefix": self.prefix, **row.config}
        if row.server:
            kw["server_config"] = ServerConfig(**row.server)
        config = GENxConfig(
            workload=workload, io_mode=row.io_mode, nservers=row.servers, **kw
        )
        machine = Machine(self.preset(), seed=seed)
        nprocs = row.clients + row.servers
        result = run_genx(machine, nprocs, config, placement=row.placement)
        sample = {k: metric(result) for k, metric in row.metrics.items()}
        if row.restart:
            again = Machine(self.preset(), seed=seed + row.restart_seed, disk=machine.disk)
            restarted = run_genx(again, nprocs, replace(
                config, prefix=config.prefix + "r", steps=0, initial_snapshot=False,
                restart_step=workload.steps, restart_prefix=config.prefix,
            ), placement=row.placement)
            sample.update({k: metric(restarted) for k, metric in row.restart.items()})
        return sample

    def __call__(self, scale: float = 1.0, runs: Optional[int] = None) -> Grid:
        workload = self.workload(scale)
        rows = self.rows(self, workload) if callable(self.rows) else self.rows
        cells: Dict[str, Dict[Any, Summary]] = {}
        for row in rows:
            samples = [
                self.sample(workload, row, seed)
                for seed in range(self.seed, self.seed + (runs or self.runs))
            ]
            for key, summary in summarize(samples, self.policy).items():
                cells.setdefault(key, {})[row.x] = summary
        return Grid(list(dict.fromkeys(r.x for r in rows)), cells)


@dataclass(frozen=True)
class Artefact:
    """One ``bench_results/`` file: its title, renderer and run."""

    name: str
    title: str
    #: ``(result, title) -> text``.
    render: Callable[[Any, str], str]
    #: A :class:`Sweep`, or a callable taking no arguments.
    run: Callable[..., Any]

    @property
    def filename(self) -> str:
        return f"{self.name}.txt"

    def result(self, scale: float = 1.0, runs: Optional[int] = None) -> Any:
        """Run the definition (a micro experiment has one fixed size)."""
        return self.run(scale, runs) if isinstance(self.run, Sweep) else self.run()

    def text(self, result: Any) -> str:
        return self.render(result, self.title)


# ---- metrics ----------------------------------------------------------

computation = attrgetter("computation_time")
visible = attrgetter("visible_io_time")
restart = attrgetter("restart_time")


def _throughput(result: GENxRunResult) -> float:
    """Apparent write throughput: bytes written / visible output cost."""
    total = sum(c.io_stats.bytes_written for c in result.clients)
    cost = result.visible_io_time
    return total / cost if cost > 0 else 0.0


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
# on each node's 16th CPU and is calibrated to Frost's 375 MHz POWER3s:
# servers ingest slower than Turing's, and clients pay a per-block
# marshalling cost, so one client cannot keep a server busy.

FROST_SERVER = {"ingest_overhead": 2.0e-3, "ingest_bw": 100 * MB}
FROST_CLIENT_PACK = (3.0e-3, 80 * MB)

FIG3A = Sweep(
    preset=frost,
    workload=lambda scale: scalability_cylinder(
        per_client_bytes=scale * MB, steps=2, snapshot_interval=1,
    ),
    rows=[
        row
        for n in (1, 3, 7, 15, 30, 60, 120, 480)
        for row in (
            Row(n, "rocpanda", n, {"rocpanda": _throughput},
                servers=max(1, n // 15), server=FROST_SERVER,
                config={"client_pack": FROST_CLIENT_PACK}),
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

A3 = _ablation(920, [
    Row(ratio, "rocpanda", 32, {
        "visible_io": visible,
        "files": lambda r: float(r.files_created),
        "total_procs": lambda r: float(len(r.clients) + len(r.servers)),
    }, servers=max(1, 32 // ratio), config={"prefix": f"a3_{ratio}"})
    for ratio in (4, 8, 16, 32)
])


def _a4_rows(sweep: Sweep, workload: WorkloadSpec) -> List[Row]:
    """Buffer capacities as fractions of one server's snapshot share,
    measured by a probe job of the same workload."""
    probe = Row(None, "rocpanda", 16, {"snapshot": attrgetter("bytes_written_per_snapshot")},
                servers=2, config={"prefix": "a4p"})
    share = sweep.sample(workload, probe, sweep.seed)["snapshot"] / 2
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

# The full active-buffering hierarchy of [13]: a client-side buffer
# level on top of GENx's production server-side buffering.
A5 = _ablation(960, [
    Row(label, "rocpanda", 16, {"visible_io": visible}, servers=2,
        config={"prefix": f"a5_{on}", "client_buffering": on})
    for label, on in (("server_only", False), ("client+server", True))
])

_VISIBLE_IO = {"visible_io": "visible I/O (s)"}

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
             "Frost (mean of N runs, 95% CI)", _figure("s"), FIG3B),
    Artefact("ablation_a1_active_buffering", "A1 — active buffering on/off "
             "(32 clients + 4 servers, Turing)", _table("mode", _VISIBLE_IO), A1),
    Artefact("ablation_a2_hdf_drivers", "A2 — HDF4 vs HDF5 driver scaling "
             "with dataset count", _a2, micro.run_hdf_driver_scaling),
    Artefact("a2_tiers", "A2b — driver x storage tier", _a2_tiers,
             micro.run_driver_tier_matrix),
    Artefact("ablation_a3_ratio", "A3 — client:server ratio sweep "
             "(32 clients, Turing)", _table("client:server", {
                 **_VISIBLE_IO, "files": "files/snapshot-window",
                 "total_procs": "total procs"}, lambda r: f"{r}:1"), A3),
    Artefact("ablation_a4_buffer", "A4 — server buffer capacity sweep "
             "(16 clients + 2 servers)", _table("buffer (x snapshot share)", {
                 **_VISIBLE_IO, "overflow_flushes": "overflow flushes"}), A4),
    Artefact("ablation_a5_client_buffering", "A5 — client-side buffer level "
             "([13]) on top of server buffering", _table("buffering", _VISIBLE_IO), A5),
    Artefact("ablation_a6_load_balancing", "A6 — dynamic load balancing on "
             "an irregular block set", lambda result, title: render_table(
                 ["partition", "computation time (s)"],
                 [[k, v] for k, v in result.items()], title=title,
             ), micro.run_load_balancing_ablation),
)}
