"""Benchmark harness: the paper registry (Table 1, Fig 3(a), Fig 3(b),
ablations A1-A6, the simulator's strong and weak scaling curves, the
restart ledger, and faultbench's chaos matrix, each row one
:func:`checkpoint_restart`).

What the artefacts report is *virtual* time; beside it each sweep
times its jobs on the host (:attr:`Grid.host`, gated by
:func:`compare` against a committed baseline).  The per-workload,
per-layer host clock is ``benchmarks/e2e`` (``--trace 1``).
"""

from .faults import checkpoint_restart, render_faults, run_faultbench, scenario_names
from .micro import (
    run_driver_tier_matrix, run_fig3a_partial_read, run_hdf_driver_scaling,
    run_load_balancing_ablation,
)
from .report import render_series, render_table, write_bench_json
from .sweep import ARTEFACTS, Artefact, Grid, Row, Sweep, compare, sizing, summarize

__all__ = [
    "ARTEFACTS", "Artefact", "Grid", "Row", "Sweep", "compare", "sizing", "summarize",
    "run_fig3a_partial_read", "run_hdf_driver_scaling",
    "run_driver_tier_matrix", "run_load_balancing_ablation",
    "render_table", "render_series", "write_bench_json",
    "checkpoint_restart", "run_faultbench", "render_faults", "scenario_names",
]
