"""Benchmark harness: the paper registry (Table 1, Fig 3(a), Fig 3(b),
ablations A1-A6), faultbench and scalebench.

Everything here reports *virtual* time except scalebench, which also
times the simulator on the host at 64 to 1024 ranks; the per-workload,
per-layer host clock is ``benchmarks/e2e`` (``--trace 1``).
"""

from .faults import render_faults, run_faultbench, scenario_names
from .micro import (
    run_driver_tier_matrix, run_fig3a_partial_read, run_hdf_driver_scaling,
    run_load_balancing_ablation,
)
from .report import render_series, render_table, write_bench_json
from .scale import (
    bench_scale_point, check_scale_regressions, load_scale_baseline,
    render_scale, run_scalebench,
)
from .sweep import ARTEFACTS, Artefact, Grid, Row, Sweep, sizing, summarize

__all__ = [
    "ARTEFACTS", "Artefact", "Grid", "Row", "Sweep", "sizing", "summarize",
    "run_fig3a_partial_read", "run_hdf_driver_scaling",
    "run_driver_tier_matrix", "run_load_balancing_ablation",
    "render_table", "render_series", "write_bench_json",
    "run_faultbench", "render_faults", "scenario_names",
    "run_scalebench", "render_scale", "check_scale_regressions",
    "load_scale_baseline", "bench_scale_point",
]
