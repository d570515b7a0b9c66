"""Benchmark harness: Table 1, Fig 3(a), Fig 3(b), ablations, faultbench
and scalebench.

Everything here reports *virtual* time except scalebench, which also
times the simulator on the host at 64 to 1024 ranks; the per-workload,
per-layer host clock is ``benchmarks/e2e`` (``--trace 1``).
"""

from .ablations import (
    run_active_buffering_ablation,
    run_buffer_size_sweep,
    run_client_buffering_ablation,
    run_driver_tier_matrix,
    run_hdf_driver_scaling,
    run_load_balancing_ablation,
    run_ratio_sweep,
)
from .experiment import bench_runs, bench_scale, repeat_runs, summarize
from .faults import render_faults, run_faultbench, scenario_names
from .fig3a import Fig3aResult, run_fig3a, run_fig3a_partial_read
from .fig3b import Fig3bResult, run_fig3b
from .report import (
    render_instrumentation,
    render_series,
    render_table,
    write_bench_json,
)
from .scale import (
    bench_scale_point,
    check_scale_regressions,
    load_scale_baseline,
    render_scale,
    run_scalebench,
)
from .table1 import Table1Result, run_table1

__all__ = [
    "run_table1",
    "Table1Result",
    "run_fig3a",
    "run_fig3a_partial_read",
    "Fig3aResult",
    "run_fig3b",
    "Fig3bResult",
    "run_active_buffering_ablation",
    "run_hdf_driver_scaling",
    "run_driver_tier_matrix",
    "run_ratio_sweep",
    "run_buffer_size_sweep",
    "run_client_buffering_ablation",
    "run_load_balancing_ablation",
    "render_table",
    "render_series",
    "render_instrumentation",
    "write_bench_json",
    "repeat_runs",
    "summarize",
    "bench_scale",
    "bench_runs",
    "run_faultbench",
    "render_faults",
    "scenario_names",
    "run_scalebench",
    "render_scale",
    "check_scale_regressions",
    "load_scale_baseline",
    "bench_scale_point",
]
