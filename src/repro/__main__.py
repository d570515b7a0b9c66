"""Command-line interface: ``python -m repro <command>``.

Runs the paper's experiments and demos without going through pytest:

* ``table1``  — Table 1 (Turing computation & I/O times)
* ``fig3a``   — Fig 3(a) (Frost apparent write throughput)
* ``fig3b``   — Fig 3(b) (Frost SMP layout comparison)
* ``ablations`` — the A1–A6 design-choice studies
* ``demo``    — a quick GENx run with a timing breakdown
* ``trace``   — per-rank I/O timeline + overlap ratios (repro.obs)
* ``perfbench``  — wall-clock microbenchmarks of the simulator itself
* ``scalebench`` — simulator scaling curves at 64..1024 ranks
* ``faultbench`` — fault-injection chaos matrix + recovery rates

``--quick`` shrinks everything for a fast smoke pass; ``--out DIR``
also writes the rendered tables (and, where a command produces one,
the aggregated instrumentation payload as ``BENCH_<name>.json``) to
files.
"""

from __future__ import annotations

import argparse
import os
import sys


def _emit(args, name: str, text: str, payload=None) -> None:
    print(text)
    print()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"[saved to {path}]")
        if payload is not None:
            from .bench import write_bench_json

            jpath = write_bench_json(args.out, os.path.splitext(name)[0], payload)
            print(f"[saved to {jpath}]")


def cmd_table1(args) -> None:
    from .bench import run_table1

    result = run_table1(
        proc_counts=(16, 32, 64),
        nruns=2 if args.quick else args.runs,
        scale=0.25 if args.quick else 1.0,
    )
    _emit(args, "table1.txt", result.render())


def cmd_fig3a(args) -> None:
    from .bench import run_fig3a, run_fig3a_partial_read

    counts = (1, 3, 7, 15, 30) if args.quick else (1, 3, 7, 15, 30, 60, 120, 480)
    result = run_fig3a(proc_counts=counts, nruns=1 if args.quick else args.runs,
                       steps=2, snapshot_interval=1)
    partial_lines = []
    for module in ("rochdf", "trochdf"):
        pr = run_fig3a_partial_read(
            nprocs=4 if args.quick else 15,
            nblocks_per_rank=2 if args.quick else 4,
            nelems=512 if args.quick else 4096,
            module=module,
        )
        partial_lines.append(
            f"partial attribute read, {module} (1 of 4 attrs, "
            f"{pr['nprocs']} procs): "
            f"{pr['partial_read_s']*1e3:.2f} ms sieved vs "
            f"{pr['full_read_s']*1e3:.2f} ms full-record scan "
            f"({pr['speedup']:.2f}x less visible read time)"
        )
    _emit(args, "fig3a.txt", result.render() + "\n" + "\n".join(partial_lines))


def cmd_fig3b(args) -> None:
    from .bench import run_fig3b

    counts = (15, 60) if args.quick else (15, 60, 240)
    result = run_fig3b(
        proc_counts=counts,
        nruns=1 if args.quick else args.runs,
        per_client_bytes=0.25 * 1024 * 1024,
        steps=10,
        step_seconds=20.0,
        snapshot_interval=5,
    )
    _emit(args, "fig3b.txt", result.render())


def cmd_ablations(args) -> None:
    from .bench import (
        render_table,
        run_active_buffering_ablation,
        run_buffer_size_sweep,
        run_client_buffering_ablation,
        run_driver_tier_matrix,
        run_hdf_driver_scaling,
        run_load_balancing_ablation,
        run_ratio_sweep,
    )

    a1 = run_active_buffering_ablation()
    _emit(args, "a1.txt", render_table(
        ["mode", "visible I/O (s)"], [[k, v] for k, v in a1.items()],
        title="A1 — active buffering on/off",
    ))
    a2 = run_hdf_driver_scaling()
    rows = []
    for driver, cells in a2.items():
        for count, (w, r) in sorted(cells.items()):
            rows.append([driver, count, w, r])
    _emit(args, "a2.txt", render_table(
        ["driver", "datasets", "write (s)", "read (s)"], rows,
        title="A2 — HDF4 vs HDF5 scaling",
    ))
    a2t = run_driver_tier_matrix(ndatasets=100 if args.quick else 800)
    rows = [
        [
            driver, tier, v["visible_write_s"], v["durable_s"],
            (v["durable_s"] - v["visible_write_s"]) * 1e3,
        ]
        for driver, tiers in a2t.items()
        for tier, v in tiers.items()
    ]
    _emit(args, "a2_tiers.txt", render_table(
        ["driver", "tier", "visible write (s)", "durable (s)", "drain tail (ms)"],
        rows,
        title="A2b — driver x storage tier",
    ))
    a3 = run_ratio_sweep()
    _emit(args, "a3.txt", render_table(
        ["ratio", "visible I/O (s)", "files"],
        [[f"{k}:1", v["visible_io"], v["files"]] for k, v in sorted(a3.items())],
        title="A3 — client:server ratio",
    ))
    a4 = run_buffer_size_sweep()
    _emit(args, "a4.txt", render_table(
        ["buffer (x snapshot)", "visible I/O (s)", "flushes"],
        [[k, v["visible_io"], v["overflow_flushes"]] for k, v in sorted(a4.items())],
        title="A4 — server buffer capacity",
    ))
    a5 = run_client_buffering_ablation()
    _emit(args, "a5.txt", render_table(
        ["buffering", "visible I/O (s)"], [[k, v] for k, v in a5.items()],
        title="A5 — client-side buffer level",
    ))
    a6 = run_load_balancing_ablation()
    _emit(args, "a6.txt", render_table(
        ["partition", "computation (s)"], [[k, v] for k, v in a6.items()],
        title="A6 — dynamic load balancing",
    ))


def cmd_demo(args) -> None:
    from .bench import render_table
    from .cluster import Machine, turing
    from .genx import GENxConfig, lab_scale_motor, run_genx
    from .obs import overlap_ratio, summary_payload

    scale = 0.02 if args.quick else 0.1
    workload = lab_scale_motor(
        scale=scale, nblocks_fluid=32, nblocks_solid=16,
        steps=40, snapshot_interval=10,
    )
    rows = []
    instrumentation = {}
    for mode, nservers in (("rochdf", 0), ("trochdf", 0), ("rocpanda", 2)):
        machine = Machine(turing(), seed=args.seed)
        nprocs = 16 + nservers
        result = run_genx(
            machine, nprocs,
            GENxConfig(workload=workload, io_mode=mode, nservers=nservers,
                       prefix=f"demo_{mode}"),
        )
        instrumentation[mode] = summary_payload(result.recorder)
        rows.append([
            mode, result.computation_time, result.visible_io_time,
            overlap_ratio(result.recorder.io_records, module=mode),
            result.files_created,
        ])
    _emit(args, "demo.txt", render_table(
        ["I/O service", "computation (s)", "visible I/O (s)", "overlap", "files"],
        rows,
        title="GENx demo: 16 compute processors on simulated Turing",
    ), payload={"modes": instrumentation})


def cmd_perfbench(args) -> None:
    from .bench.perf import (
        DEFAULT_BASELINE_PATH,
        DEFAULT_QUICK_BASELINE_PATH,
        check_regressions,
        load_baseline,
        profile_stats,
        render_perf,
        run_perfbench,
    )

    default_baseline = (
        DEFAULT_QUICK_BASELINE_PATH if args.quick else DEFAULT_BASELINE_PATH
    )
    baseline = load_baseline(args.baseline or default_baseline)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    payload = run_perfbench(
        quick=args.quick, baseline=baseline, skip_e2e=args.skip_e2e
    )
    if profiler is not None:
        profiler.disable()
        print(profile_stats(profiler, top=20))
    _emit(args, "perf.txt", render_perf(payload), payload=payload)
    if args.max_regression is not None:
        if profiler is not None:
            # cProfile's tracing overhead lands inside every timed
            # region; rates measured under it cannot be compared to an
            # unprofiled baseline.
            print("[--profile active: skipping regression gate]")
            return
        if "speedup_vs_baseline" not in payload:
            print("[no size-matched baseline: skipping regression gate]")
            return
        regressed = check_regressions(payload, args.max_regression)
        if regressed:
            floor = 1.0 - args.max_regression
            for name, speedup in regressed:
                print(
                    f"REGRESSION: {name} at {speedup}x baseline "
                    f"(floor {floor:.2f}x)", file=sys.stderr,
                )
            sys.exit(1)
        print(f"[no micro below {1.0 - args.max_regression:.2f}x baseline]")


def cmd_scalebench(args) -> None:
    from .bench.scale import (
        DEFAULT_SCALE_BASELINE_PATH,
        DEFAULT_SCALE_QUICK_BASELINE_PATH,
        check_scale_regressions,
        check_scale_virtual,
        load_scale_baseline,
        render_scale,
        run_scalebench,
    )

    default_baseline = (
        DEFAULT_SCALE_QUICK_BASELINE_PATH
        if args.quick
        else DEFAULT_SCALE_BASELINE_PATH
    )
    baseline = load_scale_baseline(args.baseline or default_baseline)
    points = tuple(args.points) if args.points else None
    payload = run_scalebench(quick=args.quick, baseline=baseline, points=points)
    _emit(args, "scaling.txt", render_scale(payload), payload=payload)
    if args.max_regression is not None:
        if "speedup_vs_baseline" not in payload:
            print("[no size-matched baseline: skipping regression gate]")
            return
        # The quick points' virtual clocks are exact at the bench's seed.
        moved = check_scale_virtual(payload) if args.quick else []
        for name, old, new in moved:
            print(f"VIRTUAL MISMATCH: {name} {old} -> {new}", file=sys.stderr)
        regressed = check_scale_regressions(payload, args.max_regression)
        floor = 1.0 - args.max_regression
        for name, speedup in regressed:
            print(
                f"REGRESSION: {name} at {speedup}x baseline "
                f"(floor {floor:.2f}x)", file=sys.stderr,
            )
        if moved or regressed:
            sys.exit(1)
        print(f"[no point below {1.0 - args.max_regression:.2f}x baseline]")


def cmd_faultbench(args) -> None:
    from .bench.faults import DEFAULT_PERF_PATH, render_faults, run_faultbench

    payload = run_faultbench(
        quick=args.quick,
        seed=args.seed,
        skip_overhead=args.skip_overhead,
        perf_path=args.perf_baseline or DEFAULT_PERF_PATH,
        only=args.only or None,
    )
    _emit(args, "faults.txt", render_faults(payload), payload=payload)


def cmd_trace(args) -> None:
    from .bench import render_table
    from .bench.scale import DRAIN_TERMS, server_drain
    from .cluster import Machine, turing
    from .genx import GENxConfig, lab_scale_motor, run_genx
    from .obs import overlap_ratio, render_timeline, summary_payload

    modes = (
        ["rochdf", "trochdf", "rocpanda"]
        if args.scenario == "all"
        else [args.scenario]
    )
    workload = lab_scale_motor(
        scale=0.02, nblocks_fluid=8, nblocks_solid=4,
        steps=8, snapshot_interval=4,
    )
    sections = []
    rows = []
    payloads = {}
    for mode in modes:
        nservers = 1 if mode == "rocpanda" else 0
        machine = Machine(turing(), seed=args.seed)
        result = run_genx(
            machine, 4 + nservers,
            GENxConfig(workload=workload, io_mode=mode, nservers=nservers,
                       prefix=f"trace_{mode}", storage_tier=args.tier),
        )
        recorder = result.recorder
        # Module-level records only: the per-dataset "shdf" stream is
        # too chatty for a terminal timeline (it stays in the JSON).
        module_records = [r for r in recorder.io_records if r.module != "shdf"]
        sections.append(f"=== {mode} ===")
        sections.append(
            render_timeline(module_records, limit_per_rank=args.limit)
        )
        payload = summary_payload(recorder)
        payloads[mode] = payload
        mod = payload["modules"].get(mode, {})
        counters = payload["counters"].get(mode, {})
        tier_counters = payload["counters"].get("tier", {})
        tier_mod = payload["modules"].get("tier", {})
        # Overlap over the module *and* the storage tier's drain stream:
        # under tier="burst" the hidden work is the write-behind drain.
        overlap_records = [
            r for r in recorder.io_records if r.module in (mode, "tier")
        ]
        rows.append([
            mode,
            mod.get("visible_write_time", 0.0),
            mod.get("background_time", 0.0) + tier_mod.get("background_time", 0.0),
            overlap_ratio(overlap_records),
            payload["comm"]["messages_sent"],
            payload["comm"]["bytes_sent"],
            int(counters.get("overflow_flushes", 0)),
            int(counters.get("retries", 0) + counters.get("write_retries", 0)),
            int(counters.get("failovers", 0)),
            int(counters.get("write_flushes", 0)),
            *server_drain(result).values(),
            int(tier_counters.get("drain_backlog_bytes", 0)),
            int(tier_counters.get("tier_evictions", 0)),
            int(tier_counters.get("drain_flushes", 0)),
        ])
    sections.append(render_table(
        ["service", "visible write (s)", "background (s)", "overlap",
         "messages", "bytes on wire", "flushes", "retries", "failovers",
         "write flushes", *(f"{t.replace('_', ' ')} (s)" for t in DRAIN_TERMS),
         "drain backlog (B)", "tier evict", "drain flushes"],
        rows,
        title="Instrumentation summary (overlap = background / (background + visible write))",
    ))
    _emit(args, "trace.txt", "\n".join(sections), payload={"scenarios": payloads})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Flexible and Efficient Parallel I/O for "
            "Large-Scale Multi-component Simulations' (IPPS 2003)"
        ),
    )
    parser.add_argument("--quick", action="store_true",
                        help="shrink workloads for a fast smoke pass")
    parser.add_argument("--runs", type=int, default=3,
                        help="repetitions per configuration (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="DIR",
                        help="also save rendered tables under DIR")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("table1", cmd_table1, "reproduce Table 1 (Turing)"),
        ("fig3a", cmd_fig3a, "reproduce Fig 3(a) (Frost throughput)"),
        ("fig3b", cmd_fig3b, "reproduce Fig 3(b) (Frost SMP layouts)"),
        ("ablations", cmd_ablations, "run the A1-A6 ablation studies"),
        ("demo", cmd_demo, "quick three-service comparison run"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
    perf = sub.add_parser(
        "perfbench",
        help="wall-clock microbenchmarks of the simulator's hot paths",
    )
    perf.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline BENCH_perf JSON to compare against "
             "(default: bench_results/BENCH_perf_baseline.json)",
    )
    perf.add_argument(
        "--skip-e2e", action="store_true",
        help="skip the end-to-end table1(64p) wall-clock run",
    )
    perf.add_argument(
        "--profile", action="store_true",
        help="run the suite under cProfile and print the top-20 "
             "cumulative-time entries",
    )
    perf.add_argument(
        "--max-regression", type=float, default=None, metavar="FRAC",
        help="fail (exit 1) if any microbenchmark is more than FRAC "
             "slower than the committed baseline (e.g. 0.25)",
    )
    perf.set_defaults(func=cmd_perfbench)
    scale = sub.add_parser(
        "scalebench",
        help="simulator scaling curves, 64 -> 1024 ranks "
             "(--quick: 128-client point only)",
    )
    scale.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline BENCH_scaling JSON to compare against "
             "(default: bench_results/BENCH_scaling_baseline[_quick].json)",
    )
    scale.add_argument(
        "--points", type=int, nargs="+", default=None, metavar="N",
        help="client counts to run instead of the standard sweep",
    )
    scale.add_argument(
        "--max-regression", type=float, default=None, metavar="FRAC",
        help="fail (exit 1) if any curve point's host wall, events/s or "
             "host MB/s is more than FRAC worse than the committed "
             "baseline (e.g. 0.25)",
    )
    scale.set_defaults(func=cmd_scalebench)
    faults = sub.add_parser(
        "faultbench",
        help="chaos matrix: fault injection x I/O module recovery rates",
    )
    faults.add_argument(
        "--skip-overhead", action="store_true",
        help="skip the no-fault table1(64p) overhead measurement",
    )
    faults.add_argument(
        "--perf-baseline", default=None, metavar="PATH",
        help="committed BENCH_perf JSON the overhead compares against "
             "(default: bench_results/BENCH_perf.json)",
    )
    faults.add_argument(
        "--only", action="append", metavar="SCENARIO/MODULE",
        help="run only this chaos-matrix row (repeatable); "
             "see repro.bench.scenario_names()",
    )
    faults.set_defaults(func=cmd_faultbench)
    trace = sub.add_parser(
        "trace", help="per-rank I/O timeline and overlap ratios"
    )
    trace.add_argument(
        "scenario", nargs="?", default="all",
        choices=("all", "rochdf", "trochdf", "rocpanda"),
        help="which I/O service to trace (default: all three)",
    )
    trace.add_argument(
        "--limit", type=int, default=12,
        help="max records shown per rank (default 12)",
    )
    trace.add_argument(
        "--tier", default="direct", choices=("direct", "burst"),
        help="storage tier to run the traced jobs through "
             "(burst = memory-speed absorb + write-behind drain)",
    )
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
