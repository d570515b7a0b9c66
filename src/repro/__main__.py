"""Command-line interface: ``python -m repro <command>``.

Runs the paper's experiments and demos without going through pytest:

* ``paper [NAME ...]`` — the paper's artefacts (Table 1, Fig 3(a),
  Fig 3(b), ablations A1–A6), the simulator's strong and weak scaling
  curves, the restart ledger and the fault-injection chaos matrix, each
  from its one definition in :data:`repro.bench.ARTEFACTS` (default:
  all of them), each checked for its shape
  (:meth:`repro.bench.Artefact.check`);
  ``--baseline`` compares each sweep with a committed run of it
  (:func:`repro.bench.compare`).  A broken shape or a moved cell exits 1
  once every artefact has run
* ``demo``    — a quick GENx run with a timing breakdown
* ``trace``   — per-rank I/O timeline + overlap ratios (repro.obs)

``--quick`` shrinks everything for a fast smoke pass (``paper``: a
quarter of each workload, one run; a scaling curve's 128-client point
alone); ``--out DIR`` also writes the rendered tables (and any
aggregated payload, as ``BENCH_<name>.json``: ``paper``'s holds each
sweep's :meth:`~repro.bench.Grid.payload`) to files.  Host time per
workload and per layer is measured by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import json
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


class _Names(list):
    """``paper``'s choices; no name at all (every artefact) passes too."""

    def __contains__(self, item) -> bool:
        return item == [] or list.__contains__(self, item)


def cmd_paper(args) -> None:
    from .bench import ARTEFACTS, Grid, compare, sizing, write_bench_json

    scale, runs = sizing(args.quick)
    baseline = {}
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    grids, failures = {}, []
    for artefact in (ARTEFACTS[name] for name in args.names or ARTEFACTS):
        result = artefact.result(scale, runs)
        _emit(args, artefact.filename, artefact.text(result))
        try:
            artefact.check(result)
        except AssertionError as broken:
            failures.append(f"SHAPE FAILED: {broken}")
        if not isinstance(result, Grid):
            continue
        grids[artefact.name] = result.payload()
        if args.baseline:
            ratios, found = compare(result, baseline.get(artefact.name), args.max_regression)
            print(f"[{artefact.name} vs baseline: " + (", ".join(
                f"{name} {ratio}x" for name, ratio in ratios.items()
            ) or "no size-matched baseline, not compared") + "]")
            failures += [f"BASELINE MISMATCH: {artefact.name} {failure}" for failure in found]
    if args.out and grids:
        print(f"[saved to {write_bench_json(args.out, 'paper', grids)}]")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        sys.exit(1)


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
        instrumentation[mode] = summary_payload(result.recorder, result.stats())
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


def cmd_trace(args) -> None:
    from .bench import render_table
    from .cluster import Machine, turing
    from .genx import GENxConfig, lab_scale_motor, run_genx
    from .io.rocpanda.server import DRAIN_TERMS, server_drain
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
        payload = summary_payload(recorder, result.stats())
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
            *server_drain(s.stats for s in result.servers).values(),
            int(tier_counters.get("backlog_peak_bytes", 0)),
            int(tier_counters.get("evictions", 0)),
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
    from .bench import ARTEFACTS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Flexible and Efficient Parallel I/O for "
            "Large-Scale Multi-component Simulations' (IPPS 2003)"
        ),
    )
    parser.add_argument("--quick", action="store_true",
                        help="shrink workloads for a fast smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="DIR",
                        help="also save rendered tables under DIR")
    sub = parser.add_subparsers(dest="command", required=True)
    paper = sub.add_parser("paper", help="regenerate the paper's artefacts")
    paper.add_argument("names", nargs="*", metavar="NAME", choices=_Names(ARTEFACTS),
                       help="default: all of " + ", ".join(ARTEFACTS))
    paper.add_argument(
        "--baseline", metavar="PATH",
        help="a BENCH_paper.json to compare each sweep with: fail (exit 1) "
             "on any cell that moved or any host column below the floor",
    )
    paper.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRAC",
        help="host floor for --baseline: host wall, events/s and host MB/s "
             "may be at most FRAC worse (default 0.25)",
    )
    paper.set_defaults(func=cmd_paper)
    sub.add_parser("demo", help="quick three-service comparison run").set_defaults(
        func=cmd_demo)
    trace = sub.add_parser("trace", help="per-rank I/O timeline and overlap ratios")
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
