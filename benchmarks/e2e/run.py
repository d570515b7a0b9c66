"""Two-clock benchmark of the whole I/O stack (see README.md beside this file).

Driver form, one workload, one JSON result line::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Suite form, every workload, repetitions interleaved, one payload::

    python3 benchmarks/e2e/run.py [--seed 100] [--reps 5] [--only W] [--out FILE]

Every repetition runs in a fresh child interpreter (this same file with
``--child``); the parent only spawns, aggregates, checks and prints.
"""

import time

_T0 = time.perf_counter()  # a child's set-up time is measured from here

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Longest a child may run before it is killed and its blocks count failed.
CHILD_TIMEOUT_S = 150
#: Set-up-only children per driver run, so setup_s is a median of three.
EXTRA_SETUPS = 2
#: End-to-end metrics that are structurally zero on some workload; the
#: driver's contract wants gated metrics never zero, so BENCHMARK.json
#: lists these under per_layer and the suite prints them with the rest.
UNGATED_E2E = (
    "virt_compute_s", "virt_final_sync_s", "virt_overlap_ratio",
    "virt_restart_s", "ops_failed_share",
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_golden(size: str) -> dict:
    """Committed digests and pins; empty when they do not apply to ``size``."""
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        if golden.get("size") == size:
            return golden
    return {}


def is_host_dependent(name: str) -> bool:
    """Per-layer metrics that vary run to run; all others repeat exactly."""
    return "host" in name or name.startswith("trace.")


# -- children ---------------------------------------------------------------


def child_main(args) -> int:
    import child

    golden = None if args.write_golden else load_golden(args.size).get("datasets")
    out = child.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, _T0, golden
    )
    print(json.dumps(out))
    return 0


def spawn(name: str, seed: int, seconds: float, trace: int, size: str,
          write_golden: bool = False) -> dict:
    """Run one child to completion; ``{"error": ...}`` if it died or hung.

    ``write_golden`` makes the child judge its snapshots against each
    other only, so a declared change of the data can be re-pinned.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
    ] + ["--write-golden"] * write_golden
    # One hash seed for every child: dict and set order, and with them
    # allocation patterns, stay the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S}s and was killed"}
    if proc.returncode != 0:
        return {"error": f"child exited with code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


# -- aggregation --------------------------------------------------------------


def at_nominal_speed(seconds, calibs) -> float:
    """Median of host timings, each scaled by the calibration taken beside it."""
    import child

    ratios = [s / c for s, c in zip(seconds, calibs)]
    return statistics.median(ratios) * child.CALIB_NOMINAL_S


def spread_stats(values) -> dict:
    """Median with the evidence behind it."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values), "n": len(values),
        "min": values[0], "max": values[-1], "q1": q1, "q3": q3, "samples": values,
    }


def summarise(name: str, children: list, contract: dict) -> dict:
    """Fold the children of one workload into its end-to-end and per-layer rows.

    ``children`` mixes full repetitions, set-up-only samples and at most
    one traced child.  Host metrics become medians over repetitions;
    virtual metrics and counts must be identical in every child.
    """
    hard, soft = [], []
    for c in children:
        if "error" in c:
            hard.append(f"{name}: {c['error']}")
    reps = [c for c in children if c.get("walls")]
    traced = next((c for c in reps if "trace" in c), None)
    record = {"end_to_end": {}, "per_layer": {}, "hard": hard, "soft": soft}
    attempted = sum(c.get("attempted", 0) for c in children)
    failed = sum(c.get("failed", 0) for c in children)
    if not reps or any("error" in c for c in children):
        # Nothing measured: every block the workload owed is a failure.
        attempted, failed = max(attempted, 1), max(attempted, 1)
        record.update(attempted=attempted, failed=failed)
        return record
    for c in children:
        hard.extend(f"{name}: {e}" for e in c.get("errors", []))
        if c.get("unrepeatable"):
            hard.append(f"{name}: differs between jobs of one process: {c['unrepeatable']}")
    record.update(
        attempted=attempted, failed=failed,
        dataset=reps[0]["dataset"], digests=reps[0]["digests"],
    )

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    e2e = record["end_to_end"]
    e2e["host_wall_s"] = spread_stats([at_nominal_speed(c["walls"], c["calibs"]) for c in reps])
    e2e["host_peak_rss_mb"] = spread_stats([c["rss_mb"] for c in reps])
    e2e["setup_s"] = spread_stats(
        [at_nominal_speed([c["setup_s"]], [c["setup_calib_s"]]) for c in children]
    )
    host_wall = e2e["host_wall_s"]["value"]

    counts = reps[0]["counts"]
    for c in reps[1:]:
        differing = sorted(k for k in counts if c["counts"].get(k) != counts[k])
        if differing:
            hard.append(f"{name}: differs between repetitions: {differing}")
    layer = dict(counts)
    layer["ops_failed_share"] = failed / attempted
    virt_walls = [c["counts"]["virt_wall_s"] for c in reps]
    layer["check.virt_spread"] = max(
        max(virt_walls) - min(virt_walls), max(c["virt_spread"] for c in reps)
    )
    if layer["check.virt_spread"] != 0:
        hard.append(f"{name}: virt_wall_s spread {layer['check.virt_spread']!r}")
    for metric in contract["end_to_end"]:
        if metric["name"] in layer:
            e2e[metric["name"]] = {"value": layer.pop(metric["name"])}
    for metric_name in UNGATED_E2E:
        e2e[metric_name] = {"value": layer[metric_name]}

    # Host-derived: each is a ratio of two numbers already reported.
    layer["des.host_us_per_event"] = host_wall / layer["des.events"] * 1e6
    layer["job.host_mb_per_s"] = layer["io.payload_bytes"] / 2**20 / host_wall
    layer["job.host_events_per_s"] = layer["des.events"] / host_wall
    layer["job.virt_s_per_host_s"] = e2e["virt_wall_s"]["value"] / host_wall
    layer["job.host_cold_s"] = statistics.median(c["cold_s"] for c in reps)
    layer["job.host_raw_wall_s"] = statistics.median(w for c in reps for w in c["walls"])
    layer["machine.host_calib_slice_s"] = statistics.median(x for c in reps for x in c["calibs"])

    if traced is not None:
        trace = traced["trace"]
        total = sum(trace["seconds"].values())
        for layer_name, seconds in trace["seconds"].items():
            layer[f"{layer_name}.host_self_s"] = seconds
        layer["trace.overhead_ratio"] = at_nominal_speed(
            [trace["wall_s"]], [trace["calib_s"]]
        ) / at_nominal_speed(traced["walls"], traced["calibs"])
        # cProfile stops its clock while it does its own bookkeeping, so
        # function times sum to less than the traced wall; the parts below
        # sum to the profiled total by construction.
        layer["trace.profiled_share"] = total / trace["wall_s"]
        layer["trace.attributed_share"] = 1.0 - trace["seconds"]["other"] / total
        layer["trace.py_calls"] = trace["py_calls"]
        record["trace"] = {
            "wall_s": trace["wall_s"],
            "shares": {k: v / total for k, v in trace["seconds"].items()},
        }
        if layer["trace.attributed_share"] < 0.99:
            soft.append(f"{name}: only {layer['trace.attributed_share']:.4f} of profiled time has a layer")

    for key in ("check.payload_bytes_equal", "check.tier_drained_eq_disk"):
        if not layer[key]:
            soft.append(f"{name}: {key} does not hold")
    tiered = reps[0]["burst_tier"]
    if any(k.startswith("fs.tiers.") for k in counts) != tiered:
        soft.append(f"{name}: fs.tiers counters present on a direct tier or absent on burst")

    for key, value in e2e.items():
        value["unit"] = units[key]
    record["per_layer"] = {
        k: {"value": v, "unit": units[k]} for k, v in sorted(layer.items()) if k in units
    }
    for metric in contract["per_layer"]:
        key = metric["name"]
        absent_ok = (
            key.startswith("fs.tiers.") and not tiered
            or key == "paper.visible_io_ratio"
            or (key.endswith(".host_self_s") or key.startswith("trace.")) and traced is None
        )
        if key not in record["per_layer"] and not absent_ok:
            hard.append(f"{name}: metric {key} missing")
    return record


# -- driver form ---------------------------------------------------------------


def driver_main(args, contract) -> int:
    """One workload, one line: the contract in BENCHMARK.json."""
    children = []
    if not args.trace:
        children += [spawn(args.workload, args.seed, 0, 0, args.size) for _ in range(EXTRA_SETUPS)]
    children.append(spawn(args.workload, args.seed, args.seconds, args.trace, args.size))
    record = summarise(args.workload, children, contract)
    for line in record["hard"] + record["soft"]:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = {
            m["name"]: record["per_layer"].get(m["name"], {"value": 0, "unit": m["unit"]})
            for m in contract["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {k: record["end_to_end"][m["name"]][k] for k in ("value", "unit")}
            for m in contract["end_to_end"] if m["name"] in record["end_to_end"]
        }
    correct = not record["hard"] and record["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


# -- suite form ------------------------------------------------------------------


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def suite_main(args, contract) -> int:
    import numpy as np

    import child

    def calibrate():  # ~0.5 s of the kernel every host timing is scaled by
        return sum(child.calibration_slice() for _ in range(35))

    names = [w["name"] for w in contract["workloads"]]
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown or args.write_golden:
            sys.exit(f"--only takes names from {names} and excludes --write-golden")
        names = [n for n in names if n in args.only]
    calib_before = calibrate()

    children = {name: [] for name in names}
    for rep in range(args.reps):  # round-robin, so machine drift is shared
        for name in names:
            print(f"rep {rep + 1}/{args.reps} {name}", file=sys.stderr)
            children[name].append(
                spawn(name, args.seed, args.seconds, 0, args.size, args.write_golden)
            )
    for name in names:
        print(f"traced {name}", file=sys.stderr)
        children[name].append(
            spawn(name, args.seed, args.seconds, 1, args.size, args.write_golden)
        )
    calib_after = calibrate()

    records = {name: summarise(name, children[name], contract) for name in names}
    hard = [line for r in records.values() for line in r.pop("hard")]
    soft = [line for r in records.values() for line in r.pop("soft")]
    golden = load_golden(args.size) if not args.write_golden else {}
    cross_checks(records, hard, soft)
    if golden and golden.get("seed") == args.seed:
        soft.extend(pin_drift(records, golden["pins"]))

    payload = {
        "schema": "e2e-v1",
        "commit": git_commit(),
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds, "size": args.size,
        "statistic": "median over repetitions of each child's median timed job, "
                     "each timing divided by the calibration taken beside it",
        "calib_nominal_s": child.CALIB_NOMINAL_S,
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "calib_s_before": calib_before, "calib_s_after": calib_after,
            "machine_unstable": abs(calib_after - calib_before) > 0.1 * calib_before,
        },
        "workloads": records,
        "checks": {"hard_failed": hard, "soft_failed": soft},
    }
    print(render(payload, contract))
    if args.write_golden and not hard:
        write_golden(records, args)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 1 if hard else 0


def cross_checks(records, hard, soft) -> None:
    """Workloads that write one dataset must leave the same bytes behind."""
    by_dataset = {}
    for name, record in records.items():
        if record.get("digests"):
            by_dataset.setdefault(record["dataset"], []).append(name)
    for names in by_dataset.values():
        digests = {
            json.dumps(next(iter(records[n]["digests"].values())), sort_keys=True) for n in names
        }
        if len(digests) > 1:
            hard.append(f"last snapshots of {names} do not digest equal")
        payloads = {n: records[n]["per_layer"]["io.payload_bytes"]["value"] for n in names}
        if len(set(payloads.values())) > 1:
            soft.append(f"check.payload_bytes_equal across one dataset: {payloads}")


def pins(record) -> dict:
    """Every metric of one workload that must repeat exactly."""
    out = {
        k: v["value"] for k, v in record["end_to_end"].items()
        if "samples" not in v
    }
    out.update(
        (k, v["value"]) for k, v in record["per_layer"].items() if not is_host_dependent(k)
    )
    return out


def pin_drift(records, pinned) -> list:
    lines = []
    for name, record in records.items():
        for key, value in pins(record).items():
            want = pinned.get(name, {}).get(key)
            if want != value:
                lines.append(
                    f"{name}: {key} = {value!r}, golden.json pins {want!r} "
                    "(declare the change in CHANGES.md and run --write-golden)"
                )
    return lines


def write_golden(records, args) -> None:
    golden = {
        "seed": args.seed, "size": args.size,
        "datasets": {r["dataset"]: next(iter(r["digests"].values())) for r in records.values()},
        "pins": {name: pins(record) for name, record in records.items()},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)


def render(payload, contract) -> str:
    """Every metric by name with its unit, one block per workload."""
    lines = []
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name, record in payload["workloads"].items():
        lines.append(f"== {name}  (blocks checked {record['attempted']}, failed {record['failed']})")
        for key, m in record["end_to_end"].items():
            spread = f"  [n={m['n']} min {m['min']:.4g} max {m['max']:.4g}]" if "n" in m else ""
            lines.append(f"  {key:<24} {m['value']:>14.6g} {m['unit']:<8} {better[key]} is better{spread}")
        shares = record.get("trace", {}).get("shares", {})
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        lines.append("  traced host share: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        for key, m in record["per_layer"].items():
            lines.append(f"    {key:<44} {m['value']:>16.6g} {m['unit']}")
    machine = payload["machine"]
    lines.append(
        f"calibration {machine['calib_s_before']:.3f}s before, {machine['calib_s_after']:.3f}s "
        f"after{' (MACHINE UNSTABLE)' if machine['machine_unstable'] else ''}"
    )
    for kind in ("hard_failed", "soft_failed"):
        for line in payload["checks"][kind]:
            lines.append(f"{kind.upper()}: {line}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="driver form: run this workload only")
    parser.add_argument("--seed", type=int, default=100, help="Machine(seed=...) and nothing else")
    parser.add_argument("--seconds", type=float, help="time budget of one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="suite form: repetitions per workload")
    parser.add_argument("--only", action="append", help="suite form: restrict to this workload")
    parser.add_argument("--out", help="suite form: write the JSON payload here")
    parser.add_argument("--write-golden", action="store_true", help="regenerate golden.json")
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if args.child:
        return child_main(args)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 5.0 if args.workload is None else float(contract["run_seconds"])
    if args.workload is not None:
        return driver_main(args, contract)
    return suite_main(args, contract)


if __name__ == "__main__":
    sys.exit(main())
