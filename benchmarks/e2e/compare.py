"""Judge payload B (the change) against payload A (the parent).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json B1.json --claim host_wall_s@rocpanda_weak_128 \\
        --pairs A2.json B2.json ... A10.json B10.json

One row per end-to-end metric and workload, judged against the bound in
BENCHMARK.json (metrics it does not gate must not worsen at all):

* ``better``        every run of B reads better than every run of A, or an
                    exact metric improved;
* ``within bound``  B's median is no worse than A's by more than the bound
                    (``moved`` marks an exact metric that changed at all);
* ``worse``         it is worse by more than the bound;
* ``unresolved``    A's own quartile spread is wider than the bound, so the
                    runs cannot tell.

``--claim`` applies the ten-alternating-pairs rule to one metric on one
workload: at least ten A/B pairs, B wins nine tenths of them (ties count
for neither side), and the medians differ by more than the distance
between A's quartiles.  Exit status is non-zero on any ``worse`` row, on
a higher ``ops_failed_share``, or on a claim that is not met.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: A metric this small in absolute terms is noise whatever its share.
ABSOLUTE_SLACK = {"setup_s": 0.1}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, positive = worse, in ``a``'s unit."""
    return b - a if better == "lower" else a - b


def judge(name: str, a: dict, b: dict, better: str, bound: float) -> str:
    worse_by = worsening(a["value"], b["value"], better)
    allowed = max(bound * abs(a["value"]), ABSOLUTE_SLACK.get(name, 0.0))
    if "samples" not in a or "samples" not in b:  # exact: repeats for a seed
        if worse_by > allowed:
            return "worse"
        if worse_by < 0:
            return "better"
        # An exact metric that moved at all is a behaviour change to declare.
        return "within bound" if worse_by == 0 else "within bound (moved)"
    if all(worsening(x, y, better) < 0 for x in a["samples"] for y in b["samples"]):
        return "better"
    if a["n"] > 1 and (a["q3"] - a["q1"]) > allowed:
        return "unresolved"
    return "worse" if worse_by > allowed else "within bound"


def table(a_payload: dict, b_payload: dict, contract: dict):
    gated = {m["name"]: m for m in contract["end_to_end"]}
    direction = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    rows = []
    for workload, a_record in a_payload["workloads"].items():
        b_record = b_payload["workloads"].get(workload)
        if b_record is None:
            continue
        for name, a in a_record["end_to_end"].items():
            b = b_record["end_to_end"].get(name)
            if b is None:
                rows.append((workload, name, a["value"], None, "worse"))
                continue
            bound = gated[name]["bound"] if name in gated else 0.0
            verdict = judge(name, a, b, direction[name], bound)
            rows.append((workload, name, a["value"], b["value"], verdict))
    return rows


def claim(spec: str, pairs, contract: dict):
    """The ten-pairs rule; returns (met, report lines)."""
    metric, _, workload = spec.partition("@")
    direction = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    better = direction[metric]

    def read(payload):
        record = payload["workloads"][workload]
        row = record["end_to_end"].get(metric) or record["per_layer"][metric]
        return row["value"]

    a_values = [read(a) for a, _ in pairs]
    b_values = [read(b) for _, b in pairs]
    wins = sum(worsening(a, b, better) < 0 for a, b in zip(a_values, b_values))
    lines = [f"claim {metric} on {workload}: {len(pairs)} pairs, change wins {wins}"]
    for side, values in (("parent", a_values), ("change", b_values)):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        lines.append(f"  {side}: median {statistics.median(values):.6g} quartiles {q[0]:.6g} .. {q[2]:.6g}")
    if len(pairs) < 10:
        lines.append("  NOT MET: fewer than ten pairs")
        return False, lines
    q = statistics.quantiles(a_values, n=4)
    gap = -worsening(statistics.median(a_values), statistics.median(b_values), better)
    met = wins >= 0.9 * len(pairs) and gap > q[2] - q[0]
    lines.append(
        f"  medians differ by {gap:.6g}, parent quartile distance {q[2] - q[0]:.6g}: "
        + ("MET" if met else "NOT MET")
    )
    return met, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", help="METRIC@WORKLOAD the change claims to improve")
    parser.add_argument("--pairs", nargs="*", default=[], help="further A B A B ... payloads")
    args = parser.parse_args(argv)
    if len(args.pairs) % 2:
        parser.error("--pairs takes parent/change payloads two at a time")

    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    a_payload, b_payload = load(args.parent), load(args.change)
    rows = table(a_payload, b_payload, contract)
    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'metric':<20} {'parent':>14} {'change':>14}  verdict")
    for workload, name, a, b, verdict in rows:
        shown = f"{b:>14.6g}" if b is not None else f"{'missing':>14}"
        print(f"{workload:<{width}}  {name:<20} {a:>14.6g} {shown}  {verdict}")
    failed = [r for r in rows if r[4] == "worse"]
    failed += [r for r in rows if r[1] == "ops_failed_share" and r[3] is not None and r[3] > r[2]]
    tally = {
        v: sum(r[4].startswith(v) for r in rows)
        for v in ("better", "within bound", "worse", "unresolved")
    }
    print(", ".join(f"{n} {v}" for v, n in tally.items()))

    status = 1 if failed else 0
    if args.claim:
        pairs = [(a_payload, b_payload)]
        pairs += [
            (load(a), load(b)) for a, b in zip(args.pairs[::2], args.pairs[1::2])
        ]
        met, lines = claim(args.claim, pairs, contract)
        print("\n".join(lines))
        status = status or (0 if met else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
