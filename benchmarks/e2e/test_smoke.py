"""Smoke test of the benchmark itself, at a reduced size, through the same code path.

Run explicitly (tier-1 ``testpaths`` stays ``tests/``)::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import UNGATED_E2E  # noqa: E402

UNGATED = set(UNGATED_E2E)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "payload.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--size", "smoke", "--reps", "2", "--seconds", "0.2",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return json.load(fh), out, proc.stdout


def test_contract_is_within_the_drivers_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert 2 <= len(contract["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in contract["workloads"])
    assert 1 <= len(contract["end_to_end"]) <= 16 and 1 <= len(contract["per_layer"]) <= 128
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in contract["end_to_end"] + contract["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= contract["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_suite_payload_schema(payload, contract):
    data, _, printed = payload
    assert data["schema"] == "e2e-v1"
    assert data["checks"]["hard_failed"] == []
    assert {"nproc", "python", "numpy", "calib_s_before", "calib_s_after",
            "machine_unstable"} <= set(data["machine"])
    assert sorted(data["workloads"]) == sorted(w["name"] for w in contract["workloads"])
    gated = [m["name"] for m in contract["end_to_end"]]
    layer_names = {m["name"] for m in contract["per_layer"]}
    for name, record in data["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] > 0
        assert set(record["end_to_end"]) == set(gated) | UNGATED
        assert all(record["end_to_end"][m]["value"] != 0 for m in gated), name
        missing = layer_names - set(record["per_layer"])
        allowed = {n for n in layer_names if n.startswith("fs.tiers.") and name != "rochdf_burst_64"}
        allowed.add("paper.visible_io_ratio")
        assert missing <= allowed, (name, missing - allowed)
        for key in gated + sorted(UNGATED):
            assert key in printed
        for stat in ("host_wall_s", "host_peak_rss_mb", "setup_s"):
            assert {"value", "unit", "n", "min", "max", "q1", "q3"} <= set(record["end_to_end"][stat])


def test_layer_rollup_sums_to_one(payload):
    data, _, _ = payload
    for name, record in data["workloads"].items():
        shares = record["trace"]["shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9, name
        assert shares["other"] < 0.05, (name, shares["other"])
        assert record["per_layer"]["trace.attributed_share"]["value"] > 0.9, name


def test_the_stack_shows_where_each_workload_says_it_does(payload):
    data, _, _ = payload
    layer = {n: r["per_layer"] for n, r in data["workloads"].items()}
    assert "fs.tiers.absorbed_bytes" in layer["rochdf_burst_64"]
    assert layer["rochdf_burst_64"]["fs.tiers.host_self_s"]["value"] > 0
    assert layer["rochdf_write_64"]["io.rocpanda.server.host_self_s"]["value"] == 0
    assert layer["rocpanda_write_64"]["io.rocpanda.server.host_self_s"]["value"] > 0
    assert layer["trochdf_faults_64"]["io.retries"]["value"] > 0
    assert layer["rochdf_write_64"]["io.retries"]["value"] == 0
    assert layer["rocpanda_restart_64"]["io.blocks_read"]["value"] > 0
    assert layer["rocpanda_restart_64"]["virt_restart_s"]["value"] > 0


def test_driver_lines(contract):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "rocpanda_write_64", "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in contract[key]]
        for m in contract[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_compare_accepts_a_payload_against_itself(payload):
    _, path, _ = payload
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(path), str(path)],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout.replace("0 worse", "")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rochdf_write_64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
