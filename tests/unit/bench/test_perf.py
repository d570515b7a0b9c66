"""Unit tests for the wall-clock perfbench harness."""

import json

import pytest

from repro.bench.perf import (
    DEFAULT_BASELINE_PATH,
    bench_codec,
    bench_des_events,
    bench_mailbox_backlog,
    bench_mailbox_waiters,
    bench_tier_absorb,
    bench_tier_drain_overlap,
    bench_vmpi_msgrate,
    load_baseline,
    render_perf,
    run_perfbench,
)


EXPECTED_MICROS = [
    "des_events",
    "des_dispatch",
    "mailbox_backlog_indexed",
    "mailbox_waiters_indexed",
    "vmpi_msgrate_indexed",
    "codec_encode",
    "codec_decode",
    "codec_decode_zero_copy",
    "ship_batched",
    "restart_twophase",
    "vfs_coalesce",
    "vfs_read_coalesce",
    "tier_absorb_burst",
    "tier_absorb_direct",
    "tier_drain_overlap",
]


class TestMicrobenches:
    def test_des_events_counts_all_events(self):
        out = bench_des_events(nevents=500)
        assert out["ops"] == 500
        assert out["ops_per_sec"] > 0

    def test_mailbox_backlog_counts_every_take(self):
        out = bench_mailbox_backlog(nsources=8, rounds=3)
        assert out["ops"] == 24

    def test_mailbox_waiters_counts_every_delivery(self):
        out = bench_mailbox_waiters(nsources=8, rounds=3)
        assert out["ops"] == 24

    def test_vmpi_msgrate_counts_every_message(self):
        out = bench_vmpi_msgrate(nranks=4, nmsgs=3)
        assert out["ops"] == 9

    def test_codec_reports_all_three_modes(self):
        out = bench_codec(ndatasets=2, nbytes_each=1 << 12, repeats=2)
        assert set(out) == {"encode", "decode", "decode_zero_copy"}
        for numbers in out.values():
            assert numbers["mb_per_sec"] > 0

    @pytest.mark.parametrize("tier", ["burst", "direct"])
    def test_tier_absorb_both_tiers(self, tier):
        out = bench_tier_absorb(ndatasets=8, repeats=2, tier=tier)
        assert out["ops"] == 16
        assert out["ops_per_sec"] > 0

    def test_tier_drain_overlap_forces_pressure(self):
        # The internal assert verifies spills/evictions happened.
        out = bench_tier_drain_overlap(ndatasets=8, repeats=2)
        assert out["ops"] == 16


class TestSuite:
    def test_payload_shape_and_speedups(self):
        payload = run_perfbench(quick=True, skip_e2e=True)
        assert payload["schema"] == "perfbench-v1"
        assert payload["quick"] is True
        assert "e2e" not in payload
        # Every micro times the product; the names are the committed
        # baselines' keys.
        assert list(payload["micro"]) == EXPECTED_MICROS
        # Feed the run back in as its own baseline: every speedup ~1.
        speed_payload = _with_baseline(dict(payload), payload)
        assert speed_payload["speedup_vs_baseline"]
        for name, s in speed_payload["speedup_vs_baseline"].items():
            assert s == pytest.approx(1.0, abs=1e-6), name

    def test_render_includes_every_benchmark(self):
        payload = {
            "schema": "perfbench-v1",
            "quick": True,
            "sizes": {},
            "micro": {
                "des_events": {"ops": 10, "seconds": 0.1, "ops_per_sec": 100.0},
                "codec_encode": {"mbytes": 1, "repeats": 1, "seconds": 0.5, "mb_per_sec": 2.0},
            },
            "speedup_vs_baseline": {"des_events": 2.5},
        }
        out = render_perf(payload)
        assert "des_events" in out
        assert "codec_encode" in out
        assert "2.5" in out

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None

    def test_committed_baseline_loads(self):
        baseline = load_baseline(DEFAULT_BASELINE_PATH)
        if baseline is None:
            pytest.skip("baseline not present (fresh checkout)")
        assert baseline["schema"] == "perfbench-v1"
        assert sorted(baseline["micro"]) == sorted(EXPECTED_MICROS)

    def test_payload_is_json_serializable(self):
        payload = {
            "micro": bench_codec(ndatasets=1, nbytes_each=1 << 10, repeats=1),
        }
        json.dumps(payload)


def _with_baseline(payload, baseline):
    """Re-attach speedups the way run_perfbench does, without re-running."""
    from repro.bench.perf import _speedup

    speedups = {}
    base_micro = baseline.get("micro", {})
    for name, numbers in payload["micro"].items():
        s = _speedup(numbers, base_micro.get(name), "ops_per_sec")
        if s is None:
            s = _speedup(numbers, base_micro.get(name), "mb_per_sec")
        if s is not None:
            speedups[name] = s
    payload["speedup_vs_baseline"] = speedups
    return payload
