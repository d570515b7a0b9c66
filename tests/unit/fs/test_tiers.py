"""Unit tests for the burst-buffer storage tier (repro.fs.tiers)."""

import pytest

from repro.des import Environment
from repro.faults.retry import RetryPolicy
from repro.fs import (
    BurstBufferTier,
    DrainFailedError,
    NFSModel,
    TierConfig,
    VirtualDisk,
)
from repro.fs.tiers import apply_storage_tier
from repro.fs.vfs import FileExists, FileNotFound, TransientIOError


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


def make_tier(env=None, **cfg):
    env = env if env is not None else Environment()
    backing = NFSModel(env)
    tier = BurstBufferTier(env, backing, TierConfig(**cfg) if cfg else None)
    return env, backing, tier


def tier_write(tier, path, data, create=True):
    """Generator: one write of ``data`` into ``path``."""
    f = tier.disk.create(path, exist_ok=True) if create else tier.disk.open(path)
    yield from tier.write(len(data), None, land=lambda: f.append_many([data]))


class TestAbsorbAndDrain:
    def test_visible_at_memory_speed_durable_later(self):
        env, backing, tier = make_tier()
        data = b"x" * 1_000_000
        marks = {}

        def writer():
            yield from tier_write(tier, "a", data)
            marks["visible"] = env.now
            yield from tier.drain_barrier()
            marks["durable"] = env.now

        drive(env, writer())
        # Absorb at 300 MiB/s beats NFS at 30 MB/s by a wide margin.
        assert marks["visible"] < 0.01
        assert marks["durable"] > marks["visible"]
        assert backing.disk.open("a").read() == data
        assert tier.backlog_bytes == 0
        assert tier.stats.absorbed_bytes == len(data)
        assert tier.stats.drained_bytes == len(data)

    def test_multiple_files_drain_fifo_and_bit_identical(self):
        env, backing, tier = make_tier()
        payloads = {f"f{i}": bytes([i]) * (10_000 + i) for i in range(5)}

        def writer():
            for path, data in payloads.items():
                yield from tier_write(tier, path, data)
            yield from tier.drain_barrier()

        drive(env, writer())
        for path, data in payloads.items():
            assert backing.disk.open(path).read() == data
        assert tier.journal.validate(backing.disk) == []

    def test_drain_chunking(self):
        env, backing, tier = make_tier(drain_chunk_bytes=1024)

        def writer():
            yield from tier_write(tier, "a", b"y" * 10_000)
            yield from tier.drain_barrier()

        drive(env, writer())
        assert backing.disk.open("a").read() == b"y" * 10_000
        assert tier.stats.drain_flushes == 10

    def test_barrier_is_noop_when_clean(self):
        env, backing, tier = make_tier()

        def writer():
            t0 = env.now
            yield env.sleep(0)
            yield from tier.drain_barrier()
            assert env.now == t0

        drive(env, writer())

    def test_interleaved_write_during_drain(self):
        """Appending more while the file drains ends bit-identical."""
        env, backing, tier = make_tier(drain_chunk_bytes=512)

        def writer():
            yield from tier_write(tier, "a", b"1" * 4096)
            # Let a couple of drain flushes happen, then append more.
            yield env.sleep(0.001)
            yield from tier_write(tier, "a", b"2" * 4096)
            yield from tier.drain_barrier()

        drive(env, writer())
        assert backing.disk.open("a").read() == b"1" * 4096 + b"2" * 4096


class TestNamespace:
    def test_open_falls_through_to_backing(self):
        env, backing, tier = make_tier()
        backing.disk.create("cold").append(b"old-bytes")
        assert tier.disk.open("cold").read() == b"old-bytes"
        assert tier.disk.exists("cold")

    def test_listdir_is_union(self):
        env, backing, tier = make_tier()
        backing.disk.create("b_old")
        tier.disk.create("a_new")
        assert tier.disk.listdir() == ["a_new", "b_old"]

    def test_create_exclusive_respects_backing(self):
        env, backing, tier = make_tier()
        backing.disk.create("taken")
        with pytest.raises(FileExists):
            tier.disk.create("taken")

    def test_create_exist_ok_shadows_backing_content(self):
        env, backing, tier = make_tier()
        backing.disk.create("warm").append(b"abc")
        f = tier.disk.create("warm", exist_ok=True)
        assert f.read() == b"abc"
        # The shadowed prefix is already durable: nothing to drain.
        assert tier.backlog_bytes == 0

    def test_unlink_clears_both_levels(self):
        env, backing, tier = make_tier()
        backing.disk.create("x").append(b"1")
        tier.disk.create("x", exist_ok=True)
        tier.disk.unlink("x")
        assert not tier.disk.exists("x")
        assert not backing.disk.exists("x")
        with pytest.raises(FileNotFound):
            tier.disk.unlink("missing")

    def test_truncate_restarts_epoch(self):
        env, backing, tier = make_tier()

        def writer():
            yield from tier_write(tier, "a", b"first" * 100)
            yield from tier.drain_barrier()
            f = tier.disk.open("a")
            f.truncate()
            yield from tier.write(6, None, land=lambda: f.append_many([b"second"]))
            yield from tier.drain_barrier()

        drive(env, writer())
        assert backing.disk.open("a").read() == b"second"
        assert tier.journal.validate(backing.disk) == []


class TestEvictionAndSpill:
    def test_clean_files_evict_under_pressure(self):
        env, backing, tier = make_tier(
            capacity_bytes=10_000, high_watermark=0.75, low_watermark=0.5
        )

        def writer():
            yield from tier_write(tier, "a", b"a" * 4000)
            yield from tier.drain_barrier()  # "a" fully clean
            yield from tier_write(tier, "b", b"b" * 4000)
            yield from tier.drain_barrier()

        drive(env, writer())
        # Writing "b" crosses the 7500 high watermark; clean "a" evicts.
        assert tier.stats.evictions >= 1
        # Evicted files still read complete through the namespace.
        assert tier.disk.open("a").read() == b"a" * 4000
        assert backing.disk.open("a").read() == b"a" * 4000

    def test_lru_evicts_least_recently_written_first(self):
        env, backing, tier = make_tier(
            capacity_bytes=10_000, high_watermark=0.6, low_watermark=0.45
        )

        def writer():
            yield from tier_write(tier, "old", b"o" * 2000)
            yield from tier_write(tier, "new", b"n" * 2000)
            yield from tier.drain_barrier()
            yield from tier_write(tier, "c", b"c" * 4000)
            yield from tier.drain_barrier()

        drive(env, writer())
        resident = set(tier.disk._files)
        assert "old" not in resident  # LRU went first
        assert backing.disk.open("old").read() == b"o" * 2000

    def test_spill_degrades_to_direct_cost_when_full_of_dirty(self):
        """A tier full of dirty data makes the next write pay backing
        cost (synchronous spill) instead of failing."""
        env, backing, tier = make_tier(capacity_bytes=8_000)
        marks = {}

        def writer():
            yield from tier_write(tier, "a", b"a" * 6000)
            # Tier now holds 6000 dirty bytes; 6000 more exceeds 8000.
            t0 = env.now
            yield from tier_write(tier, "b", b"b" * 6000)
            marks["second_write"] = env.now - t0
            yield from tier.drain_barrier()

        drive(env, writer())
        assert tier.stats.spills >= 1
        # The spill charged real backing time: far beyond pure absorb.
        assert marks["second_write"] > 6000 / tier.config.absorb_bw * 2
        assert backing.disk.open("a").read() == b"a" * 6000
        assert backing.disk.open("b").read() == b"b" * 6000

    def test_evicted_file_rewrite_reregisters(self):
        env, backing, tier = make_tier(
            capacity_bytes=10_000, high_watermark=0.75, low_watermark=0.3
        )

        def writer():
            f = tier.disk.create("a")
            yield from tier.write(4000, None, land=lambda: f.append_many([b"a" * 4000]))
            yield from tier.drain_barrier()
            yield from tier_write(tier, "b", b"b" * 4000)  # evicts "a"
            yield from tier.drain_barrier()
            # The writer still holds the evicted object; appending
            # through it must re-register it and stay consistent.
            yield from tier.write(100, None, land=lambda: f.append_many([b"z" * 100]))
            yield from tier.drain_barrier()

        drive(env, writer())
        assert backing.disk.open("a").read() == b"a" * 4000 + b"z" * 100
        assert tier.journal.validate(backing.disk) == []


class TestDrainFaults:
    def test_transient_fault_retried(self):
        env, backing, tier = make_tier(
            retry=RetryPolicy(max_attempts=5, base_delay=1e-4)
        )
        fails = {"n": 2}

        def hook(path, nbytes):
            if fails["n"] > 0:
                fails["n"] -= 1
                raise TransientIOError("injected")

        backing.disk.fault_hook = hook

        def writer():
            yield from tier_write(tier, "a", b"x" * 1000)
            yield from tier.drain_barrier()

        drive(env, writer())
        assert backing.disk.open("a").read() == b"x" * 1000
        assert tier.stats.drain_retries == 2
        assert tier.stats.drain_failures == 0

    def test_exhausted_retries_fail_the_barrier(self):
        env, backing, tier = make_tier(
            retry=RetryPolicy(max_attempts=2, base_delay=1e-4)
        )

        def hook(path, nbytes):
            raise TransientIOError("permanent")

        backing.disk.fault_hook = hook

        def writer():
            yield from tier_write(tier, "a", b"x" * 1000)
            with pytest.raises(DrainFailedError):
                yield from tier.drain_barrier()

        drive(env, writer())
        assert tier.stats.drain_failures == 1

    def test_journal_never_overclaims_mid_drain(self):
        """Crash-consistency invariant: at every instant, the backing
        disk holds at least every byte the journal claims."""
        env, backing, tier = make_tier(drain_chunk_bytes=256)

        def writer():
            yield from tier_write(tier, "a", b"j" * 4096)
            # Poll the invariant while the drain is in progress.
            while tier.backlog_bytes > 0:
                assert tier.journal.validate(backing.disk) == []
                yield env.sleep(1e-4)
            yield from tier.drain_barrier()

        drive(env, writer())
        assert tier.journal.entry("a") == (0, 4096)
        assert tier.journal.validate(backing.disk) == []


class TestSeam:
    def test_apply_storage_tier_direct_is_identity(self):
        env = Environment()

        class FakeMachine:
            pass

        m = FakeMachine()
        m.env = env
        m.fs = NFSModel(env)
        m.disk = m.fs.disk
        before = m.fs
        assert apply_storage_tier(m, "direct") is before
        assert m.fs is before

    def test_apply_storage_tier_burst_wraps_once(self):
        env = Environment()

        class FakeMachine:
            pass

        m = FakeMachine()
        m.env = env
        m.fs = NFSModel(env)
        m.disk = m.fs.disk
        tier = apply_storage_tier(m, "burst")
        assert isinstance(tier, BurstBufferTier)
        assert m.fs is tier
        assert tier.backing.disk is m.disk
        assert apply_storage_tier(m, "burst") is tier  # idempotent

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            apply_storage_tier(object(), "warm")
