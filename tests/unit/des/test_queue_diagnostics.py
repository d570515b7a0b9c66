"""Diagnostics accuracy under lazy cancellation and callback entries.

The scaling benchmarks report ``events_processed`` / ``max_queue_depth``
per run; these must stay meaningful: cancelled entries may linger
physically in the heap but must not inflate the depth, and every
``schedule_callback`` entry counts as one event, as in the single-heap
oracle.
"""

from repro.des import Environment

from tests.spec.heap_env import HeapEnvironment


class TestCancellationDiagnostics:
    def test_cancelled_events_do_not_inflate_queue_depth(self):
        env = Environment()
        timeouts = [env.timeout(1.0 + i) for i in range(10)]
        assert env.queue_depth() == 10
        for t in timeouts[3:]:
            assert t.cancel() is True
        # Entries still sit in the heap, but the depth discounts them.
        assert env.queue_depth() == 3
        assert env.events_cancelled == 7

    def test_cancelled_events_do_not_count_as_processed(self):
        env = Environment()
        keep = env.timeout(1.0)
        dead = [env.timeout(2.0) for _ in range(5)]
        for t in dead:
            t.cancel()
        env.run()
        assert env.events_processed == 1
        assert env.events_cancelled == 5
        assert keep.processed
        assert all(t.cancelled for t in dead)

    def test_depth_drops_to_zero_after_run_despite_cancellations(self):
        env = Environment()
        for i in range(8):
            t = env.timeout(0.5 * (i + 1))
            if i % 2:
                t.cancel()
        env.run()
        assert env.queue_depth() == 0
        assert env._ncancelled == 0

    def test_spec_queue_reports_identical_diagnostics(self):
        def drive(env_cls):
            env = env_cls()
            ts = [env.timeout(1.0) for _ in range(6)]
            for t in ts[2:]:
                t.cancel()
            env.run()
            return env.events_processed, env.events_cancelled, env.queue_depth()

        assert drive(Environment) == drive(HeapEnvironment)


class TestBulkDeliveryDiagnostics:
    def test_bulk_fan_out_matches_spec_queue_total(self):
        def drive(env_cls):
            env = env_cls()
            out = []
            for i in range(12):
                env.schedule_callback(out.append, i, delay=1.0)
            for i in range(4):
                env.timeout(0.5)
            env.run()
            return out, env.events_processed

        assert drive(Environment) == drive(HeapEnvironment)

    def test_now_ladder_bulk_counts_fan_out(self):
        """Zero-delay callbacks count one event each."""
        env = Environment()
        hits = []

        def proc():
            for i in range(8):
                env.schedule_callback(hits.append, i)
            yield env.timeout(0.1)

        env.process(proc())
        env.run()
        assert hits == list(range(8))
        # 8 callbacks + Initialize + the timeout resume + process end.
        assert env.events_processed == 11

    def test_max_queue_depth_sampling_discounts_cancelled(self):
        """Sampled max depth never exceeds the live entry count."""
        env = Environment(initial_time=0.0)
        env._DEPTH_SAMPLE_MASK = 0  # sample on every event
        live = [env.timeout(1.0 + i) for i in range(4)]
        dead = [env.timeout(50.0 + i) for i in range(20)]
        for t in dead:
            t.cancel()
        env.run()
        assert env.max_queue_depth <= len(live) + len(dead)
        # The cancelled block must not dominate the sampled depth: the
        # very first sample happens after one pop with 3 live entries
        # remaining, so a correct discount keeps the max at <= 23 but
        # the *live* depth component at <= 3.
        assert env.max_queue_depth <= 23

    def test_pooled_sleep_counts_once_per_fire(self):
        env = Environment()

        def proc():
            for _ in range(5):
                yield env.sleep(0.5)

        env.process(proc())
        env.run()
        # Initialize + 5 sleeps + process end.
        assert env.events_processed == 7


class TestDepthSamplingInstance:
    def test_sample_mask_override_is_instance_local(self):
        env = Environment()
        env._DEPTH_SAMPLE_MASK = 0
        assert Environment._DEPTH_SAMPLE_MASK == 4095
