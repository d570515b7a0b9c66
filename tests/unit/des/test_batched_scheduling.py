"""Unit tests for the DES core's two queues and its scaling diagnostics.

Covers the zero-delay "now ladder" beside the heap and the diagnostics
(``events_processed`` / ``max_queue_depth``) the scaling curves read.
"""

from repro.des import Environment, URGENT


class TestNowLadder:
    def test_zero_delay_normal_goes_to_deque(self):
        env = Environment()
        ev = env.event()
        ev._ok = True
        env.schedule(ev)
        assert len(env._nowq) == 1 and not env._queue

    def test_nonzero_delay_goes_to_heap(self):
        env = Environment()
        ev = env.event()
        ev._ok = True
        env.schedule(ev, delay=0.1)
        assert not env._nowq and len(env._queue) == 1

    def test_urgent_zero_delay_goes_to_heap(self):
        env = Environment()
        ev = env.event()
        ev._ok = True
        env.schedule(ev, priority=URGENT)
        assert not env._nowq and len(env._queue) == 1

    def test_merge_preserves_single_heap_order(self):
        """Interleaved now-ladder and heap events pop in exactly the
        order a single heap would produce: (time, priority, eid)."""
        env = Environment()
        order = []

        def proc():
            # A timeout (heap) racing zero-delay events (deque).
            t = env.timeout(0.0)  # delay 0 but via timeout -> now-ladder
            yield t
            order.append("t0")
            yield env.timeout(1.0)
            order.append("t1")

        env.process(proc(), name="p")
        late = env.event()
        late._ok = True
        late.callbacks.append(lambda e: order.append("late"))
        env.schedule(late, delay=0.5)
        env.run()
        assert order == ["t0", "late", "t1"]

    def test_peek_sees_both_queues(self):
        env = Environment()
        heap_ev = env.event()
        heap_ev._ok = True
        env.schedule(heap_ev, delay=3.0)
        assert env.peek() == 3.0
        now_ev = env.event()
        now_ev._ok = True
        env.schedule(now_ev)
        assert env.peek() == 0.0


class TestScalingDiagnostics:
    def test_events_processed_counts_run_loop(self):
        env = Environment()

        def ticker():
            for _ in range(100):
                yield env.timeout(1.0)

        env.process(ticker(), name="t")
        env.run()
        # One init event + 100 timeouts (each timeout fires one event).
        assert env.events_processed >= 100

    def test_events_processed_accumulates_across_runs(self):
        env = Environment()

        def ticker(n):
            for _ in range(n):
                yield env.timeout(1.0)

        env.process(ticker(10), name="a")
        env.run()
        first = env.events_processed
        env.process(ticker(10), name="b")
        env.run()
        assert env.events_processed > first

    def test_step_counts_too(self):
        """A run of a single scheduled event counts exactly one."""
        env = Environment()
        ev = env.event()
        ev._ok = True
        env.schedule(ev)
        env.run(until=ev)
        assert env.events_processed == 1

    def test_max_queue_depth_sampled(self):
        env = Environment()
        # Enough simultaneous pending events to cross the sample mask.
        n = env._DEPTH_SAMPLE_MASK * 2 + 10

        def spawn():
            for _ in range(n):
                ev = env.event()
                ev._ok = True
                env.schedule(ev, delay=1.0)
            yield env.timeout(0.5)

        env.process(spawn(), name="s")
        env.run()
        assert env.max_queue_depth > 0
