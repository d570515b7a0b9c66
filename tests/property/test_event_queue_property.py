"""Property tests: the event queue against a single-heap oracle.

``tests/spec/heap_env.py`` schedules every entry with one ``heappush``;
these tests drive the production queue (heap plus now ladder) and the
oracle with the same schedule / schedule_callback / sleep / cancel
interleavings and assert the firing order, the clock and the scaling
diagnostics are identical.  Delays are drawn from a small pool so
same-``(time, priority)`` collisions, and zero-delay entries racing
heap entries at the same instant, are common.

Also covered: NaN/inf/negative delay rejection surviving pooled
timeout reuse, and recycled pool generations never firing for a stale
holder.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import NORMAL, URGENT, Environment, Event

from tests.spec.heap_env import HeapEnvironment

#: Small delay pool => frequent same-key collisions.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])
_PRIOS = st.sampled_from([URGENT, NORMAL, NORMAL])

_OP = st.one_of(
    st.tuples(st.just("one"), _DELAYS, _PRIOS),
    st.tuples(st.just("cb"), _DELAYS, _PRIOS),
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
)

_PROGRAM = st.lists(
    st.tuples(_DELAYS, st.lists(_OP, min_size=1, max_size=5)),
    min_size=1,
    max_size=8,
)


def _drive(env_cls, program):
    """Execute ``program`` on a fresh environment; return the trace."""
    env = env_cls()
    order = []
    cancellable = []
    labels = iter(range(10**9))

    def fire(label):
        def cb(_event):
            order.append((env.now, label))

        return cb

    def call_fire(label):
        order.append((env.now, label))

    def control():
        for step_delay, ops in program:
            if step_delay:
                yield env.timeout(step_delay)
            for op in ops:
                kind = op[0]
                if kind == "one":
                    _, delay, prio = op
                    ev = Event(env)
                    label = next(labels)
                    ev.callbacks.append(fire(label))
                    ev._ok = True
                    ev._value = label
                    env.schedule(ev, priority=prio, delay=delay)
                    cancellable.append(ev)
                elif kind == "cb":
                    _, delay, prio = op
                    env.schedule_callback(
                        call_fire, next(labels), priority=prio, delay=delay
                    )
                elif kind == "sleep":
                    _, delay = op
                    t = env.sleep(delay)
                    t.callbacks.append(fire(next(labels)))
                elif kind == "cancel":
                    _, idx = op
                    if cancellable:
                        ev = cancellable[idx % len(cancellable)]
                        if ev.callbacks is not None and ev.triggered:
                            ev.cancel()

    env.process(control())
    env.run()
    return order, env


@given(_PROGRAM)
@settings(max_examples=200, deadline=None)
def test_event_queue_pop_order_equals_heapq_spec(program):
    """Identical firing order and diagnostics across both queues."""
    order, env = _drive(Environment, program)
    spec_order, spec_env = _drive(HeapEnvironment, program)
    assert order == spec_order
    assert env.now == spec_env.now
    assert env.events_processed == spec_env.events_processed
    assert env.events_cancelled == spec_env.events_cancelled


@given(_PROGRAM)
@settings(max_examples=50, deadline=None)
def test_event_queue_drains_completely(program):
    """After run() both queue structures are fully consumed."""
    _, env = _drive(Environment, program)
    assert env.queue_depth() == 0
    assert not env._queue
    assert not env._nowq


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]),
            st.sampled_from([float("nan"), float("inf"), -1.0, -0.0]),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_pooled_sleep_validates_like_timeout(delays):
    """sleep() rejects the same delays as Timeout — even on reuse.

    The pooled factory re-validates every delay, so a recycled object
    can never smuggle a NaN/inf/negative delay past validation and
    poison the heap ordering.  Valid sleeps interleaved with rejected
    ones must all fire exactly once.
    """
    env = Environment()
    fired = []

    def proc():
        for delay in delays:
            invalid = delay < 0 or delay != delay or delay == float("inf")
            if invalid:
                for factory in (env.sleep, env.timeout):
                    try:
                        factory(delay)
                    except ValueError:
                        pass
                    else:
                        raise AssertionError(
                            f"{factory} accepted bad delay {delay}"
                        )
            else:
                before = env.now
                yield env.sleep(delay)
                fired.append(env.now - before)

    env.process(proc())
    env.run()
    expected = [d for d in delays if not (d < 0 or d != d or math.isinf(d))]
    assert fired == expected
    # -0.0 counts as valid (it is not < 0); make the expectation exact.
    assert len(fired) == len(expected)


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_recycled_generation_never_fires_stale(delays):
    """A recycled pooled timeout never fires for its previous holder.

    Each reuse bumps ``_gen``; a holder that keeps a stale reference
    observes the bump instead of a spurious second wake-up.
    """
    env = Environment()
    wakeups = []
    stale = []

    def holder():
        t = env.sleep(delays[0])
        gen0 = t._gen
        yield t
        wakeups.append(env.now)
        stale.append((t, gen0))

    def churner():
        for delay in delays[1:]:
            yield env.sleep(delay)

    env.process(holder())
    env.process(churner())
    env.run()
    assert len(wakeups) == 1
    t, gen0 = stale[0]
    # The object was recycled (gen bumped) or at least retired; either
    # way its callbacks are gone, so it can never fire again.
    assert t._gen >= gen0
    assert t.callbacks is None or t.callbacks == []


@given(
    st.sampled_from([0.1, 0.5, 1.0]),
    st.sampled_from([1.5, 2.0, 5.0]),
    st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_cancelled_guard_survives_pooled_reuse(win_delay, guard_delay, churn):
    """The timeout-race pattern: a cancelled guard stays dead.

    The winner fires, the guard is cancelled, and a storm of pooled
    sleeps reuses freelist objects afterwards — the waiter must resume
    exactly once and the cancelled guard's queue entry must be skipped
    silently when it surfaces.
    """
    env = Environment()
    resumed = []

    def waiter():
        ev = env.timeout(win_delay, value="win")
        guard = env.timeout(guard_delay)
        result = yield env.any_of([ev, guard])
        resumed.append(list(result.values()))
        if ev.triggered and not guard.processed:
            assert guard.cancel() is True
            assert guard.cancel() is False  # idempotent

    def churner():
        for _ in range(churn):
            yield env.sleep(0.25)

    env.process(waiter())
    env.process(churner())
    env.run()
    assert resumed == [["win"]]
    assert env.events_cancelled == 1
    assert env.queue_depth() == 0
