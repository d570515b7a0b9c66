"""``Environment.run`` holds the cycle collector, and gives it back.

Automatic collection is off while events run and is restored on every
way out of :meth:`Environment.run` — a normal return, ``until=`` a time
or an event, a failed event that raises, ``Job.run``'s deadlock error —
but only for a caller that had it on.  A nested run leaves it to the
outer one.  That the hold is safe (a job's cyclic garbage does not grow
with its length) is ``tests/integration/test_gc_hold.py``.
"""

import gc

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.des import Environment, SimulationError
from repro.vmpi import run_spmd


@pytest.fixture(autouse=True)
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def _watch(env, seen, delay=1.0):
    """A process recording whether the collector is on when it runs."""

    def proc():
        seen.append(gc.isenabled())
        yield env.timeout(delay)
        seen.append(gc.isenabled())
        return "done"

    return env.process(proc())


def test_a_run_to_exhaustion_holds_then_restores():
    env = Environment()
    seen = []
    _watch(env, seen)
    assert env.run() is None
    assert seen == [False, False]
    assert gc.isenabled()


def test_until_a_time_restores():
    env = Environment()
    seen = []
    _watch(env, seen, delay=5.0)
    env.run(until=2.0)
    assert env.now == 2.0 and seen == [False]
    assert gc.isenabled()
    env.run()
    assert seen == [False, False]
    assert gc.isenabled()


def test_until_an_event_restores():
    env = Environment()
    seen = []
    assert env.run(until=_watch(env, seen)) == "done"
    assert seen == [False, False]
    assert gc.isenabled()


def test_an_event_already_processed_returns_with_the_collector_on():
    env = Environment()
    proc = _watch(env, [])
    env.run()
    assert env.run(until=proc) == "done"
    assert gc.isenabled()


def test_a_failed_event_raises_with_the_collector_on():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise KeyError("boom")

    env.process(proc())
    with pytest.raises(KeyError, match="boom"):
        env.run()
    assert gc.isenabled()


def test_running_out_before_the_awaited_event_restores():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())
    assert gc.isenabled()


def test_a_deadlocked_job_raises_with_the_collector_on():
    def main(ctx):
        partner = (ctx.rank + 1) % ctx.world.size
        yield from ctx.world.recv(source=partner, tag=99)

    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=0)
    with pytest.raises(RuntimeError, match="deadlock"):
        run_spmd(machine, 2, main)
    assert gc.isenabled()


def test_a_caller_with_the_collector_off_keeps_it_off():
    env = Environment()
    seen = []
    _watch(env, seen)
    gc.disable()
    env.run()
    assert seen == [False, False]
    assert not gc.isenabled()


def test_a_nested_run_leaves_the_collector_to_the_outer_one():
    outer, inner = Environment(), Environment()
    seen = []

    def proc():
        _watch(inner, seen)
        inner.run()
        seen.append(gc.isenabled())
        yield outer.timeout(1.0)
        seen.append(gc.isenabled())

    outer.process(proc())
    outer.run()
    assert seen == [False, False, False, False]
    assert gc.isenabled()
