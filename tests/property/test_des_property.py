"""Property-based tests for the DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_time_is_monotone_nondecreasing(delays):
    """Observed event times never decrease, whatever the schedule."""
    env = Environment()
    observed = []

    def waiter(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(waiter(delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10),  # arrival
            st.floats(min_value=0.01, max_value=5),  # hold time
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=80, deadline=None)
def test_resource_never_exceeds_capacity(capacity, jobs):
    env = Environment()
    res = Resource(env, capacity=capacity)
    in_use = [0]
    max_in_use = [0]
    served = [0]

    def user(arrival, hold):
        yield env.timeout(arrival)
        req = res.request()
        yield req
        in_use[0] += 1
        max_in_use[0] = max(max_in_use[0], in_use[0])
        yield env.timeout(hold)
        in_use[0] -= 1
        res.release(req)
        served[0] += 1

    for arrival, hold in jobs:
        env.process(user(arrival, hold))
    env.run()
    assert max_in_use[0] <= capacity
    assert served[0] == len(jobs)  # no job starves
    assert res.count == 0  # everything released


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_determinism_identical_runs(delays):
    """The same program yields byte-identical event traces."""

    def run():
        env = Environment()
        trace = []

        def worker(i, delay):
            yield env.timeout(delay)
            trace.append((i, env.now))
            yield env.timeout(delay / 2)
            trace.append((i, env.now))

        for i, d in enumerate(delays):
            env.process(worker(i, d))
        env.run()
        return trace

    assert run() == run()
