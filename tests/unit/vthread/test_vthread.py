"""Unit tests for the one background-work mechanism."""

from collections import deque

from repro.des import Environment
from repro.vthread import BackgroundWorker


def make(env, durations, trace):
    """A worker over a deque of job durations; jobs log start and end."""
    jobs = deque(durations)

    def job(tag, duration):
        trace.append(("start", tag, env.now))
        try:
            yield env.timeout(duration)
        finally:
            trace.append(("end", tag, env.now))

    def next_job():
        return job(len(durations) - len(jobs), jobs.popleft()) if jobs else None

    return BackgroundWorker(env, next_job, "w"), jobs


def test_thread_runs_concurrently_with_spawner():
    env = Environment()
    trace = []
    worker, _ = make(env, [2], trace)

    def main():
        worker.kick()
        yield env.timeout(1)
        trace.append(("main", env.now))

    env.process(main())
    env.run()
    assert trace == [("start", 0, 0), ("main", 1), ("end", 0, 2)]


def test_jobs_run_fifo_one_at_a_time():
    env = Environment()
    trace = []
    worker, _ = make(env, [3, 1, 2], trace)
    worker.kick()
    env.run()
    assert trace == [
        ("start", 0, 0), ("end", 0, 3),
        ("start", 1, 3), ("end", 1, 4),
        ("start", 2, 4), ("end", 2, 6),
    ]


def test_kick_while_busy_starts_nothing():
    env = Environment()
    trace = []
    worker, jobs = make(env, [2], trace)

    def main():
        worker.kick()
        proc = worker._proc
        yield env.timeout(1)
        jobs.append(5)
        worker.kick()
        assert worker._proc is proc

    env.process(main())
    env.run()
    # The job queued meanwhile ran on the same process, after the first.
    assert trace == [("start", 0, 0), ("end", 0, 2), ("start", 0, 2), ("end", 0, 7)]


def test_process_is_gone_when_next_job_returns_none():
    env = Environment()
    worker, jobs = make(env, [1], [])
    assert not worker.busy
    worker.kick()
    proc = worker._proc
    assert worker.busy
    env.run()
    assert not worker.busy and not proc.is_alive and worker._proc is None
    # ... and the next kick starts a fresh one.
    jobs.append(1)
    worker.kick()
    assert worker.busy and worker._proc is not proc
    env.run()
    assert env.now == 2 and not worker.busy


def test_kick_with_nothing_to_do_ends_at_once():
    env = Environment()
    worker, _ = make(env, [], [])
    worker.kick()
    env.run()
    assert not worker.busy and env.now == 0


def test_wait_on_idle_worker_costs_no_event():
    env = Environment()
    worker, _ = make(env, [], [])
    before = []

    def main():
        yield env.timeout(1)
        before.append(env.events_processed)
        yield from worker.wait()
        yield from worker.wait(lambda: True)
        before.append(env.events_processed)

    env.process(main())
    env.run()
    assert before[0] == before[1]


def test_wait_returns_when_the_worker_runs_out_of_jobs():
    env = Environment()
    worker, _ = make(env, [2, 3], [])
    woke = []

    def main():
        worker.kick()
        yield from worker.wait()
        woke.append((env.now, worker.busy))

    env.process(main())
    env.run()
    assert woke == [(5, False)]


def test_wait_on_a_predicate_is_looked_at_after_every_job():
    env = Environment()
    trace = []
    worker, _ = make(env, [2, 3, 4], trace)
    woke = []

    def main():
        worker.kick()
        yield from worker.wait(lambda: ("end", 1, 5) in trace)
        woke.append((env.now, worker.busy))

    env.process(main())
    env.run()
    assert woke == [(5, True)]


def test_notify_wakes_each_waiter_once_and_only_when_one_waits():
    env = Environment()
    worker, _ = make(env, [], [])
    ready = set()
    woken = []

    def waiter(tag):
        yield from worker.wait(lambda: tag in ready)
        woken.append((tag, env.now))

    def main():
        # Nobody waits: a notify schedules nothing.
        depth = env.queue_depth()
        worker.notify()
        assert env.queue_depth() == depth
        env.process(waiter("a"))
        env.process(waiter("b"))
        yield env.timeout(1)
        # Nothing holds yet: nobody is woken, nothing is scheduled.
        depth = env.queue_depth()
        worker.notify()
        assert env.queue_depth() == depth
        yield env.timeout(1)
        # A sleeper is woken once its own condition holds, not before.
        ready.add("b")
        worker.notify()
        yield env.timeout(1)
        assert woken == [("b", 2)]
        ready.add("a")
        worker.notify()
        worker.notify()
        yield env.timeout(1)
        assert woken == [("b", 2), ("a", 3)]
        assert worker._waiters == []

    proc = env.process(main())
    env.run()
    assert proc.ok


def test_interrupt_unwinds_the_job_and_leaves_the_worker_restartable():
    env = Environment()
    trace = []
    worker, jobs = make(env, [10, 10], trace)
    woke = []

    def main():
        worker.kick()
        yield env.timeout(4)
        worker.interrupt("crash")
        yield from worker.wait()
        woke.append(env.now)

    env.process(main())
    env.run()
    # The running job unwound at the crash; the one behind it never ran.
    assert trace == [("start", 0, 0), ("end", 0, 4)]
    assert woke == [4] and not worker.busy and len(jobs) == 1
    t = env.now
    worker.kick()
    env.run()
    assert trace[-2:] == [("start", 1, t), ("end", 1, t + 10)]


def test_interrupt_idle_worker_is_a_noop():
    env = Environment()
    worker, _ = make(env, [], [])
    worker.interrupt("nothing runs")
    env.run()
    assert not worker.busy and env.events_processed == 0
