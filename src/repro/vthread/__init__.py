"""Background work on the DES kernel: accept the data now, write it later.

T-Rochdf's I/O thread (§6.2), the Rocpanda client's sender and server's
lander (§6.1) and the burst tier's drain are one mechanism — a queue, one
worker behind it, and a way to wait for it — and
:class:`BackgroundWorker` is that mechanism and nothing more.  The owner
keeps the queue and hands out its jobs in its own order; the worker is a
DES process that exists only while there is work, so an idle owner
leaves nothing blocked in the event queue.

What stays owner policy, on purpose: the queue and the order of its
jobs, where a transient fault is retried (inside the job), and what a
job that failed for good means.

No CPU is modelled for the worker: it spends its time blocked on the
filesystem or the network, and the main thread's visible cost of handing
work over is the copy it pays itself (``RankContext.memcpy``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from ..des import Environment, Event, Interrupt, Process

__all__ = ["BackgroundWorker"]


class BackgroundWorker:
    """One process that runs an owner's jobs, one at a time, while it has any.

    ``next_job()`` returns the next job — a generator the worker drives
    to completion — or ``None`` when the owner has nothing left; it is
    asked again after every job, and ``None`` ends the process.
    """

    def __init__(
        self, env: Environment, next_job: Callable[[], Optional[Generator]], name: str
    ):
        self.env = env
        self.name = name
        self._next_job = next_job
        self._proc: Optional[Process] = None
        #: ``(condition, event to fire once it holds)`` per sleeping waiter.
        self._waiters: List[Tuple[Callable[[], bool], Event]] = []

    @property
    def busy(self) -> bool:
        """True from :meth:`kick` until ``next_job`` has returned ``None``."""
        return self._proc is not None

    def _idle(self) -> bool:
        return self._proc is None

    def kick(self) -> None:
        """Start the worker unless it is running: there is a job for it."""
        if self._proc is None:
            self._proc = self.env.process(self._run(), name=self.name)

    def wait(self, done: Optional[Callable[[], bool]] = None):
        """Generator: sleep until ``done()`` holds — by default, until the
        worker has run out of jobs.  The condition is looked at again
        after every job and every :meth:`notify`; one that holds already
        costs no event, and a sleeper is woken only once its own holds."""
        done = done or self._idle
        while not done():
            wake = Event(self.env)
            self._waiters.append((done, wake))
            yield wake

    def notify(self) -> None:
        """Look at the waiters' conditions again; the owner calls this
        where something they wait for changed outside a job."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if waiter[0]():
                    waiter[1].succeed()
                else:
                    self._waiters.append(waiter)

    def interrupt(self, cause: Any = None) -> None:
        """Deliver a crash into the running job: its ``finally`` blocks
        run, nothing of it happens after this instant, the worker ends."""
        if self._proc is not None:
            self._proc.interrupt(cause)

    def _run(self):
        try:
            for job in iter(self._next_job, None):
                yield from job
                self.notify()
        except Interrupt:
            pass
        finally:
            self._proc = None
            self.notify()
