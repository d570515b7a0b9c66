"""Core of the discrete-event simulation kernel.

This is a compact, dependency-free kernel in the style of SimPy:
*processes* are Python generators that ``yield`` :class:`Event` objects
and are resumed when those events fire.  Simulated time only advances
between events; all computation between yields happens at a single
instant of virtual time.

The kernel is deterministic: events scheduled for the same time fire in
(priority, insertion-order) order, so repeated runs of the same program
produce identical traces.

The scheduler keeps two structures, merged into one total order:

- the "now ladder", a deque of zero-delay NORMAL events (the
  succeed/trigger chains that make up most schedules);
- one binary heap of ``(time, priority, eid, entry)`` tuples for
  everything else.

Both hold the same tuples, and the ladder is always sorted (time never
decreases, eids increase), so popping whichever head compares smaller
reproduces the order of a single ``(time, priority, eid)`` heap.  The
property suite checks that against a single-heap oracle
(``tests/spec/heap_env.py``).

The queue also supports *lazy cancellation* (:meth:`Event.cancel`),
pooled auto-free timeouts (:meth:`Environment.sleep`) and an
``Event``-free lane for fire-and-forget callbacks
(:meth:`Environment.schedule_callback`).
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for internal bookkeeping events (fire first).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Sentinel for "event has no value yet".
_PENDING = object()

_INF = float("inf")


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*, becomes *triggered* when it gets
    scheduled with a value (or an exception), and *processed* after its
    callbacks have run.  Processes wait for events by yielding them.
    """

    # One Event (and usually several) is allocated per message, timeout
    # and process across millions of simulated events, so the whole
    # hierarchy is slotted.
    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_defused", "_cancelled",
        "__weakref__",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set when a failed event's exception was delivered somewhere.
        self._defused = False
        #: Set by :meth:`cancel`; the run loop skips the queue entry.
        self._cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once the event was lazily cancelled."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state/value of ``event``.

        Useful as a callback to chain events.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def cancel(self) -> bool:
        """Lazily cancel a triggered-but-unprocessed event.

        The queue entry is *not* removed (a heap cannot delete from the
        middle cheaply); instead the entry is skipped when it surfaces,
        its callbacks never run, and the scaling diagnostics discount
        it (a cancelled event inflates neither ``events_processed`` nor
        the sampled queue depth).  Returns ``True`` if the cancellation
        took effect, ``False`` if the event was already processed (or
        already cancelled).  Cancelling an event that was never
        scheduled would leak accounting, so it raises.
        """
        if self.callbacks is None:
            return False
        if self._value is _PENDING:
            raise RuntimeError(
                f"{self!r} is not scheduled; only triggered events can "
                f"be cancelled"
            )
        self.callbacks = None
        self._cancelled = True
        env = self.env
        env._ncancelled += 1
        env.events_cancelled += 1
        return True

    # -- composition ---------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        from .events import AllOf

        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Event":
        from .events import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if delay != delay or delay == _INF:
            # NaN compares unequal to itself; NaN/inf delays would
            # poison the heap ordering of every later event.
            raise ValueError(f"non-finite delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout({self._delay}) at {id(self):#x}>"


class _PooledTimeout(Timeout):
    """A freelisted timeout created by :meth:`Environment.sleep`.

    The run loop recycles the object into the environment's pool right
    after its callbacks ran, bumping ``_gen`` so tests can prove a
    recycled incarnation never fires for a stale holder.  Contract:
    the creator yields it immediately and drops the reference — which
    is exactly how the vmpi/network hot paths use their per-message
    software-overhead waits.
    """

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        self._gen = 0
        super().__init__(env, delay, value)


class _Call:
    """The queue entry of :meth:`Environment.schedule_callback`.

    ``callbacks`` holds the ``(fn, arg)`` pair; the run loop dispatches
    on the class and calls ``fn(arg)``.  It cannot be cancelled and
    never fails, so it needs nothing else of :class:`Event`.
    """

    __slots__ = ("callbacks",)

    def __init__(self, fn: Callable[[Any], None], arg: Any):
        self.callbacks = (fn, arg)


class Initialize(Event):
    """Internal event that starts a new :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process: wraps a generator yielding events.

    The process object is itself an event that fires (with the
    generator's return value) when the generator terminates.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting for (None when
        #: the process is active or terminated).
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into this process.

        The process is rescheduled immediately; the event it was
        waiting for is abandoned (but not cancelled for other waiters).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value of ``event``."""
        env = self.env
        # If we were interrupted while waiting for another event, stop
        # listening on that event.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc_t = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc_t
                event._defused = True
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: continue immediately with its value.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process({self.name}) at {id(self):#x}>"


class Environment:
    """Execution environment of a simulation.

    Holds the clock and the event queue, and provides factory helpers
    for the common event types.
    """

    #: Sampling stride for the queue-depth high-water mark kept by
    #: :meth:`run` (power of two; sampled every N events).
    _DEPTH_SAMPLE_MASK = 4095

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: The heap: ``(time, priority, eid, entry)`` for every entry
        #: that is not on the now ladder.
        self._queue: list = []
        #: The "now ladder": zero-delay NORMAL-priority entries in
        #: insertion order, as the same tuples, so the pop rule is a
        #: plain tuple comparison against the heap head.  A deque
        #: append/popleft replaces two O(log n) heap operations for the
        #: most common schedule.
        self._nowq: deque = deque()
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Freelist for :meth:`sleep` timeouts.
        self._timeout_pool: list = []
        #: Cancelled-but-still-queued entry count (depth accounting).
        self._ncancelled = 0
        #: Total events processed by :meth:`run` (scaling diagnostics;
        #: maintained cheaply in the run loop).  Cancelled entries do
        #: not count.
        self.events_processed = 0
        #: Sampled high-water mark of the pending-event count
        #: (cancelled entries excluded).
        self.max_queue_depth = 0
        #: Total events lazily cancelled (diagnostics).
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between events)."""
        return self._active_proc

    # -- factories -----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled, auto-freed :meth:`timeout` for fire-and-forget waits.

        The returned event is recycled into a freelist right after its
        callbacks ran, so the caller must yield it immediately and must
        not keep a reference past the wakeup — the contract of every
        per-message overhead wait in the messaging hot paths, where
        this removes one object allocation per message.  Delay
        validation (negative/NaN/inf) is re-applied on every reuse.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            if delay != delay or delay == _INF:
                raise ValueError(f"non-finite delay {delay}")
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._ok = True
            t._defused = False
            t._cancelled = False
            t._delay = delay
            self.schedule(t, delay=delay)
            return t
        return _PooledTimeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        from .events import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        from .events import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling ----------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to fire after ``delay`` time units."""
        if delay == 0.0 and priority == NORMAL:
            self._nowq.append((self._now, NORMAL, next(self._eid), event))
        else:
            heappush(
                self._queue, (self._now + delay, priority, next(self._eid), event)
            )

    def schedule_callback(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Schedule ``fn(arg)`` to run after ``delay``, with no :class:`Event`.

        The lane for fire-and-forget completions (message landings):
        one queue entry per call, ordered exactly like :meth:`schedule`
        and counted once in ``events_processed``, but nothing can wait
        on it or cancel it.
        """
        self.schedule(_Call(fn, arg), priority, delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        t = _INF
        if self._nowq:
            t = self._nowq[0][0]
        if self._queue and self._queue[0][0] < t:
            t = self._queue[0][0]
        return t

    def queue_depth(self) -> int:
        """Exact count of pending (non-cancelled) queue entries."""
        return len(self._queue) + len(self._nowq) - self._ncancelled

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until is None`` — run until no events remain.
        * number — run until simulated time reaches it.
        * :class:`Event` — run until the event fires; returns its value.

        Automatic garbage collection is off while it runs, and back on
        at every exit if the caller had it on.
        """
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until.value
                until.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until ({at}) must be >= now ({self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks.append(_stop_simulation)
                self.schedule(stop, priority=URGENT, delay=at - self._now)

        # Both queues bound locally: this loop executes once per
        # simulated event (millions per sweep).
        queue = self._queue
        nowq = self._nowq
        pool = self._timeout_pool
        sample_mask = self._DEPTH_SAMPLE_MASK
        nevents = 0
        max_depth = self.max_queue_depth
        # The run holds the cycle collector: the simulator frees its
        # objects by reference count, and a job's cyclic garbage is a
        # fixed skeleton whatever its length, so a pass during the run
        # finds nothing but costs a walk of every live object.
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if nowq:
                    if queue and queue[0] < nowq[0]:
                        self._now, _, _, event = heappop(queue)
                    else:
                        self._now, _, _, event = nowq.popleft()
                elif queue:
                    self._now, _, _, event = heappop(queue)
                else:
                    break
                nevents += 1
                if not nevents & sample_mask:
                    depth = len(queue) + len(nowq) - self._ncancelled
                    if depth > max_depth:
                        max_depth = depth
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    if event._cancelled:
                        # Lazily-cancelled entry: not an event that
                        # happened — keep the diagnostics clean.
                        nevents -= 1
                        self._ncancelled -= 1
                    continue  # already processed (condition shortcut)
                cls = event.__class__
                if cls is _Call:
                    fn, arg = callbacks
                    fn(arg)
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failed event nobody waited on: crash the
                    # simulation so errors in detached processes are
                    # never silently dropped.
                    raise event._value
                if cls is _PooledTimeout:
                    event._gen += 1
                    pool.append(event)
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += nevents
            self.max_queue_depth = max_depth
            if collecting:
                gc.enable()
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError("ran out of events before the awaited event fired")
        return None

def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value
