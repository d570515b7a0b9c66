"""Core of the discrete-event simulation kernel.

This is a compact, dependency-free kernel in the style of SimPy:
*processes* are Python generators that ``yield`` :class:`Event` objects
and are resumed when those events fire.  Simulated time only advances
between events; all computation between yields happens at a single
instant of virtual time.

The kernel is deterministic: events scheduled for the same time fire in
(priority, insertion-order) order, so repeated runs of the same program
produce identical traces.

The scheduler merges three structures into one total order:

- a binary heap of singleton ``(time, priority, eid, event)`` entries;
- the "now ladder" deque of zero-delay NORMAL events;
- *buckets*: per-``(time, priority)`` deques for the same-timestamp
  bursts that tree collectives and coalesced flushes emit.  A burst is
  detected when a key repeats back-to-back (or an existing bucket is
  hit); from then on every event of that key lands in the bucket with
  a plain ``deque.append`` instead of an O(log n) heap push.  One
  3-tuple ``(time, priority, first_eid)`` per live bucket sits in a
  small key heap; because all later entries of a key are *forced* into
  its bucket, the first eid under-approximates every bucketed eid while
  no foreign entry of that key can sort between them — so the
  head-to-head tuple comparison against the singleton heap and the now
  ladder reproduces the pop order of one ``(time, priority, eid)`` heap
  exactly.  The hypothesis property suite drives this queue and a
  single-heap oracle (``tests/spec/heap_env.py``, which overrides the
  three ``schedule*`` methods with one ``heappush`` each) through the
  same schedule/cancel/bulk interleavings and asserts identical
  callback firing order.

The queue also supports *lazy cancellation* (:meth:`Event.cancel`),
pooled auto-free timeouts (:meth:`Environment.sleep`) and *fused bulk
delivery* (:meth:`Environment.schedule_callback`): many same-timestamp
callbacks ride one queue entry and run in a single dispatch, with the
fan-out still counted in ``events_processed``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation

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


class _Bulk:
    """A fused bulk-delivery entry: many callbacks, one queue slot.

    Scheduled via :meth:`Environment.schedule_callback`; ``callbacks``
    holds ``(fn, arg)`` pairs appended while the entry is still pending
    at the same ``(time, priority)`` key.  Duck-types just enough of
    :class:`Event` (``callbacks``/``_ok``/``_defused``/``_cancelled``)
    for the run loop; the loop dispatches on the class to run the pairs
    and count the fan-out in ``events_processed``.
    """

    __slots__ = ("callbacks", "_ok", "_defused", "_cancelled")

    def __init__(self):
        self.callbacks: Optional[list] = []
        self._ok = True
        self._defused = True
        self._cancelled = False


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
        self._queue: list = []
        #: The "now ladder": zero-delay NORMAL-priority events in
        #: insertion order.  These are the overwhelming majority of
        #: schedules (succeed/trigger chains), and a deque append/pop
        #: replaces an O(log n) heap operation for each.  Entries are
        #: full ``(time, priority, eid, event)`` tuples so the pop rule
        #: is a plain tuple comparison against the heap head; because
        #: time never decreases and eids increase, the deque is always
        #: sorted, and the queue merge pops events in exactly the
        #: single-heap order.
        self._nowq: deque = deque()
        #: Burst buckets: ``(time, priority) -> deque of events`` plus
        #: a key heap of ``(time, priority, first_eid)`` 3-tuples (one
        #: per live bucket).  ``_last_key`` tracks the most recent heap
        #: key to detect back-to-back bursts.
        self._buckets: dict = {}
        self._bucket_heap: list = []
        self._last_key = None
        #: Fusion state for :meth:`schedule_callback`: the most recent
        #: pending bulk entry on the heap side (with its key) and on
        #: the now ladder.  ``_lb`` is invalidated whenever a normal
        #: event is scheduled at the same key, which is exactly the
        #: condition under which further fusion would reorder
        #: callbacks; the now-ladder check is positional (the bulk must
        #: still be the deque tail) and needs no invalidation.
        self._lb: Optional[_Bulk] = None
        self._lb_key = None
        self._lbn: Optional[_Bulk] = None
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Freelist for :meth:`sleep` timeouts.
        self._timeout_pool: list = []
        #: Cancelled-but-still-queued entry count (depth accounting).
        self._ncancelled = 0
        #: Total events processed by :meth:`run`/:meth:`step` (scaling
        #: diagnostics; maintained cheaply in the run loop).  A fused
        #: bulk entry counts its full fan-out; cancelled entries do not
        #: count.
        self.events_processed = 0
        #: Sampled high-water mark of the pending-event count
        #: (cancelled entries excluded).
        self.max_queue_depth = 0
        #: Total events lazily cancelled (diagnostics).
        self.events_cancelled = 0
        #: Total callbacks that fused into an existing bulk entry
        #: instead of costing their own queue slot (diagnostics).
        self.bulk_merged = 0

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
            return
        at = self._now + delay
        key = (at, priority)
        if key == self._lb_key:
            # A normal event lands between bulk callbacks of this key:
            # further fusion would fire later callbacks ahead of it.
            self._lb = None
            self._lb_key = None
        bucket = self._buckets.get(key)
        if bucket is not None:
            # Every event of a bucketed key *must* join the bucket so
            # no entry of that key with a larger eid exists outside it.
            bucket.append(event)
            return
        if key == self._last_key:
            # Back-to-back repeat: open a bucket for the burst.  The
            # fresh eid under-approximates all future bucket members
            # while every earlier entry of this key (singletons on the
            # main heap) has a smaller eid still — head comparisons
            # stay exact.
            self._buckets[key] = deque((event,))
            heappush(self._bucket_heap, (at, priority, next(self._eid)))
            return
        heappush(self._queue, (at, priority, next(self._eid), event))
        self._last_key = key

    def schedule_many(
        self, events: Iterable[Event], priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Bulk-schedule ``events`` with one shared (priority, delay).

        Semantically identical to calling :meth:`schedule` per event in
        iteration order.  Zero-delay batches extend the now ladder;
        delayed batches go straight into a burst bucket — one key-heap
        push for the whole batch instead of one heap push per event.
        """
        if delay == 0.0 and priority == NORMAL:
            now = self._now
            eid = self._eid
            self._nowq.extend((now, NORMAL, next(eid), ev) for ev in events)
            return
        batch = deque(events)
        if not batch:
            return
        at = self._now + delay
        key = (at, priority)
        if key == self._lb_key:
            self._lb = None
            self._lb_key = None
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.extend(batch)
            return
        self._buckets[key] = batch
        heappush(self._bucket_heap, (at, priority, next(self._eid)))
        self._last_key = key

    def schedule_callback(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Schedule ``fn(arg)`` to run after ``delay`` — fused when possible.

        The cheap path for fire-and-forget completions (message
        landings, NIC releases): no :class:`Event` is allocated, and
        consecutive callbacks targeting the same ``(time, priority)``
        slot *fuse* into one pending :class:`_Bulk` entry, running
        back-to-back in one dispatch.  Fusion preserves the exact
        unfused firing order: a bulk only accepts another callback
        while no other event has been scheduled at its key since the
        bulk was created (heap side) or while it is still the tail of
        the now ladder (zero-delay side), so nothing can sort between
        its members.  Timing is identical by construction — fusion
        never changes *when* a callback runs, only how many queue
        entries carry the batch.
        """
        if delay == 0.0 and priority == NORMAL:
            nowq = self._nowq
            lbn = self._lbn
            if lbn is not None and nowq and nowq[-1][3] is lbn:
                lbn.callbacks.append((fn, arg))
                self.bulk_merged += 1
                return
            bulk = _Bulk()
            bulk.callbacks.append((fn, arg))
            self._lbn = bulk
            nowq.append((self._now, NORMAL, next(self._eid), bulk))
            return
        at = self._now + delay
        key = (at, priority)
        lb = self._lb
        if lb is not None and key == self._lb_key and lb.callbacks is not None:
            lb.callbacks.append((fn, arg))
            self.bulk_merged += 1
            return
        bulk = _Bulk()
        bulk.callbacks.append((fn, arg))
        self._lb = bulk
        self._lb_key = key
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.append(bulk)
            return
        if key == self._last_key:
            self._buckets[key] = deque((bulk,))
            heappush(self._bucket_heap, (at, priority, next(self._eid)))
            return
        heappush(self._queue, (at, priority, next(self._eid), bulk))
        self._last_key = key

    def _pop_next(self):
        """Pop the globally next entry; returns ``(time, event)``."""
        nowq = self._nowq
        queue = self._queue
        bheap = self._bucket_heap
        if bheap:
            best = bheap[0]
            src = 2
            if queue and queue[0] < best:
                best = queue[0]
                src = 1
            if nowq and nowq[0] < best:
                best = nowq[0]
                src = 0
            if src == 2:
                t, p, _ = bheap[0]
                key = (t, p)
                bucket = self._buckets[key]
                event = bucket.popleft()
                if not bucket:
                    heappop(bheap)
                    del self._buckets[key]
                return t, event
            if src == 1:
                t, _, _, event = heappop(queue)
                return t, event
            t, _, _, event = nowq.popleft()
            return t, event
        if nowq:
            if queue and queue[0] < nowq[0]:
                t, _, _, event = heappop(queue)
            else:
                t, _, _, event = nowq.popleft()
            return t, event
        if queue:
            t, _, _, event = heappop(queue)
            return t, event
        raise EmptySchedule()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        t = _INF
        nowq = self._nowq
        queue = self._queue
        bheap = self._bucket_heap
        if nowq:
            t = nowq[0][0]
        if queue and queue[0][0] < t:
            t = queue[0][0]
        if bheap and bheap[0][0] < t:
            t = bheap[0][0]
        return t

    def queue_depth(self) -> int:
        """Exact count of pending (non-cancelled) queue entries."""
        depth = len(self._queue) + len(self._nowq) - self._ncancelled
        if self._buckets:
            depth += sum(map(len, self._buckets.values()))
        return depth

    def step(self) -> None:
        """Process the next scheduled live event.

        Cancelled entries surfacing first are drained (uncounted).
        Raises :class:`EmptySchedule` if no events are left.
        Keep in sync with the inlined loop in :meth:`run`.
        """
        while True:
            self._now, event = self._pop_next()
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is None:
                if event._cancelled:
                    self._ncancelled -= 1
                    continue
                # Event was already processed (condition shortcut).
                self.events_processed += 1
                return
            break
        if event.__class__ is _Bulk:
            self.events_processed += len(callbacks)
            for fn, arg in callbacks:
                fn(arg)
            return
        self.events_processed += 1
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failed event nobody waited on: crash the simulation so
            # errors in detached processes are never silently dropped.
            exc = event._value
            raise exc
        if event.__class__ is _PooledTimeout:
            event._gen += 1
            self._timeout_pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until is None`` — run until no events remain.
        * number — run until simulated time reaches it.
        * :class:`Event` — run until the event fires; returns its value.
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

        # Inlined step() with all queues bound locally: this loop
        # executes once per simulated event (millions per sweep), and
        # the per-iteration attribute/call overhead of delegating to
        # step() is measurable.  Keep the two bodies in sync.
        queue = self._queue
        nowq = self._nowq
        bheap = self._bucket_heap
        buckets = self._buckets
        pool = self._timeout_pool
        sample_mask = self._DEPTH_SAMPLE_MASK
        nevents = 0
        max_depth = self.max_queue_depth
        try:
            while True:
                if bheap:
                    # Buckets live: 3-way merge.  The bucket head wins
                    # ties by construction (its first_eid bounds every
                    # member from below; see the module docstring).
                    best = bheap[0]
                    src = 2
                    if queue and queue[0] < best:
                        best = queue[0]
                        src = 1
                    if nowq and nowq[0] < best:
                        best = nowq[0]
                        src = 0
                    if src == 2:
                        t, p, _ = bheap[0]
                        key = (t, p)
                        bucket = buckets[key]
                        event = bucket.popleft()
                        self._now = t
                        if not bucket:
                            heappop(bheap)
                            del buckets[key]
                    elif src == 1:
                        self._now, _, _, event = heappop(queue)
                    else:
                        self._now, _, _, event = nowq.popleft()
                elif nowq:
                    if queue and queue[0] < nowq[0]:
                        self._now, _, _, event = heappop(queue)
                    else:
                        self._now, _, _, event = nowq.popleft()
                elif queue:
                    self._now, _, _, event = heappop(queue)
                else:
                    raise EmptySchedule()
                nevents += 1
                if not nevents & sample_mask:
                    depth = len(queue) + len(nowq) - self._ncancelled
                    if buckets:
                        depth += sum(map(len, buckets.values()))
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
                if cls is _Bulk:
                    # Fused bulk delivery: one queue entry, many
                    # callbacks; the fan-out still counts as events.
                    nevents += len(callbacks) - 1
                    for fn, arg in callbacks:
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
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "ran out of events before the awaited event fired"
                ) from None
            return None
        finally:
            self.events_processed += nevents
            self.max_queue_depth = max_depth


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value
