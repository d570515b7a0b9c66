"""Per-rank message mailbox with MPI matching semantics.

Envelopes arrive in delivery order; receives and probes match on
``(source, tag)`` with wildcards, always returning the *oldest*
matching arrival (MPI's non-overtaking rule per (src, dst, tag) is
preserved because senders deliver in program order and matching is
FIFO per key).

``recv`` consumes the matched envelope; ``probe`` observes it without
consuming — exactly the distinction Rocpanda's server loop relies on
(probe for new requests between writing buffered blocks, §6.1).

Envelopes are indexed into per-``(source, tag)`` deques stamped with a
global arrival counter; exact-match queries pop a deque head in O(1),
wildcard queries compare the heads of the (few) live keys instead of
scanning every queued envelope.  Deliveries walk the pending-waiter
list once (the fixpoint invariant below) instead of rescanning
waiters x items.  The property tests drive this matcher and a
list-scan oracle (``tests/spec/mailbox.py``) with identical random
deliver/recv/probe sequences and assert identical match order.

Invariant: after every public call returns, no pending waiter matches
any queued envelope — so a new delivery can only be claimed by
already-pending waiters, and a new waiter can only match already-queued
envelopes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..des import Environment, Event
from ..des.core import _PENDING
from .datatypes import ANY_SOURCE, ANY_TAG, Envelope

__all__ = ["Mailbox"]


class _Waiter:
    __slots__ = ("source", "tag", "event", "consume")

    def __init__(self, source: int, tag: int, event: Event, consume: bool):
        self.source = source
        self.tag = tag
        self.event = event
        self.consume = consume


class Mailbox:
    """Incoming-message queue of one rank within one communicator.

    Indexed matcher: per-``(source, tag)`` arrival deques plus a global
    arrival counter give O(1) exact matches and O(live keys) wildcard
    matches while preserving exact FIFO-by-arrival semantics.
    """

    __slots__ = ("env", "_queues", "_waiters", "_arrivals", "_nitems",
                 "_event_pool")

    def __init__(self, env: Environment):
        self.env = env
        #: Freelist of processed get_matching events (one Event is
        #: allocated per receive otherwise; the plain-recv hot path
        #: recycles its event right after consuming the envelope).
        self._event_pool: List[Event] = []
        #: (source, tag) -> deque of (arrival_no, envelope); a key is
        #: removed the moment its deque empties, so the live-key count
        #: tracks the number of distinct pending (source, tag) pairs.
        self._queues: Dict[Tuple[int, int], deque] = {}
        self._waiters: List[_Waiter] = []
        self._arrivals = 0
        self._nitems = 0

    # -- delivery --------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        # By the fixpoint invariant only this envelope can satisfy a
        # pending waiter, so one ordered walk of the waiter list
        # replaces a waiters x items rescan loop.
        src = envelope.src
        tag = envelope.tag
        waiters = self._waiters
        if waiters:
            consumed = False
            keep: List[_Waiter] = []
            for waiter in waiters:
                if waiter.event.triggered:
                    continue
                wsource = waiter.source
                wtag = waiter.tag
                if (
                    not consumed
                    and (wsource == ANY_SOURCE or wsource == src)
                    and (wtag == ANY_TAG or wtag == tag)
                ):
                    waiter.event.succeed(envelope)
                    if waiter.consume:
                        consumed = True
                    continue
                keep.append(waiter)
            self._waiters = keep
            if consumed:
                return
        self._arrivals += 1
        queue = self._queues.get((src, tag))
        if queue is None:
            queue = self._queues[(src, tag)] = deque()
        queue.append((self._arrivals, envelope))
        self._nitems += 1

    # -- blocking queries -------------------------------------------------
    def get_matching(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event firing with the first matching envelope (consumed)."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = _PENDING
            event._ok = True
            event._defused = False
            event._cancelled = False
        else:
            event = Event(self.env)
        envelope = self.take(source, tag)
        if envelope is not None:
            event.succeed(envelope)
        else:
            self._waiters.append(_Waiter(source, tag, event, consume=True))
        return event

    def recycle(self, event: Event) -> None:
        """Return a *processed* :meth:`get_matching` event to the pool.

        Only the receive path that created the event and observed it
        fire may recycle it; unprocessed (e.g. timed-out-and-cancelled)
        events are refused so a pending waiter can never be reused.
        """
        if event.callbacks is None and not event._cancelled:
            self._event_pool.append(event)

    def peek_matching(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event firing with the first matching envelope (left queued)."""
        event = Event(self.env)
        envelope = self.find(source, tag)
        if envelope is not None:
            event.succeed(envelope)
        else:
            self._waiters.append(_Waiter(source, tag, event, consume=False))
        return event

    # -- immediate queries --------------------------------------------------
    def _match_key(self, source: int, tag: int) -> Optional[Tuple[int, int]]:
        """Key holding the oldest matching envelope, or None."""
        queues = self._queues
        if source != ANY_SOURCE and tag != ANY_TAG:
            return (source, tag) if (source, tag) in queues else None
        best_key = None
        best_arrival = None
        for key, queue in queues.items():
            if source != ANY_SOURCE and key[0] != source:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            arrival = queue[0][0]
            if best_arrival is None or arrival < best_arrival:
                best_arrival = arrival
                best_key = key
        return best_key

    def find(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Envelope]:
        """First matching envelope without consuming, or None."""
        key = self._match_key(source, tag)
        if key is None:
            return None
        return self._queues[key][0][1]

    def take(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Envelope]:
        """Remove and return the first matching envelope, or None."""
        key = self._match_key(source, tag)
        if key is None:
            return None
        queue = self._queues[key]
        _, envelope = queue.popleft()
        if not queue:
            del self._queues[key]
        self._nitems -= 1
        return envelope

    # -- cancellation (timeout support) -----------------------------------
    def retract(self, envelope: Envelope) -> bool:
        """Remove a specific queued envelope; True if it was still queued.

        A sender whose rendezvous timed out uses this to withdraw the
        announcement — success proves the receiver never matched it, so
        resending cannot duplicate the message.
        """
        key = (envelope.src, envelope.tag)
        queue = self._queues.get(key)
        if queue is None:
            return False
        for i, (_, queued) in enumerate(queue):
            if queued is envelope:
                del queue[i]
                if not queue:
                    del self._queues[key]
                self._nitems -= 1
                return True
        return False

    def cancel_waiter(self, event: Event) -> bool:
        """Drop the pending waiter registered under ``event``.

        A receiver abandoning a timed-out ``get_matching`` event must
        cancel it — an orphaned consume-waiter would silently steal the
        next matching delivery.
        """
        for i, waiter in enumerate(self._waiters):
            if waiter.event is event:
                del self._waiters[i]
                return True
        return False

    @property
    def items(self) -> List[Envelope]:
        """Queued envelopes in arrival order (diagnostics/compat view)."""
        merged = []
        for queue in self._queues.values():
            merged.extend(queue)
        merged.sort()
        return [envelope for _, envelope in merged]

    def __len__(self) -> int:
        return self._nitems
