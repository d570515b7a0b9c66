"""List-scan oracle for :class:`repro.vmpi.mailbox.Mailbox` matching order."""

from typing import List, Optional

from repro.des import Environment, Event
from repro.vmpi.datatypes import ANY_SOURCE, ANY_TAG, Envelope
from repro.vmpi.mailbox import _Waiter


class LinearScanMailbox:
    """Reference matcher: ordered list + linear scans (original code).

    Kept as the executable specification of the matching semantics; see
    the module docstring.  Do not optimize this class.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: List[Envelope] = []
        self._waiters: List[_Waiter] = []

    # -- delivery --------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        self.items.append(envelope)
        self._match_waiters()

    # -- blocking queries -------------------------------------------------
    def get_matching(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event firing with the first matching envelope (consumed)."""
        event = Event(self.env)
        self._waiters.append(_Waiter(source, tag, event, consume=True))
        self._match_waiters()
        return event

    def peek_matching(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event firing with the first matching envelope (left queued)."""
        event = Event(self.env)
        self._waiters.append(_Waiter(source, tag, event, consume=False))
        self._match_waiters()
        return event

    # -- immediate queries --------------------------------------------------
    def find(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Envelope]:
        """First matching envelope without consuming, or None."""
        for envelope in self.items:
            if envelope.matches(source, tag):
                return envelope
        return None

    def take(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Envelope]:
        """Remove and return the first matching envelope, or None."""
        for i, envelope in enumerate(self.items):
            if envelope.matches(source, tag):
                del self.items[i]
                return envelope
        return None

    # -- cancellation (timeout support) -----------------------------------
    def retract(self, envelope: Envelope) -> bool:
        """Remove a specific queued envelope; True if it was still queued."""
        for i, item in enumerate(self.items):
            if item is envelope:
                del self.items[i]
                return True
        return False

    def cancel_waiter(self, event: Event) -> bool:
        """Drop the pending waiter registered under ``event``."""
        for waiter in self._waiters:
            if waiter.event is event:
                self._waiters.remove(waiter)
                return True
        return False

    def recycle(self, event: Event) -> None:
        """Spec matcher never pools events (kept verbatim-simple)."""

    def __len__(self) -> int:
        return len(self.items)

    # -- internals ----------------------------------------------------------
    def _match_waiters(self) -> None:
        # Probes never consume, so satisfy them all first; then serve
        # consuming waiters FIFO, each taking a distinct envelope.
        progress = True
        while progress:
            progress = False
            for waiter in list(self._waiters):
                if waiter.event.triggered:
                    self._waiters.remove(waiter)
                    continue
                if waiter.consume:
                    envelope = self.take(waiter.source, waiter.tag)
                else:
                    envelope = self.find(waiter.source, waiter.tag)
                if envelope is not None:
                    self._waiters.remove(waiter)
                    waiter.event.succeed(envelope)
                    progress = True
