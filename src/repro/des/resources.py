"""The shared resource of the DES kernel.

:class:`Resource` is a capacity-limited resource with a FIFO request
queue; it models NICs, file-server service slots and the filesystems'
write-slot lease.  It is the only queueing primitive the stack uses:
messages are matched in :mod:`repro.vmpi.mailbox`, and work handed to a
background process is queued by its owner
(:class:`repro.vthread.BackgroundWorker`).
"""

from __future__ import annotations

from typing import List

from .core import Environment, Event

__all__ = ["Resource", "Request", "Release"]


class Request(Event):
    """A request to use a :class:`Resource`.

    Fires once the resource grants a slot.  Use as::

        req = resource.request()
        yield req
        ...critical section...
        resource.release(req)

    or as a context manager inside a process (releasing on exit is the
    caller's responsibility since generators cannot use ``with`` across
    yields portably; we provide ``resource.acquire()`` helpers higher up
    the stack instead).
    """

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the queue."""
        if not self.triggered and self in self.resource.queue:
            self.resource.queue.remove(self)


class Release(Event):
    """Releases a previously granted :class:`Request` (fires instantly)."""

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)
        self.succeed()


class Resource:
    """A capacity-limited resource with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of granted (active) requests."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        return Release(self, request)

    # -- internals -----------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _do_release(self, release: Release) -> None:
        try:
            self.users.remove(release.request)
        except ValueError:
            raise RuntimeError("releasing a request that was never granted") from None
        self._grant_next()

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()
