"""Common vmpi types: wildcards, status, message envelopes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "Envelope",
    "MPIError",
    "payload_nbytes",
    "shared_payload_nbytes",
    "make_envelope",
    "release_envelope",
]

#: Wildcard source for recv/probe.
ANY_SOURCE = -1
#: Wildcard tag for recv/probe.
ANY_TAG = -1

#: Protocol modes.
MODE_EAGER = "eager"
MODE_RNDV = "rndv"


class MPIError(RuntimeError):
    """Raised on misuse of the vmpi API."""


@dataclass(frozen=True, slots=True)
class Status:
    """Result metadata of a receive or probe."""

    source: int
    tag: int
    nbytes: int


@dataclass(slots=True)
class Envelope:
    """An in-flight message (internal; one allocated per message)."""

    comm_id: int
    src: int  # comm-local source rank
    dst: int  # comm-local destination rank
    tag: int
    payload: Any
    nbytes: int
    mode: str
    seq: int
    #: Fired when the payload transfer completes (rendezvous mode).
    done_event: Any = None

    def matches(self, source: int, tag: int) -> bool:
        return (source in (ANY_SOURCE, self.src)) and (tag in (ANY_TAG, self.tag))

    def status(self) -> Status:
        return Status(source=self.src, tag=self.tag, nbytes=self.nbytes)


#: Freelist size cap: beyond this the pool stops absorbing releases
#: (a burst of in-flight messages must not pin memory forever).
_ENVELOPE_POOL_CAP = 4096


def make_envelope(pool, comm_id, src, dst, tag, payload, nbytes, mode, seq) -> Envelope:
    """Allocate an :class:`Envelope`, reusing a pooled instance if any.

    ``pool`` is the owning job's shared freelist; a popped instance has
    every field overwritten (``done_event`` included), so reuse is
    indistinguishable from a fresh allocation.
    """
    if pool:
        envelope = pool.pop()
        envelope.comm_id = comm_id
        envelope.src = src
        envelope.dst = dst
        envelope.tag = tag
        envelope.payload = payload
        envelope.nbytes = nbytes
        envelope.mode = mode
        envelope.seq = seq
        envelope.done_event = None
        return envelope
    return Envelope(
        comm_id=comm_id, src=src, dst=dst, tag=tag, payload=payload,
        nbytes=nbytes, mode=mode, seq=seq,
    )


def release_envelope(pool, envelope: Envelope) -> None:
    """Return a fully-consumed envelope to the freelist.

    Payload and completion-event references are dropped immediately so
    a pooled envelope never keeps a large array alive.  Callers must
    guarantee no other holder can still observe the envelope — the
    receive path only releases when no fault filter is installed,
    because duplicate-injection delivers one envelope twice.
    """
    envelope.payload = None
    envelope.done_event = None
    if len(pool) < _ENVELOPE_POOL_CAP:
        pool.append(envelope)


#: Exact-type fast path for the scalar payloads that dominate call
#: volume (allreduce/control traffic); subclasses fall through to the
#: isinstance chain below.
_SCALAR_NBYTES = {int: 16, float: 16, bool: 16, type(None): 16}


def payload_nbytes(obj: Any) -> int:
    """Estimated wire size of a message payload in bytes.

    NumPy arrays and buffer-like objects report their true size; small
    Python structures are estimated structurally.  The constant for
    opaque objects is deliberately small — control messages in the I/O
    protocols are tiny compared to data blocks.
    """
    t = type(obj)
    fixed = _SCALAR_NBYTES.get(t)
    if fixed is not None:
        return fixed
    if t is str:
        return 48 + len(obj)
    if t is tuple or t is list:
        # Control payloads are mostly small tuples of scalars; jumping
        # straight to the recursion skips four isinstance checks and a
        # getattr per element-bearing call.
        return 48 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    nb = getattr(obj, "nbytes", None)
    if nb is not None:
        try:
            return int(nb)
        except (TypeError, ValueError):
            pass
    if isinstance(obj, str):
        return 48 + len(obj)
    if isinstance(obj, (int, float, bool, type(None))):
        return 16
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 48 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 64 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return 64


def shared_payload_nbytes(obj: Any, memo: dict) -> int:
    """:func:`payload_nbytes` of ``obj``, sizing each plain tuple inside
    it once per ``memo`` (keyed by ``id``, so the tuples must outlive
    it): many payloads that share one tuple — a split's members all
    carry their new group — pay for it once."""
    if type(obj) is tuple:
        nbytes = memo.get(id(obj))
        if nbytes is None:
            nbytes = memo[id(obj)] = 48 + sum(shared_payload_nbytes(x, memo) for x in obj)
        return nbytes
    return payload_nbytes(obj)
