"""Communicators: point-to-point messaging with eager/rendezvous protocols.

All blocking calls are generators driven by the owning rank's DES
process (``yield from comm.send(...)``).  Timing model per message:

* sender software overhead (``NetworkSpec.sw_overhead``);
* **eager** (size <= eager_threshold): the message is buffered and
  travels asynchronously; the send returns after the overhead.
* **rendezvous**: the sender posts a ready-to-send notice (one control
  latency), then blocks until the receiver matches it, answers with a
  clear-to-send (one control latency) and pulls the payload through the
  network (latency + size/bandwidth, queuing on the destination NIC).

This reproduces the back-pressure that matters for Rocpanda: a client
cannot complete a large send while its I/O server is busy elsewhere —
which is exactly why the servers' probe-between-writes policy (§6.1)
keeps client-visible time low.

Collectives are binomial trees rooted at the caller's root: O(log P)
communication rounds per collective, with aggregated payloads carried
as explicit ``(comm_rank, obj)`` pairs so placement stays rank-ordered
for arbitrary roots and non-contiguous sub-communicators.  ``alltoall``
runs flat pairwise rounds (send to ``rank+r``, receive from ``rank-r``)
instead of spawning one DES process per destination.

Tag space: user tags live in ``[0, _COLL_TAG_BASE)``; collectives use
an internal rotating window above the base.  Public point-to-point
calls validate tags eagerly and raise :class:`MPIError` on a reserved
tag, so application traffic can never cross-match collective traffic.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..des import Environment, Event
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    MODE_EAGER,
    MODE_RNDV,
    MPIError,
    Status,
    make_envelope,
    payload_nbytes,
    release_envelope,
    shared_payload_nbytes,
)

__all__ = ["Comm", "Request"]

#: Base of the internal tag space reserved for collectives.  User tags
#: must satisfy ``0 <= tag < _COLL_TAG_BASE``.
_COLL_TAG_BASE = 1 << 20
#: Width of the rotating collective-tag window above the base.  The
#: per-communicator sequence wraps inside it, so an arbitrarily long
#: run never walks the tag into unbounded integers (two collectives
#: 2^20 calls apart reusing a tag cannot be simultaneously in flight —
#: collectives are globally ordered per communicator).
_COLL_TAG_SPAN = 1 << 20


def _check_send_tag(tag: int) -> None:
    """Reject reserved/negative tags on the send side (MPI-style)."""
    if not 0 <= tag < _COLL_TAG_BASE:
        raise MPIError(
            f"tag {tag} outside the application tag range "
            f"[0, {_COLL_TAG_BASE}); tags >= {_COLL_TAG_BASE} are "
            f"reserved for collectives"
        )


def _check_recv_tag(tag: int) -> None:
    """Reject reserved tags on the receive side (ANY_TAG allowed)."""
    if tag != ANY_TAG and not 0 <= tag < _COLL_TAG_BASE:
        raise MPIError(
            f"tag {tag} outside the application tag range "
            f"[0, {_COLL_TAG_BASE}); tags >= {_COLL_TAG_BASE} are "
            f"reserved for collectives"
        )


class Request:
    """Handle for a non-blocking operation (isend/irecv)."""

    def __init__(self, env: Environment):
        self._event = Event(env)

    @property
    def complete(self) -> bool:
        return self._event.triggered

    def wait(self):
        """Generator: block until the operation completes; returns its value."""
        value = yield self._event
        return value

    def test(self) -> bool:
        return self._event.triggered


class _SendGuard:
    """The timer beside one guarded rendezvous wait.

    An expiry while ``alive()`` holds re-arms it — the announcement
    stays posted and keeps its place in the mailbox — and any other
    expiry ends the sender's wait with the verdict.  (An object, not a
    closure: a callback that re-registers itself would be a reference
    cycle pinning the payload until the next collection.)
    """

    __slots__ = ("env", "timeout", "alive", "mailbox", "envelope", "timer")

    def __init__(self, env, timeout, alive, mailbox, envelope):
        self.env = env
        self.timeout = timeout
        self.alive = alive
        self.mailbox = mailbox
        self.envelope = envelope
        self.arm()

    def arm(self) -> None:
        self.timer = self.env.timeout(self.timeout)
        self.timer.callbacks.append(self.expire)

    def expire(self, _event) -> None:
        envelope = self.envelope
        done = envelope.done_event
        if done.triggered:
            return
        if self.alive is not None and self.alive():
            self.arm()
        else:
            done.succeed("retracted" if self.mailbox.retract(envelope) else "stuck")


class Comm:
    """A communicator handle, bound to one rank.

    Each rank holds its own :class:`Comm` object for a given
    communicator id (mirroring how MPI communicators behave inside an
    SPMD program).
    """

    def __init__(self, job, comm_id: int, group: Tuple[int, ...], rank: int):
        self.job = job
        self.id = comm_id
        #: Global (launcher) ranks of the members, indexed by comm rank.
        self.group = tuple(group)
        #: This process's rank within the communicator.
        self.rank = rank
        self._coll_seq = 0
        self._send_seq = 0
        self._recorder = getattr(job, "recorder", None)
        #: Lazy cache of the per-message lookups, comm rank -> ``(Node,
        #: Mailbox, global rank)``; stable for the job's lifetime.
        #: Array-backed: comm ranks are dense, so a flat list beats a
        #: dict hash per message on the hot path.
        self._peer_cache = [None] * len(self.group)

    # -- introspection ----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def env(self) -> Environment:
        return self.job.env

    def global_rank(self, rank: Optional[int] = None) -> int:
        return self.group[self.rank if rank is None else rank]

    def _peer(self, rank: int):
        peer = self._peer_cache[rank]
        if peer is None:
            grank = self.group[rank]
            peer = self._peer_cache[rank] = (
                self.job.context(grank).node,
                self.job.mailbox(self.id, grank),
                grank,
            )
        return peer

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"{what} rank {rank} out of range for size {self.size}")

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Blocking send of ``obj`` to comm rank ``dest`` (generator).

        ``nbytes`` short-circuits :func:`payload_nbytes` when the caller
        already knows the wire size (batched envelopes do).  Raises
        :class:`MPIError` eagerly for tags in the reserved collective
        range (see module docstring).
        """
        _check_send_tag(tag)
        return self._send(obj, dest, tag, nbytes)

    def _send(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
        timeout: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ):
        """Generator: the one send body, no tag validation.

        ``timeout=None`` waits plainly; a timeout guards the rendezvous
        wait and makes the verdict (see :meth:`send_with_timeout`) mean
        something — a plain send reads ``"ok"`` whatever happened.
        """
        self._check_rank(dest, "dest")
        network = self.job.network
        env = self.env
        if nbytes is None:
            nbytes = payload_nbytes(obj)
        src_node, _, src_grank = self._peer(self.rank)
        dst_node, mailbox, dst_grank = self._peer(dest)
        self._send_seq += 1
        envelope = make_envelope(
            self.job.envelope_pool,
            self.id,
            self.rank,
            dest,
            tag,
            obj,
            nbytes,
            MODE_EAGER if network.is_eager(nbytes) else MODE_RNDV,
            self._send_seq,
        )
        recorder = self._recorder
        if recorder is not None:
            recorder.count_send(
                src_grank, dst_grank, nbytes, eager=envelope.mode == MODE_EAGER
            )
        # Fault-injection filter: one attribute check on the no-fault path.
        fault = None
        if network.fault_filter is not None:
            fault = network.fault_decision(src_grank, dst_grank, tag, nbytes)
        yield env.sleep(network.spec.sw_overhead)
        if envelope.mode == MODE_EAGER:
            # Buffered: payload travels on its own; send returns now.
            # The flight rides the network's callback chain — spawning a
            # process per eager message would double the event count.
            # Eager loss is undetectable at the transport, guarded or not.
            if fault is not None:
                kind, extra = fault
                if kind == "drop":
                    return "ok"  # lost on the wire; the sender cannot tell
                if kind == "duplicate":
                    network.schedule_delivery(
                        src_node, dst_node, nbytes, mailbox, envelope
                    )
                elif kind == "delay":
                    network.schedule_delivery(
                        src_node, dst_node, nbytes, mailbox, envelope,
                        extra_delay=extra,
                    )
                    return "ok"
            network.schedule_delivery(
                src_node, dst_node, nbytes, mailbox, envelope
            )
            return "ok"
        # Rendezvous: announce, then block until the receiver drains us.
        done = envelope.done_event = Event(env)
        yield from network.control_message(src_node, dst_node)
        if fault is not None:
            kind, extra = fault
            if kind == "drop":
                # Announcement lost: the receiver never sees the message.
                # A plain send does not detect it; a guarded one reports
                # it exactly like a timed-out, successfully retracted
                # send.
                if timeout is None:
                    return "ok"
                yield env.timeout(timeout)
                return "retracted"
            if kind == "delay":
                yield env.timeout(extra)
        mailbox.deliver(envelope)
        if timeout is None:
            yield done
            return "ok"
        # Guarded: the sender waits on ``done`` exactly as a plain send
        # does, with a timer beside it (:class:`_SendGuard`).
        guard = _SendGuard(env, timeout, alive, mailbox, envelope)
        verdict = yield done
        if verdict is not None:
            return verdict
        # Delivered: lazily cancel the still-queued timer so it neither
        # lingers in the depth accounting nor costs a dispatch when its
        # deadline arrives.
        guard.timer.cancel()
        return "ok"

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator); returns ``(payload, Status)``.

        Raises :class:`MPIError` eagerly for tags in the reserved
        collective range (``ANY_TAG`` is allowed).
        """
        _check_recv_tag(tag)
        return self._recv(source, tag)

    def _recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ):
        """Generator: the one receive body, no tag validation.

        With a ``timeout`` it returns ``None`` when nothing matched in
        time (see :meth:`recv_with_timeout`).
        """
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        env = self.env
        network = self.job.network
        dst_node, mailbox, grank = self._peer(self.rank)
        get_ev = mailbox.get_matching(source, tag)
        if timeout is None:
            envelope = yield get_ev
            mailbox.recycle(get_ev)
        elif get_ev.triggered:
            envelope = get_ev.value
        else:
            # The receiver waits on the match exactly as a plain receive
            # does; a timer that expires first withdraws the waiter and
            # ends the wait with no envelope.
            def expire(_event):
                if not get_ev.triggered:
                    mailbox.cancel_waiter(get_ev)
                    get_ev.succeed(None)

            guard = env.timeout(timeout)
            guard.callbacks.append(expire)
            envelope = yield get_ev
            if envelope is None:
                return None
            guard.cancel()
        if envelope.mode == MODE_RNDV:
            src_node = self._peer(envelope.src)[0]
            # Clear-to-send, then pull the payload through the network.
            yield from network.control_message(dst_node, src_node)
            yield from network.transfer(src_node, dst_node, envelope.nbytes)
            if not envelope.done_event.triggered:
                envelope.done_event.succeed()
        recorder = self._recorder
        if recorder is not None:
            recorder.count_recv(grank, envelope.nbytes)
        yield env.sleep(network.spec.sw_overhead)
        payload = envelope.payload
        status = envelope.status()
        if envelope.mode == MODE_EAGER and network.fault_filter is None:
            # The receiver is the envelope's last holder on the eager
            # path (the sender returned at hand-off); rendezvous
            # envelopes stay unpooled because a timed-out guarded
            # sender may still inspect them after this receive.
            release_envelope(self.job.envelope_pool, envelope)
        return payload, status

    # -- timeout-guarded point-to-point (resilience layer) -----------------
    def send_with_timeout(
        self, obj: Any, dest: int, tag: int = 0, timeout: float = 0.25,
        nbytes: Optional[int] = None, alive: Optional[Callable[[], bool]] = None,
    ):
        """Generator: send with delivery-timeout detection.

        ``alive`` is the caller's liveness knowledge of the receiver:
        while it returns true an unmatched announcement is not timed
        out — a slow receiver is waited for, at its place in the queue —
        and the guard only re-arms.  Returns one of:

        * ``"ok"`` — delivered (or eager: handed to the network; eager
          loss is undetectable at the transport and must be covered by a
          higher-level reply timeout);
        * ``"retracted"`` — rendezvous announcement timed out and was
          withdrawn before the receiver matched it: the message was
          *never seen*, so resending (possibly elsewhere) is safe;
        * ``"stuck"`` — timed out but the receiver already consumed the
          announcement (mid-pull, or crashed mid-pull).  The caller must
          decide using its own liveness knowledge; receiver-side
          duplicate suppression makes a resend safe.
        """
        _check_send_tag(tag)
        return self._send(obj, dest, tag, nbytes, timeout, alive)

    def recv_with_timeout(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, timeout: float = 0.25
    ):
        """Generator: receive, or return ``None`` after ``timeout``.

        On success returns ``(payload, Status)`` exactly like
        :meth:`recv`.  On timeout the pending match is cancelled so it
        cannot steal a later delivery.
        """
        _check_recv_tag(tag)
        return self._recv(source, tag, timeout)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; returns a :class:`Request`."""
        _check_send_tag(tag)
        return self._isend(obj, dest, tag)

    def _isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        request = Request(self.env)

        def _proc():
            yield from self._send(obj, dest, tag)
            request._event.succeed(None)

        self.env.process(_proc(), name=f"isend:{self.rank}->{dest}")
        return request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``wait()`` returns ``(payload, Status)``."""
        _check_recv_tag(tag)
        request = Request(self.env)

        def _proc():
            result = yield from self._recv(source, tag)
            request._event.succeed(result)

        self.env.process(_proc(), name=f"irecv:{self.rank}")
        return request

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, until: Optional[Event] = None):
        """Generator: block until a matching message is available.

        Returns its :class:`Status` without consuming the message, or
        ``None`` if the event ``until`` fires first.
        """
        _check_recv_tag(tag)
        return self._probe(source, tag, until)

    def _probe(self, source: int, tag: int, until: Optional[Event] = None):
        mailbox = self._peer(self.rank)[1]
        peek = mailbox.peek_matching(source, tag)
        if until is not None and not peek.triggered:
            # Withdrawn like a timed-out receive's waiter.
            def withdraw(_event):
                if not peek.triggered:
                    mailbox.cancel_waiter(peek)
                    peek.succeed(None)

            if until.triggered:
                withdraw(until)
            else:
                until.callbacks.append(withdraw)
        envelope = yield peek
        return None if envelope is None else envelope.status()

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Immediate probe: Status of a matching pending message, or None."""
        _check_recv_tag(tag)
        envelope = self._peer(self.rank)[1].find(source, tag)
        return None if envelope is None else envelope.status()

    # -- collectives ---------------------------------------------------------
    def _coll_tag(self) -> int:
        """Internal tag for the next collective call.

        All members must invoke collectives in the same order (standard
        MPI requirement), so the per-rank counter stays aligned.  The
        sequence rotates inside ``_COLL_TAG_SPAN`` so tags stay bounded
        on arbitrarily long runs.
        """
        self._coll_seq = self._coll_seq % _COLL_TAG_SPAN + 1
        return _COLL_TAG_BASE + self._coll_seq

    def barrier(self):
        """Generator: block until every member has entered the barrier."""
        yield from self.gather(None, root=0, _tag=self._coll_tag())
        yield from self.bcast(None, root=0, _tag=self._coll_tag())

    def bcast(self, obj: Any, root: int = 0, _tag: Optional[int] = None):
        """Generator: broadcast ``obj`` from ``root``; returns the object.

        Binomial-tree propagation: latency scales as O(log P).
        """
        self._check_rank(root, "root")
        tag = self._coll_tag() if _tag is None else _tag
        size = self.size
        if size == 1:
            return obj
        # Rotate so the root is virtual rank 0 (MPICH binomial scheme).
        vrank = (self.rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                src = (self.rank - mask) % size
                obj, _ = yield from self._recv(source=src, tag=tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size:
                dst = (self.rank + mask) % size
                yield from self._send(obj, dest=dst, tag=tag)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0, _tag: Optional[int] = None):
        """Generator: gather one object per rank to ``root``.

        Returns the list (indexed by comm rank) at the root, else None.
        Binomial tree, O(log P) rounds: every node accumulates
        ``(comm_rank, obj)`` pairs from its subtree before forwarding
        them to its parent, so the root places items by explicit rank —
        rank-ordered for any root and any (non-contiguous) group.
        """
        self._check_rank(root, "root")
        tag = self._coll_tag() if _tag is None else _tag
        size = self.size
        if size == 1:
            return [obj]
        rank = self.rank
        vrank = (rank - root) % size
        items: List[Tuple[int, Any]] = [(rank, obj)]
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = (vrank - mask + root) % size
                yield from self._send(items, dest=parent, tag=tag)
                return None
            child_v = vrank + mask
            if child_v < size:
                child = (child_v + root) % size
                payload, _ = yield from self._recv(source=child, tag=tag)
                items.extend(payload)
            mask <<= 1
        result: List[Any] = [None] * size
        for r, payload in items:
            result[r] = payload
        return result

    def scatter(self, objs: Optional[List[Any]], root: int = 0, _tag: Optional[int] = None):
        """Generator: root sends ``objs[i]`` to rank ``i``; returns own item.

        Binomial tree: each node forwards subtree bundles.  Items
        travel as ``(virtual_rank, obj)`` pairs; a node at virtual rank
        v (span = lowest set bit of v, or the next power of two above
        ``size`` at the root) peels off the half-spans
        ``[v + span/2, v + span)`` for its children, largest first.
        """
        self._check_rank(root, "root")
        tag = self._coll_tag() if _tag is None else _tag
        size = self.size
        rank = self.rank
        if rank == root and (objs is None or len(objs) != size):
            raise MPIError(
                f"scatter root needs a list of exactly {size} items"
            )
        if size == 1:
            return objs[0]
        vrank = (rank - root) % size
        if vrank == 0:
            held = [(v, objs[(v + root) % size]) for v in range(size)]
            span = 1
            while span < size:
                span <<= 1
        else:
            span = vrank & -vrank  # lowest set bit
            parent = (vrank - span + root) % size
            held, _ = yield from self._recv(source=parent, tag=tag)
        half = span >> 1
        if half:
            # Each item sized once per call, and a tuple the items share
            # (a split's group) once for all of them, before any send.
            memo: dict = {}
            sizes = {item[0]: shared_payload_nbytes(item, memo) for item in held}
        while half:
            child_v = vrank + half
            if child_v < size:
                mine: List[Tuple[int, Any]] = []
                theirs: List[Tuple[int, Any]] = []
                for v, o in held:
                    (theirs if v >= child_v else mine).append((v, o))
                child = (child_v + root) % size
                # payload_nbytes(theirs): a list's 48 bytes plus its items'.
                nbytes = 48 + sum(sizes[v] for v, _o in theirs)
                yield from self._send(theirs, dest=child, tag=tag, nbytes=nbytes)
                held = mine
            half >>= 1
        return held[0][1]

    def allgather(self, obj: Any):
        """Generator: gather to rank 0, then broadcast the list."""
        tag_g = self._coll_tag()
        tag_b = self._coll_tag()
        gathered = yield from self.gather(obj, root=0, _tag=tag_g)
        result = yield from self.bcast(gathered, root=0, _tag=tag_b)
        return result

    def reduce(self, obj: Any, op=None, root: int = 0):
        """Generator: reduce with binary ``op`` (default addition) at root."""
        if op is None:
            op = lambda a, b: a + b
        tag = self._coll_tag()
        gathered = yield from self.gather(obj, root=root, _tag=tag)
        if self.rank != root:
            return None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, obj: Any, op=None):
        """Generator: reduce at rank 0, then broadcast the result."""
        reduced = yield from self.reduce(obj, op=op, root=0)
        tag = self._coll_tag()
        result = yield from self.bcast(reduced, root=0, _tag=tag)
        return result

    def alltoall(self, objs: List[Any]):
        """Generator: pairwise exchange; returns list indexed by source.

        Round ``r`` sends to ``rank + r`` and receives from
        ``rank - r`` (mod P): in any round every rank's destination is
        simultaneously receiving from that rank, so the schedule is
        deadlock-free.  Eager payloads ride the network's callback
        chain inline; only a rendezvous-sized payload needs one
        (sequential, not concurrent) helper process so its handshake
        can overlap this rank's receive.
        """
        size = self.size
        if len(objs) != size:
            raise MPIError(f"alltoall needs exactly {size} items")
        tag = self._coll_tag()
        if size == 1:
            return [objs[0]]
        rank = self.rank
        network = self.job.network
        result: List[Any] = [None] * size
        result[rank] = objs[rank]
        for r in range(1, size):
            dst = (rank + r) % size
            src = (rank - r) % size
            obj = objs[dst]
            if network.is_eager(payload_nbytes(obj)):
                # Fire-and-forget: _send returns after sw_overhead.
                yield from self._send(obj, dest=dst, tag=tag)
                payload, _ = yield from self._recv(source=src, tag=tag)
            else:
                request = self._isend(obj, dest=dst, tag=tag)
                payload, _ = yield from self._recv(source=src, tag=tag)
                yield from request.wait()
            result[src] = payload
        return result

    # -- communicator management ----------------------------------------------
    def split(self, color: Optional[int], key: Optional[int] = None):
        """Generator: split into sub-communicators by ``color``.

        Ranks passing ``color=None`` receive ``None`` (MPI_UNDEFINED).
        Within a color, ranks are ordered by ``(key, old rank)``.
        This is how Rocpanda partitions MPI_COMM_WORLD into the client
        communicator and the server communicator at initialization
        (§4.1).
        """
        entry = (color, self.rank if key is None else key, self.rank)
        entries = yield from self.gather(entry, root=0, _tag=self._coll_tag())
        assignments = None
        if self.rank == 0:
            colors = sorted({c for c, _, _ in entries if c is not None})
            plans = {}
            for c in colors:
                members = sorted(
                    [(k, r) for cc, k, r in entries if cc == c]
                )
                ranks = [r for _, r in members]
                new_id = self.job.alloc_comm_id()
                group = tuple(self.group[r] for r in ranks)
                for new_rank, old_rank in enumerate(ranks):
                    plans[old_rank] = (new_id, group, new_rank)
            assignments = [plans.get(r) for r in range(self.size)]
        my_plan = yield from self.scatter(assignments, root=0, _tag=self._coll_tag())
        if my_plan is None:
            return None
        new_id, group, new_rank = my_plan
        return Comm(self.job, new_id, group, new_rank)

    def dup(self):
        """Generator: duplicate this communicator (fresh message space)."""
        new_comm = yield from self.split(color=0, key=self.rank)
        return new_comm

    def __repr__(self) -> str:
        return f"<Comm id={self.id} rank={self.rank}/{self.size}>"

