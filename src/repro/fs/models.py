"""Filesystem timing models.

These model *when* I/O operations complete; the bytes themselves live in
the :class:`~repro.fs.vfs.VirtualDisk`.  All operations are generators
to be driven by a DES process (``yield from fs.write(...)``).

Three models, matching the platforms in the paper:

* :class:`NFSModel` — Turing's shared filesystem: a single NFS server.
  Writes are serialized through the server and *degrade further* under
  concurrent write demand (seek/locking interference); concurrent reads
  are tolerated much better (§7.1: "the NFS-mounted shared file system
  shows much better tolerance to concurrent reads than to concurrent
  writes").
* :class:`GPFSModel` — Frost's parallel filesystem: N server nodes,
  files striped round-robin; each server serves its queue FIFO.
* :class:`LocalFSModel` — an independent disk per node (no cross-node
  contention), for generality and unit testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..des import Environment, Resource
from ..util.units import MB, MSEC
from .vfs import VirtualDisk

__all__ = [
    "FSMetrics",
    "FileSystemModel",
    "NFSModel",
    "GPFSModel",
    "LocalFSModel",
]


@dataclass
class FSMetrics:
    """Aggregate counters maintained by every filesystem model."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    meta_ops: int = 0
    #: Total time spent inside write service (summed across streams).
    write_busy_time: float = 0.0
    read_busy_time: float = 0.0
    #: Most write requests ever in flight at once (active + queued).
    peak_write_demand: int = 0


class FileSystemModel:
    """Base class: open/meta, write, read timing operations.

    Subclasses override the three ``_service_*`` hooks to model their
    contention behaviour.  The public API is uniform:

    * ``yield from fs.meta_op(node)`` — open/close/create overhead
    * ``yield from fs.write(nbytes, node)`` — charge a write
    * ``yield from fs.read(nbytes, node)`` — charge a read

    ``node`` identifies the calling node (used by per-node local disks;
    shared filesystems ignore it).

    ``fs.write_lease(node)`` is the model's **write-slot lease**: a FIFO
    :class:`~repro.des.Resource` with one slot per independent write
    server.  Writers that take it around :meth:`write` never queue (or
    contend) inside the model; they queue outside, where they can do
    other work meanwhile.  Taking it is voluntary; :meth:`leased` is
    how a writer takes it.
    """

    def __init__(
        self, env: Environment, disk: Optional[VirtualDisk] = None, write_slots=1
    ):
        self.env = env
        self.disk = disk if disk is not None else VirtualDisk()
        self.metrics = FSMetrics()
        self._lease = Resource(env, capacity=write_slots)
        #: Current number of in-flight write requests (active + queued).
        self._write_demand = 0

    def write_lease(self, node=None) -> Resource:
        return self._lease

    def leased(self, node, land, asked=None):
        """Generator: run ``land(t_asked)`` in one hold of ``write_lease(node)``.

        The rule every leased writer follows: asking costs one lock RPC
        (:meth:`meta_op`), after which the request joins the lease's FIFO
        queue — ``asked(t_rpc)``, if given, runs at that instant, with
        the instant the RPC began — and ``land``, a generator function,
        runs at the grant, given the instant the request was made.  The
        caller pays its create and metadata round trips before and its
        close round trip after.  ``finally`` gives the lease back (or
        withdraws the request) on a fault and on a crash, so a writer
        retrying a fault waits out its back-off without the lease.
        """
        env = self.env
        t_rpc = env.now
        yield from self.meta_op(node)
        if asked is not None:
            asked(t_rpc)
        lease = self.write_lease(node)
        req = lease.request()
        t_asked = env.now
        try:
            yield req
            return (yield from land(t_asked))
        finally:
            if req.triggered:
                lease.release(req)
            else:
                req.cancel()

    @property
    def write_latency(self) -> float:
        """Seconds every write costs before its first byte: each model
        serves a write as ``meta_latency`` plus its bytes at bandwidth."""
        return self.meta_latency

    # -- public operations ----------------------------------------------
    def meta_op(self, node=None):
        """Open/close/create: small fixed-cost metadata round trip."""
        self.metrics.meta_ops += 1
        yield from self._service_meta(node)

    def meta_ops_bulk(self, count: int, node=None):
        """Charge ``count`` metadata round trips as one batched event.

        Virtual time equals ``count`` sequential :meth:`meta_op` calls
        (every model's metadata service is a flat per-op latency), but
        the DES processes a single timeout instead of ``count`` event
        chains — the wall-clock half of write coalescing.
        """
        if count < 0:
            raise ValueError("negative meta op count")
        if count == 0:
            return
        self.metrics.meta_ops += count
        yield from self._service_meta_bulk(count, node)

    def write(self, nbytes: int, node=None, land=None):
        """Charge the time for writing ``nbytes`` through this filesystem,
        then call ``land()`` — what puts the bytes on the disk, which may
        fault — and return its result.  The seconds count in
        ``write_busy_time`` either way; ``write_ops`` and ``bytes_written``
        count the write only once ``land`` has returned."""
        if nbytes < 0:
            raise ValueError("negative write size")
        metrics = self.metrics
        self._write_demand += 1
        if self._write_demand > metrics.peak_write_demand:
            metrics.peak_write_demand = self._write_demand
        t0 = self.env.now
        try:
            yield from self._service_write(nbytes, node)
        finally:
            self._write_demand -= 1
        metrics.write_busy_time += self.env.now - t0
        landed = land() if land is not None else None
        metrics.write_ops += 1
        metrics.bytes_written += nbytes
        return landed

    def read(self, nbytes: int, node=None):
        """Charge the time for reading ``nbytes`` through this filesystem."""
        if nbytes < 0:
            raise ValueError("negative read size")
        self.metrics.read_ops += 1
        self.metrics.bytes_read += nbytes
        t0 = self.env.now
        yield from self._service_read(nbytes, node)
        self.metrics.read_busy_time += self.env.now - t0

    def drain_barrier(self):
        """Generator: return once every completed write is durable.

        A model that writes through is durable when :meth:`write`
        returns: this yields nothing — no event, no virtual time.  A
        write-behind tier overrides it.
        """
        yield from ()

    # -- hooks -----------------------------------------------------------
    def _service_meta(self, node):
        # Every model charges a flat ``meta_latency`` (set by the subclass)
        # per op, so the batched total below is exact.
        yield self.env.timeout(self.meta_latency)

    def _service_meta_bulk(self, count: int, node):
        yield self.env.timeout(count * self.meta_latency)

    def _hold(self, resource: Resource, service_time: Callable[[], float]):
        """Generator: queue for one slot of ``resource``, then hold it for
        ``service_time()`` seconds, computed at the grant.  An interrupt
        (a crash) withdraws the request while it queues and gives the
        slot back while it is held, so a dead rank's I/O keeps no slot."""
        req = resource.request()
        try:
            yield req
            yield self.env.timeout(service_time())
        finally:
            if req.triggered:
                resource.release(req)
            else:
                req.cancel()

    def _service_write(self, nbytes: int, node):
        raise NotImplementedError

    def _service_read(self, nbytes: int, node):
        raise NotImplementedError


class NFSModel(FileSystemModel):
    """Single-server NFS as on the Turing cluster.

    Writes: one service slot; effective bandwidth shrinks as concurrent
    write demand grows, ``bw / (1 + penalty * (demand - 1))``, modeling
    server-side interference between independent write streams.

    Reads: ``read_slots`` concurrent streams at full per-stream
    bandwidth (server read cache + no write locking).
    """

    def __init__(
        self,
        env: Environment,
        disk: Optional[VirtualDisk] = None,
        write_bw: float = 30 * MB,
        read_bw: float = 25 * MB,
        read_slots: int = 8,
        meta_latency: float = 1.5 * MSEC,
        write_penalty: float = 0.12,
        max_penalty_factor: float = 6.0,
    ):
        super().__init__(env, disk)
        self.write_bw = write_bw
        self.read_bw = read_bw
        self.meta_latency = meta_latency
        self.write_penalty = write_penalty
        self.max_penalty_factor = max_penalty_factor
        self.read_slots = read_slots
        self._write_server = Resource(env, capacity=1)
        self._read_server = Resource(env, capacity=read_slots)

    def _service_write(self, nbytes: int, node):
        def service_time():
            factor = 1.0 + self.write_penalty * (self._write_demand - 1)
            factor = min(factor, self.max_penalty_factor)
            return self.meta_latency + nbytes / (self.write_bw / factor)

        yield from self._hold(self._write_server, service_time)

    def _service_read(self, nbytes: int, node):
        yield from self._hold(
            self._read_server, lambda: self.meta_latency + nbytes / self.read_bw
        )


class GPFSModel(FileSystemModel):
    """Striped parallel filesystem as on ASCI Frost (2 GPFS server nodes).

    Each call is assigned to a server round-robin; each server has
    ``slots`` concurrent service slots at ``server_bw`` aggregate
    bandwidth split evenly across its active streams (approximated by
    charging ``nbytes / (server_bw / slots)`` when fully loaded is
    avoided — instead we serialize per slot at full bandwidth, which
    yields the same aggregate rate with FIFO fairness).
    """

    def __init__(
        self,
        env: Environment,
        disk: Optional[VirtualDisk] = None,
        nservers: int = 2,
        server_bw: float = 60 * MB,
        slots_per_server: int = 1,
        meta_latency: float = 0.8 * MSEC,
    ):
        if nservers <= 0:
            raise ValueError("nservers must be > 0")
        super().__init__(env, disk, write_slots=nservers * slots_per_server)
        self.nservers = nservers
        self.server_bw = server_bw
        self.meta_latency = meta_latency
        self._servers = [
            Resource(env, capacity=slots_per_server) for _ in range(nservers)
        ]
        self._next = 0

    def _pick_server(self) -> Resource:
        server = self._servers[self._next % self.nservers]
        self._next += 1
        return server

    def _service_write(self, nbytes: int, node):
        yield from self._hold(
            self._pick_server(), lambda: self.meta_latency + nbytes / self.server_bw
        )

    def _service_read(self, nbytes: int, node):
        yield from self._service_write(nbytes, node)


class LocalFSModel(FileSystemModel):
    """Independent disk per node: no cross-node contention."""

    def __init__(
        self,
        env: Environment,
        disk: Optional[VirtualDisk] = None,
        bw: float = 40 * MB,
        meta_latency: float = 0.3 * MSEC,
    ):
        super().__init__(env, disk)
        self.bw = bw
        self.meta_latency = meta_latency
        self._per_node: Dict[object, Resource] = {}

    def _node_disk(self, node) -> Resource:
        key = node if node is not None else "_shared"
        if key not in self._per_node:
            self._per_node[key] = Resource(self.env, capacity=1)
        return self._per_node[key]

    def write_lease(self, node=None) -> Resource:
        # One per node, like the disks (and kept beside them).
        return self._node_disk(("lease", node))

    def _service_write(self, nbytes: int, node):
        yield from self._hold(
            self._node_disk(node), lambda: self.meta_latency + nbytes / self.bw
        )

    def _service_read(self, nbytes: int, node):
        yield from self._service_write(nbytes, node)
