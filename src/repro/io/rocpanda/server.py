"""The Rocpanda I/O server: active buffering + write-behind (§4.1, §6.1).

A dedicated server rank runs :meth:`PandaServer.run` for the whole job:

* it **buffers** incoming data blocks instead of writing them, so the
  rendezvous send from the client completes as soon as the block is in
  server memory — the client returns to computation;
* it **writes behind**: while clients compute, the server drains its
  buffer into SHDF files, *checking for new client requests between
  writing two data blocks* (non-blocking probe), so writing always
  yields to new requests.  Blocks bound for one file are staged in
  that file's writer and land together in transfers of about
  :data:`WRITE_BEHIND_BYTES`; whenever the queue runs dry every stage
  is landed, so nothing is staged while the server blocks in probe or
  answers a sync.  Each landing holds the filesystem's **write-slot
  lease** (``fs.write_lease``), and a server queued for it keeps
  probing (:meth:`PandaServer._leased`): the servers take turns at the
  shared filesystem instead of contending inside it;
* when nothing is buffered it **blocks in probe**, leaving its CPU idle
  for the operating system — the SMP side-benefit of §4.1 (the noise
  model reads ``cpu.server_busy_fraction``, which the server keeps
  up to date);
* on **buffer overflow** it gracefully writes old blocks out to make
  room for incoming data;
* on **restart** (two-phase collective read) every client requests
  its wanted block IDs from every alive server, so each server derives
  the full block->owner map from its own request bucket — no server
  collective.  The server bulk-reads its round-robin share of the
  restart files in large sieved regions through the
  :class:`~repro.fs.coalesce.ReadCoalescer`, batch-decodes each region,
  and scatters one aggregated :class:`RestartBatch` per (region,
  owner) to whichever client wants the blocks — which is why a run may
  restart with a different number of servers than wrote the files.  The
  *next* region's disk read runs ahead while the current region's
  batches are on the wire, overlapping modeled disk and network time.
  A client whose server dies mid-read sends a ``resume_of`` request to
  the dead server's heir, which rescans that share and replies to the
  requester alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...des import Interrupt
from ...faults.retry import RetryPolicy, retrying
from ...fs.vfs import WriteFaultError
from ...shdf.codec import TornFileError
from ...shdf.drivers import HDFDriver, hdf4_driver
from ...shdf.file import SHDFReader, SHDFWriter
from ...vmpi.datatypes import ANY_SOURCE, ANY_TAG
from ..base import DataBlock, datasets_to_blocks
from .protocol import (
    TAG_BLOCK,
    TAG_CTRL,
    TAG_REPLY,
    BlockBatch,
    BlockEnvelope,
    ProtocolError,
    RestartBatch,
    RestartDone,
    RestartRequest,
    Shutdown,
    SyncReply,
    SyncRequest,
    WriteBegin,
)
from .topology import Topology, clients_of, failover_server

__all__ = ["ServerConfig", "ServerStats", "PandaServer", "server_file_path"]


def server_file_path(prefix: str, server_index: int) -> str:
    """Collective-mode file name for one server's part of a snapshot."""
    return f"{prefix}_s{server_index:04d}.shdf"


#: Bytes a file's write-behind stage holds before it lands as one
#: filesystem transfer.  A block that would push the stage past the
#: limit lands the stage first, so no transfer exceeds max(limit, one
#: block) — the longest a server holds the filesystem's write-slot
#: lease, and the longest it ignores probes.  Every block is staged,
#: eager or rendezvous: a landing never queues behind another server's
#: any more (see :meth:`PandaServer._leased`), so a merged transfer
#: costs its own bytes and nothing else.  256 KiB is where the lock RPC
#: per landing is paid back on every workload without the transfers
#: growing long enough to delay a sender (DESIGN §8 has the sweep).
WRITE_BEHIND_BYTES = 256 * 1024


@dataclass
class ServerConfig:
    """Tunables of one I/O server."""

    #: Buffer capacity for active buffering, in bytes.
    buffer_bytes: float = 512 * 1024 * 1024
    #: Scientific-format driver used for the files.
    driver: HDFDriver = field(default_factory=hdf4_driver)
    #: Per-block server-side bookkeeping cost on ingest (buffer
    #: management + Panda protocol handling), seconds.
    ingest_overhead: float = 0.4e-3
    #: Bandwidth of the buffering copy on the server (bytes/s).  Panda
    #: copies received blocks with large streaming memcpys, faster than
    #: the per-array buffering T-Rochdf does on the compute side.
    ingest_bw: float = 350 * 1024 * 1024
    #: Disable buffering entirely (ablation A1): write through, making
    #: clients wait for actual file I/O.
    active_buffering: bool = True
    #: ``server_busy_fraction`` while actively writing vs while idle.
    busy_fraction_writing: float = 0.95
    busy_fraction_idle: float = 0.05
    #: Backoff schedule for transient disk faults (write EIO, disk-full,
    #: restart read EIO).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Target bytes per bulk-read region in two-phase restart.  Regions
    #: are cut at data-block boundaries once they exceed this, so one
    #: region's decoded blocks can be scattered while the next region's
    #: disk read runs ahead.
    restart_region_bytes: float = 4 * 1024 * 1024
    #: Maximum hole (bytes) the restart read sieves through when
    #: merging record extents into one contiguous ``fs.read``.
    restart_sieve_gap: int = 65536


@dataclass
class ServerStats:
    """Accounting maintained by one server."""

    blocks_received: int = 0
    bytes_received: int = 0
    #: Blocks (and their array bytes) that have *landed* on disk; a
    #: block staged in a writer is not written yet.
    blocks_written: int = 0
    bytes_written: int = 0
    files_created: int = 0
    overflow_flushes: int = 0
    #: Staged transfers landed; ``blocks_written / write_flushes`` is the
    #: blocks-per-transfer ratio write-behind achieved.
    write_flushes: int = 0
    #: Staging + transfer time; queueing for the write slot is not in it.
    background_write_time: float = 0.0
    #: Idle waits in probe while queued for the write-slot lease (a
    #: message handled in between splits one), and their total time.
    slot_waits: int = 0
    slot_wait_time: float = 0.0
    restart_blocks_sent: int = 0
    peak_buffered_bytes: int = 0
    #: Blocks that arrived before their path's WriteBegin (message
    #: reordering between eager control and rendezvous data traffic)
    #: and were stashed until the announcement landed.
    orphan_blocks_stashed: int = 0
    #: Resilience accounting.
    crashed: bool = False
    write_retries: int = 0
    read_retries: int = 0
    duplicate_blocks_dropped: int = 0
    torn_files_skipped: int = 0
    restart_regions_read: int = 0
    restart_resumes_served: int = 0


class _PathState:
    """Per-output-file bookkeeping on the server."""

    __slots__ = (
        "writer",
        "writer_attrs",
        "begun",
        "expected",
        "received",
        "written",
        "staged",
        "opened",
        "seen",
    )

    def __init__(self):
        self.writer: Optional[SHDFWriter] = None
        self.writer_attrs: Dict[str, Any] = {}
        self.begun: set = set()
        self.expected: Dict[int, int] = {}
        self.received = 0
        #: Blocks landed on disk.
        self.written = 0
        #: Blocks staged in the writer, not landed: still buffer memory.
        self.staged: List = []
        self.opened = False
        #: (client, block_id) pairs already ingested — duplicate
        #: suppression for retried sends and duplicated messages.
        self.seen: set = set()


class PandaServer:
    """One dedicated I/O server process."""

    def __init__(self, ctx, topo: Topology, config: Optional[ServerConfig] = None):
        self.ctx = ctx
        self.topo = topo
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats()
        self.server_index = topo.servers.index(ctx.rank)
        self._paths: Dict[str, _PathState] = {}
        #: FIFO of (path, EncodedBlock) awaiting background write;
        #: entries keep their zero-copy record views.
        self._queue: deque = deque()
        self._buffered_bytes = 0
        #: Seconds spent queued for the write-slot lease, summed;
        #: ``_probing`` while a message is handled in between (no block
        #: may be written re-entrantly).
        self._lease_delay = 0.0
        self._probing = False
        self._shutdown_ranks: set = set()
        self._sync_waiters: List[Tuple[int, int]] = []
        #: path -> [(client, BlockEnvelope | BlockBatch), ...] that
        #: arrived before the path's first WriteBegin.  A small eager
        #: WriteBegin queues on the destination NIC while a rendezvous
        #: block announcement (a control message that skips the NIC)
        #: lands ahead of it — at 256+ ranks with >16 KiB blocks this
        #: reordering is routine, so the server stashes the early
        #: blocks and replays them when the announcement arrives.
        self._orphans: Dict[str, List[Tuple[int, Any]]] = {}
        self._restart_requests: Dict[str, Dict[int, RestartRequest]] = {}
        self._faults = getattr(ctx.machine, "faults", None)
        #: Reused by _expected_clients when no injector is installed
        #: (frozen: the membership can only change under faults).
        self._clients_nofault = frozenset(topo.my_clients)
        #: path -> number of times the path was retired; a later
        #: re-announcement (a failed-over client re-shipping) writes a
        #: new generation file instead of truncating the committed one.
        self._file_gens: Dict[str, int] = {}
        #: (prefix, share rank) -> decoded datasets of that dead
        #: server's file share; fills on the first failover resume so
        #: later resumes for the same share skip the rescan.
        self._resume_cache: Dict[Tuple[str, int], List] = {}

    # -- main loop -------------------------------------------------------
    def run(self):
        """Generator: serve until every client has sent Shutdown.

        An injected crash (:class:`~repro.des.Interrupt`) abandons open
        writers without their commit footers — their files are
        detectably torn and the restart scan skips them — and returns
        with ``stats.crashed`` set.
        """
        try:
            result = yield from self._serve()
            return result
        except Interrupt as exc:
            self.stats.crashed = True
            rec = self.ctx.recorder
            if rec is not None:
                rec.record_counter("rocpanda", "server_crashes")
                self.ctx.log_fault(f"server rank {self.ctx.rank} crashed: {exc.cause}")
            return self.stats

    def _serve(self):
        ctx = self.ctx
        world = self.topo.world
        while True:
            if self._queue:
                # Data to write: poll for new requests (non-blocking),
                # otherwise write one buffered block out (§6.1).
                status = world.iprobe(ANY_SOURCE, ANY_TAG)
                if status is not None:
                    yield from self._handle_one(status)
                else:
                    yield from self._write_one_block()
            elif self._expected_clients() <= self._shutdown_ranks:
                break
            else:
                # Nothing to write: block in probe; the CPU is idle and
                # absorbs OS background work (§4.1).
                self.ctx.cpu.server_busy_fraction = self.config.busy_fraction_idle
                status = yield from world.probe(ANY_SOURCE, ANY_TAG)
                yield from self._handle_one(status)
            self._answer_sync_waiters()
        if self._orphans:
            # A stashed block whose WriteBegin never arrived is a real
            # protocol violation, not transient reordering.
            paths = sorted(self._orphans)
            raise ProtocolError(
                f"server rank {self.ctx.rank} shut down with data blocks "
                f"for paths {paths} that never saw a WriteBegin"
            )
        yield from self._close_finished_paths(force=True)
        # Under a burst storage tier, the server's durability promise
        # extends through the write-behind drain: wait for it before
        # answering the final syncs and going away.
        barrier = getattr(ctx.fs, "drain_barrier", None)
        if barrier is not None:
            yield from barrier()
        self._answer_sync_waiters()
        return self.stats

    def _expected_clients(self) -> set:
        """World ranks whose data (and Shutdown) this server must see.

        Without fault injection this is exactly ``my_clients``.  With
        faults it additionally adopts the clients of every dead server
        whose deterministic failover target (:func:`failover_server`)
        is this rank — the same pure rule the clients evaluate, so both
        sides agree without coordination.
        """
        faults = self._faults
        if faults is None:
            return self._clients_nofault
        expected = set(self.topo.my_clients)
        servers = self.topo.servers
        for dead in faults.dead_ranks():
            expected.discard(dead)
            if dead not in servers or dead == self.ctx.rank:
                continue
            try:
                heir = failover_server(dead, servers, faults.is_dead)
            except RuntimeError:
                continue
            if heir == self.ctx.rank:
                expected.update(
                    r
                    for r in clients_of(dead, servers, self.topo.nprocs)
                    if not faults.is_dead(r)
                )
        return expected

    # -- message handling ---------------------------------------------------
    def _handle_one(self, status):
        world = self.topo.world
        msg, st = yield from world.recv(source=status.source, tag=status.tag)
        if isinstance(msg, WriteBegin):
            yield from self._on_write_begin(st.source, msg)
        elif isinstance(msg, BlockEnvelope):
            yield from self._on_block(st.source, msg)
        elif isinstance(msg, BlockBatch):
            yield from self._on_block_batch(st.source, msg)
        elif isinstance(msg, SyncRequest):
            self._sync_waiters.append((st.source, msg.seq))
        elif isinstance(msg, RestartRequest):
            yield from self._on_restart_request(st.source, msg)
        elif isinstance(msg, Shutdown):
            self._shutdown_ranks.add(st.source)
        else:
            raise TypeError(f"server got unexpected message {type(msg).__name__}")

    def _on_write_begin(self, client: int, msg: WriteBegin):
        state = self._paths.setdefault(msg.path, _PathState())
        state.begun.add(client)
        state.expected[client] = msg.nblocks
        if not state.opened:
            state.opened = True
            gen = self._file_gens.get(msg.path, 0)
            file_path = server_file_path(msg.path, self.server_index)
            if gen:
                file_path = f"{msg.path}_s{self.server_index:04d}g{gen}.shdf"
            state.writer = SHDFWriter(
                self.ctx.env,
                self.ctx.fs,
                file_path,
                self.config.driver,
                node=self.ctx.node,
                recorder=self.ctx.recorder,
                rank=self.ctx.rank,
                visible=not self.config.active_buffering,
            )
            state.writer_attrs = dict(msg.file_attrs)
        orphans = self._orphans.pop(msg.path, None)
        if orphans:
            # Replay blocks that overtook this announcement; their
            # ingest cost is charged now, at processing time.
            for oclient, omsg in orphans:
                if isinstance(omsg, BlockBatch):
                    yield from self._on_block_batch(oclient, omsg)
                else:
                    yield from self._on_block(oclient, omsg)

    def _stash_orphan(self, client: int, msg) -> None:
        """Hold a block that arrived before its path's WriteBegin."""
        self._orphans.setdefault(msg.path, []).append((client, msg))
        self.stats.orphan_blocks_stashed += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.record_counter("rocpanda", "orphan_blocks_stashed")

    def _on_block(self, client: int, msg: BlockEnvelope):
        state = self._paths.get(msg.path)
        if state is None or state.writer is None:
            # The data overtook the (eager, NIC-queued) WriteBegin:
            # stash it until the announcement lands.
            self._stash_orphan(client, msg)
            return
        cfg = self.config
        block = msg.block
        nbytes = block.nbytes
        self.stats.blocks_received += 1
        self.stats.bytes_received += nbytes
        t0 = self.ctx.now
        # Buffer-management / protocol bookkeeping per block.
        yield self.ctx.env.sleep(cfg.ingest_overhead)
        key = (client, block.block_id)
        if key in state.seen:
            # A resend whose first copy also arrived (duplicated message
            # or a retried send that was in fact delivered): drop it, or
            # the writer would emit duplicate dataset names.
            self.stats.duplicate_blocks_dropped += 1
            if self.ctx.recorder is not None:
                self.ctx.recorder.record_counter(
                    "rocpanda", "duplicate_blocks_dropped"
                )
            return
        state.seen.add(key)
        state.received += 1
        if not cfg.active_buffering:
            self.ctx.io_record(
                "rocpanda", "ingest", path=msg.path, nbytes=nbytes,
                t_start=t0, visible=False,
            )
            # Ablation: write through while the client waits (nothing
            # is ever queued, so every block lands on its own).
            self._buffered_bytes += nbytes
            yield from self._write_block(msg.path, block)
            yield from self._close_finished_paths()
            return
        # Copy into the server's buffer hierarchy.
        yield self.ctx.env.sleep(nbytes / cfg.ingest_bw)
        self.ctx.io_record(
            "rocpanda", "ingest", path=msg.path, nbytes=nbytes,
            t_start=t0, visible=False,
        )
        yield from self._make_room(nbytes)
        self._queue.append((msg.path, block))
        self._buffered_bytes += nbytes
        self.stats.peak_buffered_bytes = max(
            self.stats.peak_buffered_bytes, self._buffered_bytes
        )

    def _on_block_batch(self, client: int, msg: BlockBatch):
        """Generator: scatter one aggregated envelope into the buffer.

        The blocks arrive pre-serialised; each is requeued **without
        re-copying its payload** — the queue entries keep the zero-copy
        record views of the shared batch buffer.  Dedup runs per
        sub-block against the same ``(client, block_id)`` set
        :meth:`_on_block` uses, so a re-shipped batch after failover
        drops exactly the blocks the first delivery already landed.
        """
        state = self._paths.get(msg.path)
        if state is None or state.writer is None:
            self._stash_orphan(client, msg)
            return
        cfg = self.config
        blocks = msg.blocks
        total = sum(b.nbytes for b in blocks)
        self.stats.blocks_received += len(blocks)
        self.stats.bytes_received += total
        t0 = self.ctx.now
        # One bookkeeping charge per aggregated message.
        yield self.ctx.env.sleep(cfg.ingest_overhead)
        fresh = []
        for eb in blocks:
            key = (client, eb.block_id)
            if key in state.seen:
                self.stats.duplicate_blocks_dropped += 1
                if self.ctx.recorder is not None:
                    self.ctx.recorder.record_counter(
                        "rocpanda", "duplicate_blocks_dropped"
                    )
                continue
            state.seen.add(key)
            state.received += 1
            fresh.append(eb)
        if not cfg.active_buffering:
            self.ctx.io_record(
                "rocpanda", "ingest", path=msg.path, nbytes=total,
                t_start=t0, visible=False,
            )
            for eb in fresh:
                self._buffered_bytes += eb.nbytes
                yield from self._write_block(msg.path, eb)
            yield from self._close_finished_paths()
            return
        total_fresh = sum(b.nbytes for b in fresh)
        # One streaming copy into the buffer hierarchy for the batch.
        yield self.ctx.env.sleep(total_fresh / cfg.ingest_bw)
        self.ctx.io_record(
            "rocpanda", "ingest", path=msg.path, nbytes=total,
            t_start=t0, visible=False,
        )
        yield from self._make_room(total_fresh)
        for eb in fresh:
            self._queue.append((msg.path, eb))
        self._buffered_bytes += total_fresh
        self.stats.peak_buffered_bytes = max(
            self.stats.peak_buffered_bytes, self._buffered_bytes
        )

    # -- background writing --------------------------------------------------
    def _make_room(self, nbytes: int):
        """Generator: graceful overflow — write previously buffered data
        out to make room for ``nbytes`` of incoming data (§6.1)."""
        limit = self.config.buffer_bytes
        if self._buffered_bytes + nbytes <= limit or self._probing:
            return
        self.stats.overflow_flushes += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.record_counter("rocpanda", "overflow_flushes")
        while self._queue and self._buffered_bytes + nbytes > limit:
            yield from self._write_one_block()

    def _write_one_block(self):
        path, block = self._queue.popleft()
        yield from self._write_block(path, block)
        yield from self._close_finished_paths()

    def _note_write_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.write_retries += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.record_counter("rocpanda", "write_retries")
            self.ctx.log_fault(f"server write fault ({exc}); retry {attempt + 1}")

    def _retrying_write(self, op):
        """Generator: ``op()`` under the write-slot lease, retried on faults
        (released before each back-off, asked for again after it)."""
        return retrying(
            self.ctx.env, self.config.retry, lambda: self._leased(op),
            on_retry=self._note_write_retry,
        )

    def _leased(self, op):
        """Generator: run ``op()`` holding the filesystem's write-slot lease.

        Asking costs one lock RPC (``fs.meta_op``), paid before the
        request joins the queue.  While it is queued the server is back
        in its probe loop: a message ends the wait, the request is
        withdrawn (the lease is never held by a server doing something
        else), the message is handled, and the server asks again.  It
        stops probing only when it could not buffer the pending message
        — a full or write-through server makes its senders wait for the
        disk, as it always has.
        """
        ctx, cfg = self.ctx, self.config
        lease = ctx.fs.write_lease(ctx.node)
        yield from ctx.fs.meta_op(ctx.node)
        t0 = ctx.now
        req = lease.request()
        try:
            while not req.triggered:
                ctx.cpu.server_busy_fraction = cfg.busy_fraction_idle
                t_idle = ctx.now
                status = yield from self.topo.world.probe(ANY_SOURCE, ANY_TAG, until=req)
                if status is not None and (
                    not cfg.active_buffering
                    or self._buffered_bytes + status.nbytes > cfg.buffer_bytes
                ):
                    yield req
                if ctx.now > t_idle:
                    self.stats.slot_waits += 1
                    self.stats.slot_wait_time += ctx.now - t_idle
                    ctx.io_record("rocpanda", "slot_wait", t_start=t_idle, visible=False)
                    ctx.recorder.record_counter("rocpanda", "slot_waits")
                if req.triggered:
                    break
                req.cancel()
                self._probing = True
                yield from self._handle_one(status)
                self._probing = False
                req = lease.request()
            self._lease_delay += ctx.now - t0
            ctx.cpu.server_busy_fraction = cfg.busy_fraction_writing
            return (yield from op())
        finally:
            self._probing = False
            if req.triggered:
                lease.release(req)
            else:
                req.cancel()

    def _write_block(self, path: str, block):
        """Generator: write one buffered :class:`EncodedBlock`.

        The block's records are *staged* in the file's writer — format
        bookkeeping is paid per block, outside the lease — and the
        stage lands as one filesystem transfer once it holds
        :data:`WRITE_BEHIND_BYTES`.  A block that would push the stage
        past the limit lands it first.  When the queue has run dry
        every file's stage lands, so the server never sleeps in probe,
        nor answers a sync, on staged data (write-through never queues,
        so there every block lands on its own).  Record order is queue
        order whatever lands when: the files are byte-identical.

        Only the open and the landing can fault, and each retries on
        its own: a record is staged exactly once.  The ``bg_write``
        record is the time the server spent on this block, including a
        landing it triggered but not the wait for the lease (that is
        ``slot_wait``); the written counters move in :meth:`_land`.
        """
        cpu = self.ctx.cpu
        cpu.server_busy_fraction = self.config.busy_fraction_writing
        t0 = self.ctx.now
        delay0 = self._lease_delay
        state = self._paths[path]
        writer = state.writer
        records = block.records
        if not writer.is_open and writer.ndatasets == 0:
            # This block is the file's first: open the file.
            yield from self._retrying_write(
                lambda: writer.open(file_attrs=state.writer_attrs)
            )
            self.stats.files_created += 1
        if (
            writer.staged_bytes
            and writer.staged_bytes + writer.charge_for(records) > WRITE_BEHIND_BYTES
        ):
            yield from self._land(state)
        yield from writer.write_records(records)
        state.staged.append(block)
        if not self._queue:
            # list(): a WriteBegin handled while queued may add a path.
            for other in list(self._paths.values()):
                yield from self._land(other)
        elif writer.staged_bytes >= WRITE_BEHIND_BYTES:
            yield from self._land(state)
        t0 += self._lease_delay - delay0
        self.stats.background_write_time += self.ctx.now - t0
        self.ctx.io_record(
            "rocpanda", "bg_write", path=path, nbytes=block.nbytes,
            t_start=t0, visible=not self.config.active_buffering,
        )
        cpu.server_busy_fraction = self.config.busy_fraction_idle

    def _land(self, state: _PathState):
        """Generator: land one file's stage as a single transfer."""
        if not state.staged:
            return
        yield from self._retrying_write(state.writer.flush)
        # The staged blocks occupied buffer memory until this instant,
        # and only now are they written.
        for block in state.staged:
            self._buffered_bytes -= block.nbytes
            self.stats.bytes_written += block.data_nbytes
        state.written += len(state.staged)
        self.stats.blocks_written += len(state.staged)
        state.staged = []
        self.stats.write_flushes += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.record_counter("rocpanda", "write_flushes")

    def _close_finished_paths(self, force: bool = False):
        """Generator: close and retire every fully-written output file."""
        if not self._paths:
            return
        expected_clients = self._expected_clients()
        nexpected = len(expected_clients)
        retire = []
        for path, state in self._paths.items():
            # Monotone-counter precondition: completion needs every
            # expected client announced and received == written, so the
            # subset/sum work below only runs when it could pass.
            # Staged blocks count as drained here: a file whose last
            # block is staged lands and closes now.
            drained = state.written + len(state.staged)
            if not force and (
                len(state.begun) < nexpected or state.received != drained
            ):
                continue
            announced = expected_clients <= state.begun
            all_expected = sum(state.expected.values()) if announced else None
            complete = (
                announced
                and state.received == all_expected
                and drained == all_expected
            )
            if complete or (force and state.opened):
                retire.append((path, state))
        for path, state in retire:
            # Retired before the close queues for the lease: a client
            # re-announcing the path meanwhile starts a new generation.
            del self._paths[path]
            if self._faults is not None:
                self._file_gens[path] = self._file_gens.get(path, 0) + 1
        for path, state in retire:
            if state.writer is not None and state.writer.is_open:
                yield from self._land(state)
                yield from self._retrying_write(state.writer.close)

    def _answer_sync_waiters(self) -> None:
        if not self._sync_waiters:
            return
        if self._queue or any(s.received != s.written for s in self._paths.values()):
            return
        waiters, self._sync_waiters = self._sync_waiters, []
        world = self.topo.world
        for client, seq in waiters:
            # Eager-sized reply echoing the request's seq; fire-and-forget.
            self.ctx.env.process(
                world.send(SyncReply(seq), dest=client, tag=TAG_REPLY),
                name="panda-sync-reply",
            )

    # -- restart (collective read) ---------------------------------------------
    def _on_restart_request(self, client: int, msg: RestartRequest):
        if msg.resume_of is not None:
            # Failover resume: served immediately and independently of
            # any round-0 bucket — the request carries the block IDs
            # its sender is still missing.
            yield from self._serve_restart_resume(client, msg)
            return
        bucket = self._restart_requests.setdefault(msg.prefix, {})
        bucket[client] = msg
        # Every live client requests from every alive server, so this
        # server's own bucket is the full owner map.
        if len(bucket) >= len(self._expected_restart_clients()):
            yield from self._do_restart_batched(msg.prefix)
            del self._restart_requests[msg.prefix]

    def _expected_restart_clients(self) -> set:
        """Live compute ranks that join a collective restart."""
        ranks = set(range(self.topo.nprocs)) - set(self.topo.servers)
        if self._faults is None:
            return ranks
        return {r for r in ranks if not self._faults.is_dead(r)}

    # -- two-phase restart (sieved bulk reads + read-ahead) ---------------------
    def _note_read_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.read_retries += 1
        if self.ctx.recorder is not None:
            self.ctx.recorder.record_counter("rocpanda", "read_retries")
            self.ctx.log_fault(f"server read fault ({exc}); retry {attempt + 1}")

    def _restart_files(self, prefix: str) -> List[str]:
        files = sorted(
            f for f in self.ctx.fs.disk.listdir(prefix + "_s") if f.endswith(".shdf")
        )
        if not files:
            raise FileNotFoundError(
                f"no Rocpanda restart files with prefix {prefix!r}"
            )
        return files

    def _scan_restart_share(self, prefix: str, share_index: int):
        """Generator: structurally scan one server share of the restart files.

        Returns ``(readers, flat)`` where ``flat`` is the ordered list
        of ``(reader, region_entries)`` bulk-read units.  Torn files
        (no commit footer — their writer crashed mid-snapshot) are
        skipped; their blocks come from the survivor that adopted the
        dead server's clients.
        """
        ctx = self.ctx
        files = self._restart_files(prefix)
        readers = []
        flat = []
        for file_path in files[share_index :: self.topo.nservers]:
            reader = SHDFReader(
                ctx.env, ctx.fs, file_path, self.config.driver, node=ctx.node,
                recorder=ctx.recorder, rank=ctx.rank,
            )
            try:
                yield from reader.open_scan()
            except TornFileError as exc:
                self.stats.torn_files_skipped += 1
                if ctx.recorder is not None:
                    ctx.recorder.record_counter("rocpanda", "torn_files_skipped")
                    ctx.log_fault(f"skipping torn restart file {file_path}: {exc}")
                continue
            readers.append(reader)
            for region in _restart_regions(
                reader.entries(), self.config.restart_region_bytes
            ):
                flat.append((reader, region))
        return readers, flat

    def _read_regions(self, flat):
        """Generator: yield each region's decoded datasets, reading ahead.

        The next region's sieved disk read is launched as its own DES
        process *before* the current region's datasets are handed to
        the caller — so while the caller scatters batch replies over
        the network, the disk is already serving the next region.
        Transient read faults are retried *inside* that process; a
        read-ahead whose retries are exhausted returns the fault as its
        value (a failed event nobody waits on yet would crash the
        simulation) and the fault is raised here, when the caller
        reaches that region.

        Implemented as a generator-of-generators: the caller drives
        ``for step in self._read_regions(flat): datasets = yield from step``.
        """
        ctx = self.ctx
        gap = self.config.restart_sieve_gap

        def read(reader, region):
            try:
                datasets = yield from retrying(
                    ctx.env, self.config.retry,
                    lambda: reader.read_extents(region, sieve_gap=gap),
                    on_retry=self._note_read_retry,
                )
            except WriteFaultError as exc:
                return exc
            return datasets

        pending = None

        def advance(i):
            nonlocal pending
            if pending is None:
                pending = ctx.env.process(
                    read(*flat[i]), name="panda-restart-read"
                )
            current = pending
            if i + 1 < len(flat):
                pending = ctx.env.process(
                    read(*flat[i + 1]), name="panda-restart-readahead"
                )
            else:
                pending = None
            result = yield current
            if isinstance(result, WriteFaultError):
                raise result
            return result

        for i in range(len(flat)):
            self.stats.restart_regions_read += 1
            yield advance(i)

    def _region_blocks(self, datasets, window: str, attr_filter):
        """Group one region's datasets into per-block payloads."""
        blocks = datasets_to_blocks(
            [d for d in datasets if d.name.startswith(window + "/")]
        )
        if attr_filter is not None:
            for block in blocks:
                block.arrays = {
                    k: v for k, v in block.arrays.items() if k in attr_filter
                }
                block.specs = {
                    k: v for k, v in block.specs.items() if k in attr_filter
                }
        return blocks

    def _do_restart_batched(self, prefix: str):
        """Generator: the two-phase collective restart for one snapshot.

        Phase one gathered every live client's wanted block IDs into
        ``self._restart_requests[prefix]`` (each client requests from
        *every* alive server, so the bucket is the complete owner map —
        no allgather, no barrier: per-channel FIFO ordering guarantees
        each client's RestartDone arrives after its last batch).
        Phase two bulk-reads this server's file share region by region,
        batch-decodes, and scatters one :class:`RestartBatch` per
        (region, owner).
        """
        ctx = self.ctx
        world = self.topo.world
        requests = self._restart_requests[prefix]
        owner_of: Dict[int, int] = {
            bid: client
            for client, req in requests.items()
            for bid in req.block_ids
        }
        first = next(iter(requests.values()))
        window = first.window
        attr_filter = first.attr_names
        sent = 0
        t0 = ctx.now
        scanned_bytes = 0
        readers, flat = yield from self._scan_restart_share(
            prefix, self.server_index
        )
        for step in self._read_regions(flat):
            datasets = yield from step
            scanned_bytes += sum(d.nbytes for d in datasets)
            per_owner: Dict[int, List[DataBlock]] = {}
            for block in self._region_blocks(datasets, window, attr_filter):
                owner = owner_of.get(block.block_id)
                if owner is None:
                    continue
                per_owner.setdefault(owner, []).append(block)
            for owner in sorted(per_owner):
                blocks = per_owner[owner]
                yield from world.send(
                    RestartBatch(prefix, blocks, len(blocks)),
                    dest=owner, tag=TAG_REPLY,
                )
                sent += len(blocks)
        for reader in readers:
            yield from reader.close()
        self.stats.restart_blocks_sent += sent
        ctx.io_record(
            "rocpanda", "restart_scan", path=prefix, nbytes=scanned_bytes,
            t_start=t0,
        )
        for client in sorted(self._expected_restart_clients()):
            yield from world.send(
                RestartDone(prefix, sent), dest=client, tag=TAG_REPLY
            )

    def _serve_restart_resume(self, client: int, msg: RestartRequest):
        """Generator: serve a failover resume for a dead server's share.

        Replies go to the requesting client **only** — a multicast to
        all owners could rendezvous-block forever against clients that
        already completed their restart and left the reply loop.
        """
        ctx = self.ctx
        share = msg.resume_of
        world = self.topo.world
        self.stats.restart_resumes_served += 1
        if ctx.recorder is not None:
            ctx.recorder.record_counter("rocpanda", "restart_resumes_served")
            ctx.log_fault(f"resuming share of dead server {share} for client {client}")
        sent = 0
        if msg.block_ids:
            datasets = yield from self._restart_share_datasets(msg.prefix, share)
            wanted = set(msg.block_ids)
            blocks = [
                b
                for b in self._region_blocks(datasets, msg.window, msg.attr_names)
                if b.block_id in wanted
            ]
            if blocks:
                yield from world.send(
                    RestartBatch(msg.prefix, blocks, len(blocks)),
                    dest=client, tag=TAG_REPLY,
                )
                sent = len(blocks)
                self.stats.restart_blocks_sent += sent
        yield from world.send(
            RestartDone(msg.prefix, sent, resume_of=share),
            dest=client, tag=TAG_REPLY,
        )

    def _restart_share_datasets(self, prefix: str, share_rank: int):
        """Generator: decode (and cache) a dead server's restart share."""
        key = (prefix, share_rank)
        cached = self._resume_cache.get(key)
        if cached is not None:
            return cached
        share_index = self.topo.servers.index(share_rank)
        readers, flat = yield from self._scan_restart_share(prefix, share_index)
        datasets: List = []
        for step in self._read_regions(flat):
            region_datasets = yield from step
            datasets.extend(region_datasets)
        for reader in readers:
            yield from reader.close()
        self._resume_cache[key] = datasets
        return datasets


def _restart_regions(entries, region_bytes: float):
    """Split scan entries into bulk-read regions cut at block boundaries.

    ``entries`` are ``(name, offset, length)`` in on-disk order with
    names shaped ``window/b<id>/<attr>``; a region never splits one
    data block's records, so each region decodes to whole blocks that
    can be scattered independently.
    """
    regions: List[List] = []
    current: List = []
    size = 0
    prev_block = None
    for entry in entries:
        name = entry[0]
        head = "/".join(name.split("/", 2)[:2])
        if current and head != prev_block and size >= region_bytes:
            regions.append(current)
            current = []
            size = 0
        current.append(entry)
        size += entry[2]
        prev_block = head
    if current:
        regions.append(current)
    return regions
