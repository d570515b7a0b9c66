"""The Rocpanda I/O server: active buffering + write-behind (§4.1, §6.1).

A dedicated server rank runs :meth:`PandaServer.run` for the whole job:

* it **buffers** incoming data blocks instead of writing them, so the
  rendezvous send from the client completes as soon as the block is in
  server memory — the client returns to computation;
* it **writes behind**, in two stages.  The **main loop** only
  receives: it probes, ingests and queues a block, and runs the merge
  protocol, so a client's rendezvous send never waits on writing.  The
  **lander**, a :class:`~repro.vthread.BackgroundWorker` (started on
  demand, gone when idle), stages the queued blocks a dataset per
  attribute, paying the format's directory bookkeeping (CPU), then seals
  stages and lands them, from a snapshot's first blocks on.  Under the
  filesystem's **write-slot lease** (``fs.write_lease``) only bytes
  move, one write per stage, a file's header riding its first and the
  commit footer its last.  Caught up with the queue, the lander seals a
  stage of :data:`WRITE_BEHIND_BYTES`, a smaller one only when its file
  is complete or the main loop waits (for a message or for the lander),
  so a busy lander's next stage is whatever queued during its landing.
  A sync is answered once queue, stages and lander are empty; the main
  loop waits for the lander only where clients are meant to wait for
  the disk: on **buffer overflow** (§6.1), write-through, the final close;
* with nothing to take it **blocks in probe**, its CPU idle for the
  operating system — the SMP side-benefit of §4.1 (the noise model
  reads ``cpu.server_busy_fraction``: busy while the lander works);
* a server whose clients are done **lingers** until every other
  server is done or dead (:mod:`.finale`);
* a **latency-bound share** — its clients' blocks of a path, fewer
  bytes than the network moves in one write's latency — rides the
  path's writer, a server on the same write slot, which lands it in its
  one file for the path (:mod:`.merge`);
* on **restart** (two-phase collective read) it hands the clients'
  requests to its :class:`~.restart.RestartService`, which reads the
  server's share of the restart files in large sieved regions, every
  one in flight at once, and scatters the decoded blocks to whichever
  client wants them — which is why a run may restart with a different
  number of servers than wrote the files.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...des import Interrupt
from ...faults.retry import RetryPolicy, retrying
from ...fs.vfs import WriteFaultError
from ...obs.records import OpSeconds
from ...shdf.drivers import HDFDriver, hdf4_driver
from ...shdf.file import SHDFWriter
from ...vmpi.datatypes import ANY_SOURCE, ANY_TAG
from ...vthread import BackgroundWorker
from ..base import block_record
from ..trochdf import BackgroundWriteError
from .finale import Finale
from .merge import MergeService
from .protocol import (
    TAG_REPLY, BlockEnvelope, Join, JoinReply, ProtocolError, RestartRequest,
    ShareBatch, Shutdown, SyncReply, SyncRequest, WriteBegin,
)
from .restart import RestartService
from .topology import Topology, expected_clients, server_file_path

__all__ = [
    "ServerConfig", "ServerStats", "PandaServer", "server_file_path", "DRAIN_TERMS",
    "server_drain",
]


#: The smallest write-behind stage worth a transfer: caught up with the
#: queue, the lander seals a file's stage once it holds this much, and a
#: smaller one only when the file is complete or the main loop waits.
#: While the lander lands, blocks queue unstaged, so its next transfer is
#: whatever queued meanwhile, bounded by ``ServerConfig.buffer_bytes``,
#: not by this.  Every block is staged, eager or rendezvous.  On the
#: strong workload 64 KiB / 256 KiB / 1 MiB land in 16 / 15 / 12 writes
#: and 0.326 / 0.324 / 0.316 s (DESIGN §8).
WRITE_BEHIND_BYTES = 256 * 1024


#: ``cpu.server_busy_fraction`` while the lander works and while it is
#: idle (§4.1): an idle server's CPU absorbs the node's OS background work.
BUSY_FRACTION_WRITING = 0.95
BUSY_FRACTION_IDLE = 0.05


@dataclass
class ServerConfig:
    """Tunables of one I/O server.  What it costs to take a block in is
    the machine's (``MachineSpec.ingest_overhead`` / ``ingest_bw``)."""

    #: Buffer capacity for active buffering, in bytes.
    buffer_bytes: float = 512 * 1024 * 1024
    #: Scientific-format driver used for the files.
    driver: HDFDriver = field(default_factory=hdf4_driver)
    #: Disable buffering entirely (ablation A1): write through, making
    #: clients wait for actual file I/O.
    active_buffering: bool = True
    #: Backoff schedule for transient disk faults (write EIO, disk-full,
    #: restart read EIO).
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class ServerStats(OpSeconds):
    """Accounting maintained by one server: counts, and the seconds of
    its own records per op (:data:`DRAIN_TERMS`, the restart's
    ``restart_scan`` / ``restart_read_wait`` / ``restart_scatter``)."""

    blocks_received: int = 0
    bytes_received: int = 0
    #: Blocks (and their array bytes) that have *landed* on disk; a
    #: block staged in a writer is not written yet.
    blocks_written: int = 0
    bytes_written: int = 0
    files_created: int = 0
    overflow_flushes: int = 0
    #: Landings: holds of the write slot, one filesystem write each;
    #: ``blocks_written / write_flushes`` is the blocks per transfer.
    write_flushes: int = 0
    restart_blocks_sent: int = 0
    peak_buffered_bytes: int = 0
    #: Latency-bound shares: joined to another server's file (shipped as
    #: ``forwarded_bytes`` on the wire), and taken into this server's;
    #: Joins this server refused, its file for the path already retired.
    joined_shares: int = 0
    merged_shares: int = 0
    forwarded_shares: int = 0
    forwarded_bytes: int = 0
    refused_joins: int = 0
    #: Blocks that overtook their path's WriteBegin (rendezvous data
    #: passing eager control), stashed until the announcement landed.
    orphan_blocks_stashed: int = 0
    #: Resilience accounting.
    crashed: bool = False
    write_retries: int = 0
    read_retries: int = 0
    duplicate_blocks_dropped: int = 0
    torn_files_skipped: int = 0
    restart_regions_read: int = 0
    restart_resumes_served: int = 0
    #: Hole bytes the sieved restart reads charged beside the records.
    restart_sieve_waste_bytes: int = 0
    #: Wire bytes of the collective restart's ``RestartBatch`` sends.
    restart_scatter_bytes: int = 0

    #: The fields :func:`repro.obs.stat_counts` exports as counts.
    COUNTS = (
        "write_flushes", "write_retries", "overflow_flushes", "orphan_blocks_stashed",
        "duplicate_blocks_dropped", "crashed", "forwarded_shares", "refused_joins",
        "read_retries", "torn_files_skipped", "restart_resumes_served",
    )

    def drain(self) -> List[float]:
        """Seconds per :data:`DRAIN_TERMS` term, in its order."""
        return [self.seconds.get(op, 0.0) for op in DRAIN_TERMS.values()]

    @property
    def background_write_time(self) -> float:
        """Write-behind work; queueing for the write slot is not in it."""
        bookkeeping, meta, lock_rpc, _slot_wait, transfer = self.drain()
        return bookkeeping + meta + lock_rpc + transfer


#: Where a server's drain went, all of it on its lander: term -> the op
#: of the records that time it.  Directory bookkeeping (CPU); create,
#: dataset and close round trips; a lock RPC per lease request; the
#: waits queued for the lease; the time holding it, failed attempts too.
DRAIN_TERMS = {
    "bookkeeping": "bg_write", "meta": "settle", "lock_rpc": "lock_rpc",
    "slot_wait": "slot_wait", "transfer": "land",
}


def server_drain(stats: Iterable[ServerStats]) -> Dict[str, float]:
    """``{term}_s`` per :data:`DRAIN_TERMS` for the server whose drain
    (their sum) was the longest; zeros without servers."""
    drains = [st.drain() for st in stats]
    slowest = max(drains, key=sum, default=[0.0] * len(DRAIN_TERMS))
    return {f"{term}_s": value for term, value in zip(DRAIN_TERMS, slowest)}


class _PathState:
    """Per-output-file bookkeeping on the server."""

    __slots__ = (
        "writer", "writer_attrs", "begun", "expected", "booked", "staged",
        "groups", "staged_bytes", "seen", "dropped", "owner", "held",
    )

    def __init__(self):
        self.writer: Optional[SHDFWriter] = None
        self.writer_attrs: Dict[str, Any] = {}
        self.begun: set = set()
        self.expected: Dict[int, int] = {}
        #: Blocks through the format bookkeeping: staged, sealed or landed.
        self.booked = 0
        #: The open stage: blocks (sealed ones travel with their landing),
        #: their bytes, their records by group — one dataset each.
        self.staged: List = []
        self.groups: Dict[tuple, List] = {}
        self.staged_bytes = 0
        #: (client, block_id) pairs already ingested — duplicate
        #: suppression for retried sends and duplicated messages.
        self.seen: set = set()
        #: client -> its blocks dropped as held elsewhere (:meth:`MergeService.durable`),
        #: which its WriteBegin, if still to come, does not count.
        self.dropped: Counter = Counter()
        #: Who lands the blocks (this server, the writer it joined, or
        #: ``None``: undecided, :mod:`.merge`); ``(client, block)`` held.
        self.owner: Optional[int] = None
        self.held: List = []


class PandaServer:
    """One dedicated I/O server process."""

    def __init__(self, ctx, topo: Topology, config: Optional[ServerConfig] = None):
        self.ctx = ctx
        self.topo = topo
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats()
        spec = ctx.machine.spec
        self._ingest_overhead = spec.ingest_overhead
        self._ingest_bw = spec.ingest_bw
        self.server_index = topo.servers.index(ctx.rank)
        self._paths: Dict[str, _PathState] = {}
        #: FIFO of (path, EncodedBlock) awaiting background write;
        #: entries keep their zero-copy record views.
        self._queue: deque = deque()
        self._buffered_bytes = 0
        #: FIFO of ``(path state, sealed blocks, close the file?)`` for
        #: the lander, and the lander; the fault a landing failed for good
        #: with; the main-loop process (interrupted then); bookkeeping or
        #: holds in progress; what the main loop waits for: ``"message"``
        #: (its inbox is empty), ``"lander"`` or nothing (``None``).
        self._landings: deque = deque()
        self._lander = BackgroundWorker(ctx.env, self._next_landing, "panda-lander")
        self._failure: Optional[WriteFaultError] = None
        self._main = None
        self._nworking = 0
        self._waiting: Optional[str] = None
        #: The servers' finalize, which sees who shut down (:mod:`.finale`).
        self._finale = Finale.of(ctx)
        self._shutdown_ranks = self._finale.shut[ctx.rank] = set()
        #: client -> seq of the sync it waits in; asking again (same
        #: seq) keeps its one entry, so each request is answered once.
        self._sync_waiters: Dict[int, int] = {}
        #: path -> [(client, BlockEnvelope), ...] that overtook the path's
        #: first WriteBegin (an eager message queues on the NIC while a
        #: rendezvous one skips it), replayed when the announcement lands.
        self._orphans: Dict[str, List[Tuple[int, BlockEnvelope]]] = {}
        #: The machine's live set of crashed ranks; ``_expected_clients()``
        #: and the number of dead ranks it was computed for.
        self._dead = ctx.machine.dead_ranks()
        self._expected = set(topo.my_clients)
        self._expected_ndead = 0
        #: path -> times the path was retired: a later re-announcement (a
        #: failover re-ship) writes a new generation file beside it.
        self._file_gens: Dict[str, int] = {}
        self._restart = RestartService(self)
        self._merge = MergeService(self)

    # -- main loop -------------------------------------------------------
    def run(self):
        """Generator: serve until every client has sent Shutdown and
        every other server is done or dead.

        An injected crash (:class:`~repro.des.Interrupt`) stops the
        lander, the forwarder and the restart reads at once, leaving open
        files torn (no commit footer: every reader skips them), and
        returns with ``stats.crashed`` set.  A landing whose retries are
        exhausted interrupts the main loop too, and raises here.
        """
        self._main = self.ctx.env.active_process
        try:
            result = yield from self._serve()
            return result
        except Interrupt as exc:
            if isinstance(exc.cause, WriteFaultError):
                raise BackgroundWriteError(
                    f"server rank {self.ctx.rank}: landing failed for good: {exc.cause}"
                ) from exc.cause
            self.stats.crashed = True
            self._finale.died(self.ctx.rank)
            self._lander.interrupt(exc.cause)
            self._restart.interrupt(exc.cause)
            self._merge.interrupt(exc.cause)
            self.ctx.log_fault(f"server rank {self.ctx.rank} crashed: {exc.cause}")
            return self.stats

    def _serve(self):
        while True:
            if (
                self._expected_clients() <= self._shutdown_ranks
                and not self._owed() and self._merge.settled()
            ):
                if self._queue or self._lander.busy:
                    # Staging what is queued may still complete a joined share.
                    yield from self._await_lander()
                    continue
                yield from self._finish()
                if (yield from self._finale.linger(self)):
                    return self.stats
                continue
            if self.topo.world.iprobe(ANY_SOURCE, ANY_TAG) is None:
                # The inbox is empty: the CPU absorbs OS background work
                # (§4.1) and the lander may seal what it has staged.
                self._waiting = "message"
                if any(state.staged for state in self._paths.values()):
                    self._lander.kick()
            yield from self._merge.next_message()
            if self._queue:
                self._lander.kick()
            self._answer_sync_waiters()

    def _finish(self):
        """Generator: every client has shut down: land what is left."""
        if self._orphans:
            # A stashed block whose WriteBegin never arrived is a real
            # protocol violation, not transient reordering.
            raise ProtocolError(
                f"server rank {self.ctx.rank} shut down with data blocks "
                f"for paths {sorted(self._orphans)} that never saw a WriteBegin"
            )
        self._merge.finish()
        self._close_finished_paths(force=True)
        yield from self._await_lander()
        # Under a burst storage tier, the server's durability promise extends
        # through the write-behind drain: wait for it before the final syncs.
        yield from self.ctx.fs.drain_barrier()
        self._answer_sync_waiters()

    def _expected_clients(self) -> set:
        """World ranks whose data (and Shutdown) this server must see
        (:func:`~.topology.expected_clients`), recomputed when a rank dies."""
        if len(self._dead) != self._expected_ndead:
            self._expected_ndead = len(self._dead)
            quiet = self._finale.quiet(self._dead)
            self._expected = expected_clients(self.ctx.rank, self.topo, self.ctx.machine, quiet)
            self._merge.prune(self._expected)
        return self._expected

    # -- message handling ---------------------------------------------------
    def _handle_one(self, status):
        got = yield from self.topo.world.recv(source=status.source, tag=status.tag)
        yield from self._dispatch(*got)

    def _dispatch(self, msg, st):
        self._waiting = None
        if isinstance(msg, WriteBegin):
            yield from self._on_write_begin(st.source, msg)
        elif isinstance(msg, BlockEnvelope):
            yield from self._on_block(st.source, msg)
        elif isinstance(msg, SyncRequest):
            self._sync_waiters[st.source] = msg.seq
            self._merge.on_quiet(st.source)
        elif isinstance(msg, (Join, ShareBatch, JoinReply)):
            yield from self._merge.on_message(st.source, msg)
        elif isinstance(msg, RestartRequest):
            yield from self._restart.on_request(st.source, msg)
        elif isinstance(msg, Shutdown):
            self._shutdown_ranks.add(st.source)
            self._merge.on_quiet(st.source)
        else:
            raise TypeError(f"server got unexpected message {type(msg).__name__}")

    def _open_path(self, path: str, file_attrs) -> _PathState:
        """A new state for ``path``: its file's writer (no file yet), and
        who lands it (:meth:`MergeService.first_owner`)."""
        state = self._paths[path] = _PathState()
        gen = self._file_gens.get(path, 0)
        state.writer = SHDFWriter(
            self.ctx.env, self.ctx.fs, server_file_path(path, self.server_index, gen),
            self.config.driver, node=self.ctx.node, recorder=self.ctx.recorder,
            rank=self.ctx.rank, visible=not self.config.active_buffering,
        )
        state.writer_attrs = dict(file_attrs)
        state.owner = self._merge.first_owner(path, gen)
        return state

    def _on_write_begin(self, client: int, msg: WriteBegin):
        state = self._paths.get(msg.path) or self._open_path(msg.path, msg.file_attrs)
        state.begun.add(client)
        state.expected[client] = msg.nblocks - state.dropped[client]
        yield from self._merge.on_announce(msg.path, state, client, msg.total_bytes)
        orphans = self._orphans.pop(msg.path, None)
        if orphans:
            # Replay blocks that overtook this announcement; their
            # ingest cost is charged now, at processing time.
            for oclient, omsg in orphans:
                yield from self._on_block(oclient, omsg)

    def _on_block(self, client: int, msg: BlockEnvelope):
        """Generator: take one client's block into the buffer."""
        if msg.path not in self._paths:
            if self._merge.taken(msg.path, client, msg.block.block_id):
                self.stats.duplicate_blocks_dropped += 1
                return
            # The data overtook the (eager, NIC-queued) WriteBegin:
            # stash it until the announcement lands.
            self._orphans.setdefault(msg.path, []).append((client, msg))
            self.stats.orphan_blocks_stashed += 1
            return
        self.stats.blocks_received += 1
        self.stats.bytes_received += msg.block.nbytes
        yield from self._take(msg.path, [(client, msg.block)])

    def _take(self, path: str, blocks: List, op: str = "ingest"):
        """Generator: take one message's ``(client, block)`` pairs — a
        client's block, or a joined share (``op`` ``"merge"``) — into the
        buffer and queue them for the lander.

        The blocks are queued **without re-copying their payload**
        (zero-copy record views of the sender's buffer).  Dedup runs
        against the path's ``(client, block_id)`` set — a duplicated
        message, a retried send, a failover re-ship — and drops a
        re-shipped block a committed file holds.
        """
        state = self._paths[path]
        cfg = self.config
        t0 = self.ctx.now
        # Buffer-management / protocol bookkeeping, once per message.
        yield self.ctx.env.sleep(self._ingest_overhead)
        fresh = []
        for client, eb in blocks:
            key = (client, eb.block_id)
            if key in state.seen or self._merge.durable(path, state, client, eb):
                self.stats.duplicate_blocks_dropped += 1
                continue
            state.seen.add(key)
            fresh.append((path, client, eb))
        nbytes = sum(eb.nbytes for _p, _c, eb in fresh)
        if not fresh:
            return
        if cfg.active_buffering:
            # One streaming copy into the server's buffer hierarchy.
            yield self.ctx.env.sleep(nbytes / self._ingest_bw)
        self.stats.fold(self.ctx.io_record(
            "rocpanda", op, path=path, nbytes=nbytes, t_start=t0, visible=False
        ))
        if cfg.active_buffering:
            yield from self._make_room(nbytes)
            self.stats.peak_buffered_bytes = max(
                self.stats.peak_buffered_bytes, self._buffered_bytes + nbytes
            )
        self._buffered_bytes += nbytes
        self._merge.enqueue(state, fresh)
        if self._queue:
            self._lander.kick()
        if not cfg.active_buffering:
            # Ablation A1: write through — the sender waits for the lander.
            yield from self._await_lander()

    def _make_room(self, nbytes: int):
        """Generator: graceful overflow — wait for the lander to land
        previously buffered data, landing by landing, until ``nbytes`` of
        incoming data fit (§6.1)."""
        limit = self.config.buffer_bytes
        if self._buffered_bytes + nbytes <= limit:
            return
        self.stats.overflow_flushes += 1
        self._merge.decide_all()
        yield from self._await_lander(
            lambda: self._buffered_bytes + nbytes <= limit or not self._lander.busy
        )

    def _await_lander(self, done=None):
        """Generator: the main loop waits for the lander — until ``done()``
        holds, by default until it is idle; meanwhile the lander seals
        whatever it has staged."""
        self._waiting = "lander"
        self._lander.kick()
        yield from self._lander.wait(done)
        self._waiting = None

    # -- background writing: the lander ---------------------------------------
    def _working(self, delta: int) -> None:
        """Busy CPU while the lander books or holds the lease (§4.1)."""
        self._nworking += delta
        self.ctx.cpu.server_busy_fraction = (
            BUSY_FRACTION_WRITING if self._nworking else BUSY_FRACTION_IDLE
        )

    def _stage_queue(self):
        """Generator, one job of the lander: stage every queued block —
        those that arrive meanwhile too — or hold it for the path's
        writer (:mod:`.merge`), retiring each file it completes."""
        while self._queue:
            path, client, block = self._queue.popleft()
            state = self._paths[path]
            if state.owner == self.ctx.rank:
                yield from self._stage_block(path, block)
            else:
                self._merge.hold(state, client, block)
            self._close_finished_paths()

    def _stage_block(self, path: str, block):
        """Generator: format bookkeeping for one buffered :class:`EncodedBlock`.

        Each of its records extends its group's dataset in the file's
        open stage or opens one; only an opened dataset pays the format's
        directory bookkeeping (CPU: the only time spent here), and a
        sealed stage lands a record per dataset.  Staging cannot fault,
        so a block is staged exactly once; ``bg_write`` records it.
        """
        self._working(+1)
        t0 = self.ctx.now
        state = self._paths[path]
        if not state.booked:
            state.writer.begin(state.writer_attrs)
        opened = 0
        for group, entry in zip(block.groups, block.entries):
            parts = state.groups.setdefault(group, [])
            opened += not parts
            parts.append((block, entry))
        state.staged.append(block)
        state.staged_bytes += block.nbytes
        yield from state.writer.book(opened, block.data_nbytes)
        state.booked += 1
        self.stats.fold(self.ctx.io_record(
            "rocpanda", "bg_write", path=path, nbytes=block.nbytes,
            t_start=t0, visible=not self.config.active_buffering,
        ))
        self._working(-1)

    def _seal(self, state: _PathState, close: bool = False) -> None:
        """Queue ``state``'s open stage, one record per dataset (and its
        file's close: the commit footer rides the last stage to land),
        for the lander."""
        state.writer.stage(block_record(*group) for group in state.groups.items())
        if close:
            state.writer.commit()
        state.writer.seal()
        self._landings.append((state, state.staged, close))
        state.staged, state.groups, state.staged_bytes = [], {}, 0
        self._lander.kick()

    def _close_finished_paths(self, force: bool = False) -> None:
        """Retire every fully-staged output file; the lander closes it."""
        if not self._paths:
            return
        expected_clients = self._expected_clients()
        nexpected = len(expected_clients)
        retire = []
        for path, state in self._paths.items():
            # Monotone-counter precondition: the subset/sum work below
            # runs only once every client could have announced.
            if not force and (
                len(state.begun) < nexpected or len(state.seen) != state.booked
            ):
                continue
            announced = expected_clients <= state.begun
            all_expected = sum(state.expected.values()) if announced else None
            complete = announced and len(state.seen) == state.booked == all_expected
            if force or complete and self._merge.may_retire(path):
                retire.append((path, state))
        for path, state in retire:
            # Retired before the close lands: a client re-announcing
            # the path meanwhile starts a new generation.
            del self._paths[path]
            self._merge.retire(path, state)
            if state.owner != self.ctx.rank:
                self._merge.forward(path, state)
            elif state.booked:
                self._file_gens[path] = self._file_gens.get(path, 0) + 1
                self._seal(state, close=True)

    def _note_write_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.write_retries += 1
        self.ctx.log_fault(f"server write fault ({exc}); retry {attempt + 1}")

    def _leased(self, writer: SHDFWriter, blocks: List):
        """Generator: one lander entry's landing — one write, whatever of
        header, records and footer — in one hold of the write-slot lease
        (:meth:`~repro.fs.models.FileSystemModel.leased`: one lock RPC,
        then the FIFO queue, where the request keeps its place while the
        main loop queues blocks).  A faulted landing appended nothing, so
        the retry lands the stage; its ``land`` record, of no bytes, still
        holds the time the failed attempt held the lease.
        """
        ctx, stats = self.ctx, self.stats
        shown = dict(path=writer.path, visible=not self.config.active_buffering)

        def asked(t_rpc):
            stats.fold(ctx.io_record("rocpanda", "lock_rpc", t_start=t_rpc, **shown))

        def land(t_asked):
            t_granted = ctx.now
            if t_granted > t_asked:
                stats.fold(ctx.io_record("rocpanda", "slot_wait", t_start=t_asked, visible=False))
            nbytes = sum(block.nbytes for block in blocks)
            landed = 0
            self._working(+1)
            try:
                yield from writer.land()
                # The blocks occupied buffer memory until this instant,
                # and only now are they written.
                self._buffered_bytes -= nbytes
                stats.bytes_written += sum(block.data_nbytes for block in blocks)
                stats.blocks_written += len(blocks)
                stats.write_flushes += 1
                blocks.clear()
                landed = nbytes
            finally:
                self._working(-1)
                stats.fold(ctx.io_record(
                    "rocpanda", "land", nbytes=landed, t_start=t_granted, **shown
                ))

        yield from ctx.fs.leased(ctx.node, land, asked)

    def _settle(self, writer: SHDFWriter, round_trips):
        """Generator: a writer's metadata round trips; they need no turn
        at the slot, so the lander pays them before or after a hold."""
        t0 = self.ctx.now
        yield from round_trips
        self.stats.fold(self.ctx.io_record(
            "rocpanda", "settle", path=writer.path, t_start=t0,
            visible=not self.config.active_buffering,
        ))

    def _next_landing(self):
        """The lander's next job, in queue order: a sealed stage to land,
        else the queued blocks to stage (:meth:`_stage_queue`).

        Caught up, it seals a stage that holds :data:`WRITE_BEHIND_BYTES`,
        and any stage while the main loop waits for it or for a message.
        With nothing sealed it pays an open stage's metadata round trips
        ahead of its hold; with nothing left it answers the waiting syncs.
        """
        if self._failure is not None:
            return None
        if not self._landings:
            if self._queue:
                return self._stage_queue()
            for state in self._paths.values():
                if state.staged and (state.staged_bytes >= WRITE_BEHIND_BYTES or self._waiting):
                    self._seal(state)
        if self._landings:
            return self._land(*self._landings[0])
        for state in self._paths.values():
            if state.writer.owed_meta:
                return self._settle(state.writer, state.writer.settle_meta())
        self._answer_sync_waiters()
        return None

    def _land(self, state: _PathState, blocks: List, close: bool):
        """Generator, one job of the lander: one sealed stage in one hold
        of the lease (:meth:`_leased`), the create and metadata round
        trips paid ahead of it and the close round trip after (a close
        whose footer rode the landing before takes no hold).  Records:
        ``settle`` the round trips, ``slot_wait`` the wait for the grant,
        ``land`` the hold.  A fault that outlasts the retries stops the
        lander and interrupts the main loop.
        """
        writer = state.writer
        try:
            if not writer.is_open:
                yield from self._settle(writer, writer.open())
                self.stats.files_created += 1
            if writer.owed_meta:
                yield from self._settle(writer, writer.settle_meta())
            if writer.owes_landing:
                # Retried on faults: the lease is released before each
                # back-off and asked for again after it.
                yield from retrying(
                    self.ctx.env, self.config.retry,
                    lambda: self._leased(writer, blocks),
                    on_retry=self._note_write_retry,
                )
            if close:
                yield from self._settle(writer, writer.release())
                self._merge.committed(state)
            self._landings.popleft()
        except WriteFaultError as exc:
            self.ctx.log_fault(f"server landing of {writer.path} FAILED: {exc}")
            self._failure = exc
            self._main.interrupt(exc)

    def _answer_sync_waiters(self) -> None:
        if not self._sync_waiters:
            return
        if self._buffered_bytes or self._landings:
            return
        owed = self._owed()
        waiters = {c: seq for c, seq in self._sync_waiters.items() if c not in owed}
        for client in waiters:
            del self._sync_waiters[client]
        self._merge.synced(waiters)
        for client, seq in waiters.items():
            self._reply(SyncReply(seq), client, TAG_REPLY)  # echoes the seq

    def _owed(self) -> set:
        """Clients whose announced blocks are not all in: a block still in
        flight can be overtaken by its sender's SyncRequest or Shutdown."""
        owed = set()
        for state in self._paths.values():
            got = Counter(client for client, _b in state.seen)
            owed.update(c for c, n in state.expected.items() if got[c] < n)
        return owed

    def _reply(self, msg, dest: int, tag: int) -> None:
        """Send a small reply, fire-and-forget."""
        self.ctx.env.process(self.topo.world.send(msg, dest=dest, tag=tag), name="panda-reply")
