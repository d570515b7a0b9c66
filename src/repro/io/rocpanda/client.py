"""The Rocpanda client-side service module (§4.1, §5, §6.1).

Loaded through Roccom on every *compute* rank; exposes the same
uniform ``write_attribute`` / ``read_attribute`` / ``sync`` interface
as Rochdf, but implemented by shipping data blocks to the rank's
dedicated I/O server.  The *visible* output cost is "the time to send
the output data to appropriate servers" (§7.1) — the actual file
writes happen behind the clients' backs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...des import Event, Store
from ...faults.retry import RetryPolicy
from ...roccom.module import ServiceModule
from ...vmpi.datatypes import ANY_SOURCE
from ...vthread import VThread
from ..base import IOStats, apply_block, collect_blocks
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
    encode_block_batch,
)
from .topology import Topology, failover_server

__all__ = ["RocpandaModule"]


class _PendingOutput:
    """One write_attribute call not yet acknowledged by a sync.

    Kept so that, when this client's server dies, everything the dead
    server may not have committed can be re-shipped wholesale to the
    failover target (whose block dedup drops anything it already has).
    """

    __slots__ = ("window", "batch", "file_attrs", "delivered_to")

    def __init__(self, window, batch: BlockBatch, file_attrs):
        self.window = window
        #: The snapshot as encoded at write_attribute time; re-ships
        #: resend these private record bytes, never the live arrays.
        self.batch = batch
        self.file_attrs = file_attrs
        #: Server rank this entry was last fully delivered to.
        self.delivered_to = None


class RocpandaModule(ServiceModule):
    """Collective I/O service bound to one client rank."""

    name = "rocpanda"

    #: Default per-block marshalling overhead (message assembly).
    PACK_OVERHEAD = 0.2e-3
    #: Default marshalling copy bandwidth, bytes/s.
    PACK_BW = 350 * 1024 * 1024

    def __init__(
        self,
        ctx,
        topo: Topology,
        pack_overhead: float = None,
        pack_bw: float = None,
        client_buffering: bool = False,
        retry: Optional[RetryPolicy] = None,
    ):
        """``client_buffering`` enables the *full* active-buffering
        hierarchy of [13]: output is first copied into client-side
        buffers (visible cost = the memcpy, like T-Rochdf) and a
        persistent background sender ships the blocks to the server.
        GENx's production configuration keeps this off — "only
        server-side buffering is used because the servers have enough
        idle memory" (§6.1) — but the hierarchy is part of the scheme.
        """
        if topo.is_server:
            raise ValueError("RocpandaModule is the client side; servers run PandaServer")
        self.ctx = ctx
        self.topo = topo
        self.pack_overhead = pack_overhead if pack_overhead is not None else self.PACK_OVERHEAD
        self.pack_bw = pack_bw if pack_bw is not None else self.PACK_BW
        self.client_buffering = client_buffering
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = IOStats()
        self.com = None
        self._finalized = False
        self._sender: Optional[VThread] = None
        self._send_queue: Optional[Store] = None
        self._pending_sends: List[Event] = []
        #: Current I/O server (``topo.my_server`` until a failover).
        self._server = topo.my_server
        #: FaultInjector when the machine runs under fault injection;
        #: None keeps every code path byte-identical to the fault-free
        #: module (the resilience layer costs one attribute check).
        self._faults = None
        self._unsynced: List[_PendingOutput] = []
        self._sync_seq = 0

    # -- module lifecycle ---------------------------------------------------
    def load(self, com) -> None:
        self.com = com
        self._faults = getattr(self.ctx.machine, "faults", None)
        self._register_io_window(com)
        if self.client_buffering:
            self._send_queue = Store(self.ctx.env)
            self._sender = VThread(
                self.ctx.env,
                self._sender_main(),
                name=f"panda-sender-r{self.ctx.rank}",
            )

    def unload(self, com):
        """Generator: drain buffered sends, join the sender, tear down.

        In client-buffering mode a plain teardown would drop
        ``_pending_sends`` and leave the background sender running;
        unload goes through the same drain-and-join path ``finalize``
        uses so no buffered block is lost.  Drive with
        ``yield from com.unload_module("rocpanda")``.
        """
        yield from self._shutdown_sender()
        self._deregister_io_window(com)
        self.com = None

    # -- uniform I/O interface ------------------------------------------------
    def write_attribute(
        self,
        window_name: str,
        attr_names: Optional[List[str]] = None,
        path: str = "snapshot",
        file_attrs: Optional[Dict[str, Any]] = None,
    ):
        """Generator: ship local panes to this rank's I/O server.

        Returns when every block is buffered at the server (active
        buffering) — NOT when it is on disk; use ``sync`` to wait for
        disk if needed.
        """
        ctx = self.ctx
        t0 = ctx.now
        blocks = collect_blocks(self.com, window_name, attr_names)
        total = sum(b.nbytes for b in blocks)
        # Serialising the datasets into the shared batch buffer IS the
        # snapshot copy: blocking-I/O semantics let the caller mutate
        # its arrays the moment this call returns (§6), and the record
        # bytes are already private.  The copy's time cost is part of
        # the modeled transfer + server ingest.
        batch = encode_block_batch(path, blocks)
        attrs = dict(file_attrs or {})
        if self.client_buffering:
            # Full active-buffering hierarchy ([13]): visible cost is
            # the local copy; the background sender ships the batch.
            yield from ctx.memcpy(total)
            done = Event(ctx.env)
            self._pending_sends.append(done)
            self._send_queue.put((window_name, batch, attrs, done))
        else:
            yield from self._deliver(window_name, batch, attrs)
        self.stats.snapshots += 1
        self.stats.visible_write_time += ctx.now - t0
        ctx.io_record(
            self.name, "write_attribute", path=path, nbytes=total, t_start=t0
        )

    def _deliver(self, window_name, batch, file_attrs):
        """Generator: ship one snapshot (from the caller or the sender)."""
        if self._faults is None:
            yield from self._ship(window_name, batch, file_attrs)
        else:
            self._unsynced.append(_PendingOutput(window_name, batch, file_attrs))
            yield from self._deliver_pending()

    def _ship(self, window_name, batch, file_attrs):
        """Generator: two-phase ship of a pre-encoded snapshot batch.

        One WriteBegin, then per block a pack timeout and a rendezvous
        flight — each ``EncodedBlock`` pins its accounting size to the
        source block's, so every envelope has the byte count the block
        itself would.  With a single client the server idles during the
        pack gaps; with many clients other blocks fill them — the
        pipelining behind Fig 3(a)'s throughput rise from 1 to 15
        clients.  The server appends the record bytes verbatim.
        """
        ctx = self.ctx
        world = self.topo.world
        path = batch.path
        blocks = batch.blocks
        yield from world.send(
            WriteBegin(
                path=path,
                window=window_name,
                nblocks=len(blocks),
                total_bytes=sum(b.nbytes for b in blocks),
                file_attrs=file_attrs,
            ),
            dest=self._server,
            tag=TAG_CTRL,
        )
        server = self._server
        sleep = ctx.env.sleep
        pack_overhead = self.pack_overhead
        pack_bw = self.pack_bw
        stats = self.stats
        for eb in blocks:
            yield sleep(pack_overhead + eb.nbytes / pack_bw)
            yield from world.send(
                BlockEnvelope(path, eb), server, TAG_BLOCK, nbytes=eb.nbytes + 64
            )
            stats.blocks_written += 1
            stats.bytes_written += eb.data_nbytes

    # -- resilience layer (active only under fault injection) ---------------
    def _record_counter(self, name: str) -> None:
        rec = self.ctx.recorder
        if rec is not None:
            rec.record_counter(self.name, name)

    def _failover(self) -> None:
        """Retarget to the deterministic replacement for a dead server."""
        dead = self._server
        self._server = failover_server(dead, self.topo.servers, self._faults.is_dead)
        self.stats.failovers += 1
        self._record_counter("failovers")
        self.ctx.log_fault(f"server {dead} dead; failing over to {self._server}")

    def _send_guarded(self, msg, tag):
        """Generator: send with timeout + backoff; returns 'ok' or 'dead'.

        ``"retracted"`` verdicts (the server never saw the message) are
        resent after exponential backoff; ``"stuck"`` verdicts mean the
        server is mid-pull, so the message counts as delivered (server
        block dedup covers the crashed-mid-pull corner at re-ship).
        """
        ctx = self.ctx
        world = self.topo.world
        policy = self.retry
        for attempt in range(policy.max_attempts):
            if self._faults.is_dead(self._server):
                return "dead"
            verdict = yield from world.send_with_timeout(
                msg, dest=self._server, tag=tag, timeout=policy.op_timeout
            )
            if verdict == "ok":
                return "ok"
            if self._faults.is_dead(self._server):
                return "dead"
            if verdict == "stuck":
                return "ok"
            self.stats.retries += 1
            self._record_counter("retries")
            yield ctx.env.sleep(policy.delay(attempt))
        if self._faults.is_dead(self._server):
            return "dead"
        raise RuntimeError(
            f"rank {ctx.rank}: send to Rocpanda server {self._server} "
            f"kept timing out"
        )

    def _ship_guarded(self, entry: _PendingOutput):
        """Generator: ship one pending output; returns 'ok' or 'dead'.

        The whole snapshot rides a single guarded :class:`BlockBatch`
        (its wire size is the sum of the per-block envelopes), so a
        failover re-ships one message instead of N, and the server's
        per-block dedup drops whatever the dead server already
        persisted.
        """
        ctx = self.ctx
        batch = entry.batch
        total = sum(b.nbytes for b in batch.blocks)
        verdict = yield from self._send_guarded(
            WriteBegin(
                path=batch.path,
                window=entry.window,
                nblocks=len(batch.blocks),
                total_bytes=total,
                file_attrs=entry.file_attrs,
            ),
            TAG_CTRL,
        )
        if verdict != "ok":
            return verdict
        # One marshalling charge for the aggregated envelope.
        yield ctx.env.sleep(self.pack_overhead + total / self.pack_bw)
        verdict = yield from self._send_guarded(batch, TAG_BLOCK)
        if verdict != "ok":
            return verdict
        # Per delivery attempt: a re-ship after failover re-counts the
        # blocks it re-sends.
        self.stats.blocks_written += len(batch.blocks)
        self.stats.bytes_written += sum(b.data_nbytes for b in batch.blocks)
        return "ok"

    def _deliver_pending(self):
        """Generator: (re)ship entries not yet delivered to the current server."""
        for _ in range(len(self.topo.servers) + 1):
            undelivered = [
                e for e in self._unsynced if e.delivered_to != self._server
            ]
            if not undelivered:
                return
            failed = False
            for entry in undelivered:
                verdict = yield from self._ship_guarded(entry)
                if verdict == "dead":
                    failed = True
                    break
                entry.delivered_to = self._server
            if not failed:
                return
            self._failover()
        raise RuntimeError(
            f"rank {self.ctx.rank}: could not deliver output to any "
            f"Rocpanda server"
        )

    def _sender_main(self):
        """Persistent background sender (client-side buffering mode)."""
        while True:
            job = yield self._send_queue.get()
            if job is None:
                return
            window_name, batch, file_attrs, done = job
            t0 = self.ctx.now
            yield from self._deliver(window_name, batch, file_attrs)
            done.succeed()
            self.ctx.io_record(
                self.name, "bg_ship", path=batch.path,
                nbytes=sum(b.nbytes for b in batch.blocks), t_start=t0,
                visible=False,
            )

    def _drain_sends(self):
        """Generator: wait until all buffered sends reached the server."""
        pending, self._pending_sends = self._pending_sends, []
        for done in pending:
            yield done

    def read_attribute(
        self,
        window_name: str,
        attr_names: Optional[List[str]] = None,
        path: str = "snapshot",
    ):
        """Generator: collective restart from server-written files.

        All clients must call this collectively: every client
        announces its wanted block IDs to every alive server; servers
        bulk-read their file shares and scatter aggregated batches
        back.  Returns the restored block IDs.
        """
        ctx = self.ctx
        t0 = ctx.now
        yield from self._drain_sends()
        if self._faults is not None and self._faults.is_dead(self._server):
            self._failover()
        window = self.com.window(window_name)
        wanted = set(window.pane_ids())
        restored, nbytes = yield from self._read_batched(
            window_name, wanted, attr_names, path
        )
        self.stats.visible_read_time += ctx.now - t0
        ctx.io_record(
            self.name, "read_attribute", path=path, nbytes=nbytes, t_start=t0
        )
        return sorted(restored)

    def _apply_batch(self, msg: RestartBatch, source: int, wanted, restored):
        """Apply one scatter batch; returns the payload bytes applied."""
        if len(msg.blocks) != msg.nblocks:
            raise ProtocolError(
                f"rank {self.ctx.rank}: RestartBatch from rank {source} "
                f"declares {msg.nblocks} blocks but carries {len(msg.blocks)}"
            )
        nbytes = 0
        for block in msg.blocks:
            if block.block_id not in wanted:
                # Duplicate (another file generation, or a resume that
                # re-read blocks already applied); first copy wins.
                continue
            apply_block(self.com, block)
            restored.append(block.block_id)
            wanted.discard(block.block_id)
            self.stats.blocks_read += 1
            self.stats.bytes_read += block.data_nbytes
            nbytes += block.nbytes
        return nbytes

    def _read_batched(self, window_name, wanted, attr_names, path):
        """Generator: the two-phase collective restart (client side).

        Sends this rank's wanted set to **every alive server** (each
        server derives the complete block->owner map from its own
        request bucket), then drains aggregated :class:`RestartBatch`
        replies until one :class:`RestartDone` per outstanding *file
        share* has arrived.  ``awaiting`` maps each share (keyed by the
        server rank that owns it in the round-robin file assignment) to
        the rank currently serving it; when a serving rank dies, the
        share is re-requested from its deterministic heir with the
        still-missing block IDs (``resume_of``) and the heir replies to
        this client alone.
        """
        ctx = self.ctx
        world = self.topo.world
        faults = self._faults
        servers = self.topo.servers
        attrs = tuple(attr_names) if attr_names is not None else None
        if faults is None:
            alive = list(servers)
        else:
            alive = [s for s in servers if not faults.is_dead(s)]
        #: share rank -> rank currently expected to serve that share.
        awaiting: Dict[int, int] = {}
        request = RestartRequest(
            prefix=path,
            window=window_name,
            block_ids=tuple(sorted(wanted)),
            attr_names=attrs,
        )
        for server in alive:
            yield from world.send(request, dest=server, tag=TAG_CTRL)
            awaiting[server] = server
        # Shares of servers already dead before the restart began are
        # claimed from their heirs straight away.
        for dead in (s for s in servers if s not in awaiting):
            heir = failover_server(dead, servers, faults.is_dead)
            yield from world.send(
                RestartRequest(
                    prefix=path,
                    window=window_name,
                    block_ids=tuple(sorted(wanted)),
                    attr_names=attrs,
                    resume_of=dead,
                ),
                dest=heir,
                tag=TAG_CTRL,
            )
            awaiting[dead] = heir
            self.stats.failovers += 1
            self._record_counter("failovers")
        restored: List[int] = []
        nbytes = 0
        misses = 0
        while awaiting:
            if faults is None:
                msg, status = yield from world.recv(
                    source=ANY_SOURCE, tag=TAG_REPLY
                )
            else:
                reply = yield from world.recv_with_timeout(
                    source=ANY_SOURCE, tag=TAG_REPLY,
                    timeout=self.retry.op_timeout * 4,
                )
                if reply is None:
                    # A share's server may have died mid-read: resume
                    # each orphaned share from its current heir, with
                    # the block IDs this rank is still missing.
                    moved = False
                    for share, serving in list(awaiting.items()):
                        if not faults.is_dead(serving):
                            continue
                        heir = failover_server(
                            serving, servers, faults.is_dead
                        )
                        yield from world.send(
                            RestartRequest(
                                prefix=path,
                                window=window_name,
                                block_ids=tuple(sorted(wanted)),
                                attr_names=attrs,
                                resume_of=share,
                            ),
                            dest=heir,
                            tag=TAG_CTRL,
                        )
                        awaiting[share] = heir
                        self.stats.failovers += 1
                        self._record_counter("failovers")
                        moved = True
                    if not moved:
                        misses += 1
                        if misses > 1000:
                            raise RuntimeError(
                                f"rank {ctx.rank}: Rocpanda batched restart "
                                f"stalled waiting on shares {sorted(awaiting)}"
                            )
                    continue
                msg, status = reply
            if isinstance(msg, RestartBatch):
                nbytes += self._apply_batch(msg, status.source, wanted, restored)
            elif isinstance(msg, RestartDone):
                share = (
                    msg.resume_of if msg.resume_of is not None else status.source
                )
                awaiting.pop(share, None)
            elif isinstance(msg, SyncReply):
                # Stale ack from a re-sent sync request; drop it.
                continue
            else:
                raise ProtocolError(
                    f"rank {self.ctx.rank}: unexpected restart reply "
                    f"{type(msg).__name__} from rank {status.source}"
                )
        if wanted:
            raise KeyError(
                f"restart of {window_name!r} from {path!r} is missing blocks "
                f"{sorted(wanted)}"
            )
        return restored, nbytes

    def sync(self):
        """Generator: wait until everything this rank sent is on disk."""
        t0 = self.ctx.now
        world = self.topo.world
        yield from self._drain_sends()
        if self._faults is None:
            yield from world.send(SyncRequest(), dest=self._server, tag=TAG_CTRL)
            msg, _ = yield from world.recv(source=self._server, tag=TAG_REPLY)
            if not isinstance(msg, SyncReply):
                raise TypeError(f"expected SyncReply, got {type(msg).__name__}")
        else:
            yield from self._sync_resilient()
        self.stats.sync_time += self.ctx.now - t0
        self.ctx.io_record(self.name, "sync", t_start=t0)

    def _sync_resilient(self):
        """Generator: sync that survives lost messages and dead servers.

        Requests carry a sequence number the server echoes; on a reply
        timeout the request is re-sent (same seq) while the server is
        alive, and stale replies from earlier requests are discarded.
        A dead server triggers failover: re-ship everything unsynced to
        the replacement, then sync against it.
        """
        world = self.topo.world
        policy = self.retry
        self._sync_seq += 1
        seq = self._sync_seq
        for _ in range(len(self.topo.servers) + 1):
            yield from self._deliver_pending()
            verdict = yield from self._send_guarded(SyncRequest(seq), TAG_CTRL)
            if verdict == "dead":
                self._failover()
                continue
            acked = False
            misses = 0
            while not acked:
                reply = yield from world.recv_with_timeout(
                    source=self._server, tag=TAG_REPLY,
                    timeout=policy.op_timeout * 4,
                )
                if reply is None:
                    if self._faults.is_dead(self._server):
                        break
                    misses += 1
                    if misses > 1000:
                        raise RuntimeError(
                            f"rank {self.ctx.rank}: Rocpanda sync stalled"
                        )
                    # Request or reply lost (or the server is still
                    # draining its queue): ask again with the same seq.
                    self.stats.retries += 1
                    self._record_counter("retries")
                    verdict = yield from self._send_guarded(
                        SyncRequest(seq), TAG_CTRL
                    )
                    if verdict == "dead":
                        break
                    continue
                msg, _ = reply
                if isinstance(msg, SyncReply) and msg.seq == seq:
                    acked = True
                # else: stale reply from an earlier request; drop it.
            if acked:
                self._unsynced.clear()
                return
            self._failover()
        raise RuntimeError(
            f"rank {self.ctx.rank}: could not sync with any Rocpanda server"
        )

    def _shutdown_sender(self):
        """Generator: drain pending sends and join the background sender."""
        yield from self._drain_sends()
        if self._sender is not None and self._sender.alive:
            self._send_queue.put(None)  # shutdown token
            yield from self._sender.join()
        self._sender = None

    def finalize(self):
        """Generator: tell the server this client is done (call once)."""
        if self._finalized:
            return
        self._finalized = True
        yield from self._shutdown_sender()
        if self._faults is not None:
            yield from self._deliver_pending()
            if self._faults.is_dead(self._server):
                self._failover()
        yield from self.topo.world.send(
            Shutdown(), dest=self._server, tag=TAG_CTRL
        )
