"""The Rocpanda client-side service module (§4.1, §5, §6.1).

Loaded through Roccom on every *compute* rank; exposes the same
uniform ``write_attribute`` / ``read_attribute`` / ``sync`` interface
as Rochdf, but implemented by shipping data blocks to the rank's
dedicated I/O server.  The *visible* output cost is "the time to send
the output data to appropriate servers" (§7.1) — the actual file
writes happen behind the clients' backs.

There is one client protocol, whether or not a fault plan is installed:
a snapshot is one ``WriteBegin`` and a per-block stream of guarded
sends, ``sync`` and restart wait with timed receives.  What is sent, and
when, never depends on the plan; a live server is waited for, a dead one
(``machine.is_dead``) failed over, a lost announcement resent.  Output
is retained for a re-ship until the next ``sync``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from ...faults.retry import RetryPolicy
from ...roccom.module import ServiceModule
from ...vmpi.datatypes import ANY_SOURCE
from ...vthread import BackgroundWorker
from ..base import IOStats, apply_block, collect_blocks, per_window, window_prefixes
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
    restart_parts,
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

    def __init__(
        self,
        ctx,
        topo: Topology,
        client_buffering: bool = False,
        retry: Optional[RetryPolicy] = None,
    ):
        """``client_buffering`` enables the *full* active-buffering
        hierarchy of [13]: output is first copied into client-side
        buffers (visible cost = the memcpy, like T-Rochdf) and a
        background sender ships the blocks to the server.
        GENx's production configuration keeps this off — "only
        server-side buffering is used because the servers have enough
        idle memory" (§6.1) — but the hierarchy is part of the scheme.
        Each block's marshalling costs the machine's ``pack_overhead``
        and ``pack_bw`` (:class:`~repro.cluster.MachineSpec`).
        """
        if topo.is_server:
            raise ValueError("RocpandaModule is the client side; servers run PandaServer")
        self.ctx = ctx
        self.topo = topo
        spec = ctx.machine.spec
        self.pack_overhead = spec.pack_overhead
        self.pack_bw = spec.pack_bw
        self.client_buffering = client_buffering
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = IOStats()
        self.com = None
        self._finalized = False
        #: Client-side buffering: ``(window, batch, file_attrs)`` of the
        #: calls not yet shipped, oldest first, and the background
        #: sender that ships them; both stay empty and idle without it.
        self._sends: deque = deque()
        self._sender = BackgroundWorker(
            ctx.env, self._next_send, f"panda-sender-r{ctx.rank}"
        )
        #: Current I/O server (``topo.my_server`` until a failover), and
        #: the machine's live set of crashed ranks.
        self._server = topo.my_server
        self._dead = ctx.machine.dead_ranks()
        #: Output a failover would re-ship: everything since the last
        #: acknowledged sync.
        self._unsynced: List[_PendingOutput] = []
        self._sync_seq = 0

    # -- module lifecycle ---------------------------------------------------
    def load(self, com) -> None:
        self.com = com
        self._register_io_window(com)

    def unload(self, com):
        """Generator: drain buffered sends, then tear down.

        In client-buffering mode a plain teardown would drop the
        buffered sends and leave the background sender running; unload
        waits for it as ``finalize`` does, so no buffered block is lost.
        Drive with ``yield from com.unload_module("rocpanda")``.
        """
        yield from self._sender.wait()
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
            self._sends.append((window_name, batch, attrs))
            self._sender.kick()
        else:
            yield from self._deliver(window_name, batch, attrs)
        self.stats.snapshots += 1
        self.stats.fold(ctx.io_record(
            self.name, "write_attribute", path=path, nbytes=total, t_start=t0
        ))

    def _deliver(self, window_name, batch, file_attrs):
        """Generator: ship one snapshot (from the caller or the sender)."""
        self._unsynced.append(_PendingOutput(window_name, batch, file_attrs))
        yield from self._deliver_pending()

    # -- resilience layer ----------------------------------------------------
    def _server_alive(self) -> bool:
        return self._server not in self._dead

    def _failover(self) -> None:
        """Retarget to the deterministic replacement for a dead server."""
        dead = self._server
        self._server = failover_server(dead, self.topo.servers, self.ctx.machine.is_dead)
        self.stats.failovers += 1
        self.ctx.log_fault(f"server {dead} dead; failing over to {self._server}")

    def _send_guarded(self, msg, tag, nbytes=None):
        """Generator: rendezvous send to the current server; 'ok' or 'dead'.

        A live server is waited for: the guard re-arms while
        ``_server_alive`` holds, so back-pressure (a full buffer, a busy
        lander) costs the sender nothing but the wait and its
        announcement keeps its place.  A ``"retracted"`` verdict from a
        live server is a lost announcement — the server never saw the
        message — and is resent after exponential backoff; any verdict
        from a dead one (``"stuck"``: it crashed mid-pull) is ``'dead'``
        and the caller fails over (server block dedup covers the re-ship).
        """
        ctx = self.ctx
        policy = self.retry
        for attempt in range(policy.max_attempts):
            if not self._server_alive():
                return "dead"
            verdict = yield from self.topo.world.send_with_timeout(
                msg, self._server, tag, policy.op_timeout, nbytes, self._server_alive
            )
            if verdict == "ok":
                return "ok"
            if not self._server_alive():
                return "dead"
            self.stats.retries += 1
            yield ctx.env.sleep(policy.delay(attempt))
        raise RuntimeError(
            f"rank {ctx.rank}: announcements to Rocpanda server "
            f"{self._server} kept getting lost"
        )

    def _ship_guarded(self, entry: _PendingOutput):
        """Generator: ship one pending output; returns 'ok' or 'dead'.

        One WriteBegin, then per block a pack timeout and a rendezvous
        flight — each ``EncodedBlock`` pins its accounting size to the
        source block's, so every envelope has the byte count the block
        itself would.  With a single client the server idles during the
        pack gaps; with many clients other blocks fill them — the
        pipelining behind Fig 3(a)'s throughput rise from 1 to 15
        clients.  The server appends the record bytes verbatim, and its
        per-block dedup drops whatever a re-ship after failover sends
        twice.
        """
        path = entry.batch.path
        blocks = entry.batch.blocks
        if not self._server_alive():
            return "dead"
        # Control messages are eager, never waited on: nothing to guard.
        yield from self.topo.world.send(
            WriteBegin(
                path=path,
                window=entry.window,
                nblocks=len(blocks),
                total_bytes=sum(b.nbytes for b in blocks),
                file_attrs=entry.file_attrs,
            ),
            dest=self._server,
            tag=TAG_CTRL,
        )
        sleep = self.ctx.env.sleep
        pack_overhead = self.pack_overhead
        pack_bw = self.pack_bw
        stats = self.stats
        for eb in blocks:
            yield sleep(pack_overhead + eb.nbytes / pack_bw)
            verdict = yield from self._send_guarded(
                BlockEnvelope(path, eb), TAG_BLOCK, eb.nbytes + 64
            )
            if verdict != "ok":
                return verdict
            # Per delivery attempt: a re-ship after failover re-counts
            # the blocks it re-sends.
            stats.blocks_written += 1
            stats.bytes_written += eb.data_nbytes
        return "ok"

    def _deliver_pending(self):
        """Generator: (re)ship entries not yet delivered to the current server."""
        for _ in range(len(self.topo.servers) + 1):
            undelivered = [
                e for e in self._unsynced if e.delivered_to != self._server
            ]
            for entry in undelivered:
                verdict = yield from self._ship_guarded(entry)
                if verdict == "dead":
                    break
                entry.delivered_to = self._server
            else:
                return
            self._failover()
        raise RuntimeError(
            f"rank {self.ctx.rank}: could not deliver output to any "
            f"Rocpanda server"
        )

    def _next_send(self):
        return self._ship_behind(*self._sends.popleft()) if self._sends else None

    def _ship_behind(self, window_name, batch, file_attrs):
        """Generator, one job of the background sender: one buffered call."""
        t0 = self.ctx.now
        yield from self._deliver(window_name, batch, file_attrs)
        self.stats.fold(self.ctx.io_record(
            self.name, "bg_ship", path=batch.path,
            nbytes=sum(b.nbytes for b in batch.blocks), t_start=t0,
            visible=False,
        ))

    def read_attribute(
        self,
        window_name,
        attr_names: Optional[List[str]] = None,
        path="snapshot",
    ):
        """Generator: collective restart from server-written files.

        All clients must call this collectively: every client
        announces its wanted block IDs to every alive server; servers
        bulk-read their file shares and scatter aggregated batches
        back.  ``window_name`` and ``path`` are one window and its
        snapshot prefix, or equal-length tuples of them: every window
        is then restored by the same one collective.  Returns the
        restored block IDs: a sorted list, or a tuple of them, one per
        window.
        """
        ctx = self.ctx
        t0 = ctx.now
        yield from self._sender.wait()
        if not self._server_alive():
            self._failover()
        pairs = window_prefixes(window_name, path)
        windows = tuple(window for window, _prefix in pairs)
        prefixes = tuple(prefix for _window, prefix in pairs)
        wanted = tuple(set(self.com.window(window).pane_ids()) for window in windows)
        restored, nbytes = yield from self._read_batched(
            windows, wanted, attr_names, prefixes
        )
        self.stats.fold(ctx.io_record(
            self.name, "read_attribute", path=",".join(prefixes), nbytes=nbytes,
            t_start=t0,
        ))
        return per_window(window_name, restored)

    def _apply_batch(self, msg: RestartBatch, source: int, wanted, restored):
        """Apply one scatter batch; returns the payload bytes applied.
        ``wanted`` holds the (window, block ID) keys still missing,
        ``restored`` the restored block IDs per window."""
        if len(msg.blocks) != msg.nblocks:
            raise ProtocolError(
                f"rank {self.ctx.rank}: RestartBatch from rank {source} "
                f"declares {msg.nblocks} blocks but carries {len(msg.blocks)}"
            )
        nbytes = 0
        for block in msg.blocks:
            key = (block.window, block.block_id)
            if key not in wanted:
                # Duplicate (another file generation, or a resume that
                # re-read blocks already applied); first copy wins.
                continue
            apply_block(self.com, block)
            restored[block.window].append(block.block_id)
            wanted.discard(key)
            self.stats.blocks_read += 1
            self.stats.bytes_read += block.data_nbytes
            nbytes += block.nbytes
        return nbytes

    def _read_batched(self, window_name, wanted, attr_names, path):
        """Generator: the two-phase collective restart (client side).

        ``window_name``, ``wanted`` (block IDs) and ``path`` are one
        window's, or equal-length tuples of them.  Sends this rank's
        wanted sets to **every alive server**, one
        :class:`RestartRequest` each (each server derives the complete
        (window, block)->owner map from its own request bucket), then
        drains aggregated :class:`RestartBatch` replies until one
        :class:`RestartDone` per outstanding *file share* has arrived.
        ``awaiting`` maps each share (keyed by the server rank that owns
        it in the round-robin file assignment) to the rank currently
        serving it; when a serving rank dies, the share is re-requested
        from its deterministic heir with each window's still-missing
        block IDs (``resume_of``) and the heir replies to this client
        alone.  Returns the sorted restored block IDs per window and the
        payload bytes.
        """
        ctx = self.ctx
        world = self.topo.world
        is_dead = ctx.machine.is_dead
        servers = self.topo.servers
        attrs = tuple(attr_names) if attr_names is not None else None
        parts = restart_parts(window_name, path, wanted)
        windows = tuple(window for window, _prefix, _ids in parts)
        prefixes = tuple(prefix for _window, prefix, _ids in parts)
        #: (window, block ID) keys not restored yet.
        missing = {(window, bid) for window, _prefix, ids in parts for bid in ids}
        #: share rank -> rank currently expected to serve that share.
        awaiting: Dict[int, int] = {}

        def request(share, serving):
            """Generator: ask for ``share`` from ``serving`` — or, when
            that rank is dead, from its heir, as a resume carrying the
            block IDs of each window this rank is still missing."""
            if is_dead(serving):
                serving = failover_server(serving, servers, is_dead)
                self.stats.failovers += 1
            yield from world.send(
                RestartRequest(
                    prefix=prefixes,
                    window=windows,
                    block_ids=tuple(
                        tuple(sorted(bid for w, bid in missing if w == window))
                        for window in windows
                    ),
                    attr_names=attrs,
                    resume_of=None if serving == share else share,
                ),
                dest=serving,
                tag=TAG_CTRL,
            )
            awaiting[share] = serving

        # Shares of servers already dead before the restart began are
        # claimed from their heirs straight away.
        for server in servers:
            yield from request(server, server)
        restored: Dict[str, List[int]] = {window: [] for window in windows}
        nbytes = 0
        misses = 0
        while awaiting:
            reply = yield from world.recv_with_timeout(
                source=ANY_SOURCE, tag=TAG_REPLY,
                timeout=self.retry.op_timeout * 4,
            )
            if reply is None:
                # A share's server may have died mid-read: resume each
                # orphaned share from its current heir.
                orphaned = [item for item in awaiting.items() if is_dead(item[1])]
                for share, serving in orphaned:
                    yield from request(share, serving)
                if not orphaned:
                    misses += 1
                    if misses > 1000:
                        raise RuntimeError(
                            f"rank {ctx.rank}: Rocpanda batched restart "
                            f"stalled waiting on shares {sorted(awaiting)}"
                        )
                continue
            msg, status = reply
            if isinstance(msg, RestartBatch):
                nbytes += self._apply_batch(msg, status.source, missing, restored)
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
        if missing:
            raise KeyError(
                f"restart of {windows} from {prefixes} is missing blocks "
                f"{sorted(missing)}"
            )
        return [sorted(restored[window]) for window in windows], nbytes

    def sync(self):
        """Generator: wait until everything this rank sent is on disk.

        The request carries a sequence number the server echoes, so
        stale replies are discarded.  A live server that has not
        answered yet is draining and is waited for; the request is
        asked again (same seq) at geometrically growing intervals,
        which is what recovers a dropped eager ``SyncRequest`` or
        ``SyncReply``.  A dead server triggers failover: re-ship
        everything unsynced to the replacement, then sync against it.
        """
        t0 = self.ctx.now
        world = self.topo.world
        policy = self.retry
        yield from self._sender.wait()
        self._sync_seq += 1
        request = SyncRequest(self._sync_seq)
        for _ in range(len(self.topo.servers) + 1):
            yield from self._deliver_pending()
            asked = self.ctx.now
            patience = policy.op_timeout * 4
            # Eager: nothing to guard, and harmless if the server is dead.
            yield from world.send(request, dest=self._server, tag=TAG_CTRL)
            while self._server_alive():
                reply = yield from world.recv_with_timeout(
                    source=self._server, tag=TAG_REPLY, timeout=patience
                )
                if reply is None:
                    if not self._server_alive():
                        break
                    if self.ctx.now - asked > policy.op_timeout * 4000:
                        raise RuntimeError(
                            f"rank {self.ctx.rank}: Rocpanda sync stalled"
                        )
                    patience *= policy.factor
                    self.stats.sync_reasks += 1
                    yield from world.send(request, dest=self._server, tag=TAG_CTRL)
                elif isinstance(reply[0], SyncReply) and reply[0].seq == request.seq:
                    self._unsynced.clear()
                    self.stats.fold(self.ctx.io_record(self.name, "sync", t_start=t0))
                    return
                # else: stale reply from an earlier request; drop it.
            self._failover()
        raise RuntimeError(
            f"rank {self.ctx.rank}: could not sync with any Rocpanda server"
        )

    def finalize(self):
        """Generator: tell the server this client is done (call once)."""
        if self._finalized:
            return
        self._finalized = True
        yield from self._sender.wait()
        yield from self._deliver_pending()
        if not self._server_alive():
            self._failover()
        yield from self.topo.world.send(
            Shutdown(), dest=self._server, tag=TAG_CTRL
        )
