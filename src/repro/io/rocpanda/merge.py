"""Rocpanda's server-to-server phase: small shares ride one writer.

Two-phase I/O (Thakur et al.) separates *who received a block* from
*who writes the file*.  A *path* is one window of one snapshot; a
server's *share* of it is the blocks of its own clients.  Every file a
server lands costs at least one write's latency, so on a write slot the
servers share, a share is **latency-bound** when shipping it to another
server costs less than the write it saves:

    sum of its clients' ``WriteBegin.total_bytes``
        < ``fs.write_latency`` x the network's ``inter_bw``

(173 015 B on Turing: 1.5 ms x 110 MiB/s).  A latency-bound share is not
landed by its server, the *joiner*, but by the path's *writer*
(:func:`~.topology.path_writer` over the servers that queue on the same
``fs.write_lease``), which stages the blocks into its own per-attribute
records and lands them in its one file for the path.  Nothing here is an
option: a server with no peer on its lease (per-node disks, or
write-through) lands every share itself.

A server decides when every expected client has announced the path
(``WriteBegin`` is eager and arrives before the blocks).  A share whose
announced bytes reach the threshold is local at once — it is never held
and costs no message; an undecided share's blocks wait unstaged.  A
client that asks for its sync (or shuts down) without having announced
the path never will before it is answered — the three are eager control
messages from one client, so they arrive in order — and the share,
partial, is local at once.  The protocol:

* the joiner sends the writer an eager :class:`~.protocol.Join` with its
  clients' block counts; the writer counts them in the path's
  completion, as it does a dead server's adopted clients, and answers
  ``accepted`` — or, the path already retired, ``refused``, and the
  joiner lands the share itself.  A writer's own clients that go quiet
  without announcing the path count as announcing no blocks of it, so
  a path they never write still completes.  A joiner that hears nothing
  within ``retry.op_timeout`` (a writer past its last client) withdraws
  the Join and lands the share itself;
* a writer whose own share is latency-bound retires the path only once
  every live peer has joined or declined: once the path is otherwise
  complete it asks each peer it has not heard from (a ``Join`` of kind
  ``"poll"``), and the peer answers from its decision, now or when it
  makes it — its Join, or a ``Join`` of kind ``"local"``; a peer none
  of whose clients announce the path answers ``"local"`` once they are
  all quiet, and a server whose clients have all shut down tells its
  peers once (kind ``"done"``: local for every path).  A dead peer is skipped; there is no timeout.  A
  byte-bound writer waits for no one;
* the joiner books nothing: once its share is complete and accepted it
  ships it as one :class:`~.protocol.ShareBatch` (one ``ingest_overhead``
  at the writer) and keeps the blocks buffered;
* the writer answers ``landed`` once the path's file is committed, and
  only then does the joiner free the blocks and answer its clients'
  syncs.

Crash semantics — a block is never in two committed files:

* the writer dies: each joiner, which polls for it, takes its share
  back (a torn file is skipped by every reader);
* a joiner dies: the writer stops counting its clients unless their
  share arrived, and their re-ships go to the joiner's heir.  A heir
  lands no adopted client's blocks of a path another server writes
  without that writer's word: it holds them and *asks* (a ``Join`` of
  kind ``"ask"``, never accepted), and the writer answers ``landed``
  when its committed file holds them all, else ``refused``;
* a Join or ask about blocks a retired but uncommitted file holds is
  answered ``held`` at once, and ``landed`` or ``refused`` at the
  commit;
* before blocks taken back or refused land, the path's committed files
  are scanned again and the blocks one holds are dropped; so is a
  re-shipped block that a retired state of the server took.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from ...shdf.codec import TornFileError
from ...shdf.file import SHDFReader
from ...vmpi.datatypes import ANY_SOURCE, ANY_TAG
from ...vthread import BackgroundWorker
from ..base import record_block_ids
from .protocol import TAG_BLOCK, TAG_CTRL, Join, JoinReply, ShareBatch
from .topology import path_writer

__all__ = ["MergeService", "LANDED"]

#: ``_PathState.owner`` of a joined share whose blocks its writer
#: reported landed before the share was complete (a failover re-ship of
#: blocks already merged): the rest of them are dropped as they arrive.
LANDED = -1


class _Share:
    """The joiner's side of one joined path state; ``verdict`` is the
    writer's answer so far: ``None``, ``"accepted"`` or ``"held"``."""

    __slots__ = ("path", "asked", "verdict", "complete")

    def __init__(self, path: str, asked: float):
        self.path = path
        self.asked = asked
        self.verdict = None
        self.complete = False


class _Joins:
    """The writer's side of one path that takes shares, until its file
    is committed: joiners whose share is accepted but not received,
    those whose share it took, and the Joins answered ``held``."""

    __slots__ = ("state", "pending", "merged", "waiting")

    def __init__(self, state):
        self.state = state
        self.pending: Dict[int, Set[int]] = {}
        self.merged: Dict[int, Set[int]] = {}
        self.waiting: List[Tuple[int, Dict[int, int]]] = []


class MergeService:
    """One server's merge half.  :class:`~.server.PandaServer` asks it who
    lands a new path (:meth:`first_owner`), tells it every announcement
    (:meth:`on_announce`), quiet client (:meth:`on_quiet`) and retired
    state (:meth:`retire`), routes the blocks it does not stage through
    :meth:`enqueue` / :meth:`hold` and completed joined paths through
    :meth:`forward`, waits for messages through :meth:`next_message`,
    hands it the three merge messages and reports each committed file."""

    def __init__(self, server):
        self.server = server
        ctx = self.ctx = server.ctx
        fs = ctx.fs
        lease = fs.write_lease(ctx.node)
        self.group = tuple(
            s for s in server.topo.servers
            if server.config.active_buffering
            and fs.write_lease(ctx.job.context(s).node) is lease
        ) or (ctx.rank,)
        #: Bytes below which a share is latency-bound.
        self.threshold = fs.write_latency * ctx.machine.spec.network.inter_bw
        #: Undecided shares — this server's own, of a path it writes, too:
        #: client -> announced bytes.
        self._announced: Dict[str, Dict[int, int]] = {}
        #: Writer side, per path: the peers a latency-bound own share still
        #: waits to hear from, and whether they were asked; peers whose
        #: clients have all shut down, and whether this server told them
        #: its own have.  Peer side: path -> the writer that asked, waiting
        #: for this server's decision.
        self._unheard: Dict[str, Set[int]] = {}
        self._asked: Set[str] = set()
        self._finished: Set[int] = set()
        self._told = False
        self._polled: Dict[str, int] = {}
        #: Joined path states whose writer has not reported them landed.
        self._out: Dict[object, _Share] = {}
        #: Writer side, per path that takes shares until its commit; and
        #: the block counts of every committed merged file, for a heir
        #: asking about blocks it already holds.
        self.joins: Dict[str, _Joins] = {}
        self._done: Dict[str, Dict[int, int]] = {}
        #: (path, adopted client) -> [the writer asked, when; None once it
        #: answered ``held``]: the client's blocks wait for the answer.
        self._asks: Dict[Tuple[str, int], list] = {}
        #: (path, client) whose blocks the writer's committed file holds.
        self._elsewhere: Set[Tuple[str, int]] = set()
        #: path -> block ids in the path's committed files (failover).
        self._durable: Dict[str, Set[int]] = {}
        #: path -> ((client, block_id) pairs its retired states took, the
        #: clients not answered a sync since): a block arriving later is a
        #: duplicate, not an early block.
        self._taken: Dict[str, Tuple[set, set]] = {}
        #: Complete, accepted shares, oldest first, and their shipper.
        self._shipping: deque = deque()
        self._forwarder = BackgroundWorker(ctx.env, self._next_ship, "panda-forwarder")

    # -- deciding ---------------------------------------------------------
    def first_owner(self, path: str, gen: int):
        """Who lands a new path state: this server when it has no peer,
        the state is a later generation, or it is the path's writer (whose
        own share is then undecided); otherwise undecided (``None``)."""
        me = self.ctx.rank
        if len(self.group) == 1 or gen:
            return me
        if path_writer(path, self.group, self.ctx.machine.is_dead) != me:
            return None
        self._announced[path] = {}
        return me

    def on_announce(self, path: str, state, client: int, total_bytes: int):
        """Generator: one ``WriteBegin`` of ``path`` was recorded."""
        adopted = client not in self.server.topo.my_clients
        if adopted and path not in self._durable:
            yield from self._scan_durable(path)
        owner = state.owner
        if owner is None:
            shares = self._announced.setdefault(path, {})
            shares[client] = total_bytes
            nbytes = sum(shares.values())
            if nbytes >= self.threshold or not self._room_for(nbytes) or self._quiet(state):
                self._local(path, state)
            elif self.server._expected_clients() <= state.begun:
                writer = path_writer(path, self.group, self.ctx.machine.is_dead)
                yield from self._join(path, state, writer)
        elif owner == self.ctx.rank:
            if adopted:
                self._ask(path, state, client)
            shares = self._announced.get(path)
            if shares is not None:
                shares[client] = total_bytes
                if self.server._expected_clients() <= state.begun:
                    self._own_share_decided(path)
        elif owner != LANDED:
            # A client adopted after the join: its writer counts it too.
            yield from self._send_join(path, state, {client: state.expected[client]})

    def _quiet(self, state) -> set:
        """Expected clients that have not announced ``state``'s path and
        will not before the server answers them: their sync request or
        Shutdown came first."""
        server = self.server
        return {
            c for c in server._expected_clients() - state.begun
            if c in server._sync_waiters or c in server._shutdown_ranks
        }

    def on_quiet(self, client: int) -> None:
        """``client`` asked for its sync or shut down.  Every undecided
        share it did not announce is partial, and lands here; a path this
        server writes counts it as announcing no blocks; a writer asking
        about a path none of the clients announced hears "local" once
        they are all quiet."""
        server = self.server
        counted = False
        for path, state in list(server._paths.items()):
            if client in state.begun:
                continue
            if state.owner is None:
                self._local(path, state)
            elif path in self.joins or path in self._announced:
                counted |= self._count_quiet(state)
                if path in self._announced and server._expected_clients() <= state.begun:
                    self._own_share_decided(path)
        if counted:
            server._close_finished_paths()
        if self._polled and self._all_quiet():
            for path in [p for p in self._polled if p not in server._paths]:
                self._decline(path)

    def _all_quiet(self) -> bool:
        server = self.server
        return server._expected_clients() <= set(server._sync_waiters) | server._shutdown_ranks

    def _count_quiet(self, state) -> bool:
        quiet = self._quiet(state)
        for client in quiet:
            state.begun.add(client)
            state.expected.setdefault(client, 0)
        return bool(quiet)

    def _own_share_decided(self, path: str) -> None:
        """This server writes ``path`` and its own share is decided: if
        latency-bound, the path retires only once every live peer has
        joined or declined (:meth:`may_retire`).  A byte-bound share
        waits for no one."""
        nbytes = sum(self._announced.pop(path).values())
        if nbytes >= self.threshold:
            return
        is_dead, me = self.ctx.machine.is_dead, self.ctx.rank
        joins = self.joins.get(path)
        heard = set(joins.pending) | set(joins.merged) if joins else set()
        unheard = {
            peer for peer in self.group
            if peer != me and not is_dead(peer) and peer not in heard | self._finished
        }
        if unheard:
            self._unheard[path] = unheard

    def may_retire(self, path: str) -> bool:
        """False while a latency-bound writer waits to hear from a peer.
        The path is otherwise complete: the peers not heard from yet are
        asked now, once (a ``Join`` of kind ``"poll"``)."""
        unheard = self._unheard.get(path)
        if not unheard:
            return True
        if path not in self._asked:
            self._asked.add(path)
            for peer in sorted(unheard):
                self.server._reply(Join(path, {}, kind="poll"), peer, TAG_CTRL)
        return False

    def _hear(self, path: str, peer: int) -> None:
        unheard = self._unheard.get(path)
        if unheard and peer in unheard:
            unheard.discard(peer)
            if not unheard:
                self.server._close_finished_paths()

    def _on_poll(self, writer: int, path: str) -> None:
        """The path's writer asks whether this server joins it: the answer
        is its decision, now or when it makes one; none of its clients
        announcing the path, "local" once they are all quiet."""
        server = self.server
        state = server._paths.get(path)
        joined = state is not None and state.owner not in (None, self.ctx.rank) or any(
            share.path == path for share in self._out.values()
        )
        if joined:
            return  # its Join is on the way, or there already
        self._polled[path] = writer
        if state is not None and state.owner == self.ctx.rank or state is None and (
            server._file_gens.get(path) or path in self._taken or self._all_quiet()
        ):
            self._decline(path)

    def _decline(self, path: str) -> None:
        """Tell the writer that asked: this server lands its share of
        ``path`` itself, or has none."""
        self.server._reply(Join(path, {}, kind="local"), self._polled.pop(path), TAG_CTRL)

    def finish(self) -> None:
        """Every client of this server has shut down: no peer need wait
        for its word on any path.  Told once, however often the server
        finishes (:mod:`.finale`)."""
        if self._told:
            return
        self._told = True
        is_dead = self.ctx.machine.is_dead
        for peer in self.group:
            if peer != self.ctx.rank and peer not in self._finished and not is_dead(peer):
                self.server._reply(Join("", {}, kind="done"), peer, TAG_CTRL)

    def _room_for(self, nbytes: int) -> bool:
        """A joiner holds its shares until their writers land them: it
        joins only while that leaves half its buffer free."""
        return 2 * (self.server._buffered_bytes + nbytes) <= self.server.config.buffer_bytes

    def _local(self, path: str, state, ask: bool = True) -> None:
        """This server lands the path: its held blocks go back to the
        head of the queue, in arrival order — but an adopted client's,
        which wait for the path's writer to answer an ask."""
        state.owner = self.ctx.rank
        self._announced.pop(path, None)
        if path in self._polled:
            self._decline(path)
        if ask:
            for client in sorted(state.begun.difference(self.server.topo.my_clients)):
                self._ask(path, state, client)
        held, state.held = state.held, []
        if self._asks:
            state.held = [(c, b) for c, b in held if (path, c) in self._asks]
            held = [(c, b) for c, b in held if (path, c) not in self._asks]
            queue = self.server._queue
            asked = [e for e in queue if e[0] == path and (path, e[1]) in self._asks]
            if asked:
                state.held += [(c, b) for _p, c, b in asked]
                kept = [e for e in queue if not (e[0] == path and (path, e[1]) in self._asks)]
                queue.clear()
                queue.extend(kept)
        self.server._queue.extendleft((path, c, b) for c, b in reversed(held))

    def _ask(self, path: str, state, client: int) -> None:
        """Hold adopted ``client``'s blocks of a path this server lands
        until the path's writer, which its dead server may have joined,
        says whether its file holds them."""
        writer = path_writer(path, self.group, self.ctx.machine.is_dead)
        if writer == self.ctx.rank or (path, client) in self._asks:
            return
        self._asks[(path, client)] = [writer, self.ctx.now]
        ask = Join(path, {client: state.expected[client]}, state.writer_attrs, "ask")
        self.server._reply(ask, writer, TAG_CTRL)
        self.server.stats.fold(self.ctx.io_record(
            "rocpanda", "ask", path=path, t_start=self.ctx.now, visible=False
        ))

    def _join(self, path: str, state, writer: int):
        state.owner = writer
        self._announced.pop(path, None)
        self._polled.pop(path, None)  # the Join is the answer
        state.booked += len(state.held)
        self._out[state] = _Share(path, self.ctx.now)
        self.server.stats.joined_shares += 1
        yield from self._send_join(path, state, dict(state.expected))

    def _send_join(self, path: str, state, nblocks: Dict[int, int], kind: str = "join"):
        t0 = self.ctx.now
        yield from self.server.topo.world.send(
            Join(path, nblocks, state.writer_attrs, kind), dest=state.owner, tag=TAG_CTRL
        )
        self.server.stats.fold(self.ctx.io_record(
            "rocpanda", "join", path=path, t_start=t0, visible=False
        ))

    def decide_all(self) -> bool:
        """Every undecided path is landed here; True if blocks were queued."""
        queued = False
        for path, state in list(self.server._paths.items()):
            if state.owner is None:
                queued |= bool(state.held)
                self._local(path, state)
        return queued

    def settled(self) -> bool:
        """Nothing undecided, no share or ask unanswered, no accepted
        share still to arrive: the server may shut down."""
        return not (
            self.decide_all() or self._out or self._asks or any(self._unheard.values())
            or any(joins.pending for joins in self.joins.values())
        )

    # -- retired states ---------------------------------------------------
    def retire(self, path: str, state) -> None:
        """``state`` leaves the server's open paths; its blocks are taken
        until every client it waited for has been answered a sync since
        — by then its file is committed, or its writer reported it so."""
        self._unheard.pop(path, None)
        self._asked.discard(path)
        pairs, waiting = self._taken.setdefault(path, (set(), set()))
        pairs |= state.seen
        waiting |= state.begun & self.server._expected_clients()

    def taken(self, path: str, client: int, block_id: int) -> bool:
        """True when a retired state of ``path`` took this block."""
        taken = self._taken.get(path)
        return taken is not None and (client, block_id) in taken[0]

    def synced(self, clients) -> None:
        """``clients``' syncs were answered: forget what they waited on,
        and the scan of a path no state of this server has open."""
        if not clients:
            return
        expected = self.server._expected_clients()
        for path in list(self._taken):
            waiting = self._taken[path][1]
            waiting.difference_update(clients)
            waiting.intersection_update(expected)
            if not waiting:
                del self._taken[path]
                if path not in self.server._paths:
                    self._durable.pop(path, None)

    # -- the joiner's blocks ----------------------------------------------
    def enqueue(self, state, entries) -> None:
        """Queue taken ``(path, client, block)`` entries for staging —
        unless the path is joined, or the client's blocks wait on an ask:
        then they are held at once."""
        me = self.ctx.rank
        if state.owner is None or state.owner == me:
            if self._asks:
                state.held += [(c, b) for p, c, b in entries if (p, c) in self._asks]
                entries = [e for e in entries if (e[0], e[1]) not in self._asks]
            self.server._queue.extend(entries)
            return
        for _path, client, block in entries:
            self.hold(state, client, block)
        self.server._close_finished_paths()

    def hold(self, state, client: int, block) -> None:
        """A block of a path this server does not stage."""
        if state.owner is None:
            state.held.append((client, block))
            return
        state.booked += 1
        if state.owner == LANDED:
            self.server._buffered_bytes -= block.nbytes
        else:
            state.held.append((client, block))

    def forward(self, path: str, state) -> None:
        """A joined path is complete here: ship it once it is accepted."""
        share = self._out.get(state)
        if share is not None:
            share.complete = True
            if share.verdict == "accepted":
                self._ship_later(state)

    def _ship_later(self, state) -> None:
        self._shipping.append(state)
        self._forwarder.kick()

    def _next_ship(self):
        return self._ship(self._shipping.popleft()) if self._shipping else None

    def _ship(self, state):
        """Generator, one job of the forwarder: one rendezvous
        ``ShareBatch``, re-sent while the writer lives and the
        announcement gets lost; a dead writer is left to :meth:`poll`."""
        ctx, server = self.ctx, self.server
        share = self._out.get(state)
        if share is None:
            return  # taken back meanwhile
        writer = state.owner
        batch = ShareBatch(share.path, list(state.held))
        policy = server.config.retry

        def alive():
            return not ctx.machine.is_dead(writer)

        t0 = ctx.now
        for attempt in range(policy.max_attempts):
            verdict = yield from server.topo.world.send_with_timeout(
                batch, writer, TAG_BLOCK, policy.op_timeout, batch.nbytes, alive
            )
            if verdict == "ok":
                server.stats.forwarded_shares += 1
                server.stats.forwarded_bytes += batch.nbytes
                server.stats.fold(ctx.io_record(
                    "rocpanda", "forward", path=share.path, nbytes=batch.nbytes,
                    t_start=t0, visible=False,
                ))
                return
            if not alive():
                return
            yield ctx.env.sleep(policy.delay(attempt))
        raise RuntimeError(
            f"rank {ctx.rank}: share of {share.path} never reached writer {writer}"
        )

    def interrupt(self, cause) -> None:
        """A crash: a share still on the wire stops with the server."""
        self._forwarder.interrupt(cause)

    # -- messages -----------------------------------------------------------
    def next_message(self):
        """Generator: the idle main loop's wait for one message — with a
        timeout, then :meth:`poll`, while a share or an ask waits on an
        answer that may not come."""
        server = self.server
        world = server.topo.world
        if not self.watching():
            status = yield from world.probe(ANY_SOURCE, ANY_TAG)
            yield from server._handle_one(status)
            return
        got = yield from world.recv_with_timeout(
            ANY_SOURCE, ANY_TAG, server.config.retry.op_timeout
        )
        if got is not None:
            yield from server._dispatch(*got)
        yield from self.poll()

    def watching(self) -> bool:
        """True while an answer may never come: an ask, or any merge."""
        return bool(
            self._asks or self._out or any(self._unheard.values())
            or any(j.pending for j in self.joins.values())
        )

    def on_message(self, source: int, msg):
        """Generator: one Join, ShareBatch or JoinReply."""
        if isinstance(msg, Join):
            self._on_join(source, msg)
        elif isinstance(msg, ShareBatch):
            yield from self._on_share(source, msg)
        else:
            yield from self._on_reply(source, msg)

    # -- the writer's side ------------------------------------------------
    def _on_join(self, joiner: int, msg: Join) -> None:
        """A Join of any kind; all but an ask are the peer's word on the
        path (``"done"``: on every path)."""
        if msg.kind == "poll":
            self._on_poll(joiner, msg.path)
            return
        if msg.kind == "done":
            self._finished.add(joiner)
            paths = [path for path, peers in self._unheard.items() if joiner in peers]
        else:
            self._answer(joiner, msg)
            paths = [] if msg.kind == "ask" else [msg.path]
        for path in paths:
            self._hear(path, joiner)

    def _answer(self, joiner: int, msg: Join) -> None:
        server, path, kind = self.server, msg.path, msg.kind
        expected = server._expected_clients()  # a dead joiner is pruned first
        joins = self.joins.get(path)
        if kind == "withdraw":
            if joins is not None and joiner in joins.pending:
                self._drop(joins, joiner, expected)
            return
        if kind == "local":
            return
        gen = server._file_gens.get(path, 0)
        state = server._paths.get(path)
        open_here = state is None or state.owner in (None, self.ctx.rank)
        if kind == "join" and not gen and open_here:
            if state is None:
                state = server._open_path(path, msg.file_attrs)
            if state.owner is None:
                self._local(path, state)
            state.begun.update(msg.nblocks)
            state.expected.update(msg.nblocks)
            joins = self.joins.setdefault(path, _Joins(state))
            joins.pending.setdefault(joiner, set()).update(msg.nblocks)
            self._count_quiet(state)
            self._reply(joiner, path, msg.nblocks, "accepted")
            return
        if joins is not None and any(joins.state.expected.get(c) for c in msg.nblocks):
            # The file will hold (some of) these blocks: answer once it
            # is committed — or never, and the asker takes them back.
            joins.waiting.append((joiner, dict(msg.nblocks)))
            self._reply(joiner, path, msg.nblocks, "held")
            return
        verdict = _verdict(self._done.get(path, {}), msg.nblocks)
        if kind == "join" and verdict == "refused":
            server.stats.refused_joins += 1
        self._reply(joiner, path, msg.nblocks, verdict)

    def _on_share(self, joiner: int, msg: ShareBatch):
        joins = self.joins.get(msg.path)
        if joins is None or joiner not in joins.pending:
            return  # withdrawn: the joiner lands it itself
        joins.merged.setdefault(joiner, set()).update(joins.pending.pop(joiner))
        server = self.server
        server.stats.merged_shares += 1
        yield from server._take(msg.path, msg.blocks, op="merge")

    def committed(self, state) -> None:
        """The lander committed ``state``'s file: tell its joiners."""
        for path, joins in list(self.joins.items()):
            if joins.state is state:
                del self.joins[path]
                done = self._done[path] = dict(state.expected)
                for joiner, clients in joins.merged.items():
                    self._reply(joiner, path, clients, "landed")
                for joiner, nblocks in joins.waiting:
                    self._reply(joiner, path, nblocks, _verdict(done, nblocks))

    def _reply(self, joiner: int, path: str, clients, verdict: str) -> None:
        self.server._reply(JoinReply(path, tuple(sorted(clients)), verdict), joiner, TAG_CTRL)

    def prune(self, expected: set) -> None:
        """The dead set grew: stop counting the clients of a dead joiner
        whose share never arrived."""
        is_dead = self.ctx.machine.is_dead
        for joins in self.joins.values():
            for joiner in [j for j in joins.pending if is_dead(j)]:
                self._drop(joins, joiner, expected)
        for unheard in self._unheard.values():
            unheard.difference_update([peer for peer in unheard if is_dead(peer)])

    def _drop(self, joins: _Joins, joiner: int, expected: set) -> None:
        """Uncount a joiner's clients, but those this server adopted or
        another joiner announced since."""
        clients = joins.pending.pop(joiner)
        kept = expected.union(*joins.pending.values(), *joins.merged.values())
        for client in clients - kept:
            joins.state.begun.discard(client)
            joins.state.expected.pop(client, None)

    # -- the joiner's side: answers and the crash paths ---------------------
    def _on_reply(self, writer: int, msg: JoinReply):
        if len(msg.clients) == 1 and (msg.path, msg.clients[0]) in self._asks:
            yield from self._answered(msg.path, msg.clients[0], msg.verdict)
            return
        clients = set(msg.clients)
        for state, share in self._out.items():
            if share.path == msg.path and state.owner == writer and clients <= state.begun:
                break
        else:
            return  # withdrawn or taken back meanwhile
        if msg.verdict in ("accepted", "held"):
            if share.verdict is None:
                share.verdict = msg.verdict
                if share.complete and msg.verdict == "accepted":
                    self._ship_later(state)
            return
        del self._out[state]
        if msg.verdict == "refused":
            yield from self._take_back(share.path, state)
            return
        self.server._buffered_bytes -= sum(block.nbytes for _c, block in state.held)
        state.held = []
        if self.server._paths.get(share.path) is state:
            state.owner = LANDED

    def _answered(self, path: str, client: int, verdict: str):
        """Generator: the writer answered an ask about ``client``'s
        blocks of ``path``.  Landed there: they are dropped here, those
        still to come too.  Refused (or no answer): they land here but
        for the blocks a committed file holds."""
        key = (path, client)
        if verdict == "held":
            self._asks[key][1] = None
            return
        del self._asks[key]
        if verdict == "landed":
            self._elsewhere.add(key)
        else:
            yield from self._scan_durable(path)
        server = self.server
        state = server._paths[path]
        mine = [(c, b) for c, b in state.held if c == client]
        state.held = [(c, b) for c, b in state.held if c != client]
        for c, block in mine:
            if self.durable(path, state, c, block):
                state.seen.discard((c, block.block_id))
                server._buffered_bytes -= block.nbytes
            else:
                server._queue.append((path, c, block))
        server._close_finished_paths()

    def poll(self):
        """Generator: take back every share whose writer died without
        reporting it landed, or that no answer came for in time; likewise
        settle the asks."""
        ctx, server = self.ctx, self.server
        timeout = server.config.retry.op_timeout
        for state, share in list(self._out.items()):
            if ctx.machine.is_dead(state.owner):
                pass
            elif share.verdict is None and ctx.now - share.asked >= timeout:
                yield from self._send_join(share.path, state, dict(state.expected), "withdraw")
            else:
                continue
            del self._out[state]
            yield from self._take_back(share.path, state)
        for key, (writer, asked) in list(self._asks.items()):
            if ctx.machine.is_dead(writer) or asked is not None and ctx.now - asked >= timeout:
                yield from self._answered(*key, "refused")
        server._close_finished_paths()

    def _take_back(self, path: str, state):
        """Generator: a joined share is not landed by its writer after
        all.  It joins the path's current state — a new one if none is
        open — and that state's own join, if it has one, or lands here,
        but for the blocks a committed file holds (scanned now: the
        writer may have committed since).  While no rank has died the
        share was never shipped, so no committed file holds it: no scan."""
        server, me = self.server, self.ctx.rank
        if self.ctx.machine.dead_ranks():
            yield from self._scan_durable(path)
        held, state.held = state.held, []
        state.booked -= len(held)
        current = server._paths.get(path) or server._open_path(path, state.writer_attrs)
        if current is not state:
            current.begun |= state.begun
            current.expected.update(state.expected)
            current.seen |= state.seen
        durable = self._durable.get(path, ())
        keep = []
        for client, block in held:
            if block.block_id in durable:
                current.expected[client] -= 1
                current.seen.discard((client, block.block_id))
                server._buffered_bytes -= block.nbytes
            else:
                keep.append((client, block))
        if current is not state and current.owner not in (None, me, LANDED):
            current.held += keep
            current.booked += len(keep)
            yield from self._send_join(path, current, dict(state.expected))
            return
        self._local(path, current, ask=False)
        server._queue.extendleft((path, c, b) for c, b in reversed(keep))

    def durable(self, path: str, state, client: int, block) -> bool:
        """True (and the block no longer owed) when another file holds or
        will hold it: a failover re-ship of a block a committed file
        holds, a retired state of this server took, or the path's writer
        reported landed."""
        if not (
            (path, client) in self._elsewhere
            or block.block_id in self._durable.get(path, ())
            or self.taken(path, client, block.block_id)
        ):
            return False
        state.expected[client] = state.expected.get(client, 1) - 1
        state.dropped[client] += 1
        return True

    def _scan_durable(self, path: str):
        """Generator: the block ids in ``path``'s committed server files,
        one structural scan each (a torn file is skipped)."""
        ctx = self.ctx
        ids: Set[int] = set()
        for file_path in ctx.fs.disk.listdir(path + "_s"):
            reader = SHDFReader(
                ctx.env, ctx.fs, file_path, self.server.config.driver,
                node=ctx.node, recorder=ctx.recorder, rank=ctx.rank, visible=False,
            )
            try:
                yield from reader.open_scan()
            except TornFileError:
                continue
            for _extent, header in reader.entries():
                ids.update(record_block_ids(header.attrs))
            yield from reader.close()
        self._durable[path] = ids


def _verdict(done: Dict[int, int], nblocks: Dict[int, int]) -> str:
    """``landed`` when a committed file holds all of ``nblocks``."""
    return "landed" if all(done.get(c) == n for c, n in nblocks.items()) else "refused"
