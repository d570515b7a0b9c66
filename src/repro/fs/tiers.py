"""Storage tiers: a burst-buffer front absorbing writes at memory speed.

The paper's Rocpanda servers hide I/O latency one level up — dedicated
processes absorb snapshot data over the network and write behind the
computation.  A burst buffer pushes the same idea one level *down* the
storage stack: writes land in a bounded memory tier at memory-bandwidth
cost and are *visible-complete* immediately, while a background drain
flushes dirty extents to the backing disk, each drain chunk one
``fs.write`` like an SHDF writer's landing.  The drain
is a :class:`~repro.vthread.BackgroundWorker`, like the servers' lander
and T-Rochdf's I/O thread; the tier's own is the policy below: what is
flushed when, spill instead of blocking, a failed drain fails barriers.

Layering
--------
:class:`BurstBufferTier` is a :class:`~repro.fs.models.FileSystemModel`
that *fronts* another one (``backing``).  Its disk is a
:class:`TierDisk`: a front namespace holding the absorbed bytes whose
misses (opens, existence checks, listings) fall through to the backing
disk, so readers always see a complete namespace.  The tier never
touches ``machine.disk`` — that remains the durable backing store that
restart machines share — it only interposes on ``machine.fs``.

State machine (per file)
------------------------
``absorbing -> draining -> clean -> evicted``, with two back edges:

* any write makes a clean/evicted file dirty again (an evicted file's
  bytes re-register; the durable prefix on the backing disk is *not*
  re-drained);
* ``truncate`` starts a new *epoch*: the drain pointer resets, the
  backing file is truncated before the new epoch's first flush, and
  progress recorded for the old epoch is discarded.

Watermarks and eviction
-----------------------
Residency is bounded by ``capacity_bytes``.  Crossing the high
watermark evicts *clean* files (fully drained, LRU by last write) down
to the low watermark — dropping clean memory is free.  If an incoming
write still does not fit, the tier degrades gracefully: it *spills* —
drains the oldest dirty bytes synchronously, charging the caller the
backing write cost, which is exactly today's direct-write behaviour.

Drain journal and crash consistency
-----------------------------------
The :class:`DrainJournal` advances a file's drained pointer only
*after* the backing write completed, so the journal never claims bytes
the backing disk does not hold.  The drain appends strictly in file
order, so the backing copy is always a prefix of the front copy — a
crash mid-drain leaves a file whose SHDF commit footer is missing, and
the reader-side torn-file detection works unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..des import Environment
from ..faults.retry import RetryPolicy, retrying
from ..vthread import BackgroundWorker
from .models import FileSystemModel
from .vfs import FileExists, VirtualDisk, VirtualFile, WriteFaultError

__all__ = [
    "TierConfig",
    "TierStats",
    "DrainJournal",
    "DrainFailedError",
    "TierDisk",
    "BurstBufferTier",
    "STORAGE_TIERS",
    "apply_storage_tier",
]


class DrainFailedError(WriteFaultError):
    """The background drain exhausted its retries; buffered data is not
    durable.  Raised by :meth:`BurstBufferTier.drain_barrier` so callers
    that promised durability (``sync``) fail loudly instead of hanging.
    """


@dataclass(frozen=True)
class TierConfig:
    """Knobs of one burst-buffer tier."""

    #: Bound on resident front-tier bytes (soft: a write that cannot
    #: spill enough room still lands, it just waits on the spill first).
    capacity_bytes: int = 256 * 1024 * 1024
    #: Absorb bandwidth — the memcpy into the tier (bytes/s).
    absorb_bw: float = 300 * 1024 * 1024
    #: Fixed per-write absorb setup cost (seconds).
    absorb_latency: float = 20e-6
    #: Flat metadata latency of the front tier (open/close/create).
    meta_latency: float = 20e-6
    #: Crossing ``high_watermark * capacity`` evicts clean files ...
    high_watermark: float = 0.75
    #: ... down to ``low_watermark * capacity`` (clean-first LRU).
    low_watermark: float = 0.5
    #: Largest extent one drain flush moves to the backing disk.
    drain_chunk_bytes: int = 4 * 1024 * 1024
    #: Backoff schedule for transient backing-disk faults hit mid-drain.
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class TierStats:
    """Aggregate tier counters (deterministic; compared by faultbench)."""

    absorbed_bytes: int = 0
    drain_flushes: int = 0
    drained_bytes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    spills: int = 0
    drain_retries: int = 0
    drain_failures: int = 0
    backlog_peak_bytes: int = 0

    #: The fields :func:`repro.obs.stat_counts` exports as counts.
    COUNTS = ("backlog_peak_bytes", "evictions", "drain_retries", "drain_flushes")


class DrainJournal:
    """Crash-consistent record of drain progress, per path.

    Entries are ``path -> (epoch, drained_bytes)``.  The invariant the
    tier maintains — advance only after the backing append returned —
    means :meth:`validate` can always prove the backing disk holds at
    least every byte the journal claims, even mid-drain.
    """

    def __init__(self):
        self._entries: Dict[str, Tuple[int, int]] = {}

    def advance(self, path: str, epoch: int, drained: int) -> None:
        cur = self._entries.get(path)
        if cur is not None and cur[0] == epoch and cur[1] >= drained:
            return  # never regress within an epoch
        self._entries[path] = (epoch, drained)

    def forget(self, path: str) -> None:
        self._entries.pop(path, None)

    def entry(self, path: str) -> Optional[Tuple[int, int]]:
        return self._entries.get(path)

    def entries(self) -> Dict[str, Tuple[int, int]]:
        return dict(self._entries)

    def validate(self, backing: VirtualDisk) -> List[str]:
        """Journal claims the backing disk cannot honour (must be empty)."""
        problems = []
        for path, (epoch, drained) in sorted(self._entries.items()):
            if drained == 0:
                continue
            if not backing.exists(path):
                problems.append(f"{path}: journal claims {drained} B, no backing file")
            elif backing.open(path).size < drained:
                problems.append(
                    f"{path}: journal claims {drained} B, backing holds "
                    f"{backing.open(path).size} B (epoch {epoch})"
                )
        return problems


class _PathState:
    """Drain bookkeeping for one front-tier file."""

    __slots__ = (
        "path", "vfile", "backing_vfile", "epoch", "drained", "known_size",
        "pending_ns", "resident", "resident_bytes", "queued",
        "in_flight", "last_touch",
    )

    def __init__(self, path: str, vfile: "_TierFile"):
        self.path = path
        self.vfile = vfile
        self.backing_vfile: Optional[VirtualFile] = None
        self.epoch = 0
        #: Bytes of the current epoch already durable on the backing disk.
        self.drained = 0
        #: Front-file size the tier has accounted for.
        self.known_size = 0
        #: The backing namespace is out of sync: the file must be
        #: (re)created/truncated there before the barrier can report
        #: clean — even if no data bytes ever arrive (empty files and
        #: truncate-only epochs must still materialise on the backing).
        self.pending_ns = False
        self.resident = False
        self.resident_bytes = 0
        self.queued = False
        self.in_flight = False
        self.last_touch = 0

    @property
    def dirty(self) -> int:
        return self.known_size - self.drained

    @property
    def needs_flush(self) -> bool:
        return self.dirty > 0 or self.pending_ns


class _TierFile(VirtualFile):
    """A front-tier file: every mutation notifies the tier."""

    def __init__(self, path: str, disk: "TierDisk", tier: "BurstBufferTier"):
        super().__init__(path, disk=disk)
        self._tier = tier

    def append_many(self, chunks) -> int:  # append lands here too
        offset = super().append_many(chunks)
        self._tier._note_write(self)
        return offset

    def truncate(self) -> None:
        super().truncate()
        self._tier._note_truncate(self)


class TierDisk(VirtualDisk):
    """Front namespace of a burst tier; misses fall through to backing.

    Writers created here land in the front tier; readers opening a path
    the front no longer holds (never written here, or evicted after a
    full drain) get the backing file, which by the eviction rule is
    complete.  The front never enforces capacity through
    :class:`~repro.fs.vfs.DiskFullError` — pressure is the tier's job
    (eviction, then synchronous spill).
    """

    def __init__(self, tier: "BurstBufferTier", backing: VirtualDisk):
        super().__init__(capacity_bytes=None)
        self._tier = tier
        self.backing = backing

    def create(self, path: str, exist_ok: bool = False) -> VirtualFile:
        existing = self._files.get(path)
        if existing is not None:
            if not exist_ok:
                raise FileExists(path)
            return existing
        if self.backing.exists(path) and not exist_ok:
            raise FileExists(path)
        f = _TierFile(path, self, self._tier)
        if self.backing.exists(path):
            # Shadow the durable content so create(exist_ok=True) keeps
            # its return-the-existing-file contract: the front shares the
            # backing file's chunks.  That prefix is already durable, so
            # it lands past the tier's notifications and the drain starts
            # after it (no re-drain, no double write).
            VirtualFile.append_many(f, self.backing.open(path).views())
        self._files[path] = f
        self._tier._note_create(f, f.size)
        return f

    def open(self, path: str) -> VirtualFile:
        f = self._files.get(path)
        if f is not None:
            return f
        return self.backing.open(path)

    def exists(self, path: str) -> bool:
        return path in self._files or self.backing.exists(path)

    def unlink(self, path: str) -> None:
        found = False
        f = self._files.pop(path, None)
        if f is not None:
            self._used -= f.size
            found = True
        if self.backing.exists(path):
            self.backing.unlink(path)
            found = True
        if not found:
            super().unlink(path)  # raises FileNotFound
        self._tier._note_unlink(path)

    def listdir(self, prefix: str = "") -> List[str]:
        names = {p for p in self._files if p.startswith(prefix)}
        names.update(self.backing.listdir(prefix))
        return sorted(names)


class BurstBufferTier(FileSystemModel):
    """Memory-speed write absorb with write-behind drain.

    Fronts ``backing`` (any :class:`FileSystemModel`): writes are
    charged at memory bandwidth and become visible-complete
    immediately; the background drain moves dirty extents to the
    backing filesystem one ``fs.write`` per drain chunk, retrying
    transient faults with :attr:`TierConfig.retry`.  Reads delegate to
    the backing model's timing (conservative: a resident read would be
    faster, but restart dominates on cold data).
    """

    def __init__(
        self,
        env: Environment,
        backing: FileSystemModel,
        config: Optional[TierConfig] = None,
    ):
        self.backing = backing
        self.config = config if config is not None else TierConfig()
        # The front absorbs at memory speed: its write lease never queues.
        super().__init__(env, TierDisk(self, backing.disk), write_slots=float("inf"))
        self.meta_latency = self.config.meta_latency
        self.journal = DrainJournal()
        self.stats = TierStats()
        self._states: Dict[str, _PathState] = {}
        #: FIFO of dirty paths awaiting the drain (deterministic order).
        self._dirty_queue: Deque[str] = deque()
        #: Total dirty (not yet durable) bytes across all files.
        self._backlog = 0
        #: Total resident front-tier bytes (clean + dirty).
        self._resident = 0
        #: Files whose backing namespace entry is out of sync (pending
        #: create/truncate); the barrier waits for these too.
        self._pending_ns = 0
        self._flushes_in_flight = 0
        #: The background drain; gone whenever nothing is dirty.
        self._drain = BackgroundWorker(env, self._next_flush, "tier-drain")
        self._failure: Optional[BaseException] = None
        self._recorder = None
        #: Monotonic LRU clock (not env.now: ties must break by order).
        self._touch_clock = 0

    # -- job hookup ------------------------------------------------------
    def attach_job(self, job) -> None:
        """Adopt the job's instrumentation stream (called by Job.run)."""
        self._recorder = job.recorder

    # -- properties ------------------------------------------------------
    @property
    def backlog_bytes(self) -> int:
        """Dirty bytes still awaiting drain to the backing disk."""
        return self._backlog

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held in the front tier."""
        return self._resident

    # -- timing hooks ----------------------------------------------------
    def _service_write(self, nbytes: int, node):
        cfg = self.config
        limit = cfg.capacity_bytes
        if self._resident + nbytes > cfg.high_watermark * limit:
            # Evict down to where the incoming bytes land at (or under)
            # the low watermark, not just to the low watermark itself.
            self._evict_clean(int(cfg.low_watermark * limit) - nbytes)
        if self._resident + nbytes > limit and self._backlog > 0:
            yield from self._spill(nbytes, node)
        yield self.env.timeout(cfg.absorb_latency + nbytes / cfg.absorb_bw)
        self.stats.absorbed_bytes += nbytes
        self._drain.kick()

    def _service_read(self, nbytes: int, node):
        yield from self.backing._service_read(nbytes, node)

    # -- mutation notifications (from _TierFile) -------------------------
    def _ensure_state(self, vfile: _TierFile) -> _PathState:
        state = self._states.get(vfile.path)
        if state is None:
            state = self._states[vfile.path] = _PathState(vfile.path, vfile)
        elif state.vfile is not vfile:
            # The path was re-created (fresh front file object).  The
            # epoch bump below is handled by _note_create/_note_truncate.
            state.vfile = vfile
        return state

    def _note_create(self, vfile: _TierFile, prefilled: int) -> None:
        state = self._states.get(vfile.path)
        if state is None:
            state = self._states[vfile.path] = _PathState(vfile.path, vfile)
        else:
            # Re-created over prior state: any undrained bytes of the
            # old object are gone with it.
            self._backlog -= state.dirty
            if state.resident:
                self._resident -= state.resident_bytes
            state.vfile = vfile
            state.epoch += 1
            self._set_pending_ns(state, False)
        state.drained = prefilled
        state.known_size = prefilled
        state.resident = True
        state.resident_bytes = prefilled
        state.queued = False
        self._resident += prefilled
        self.journal.advance(state.path, state.epoch, prefilled)
        self._touch(state)
        if not self.backing.disk.exists(state.path):
            # Brand-new file: the backing namespace doesn't know it yet.
            # The drain must materialise it even if no byte ever lands
            # (direct mode creates the file immediately; images must
            # stay bit-identical for empty files too).
            state.backing_vfile = None
            self._set_pending_ns(state, True)
            self._enqueue(state)
            self._drain.kick()
        self._drain.notify()

    def _note_write(self, vfile: _TierFile) -> None:
        state = self._ensure_state(vfile)
        if not state.resident:
            # Evicted file written again: its bytes re-register in full
            # (the object kept them; only the accounting had let go).
            state.resident = True
            state.resident_bytes = vfile.size
            self._resident += vfile.size
            if self.disk._files.get(vfile.path) is not vfile:
                self.disk._files[vfile.path] = vfile
                self.disk._used += vfile.size
        else:
            self._resident += vfile.size - state.resident_bytes
            state.resident_bytes = vfile.size
        added = vfile.size - state.known_size
        state.known_size = vfile.size
        if added > 0:
            self._backlog += added
            self._note_backlog_peak()
        self._touch(state)
        if state.needs_flush:
            self._enqueue(state)
        self._drain.kick()

    def _note_truncate(self, vfile: _TierFile) -> None:
        state = self._states.get(vfile.path)
        if state is None:
            return
        self._backlog -= state.dirty
        if state.resident:
            self._resident -= state.resident_bytes
        state.resident_bytes = 0
        state.resident = True
        state.known_size = 0
        state.drained = 0
        state.epoch += 1
        self._set_pending_ns(state, True)
        self.journal.advance(state.path, state.epoch, 0)
        self._touch(state)
        # A truncate with no follow-up writes must still reach the
        # backing disk: schedule a (namespace-only) drain visit.
        self._enqueue(state)
        self._drain.kick()

    def _note_unlink(self, path: str) -> None:
        state = self._states.pop(path, None)
        if state is not None:
            self._backlog -= state.dirty
            if state.resident:
                self._resident -= state.resident_bytes
            if state.pending_ns:
                self._pending_ns -= 1
        self.journal.forget(path)
        self._drain.notify()

    def _set_pending_ns(self, state: _PathState, flag: bool) -> None:
        if state.pending_ns != flag:
            state.pending_ns = flag
            self._pending_ns += 1 if flag else -1

    def _enqueue(self, state: _PathState) -> None:
        if not state.queued:
            state.queued = True
            self._dirty_queue.append(state.path)

    def _touch(self, state: _PathState) -> None:
        state.last_touch = self._touch_clock
        self._touch_clock += 1

    def _note_backlog_peak(self) -> None:
        if self._backlog > self.stats.backlog_peak_bytes:
            self.stats.backlog_peak_bytes = self._backlog

    # -- eviction and spill ----------------------------------------------
    def _evict_clean(self, target: int) -> None:
        """Drop clean (fully drained) files, LRU-first, until resident
        bytes fall to ``target``.  Dropping clean memory is free."""
        if self._resident <= target:
            return
        candidates = sorted(
            (
                s for s in self._states.values()
                if s.resident and not s.needs_flush and not s.in_flight
                and s.resident_bytes > 0
            ),
            key=lambda s: s.last_touch,
        )
        for state in candidates:
            if self._resident <= target:
                break
            self._evict(state)

    def _evict(self, state: _PathState) -> None:
        if self.disk._files.get(state.path) is state.vfile:
            del self.disk._files[state.path]
            self.disk._used -= state.vfile.size
        self._resident -= state.resident_bytes
        self.stats.evictions += 1
        self.stats.evicted_bytes += state.resident_bytes
        state.resident = False
        state.resident_bytes = 0

    def _spill(self, incoming: int, node):
        """Generator: the tier is full of dirty data — drain synchronously
        until the incoming write fits (or nothing dirty remains),
        charging the caller the backing write cost (graceful
        degradation to direct-write behaviour)."""
        cfg = self.config
        self.stats.spills += 1
        while self._resident + incoming > cfg.capacity_bytes and self._backlog > 0:
            state = self._pick_dirty()
            if state is None:
                break  # everything dirty is already in flight elsewhere
            try:
                yield from self._flush_chunk(state, node)
            finally:
                self._drain.notify()  # not a job of the drain: say so
            self._evict_clean(cfg.capacity_bytes - incoming)

    # -- the drain -------------------------------------------------------
    def _pick_dirty(self) -> Optional[_PathState]:
        while self._dirty_queue:
            path = self._dirty_queue.popleft()
            state = self._states.get(path)
            if state is None:
                continue
            state.queued = False
            if state.in_flight or not state.needs_flush:
                continue
            return state
        return None

    def _next_flush(self):
        if self._failure is not None:
            return None
        state = self._pick_dirty()
        return self._flush_behind(state) if state is not None else None

    def _flush_behind(self, state: _PathState):
        """Generator, one job of the background drain: one chunk."""
        try:
            yield from self._flush_chunk(state, None)
        except WriteFaultError as exc:
            # The drain must not die silently: park the failure, fail
            # every durability barrier loudly, and stop — a drain whose
            # retries exhausted will not magically succeed on the same
            # bytes a moment later.
            self._failure = exc
            self.stats.drain_failures += 1

    def _note_drain_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.drain_retries += 1

    def _flush_chunk(self, state: _PathState, node):
        """Generator: move one drain chunk of ``state`` to the backing
        disk; advance the journal only after the write landed."""
        state.in_flight = True
        self._flushes_in_flight += 1
        try:
            if state.backing_vfile is None or state.pending_ns:
                yield from self.backing.meta_op(node)
                bf = self.backing.disk.create(state.path, exist_ok=True)
                if state.pending_ns:
                    bf.truncate()
                    self._set_pending_ns(state, False)
                    self.journal.advance(state.path, state.epoch, 0)
                state.backing_vfile = bf
            epoch0 = state.epoch
            start = state.drained
            end = min(state.vfile.size, start + self.config.drain_chunk_bytes)
            if end > start:
                t0 = self.env.now
                # The front's chunks themselves: the backing file shares them.
                views = state.vfile.views(start, end - start)
                backing_file = state.backing_vfile
                yield from retrying(
                    self.env, self.config.retry,
                    lambda: self.backing.write(
                        end - start, node, land=lambda: backing_file.append_many(views)
                    ),
                    on_retry=self._note_drain_retry,
                )
                if state.epoch == epoch0:
                    state.drained = end
                    self._backlog -= end - start
                    self.journal.advance(state.path, epoch0, end)
                    self.stats.drain_flushes += 1
                    self.stats.drained_bytes += end - start
                    if self._recorder is not None:
                        self._recorder.record_io(
                            "tier", "drain_flush", -1, path=state.path,
                            nbytes=end - start, t_start=t0, t_end=self.env.now,
                            visible=False,
                        )
                # else: the file was truncated/re-created mid-flight;
                # the landed bytes are stale and the pending truncate
                # removes them before the new epoch drains.
        finally:
            state.in_flight = False
            self._flushes_in_flight -= 1
            if state.needs_flush:
                self._enqueue(state)
                self._drain.kick()

    # -- durability barrier ----------------------------------------------
    def _settled(self) -> bool:
        """No barrier has anything left to wait for: durable, or failed."""
        return self._failure is not None or (
            self._backlog == 0
            and self._flushes_in_flight == 0
            and self._pending_ns == 0
        )

    def drain_barrier(self):
        """Generator: return once every absorbed byte is durable on the
        backing disk (zero-cost when the tier is already clean).

        Raises :class:`DrainFailedError` if the drain exhausted its
        retries — the durability promise cannot be kept.
        """
        yield from self._drain.wait(self._settled)
        if self._failure is not None:
            raise DrainFailedError(
                f"write-behind drain failed: {self._failure}"
            ) from self._failure


#: Where writes land: straight through the machine's filesystem model,
#: or absorbed by a :class:`BurstBufferTier` in front of it.
STORAGE_TIERS = ("direct", "burst")


def apply_storage_tier(machine, tier: str, config=None):
    """Route ``machine.fs`` through the requested storage tier.

    ``"direct"`` is the identity (the executable spec keeps its exact
    timing); ``"burst"`` wraps the machine's filesystem model in a
    :class:`BurstBufferTier` fronting the same durable ``machine.disk``.
    Idempotent: re-applying ``"burst"`` to an already-tiered machine is
    a no-op.  Returns ``machine.fs``.
    """
    if tier not in STORAGE_TIERS:
        raise ValueError(f"unknown storage tier {tier!r}; expected {STORAGE_TIERS}")
    if tier == "burst" and not isinstance(machine.fs, BurstBufferTier):
        machine.fs = BurstBufferTier(machine.env, machine.fs, config)
    return machine.fs
