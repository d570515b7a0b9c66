"""The Rocpanda server's restart service: a two-phase collective read (§6.1).

Every client requests its wanted block IDs of every window of the
snapshot from every alive server, in one request, so each server
derives the full (window, block)->owner map from its own request
bucket — no server collective.  The server then reads its round-robin
share of every window's restart files at the filesystem's read width:
it scans every file of the share at once, cuts each into sieved regions
and starts every region's read at once.  A region pays its records'
metadata round trips once, then its merged runs
(:func:`~repro.shdf.file.read_sieved`) are read as stripes of
at most :data:`RESTART_STRIPE_BYTES`, all queued at the filesystem's
read slots at one instant, so a region lands in about one stripe's
time and the regions land one after another instead of together.  The
server decodes and scatters the regions in the order they land (file
order among those already landed) while later ones are still read, one
aggregated :class:`RestartBatch` per (region, owner) to whichever client
wants the blocks — which is why a run may restart with a different
number of servers than wrote the files.  The sends go one at a time: a
server's link carries one batch at once.  A client whose server dies
mid-read sends a ``resume_of`` request to the dead server's heir, which
reads that share the same way and replies to the requester alone.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...des import Interrupt
from ...faults.retry import retrying
from ...fs.vfs import WriteFaultError
from ...shdf.codec import TornFileError
from ...shdf.file import SHDFReader, merge_extents
from ..base import DataBlock, datasets_to_blocks, record_block_ids
from .protocol import TAG_REPLY, RestartBatch, RestartDone, RestartRequest

__all__ = ["RestartService"]

#: Target bytes per bulk-read region.  Regions are cut at write-behind
#: stage boundaries once they exceed this, so one region's decoded
#: blocks are scattered while later regions' reads are still landing.
RESTART_REGION_BYTES = 4 * 1024 * 1024
#: Largest hole (bytes) a region's read sieves through when merging
#: record extents into one contiguous run.
RESTART_SIEVE_GAP = 65536
#: Largest ``fs.read`` (bytes) of a region: its merged runs are cut into
#: stripes no bigger, all queued at the filesystem's read slots at one
#: instant, so a region lands in about one stripe's time.
RESTART_STRIPE_BYTES = 512 * 1024
#: Process names: a file's scan, and a region's read and its stripes.
SCAN, READ = "panda-restart-scan", "panda-restart-read"


class RestartService:
    """One server's restart side.  :class:`~.server.PandaServer` hands
    it every :class:`RestartRequest` and, when the server crashes,
    :meth:`interrupt`; it keeps its accounting in the server's stats."""

    def __init__(self, server):
        self.ctx = server.ctx
        self.topo = server.topo
        self.config = server.config
        self.stats = server.stats
        self.server_index = server.server_index
        #: The machine's live set of crashed ranks.
        self._dead = server.ctx.machine.dead_ranks()
        #: A snapshot's prefixes -> each client's request for it.
        self._requests: Dict[Tuple[str, ...], Dict[int, RestartRequest]] = {}
        #: (prefix, share rank) -> decoded datasets of that dead
        #: server's file share; fills on the first failover resume so
        #: later resumes for the same share skip the rescan.
        self._resume_cache: Dict[Tuple[str, int], List] = {}
        #: The scans, region reads and stripes of the share being read.
        self._inflight: List = []

    def interrupt(self, cause) -> None:
        """A crash: the share's scans, region reads and stripes still in
        flight stop at this instant and give up the read slots they hold
        or wait for.  Newest first: the stripes still queued leave the
        queue before the older ones holding a slot give theirs back, so
        no freed slot passes through a stripe of this dying server."""
        for proc in reversed(self._inflight):
            if proc.is_alive:
                proc.interrupt(cause)

    def on_request(self, client: int, msg: RestartRequest):
        """Generator: take one client's restart request."""
        if msg.resume_of is not None:
            # Failover resume: served immediately and independently of
            # any round-0 bucket — the request carries the block IDs
            # its sender is still missing.
            yield from self._serve_resume(client, msg)
            return
        bucket = self._requests.setdefault(msg.prefix, {})
        bucket[client] = msg
        # Every live client requests from every alive server, so this
        # server's own bucket is the full owner map.
        if len(bucket) >= len(self._expected_clients()):
            yield from self._do_restart_batched(msg.prefix)
            del self._requests[msg.prefix]

    def _expected_clients(self) -> set:
        """Live compute ranks that join a collective restart."""
        return set(range(self.topo.nprocs)) - set(self.topo.servers) - self._dead

    # -- a share's reads: every scan, then every region, in flight at once ----
    def _note_read_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.read_retries += 1
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

    def _start(self, job, name: str):
        proc = self.ctx.env.process(job, name=name)
        self._inflight.append(proc)
        return proc

    def _scan(self, file_path: str):
        """One file's structural scan: its open reader, or ``None`` for a
        torn file (no commit footer — its writer crashed mid-snapshot),
        whose blocks come from the survivor that adopted the dead
        server's clients."""
        ctx = self.ctx
        reader = SHDFReader(
            ctx.env, ctx.fs, file_path, self.config.driver, node=ctx.node,
            recorder=ctx.recorder, rank=ctx.rank,
        )
        try:
            yield from reader.open_scan()
        except TornFileError as exc:
            self.stats.torn_files_skipped += 1
            ctx.log_fault(f"skipping torn restart file {file_path}: {exc}")
            return None
        except Interrupt:
            return None
        return reader

    def _read(self, reader: SHDFReader, region):
        """One region's sieved read, transient faults retried inside.  A
        fault that outlasts the retries (or a crash) is the value, raised
        when the main loop reaches the region: a failed event nobody
        waits on yet would stop the simulation."""
        try:
            return (yield from retrying(
                self.ctx.env, self.config.retry,
                lambda: reader.read_extents(
                    region, sieve_gap=RESTART_SIEVE_GAP, charge=self._striped
                ),
                on_retry=self._note_read_retry,
            ))
        except (WriteFaultError, Interrupt) as exc:
            return exc

    def _striped(self, charges):
        """Generator: charge a region's merged runs, ``charges`` bytes
        each, as stripes of at most :data:`RESTART_STRIPE_BYTES`, all
        queued at this instant; returns once every stripe is read."""
        stripes = [
            self._start(self._stripe(nbytes), READ)
            for run in charges
            for nbytes in _stripes(run, RESTART_STRIPE_BYTES)
        ]
        yield self.ctx.env.all_of(stripes)

    def _stripe(self, nbytes: int):
        """One stripe's read.  A crash ends it quietly: the slot is given
        back, and the region's read, interrupted too, returns the crash."""
        try:
            yield from self.ctx.fs.read(nbytes, self.ctx.node)
        except Interrupt:
            pass

    def _read_share(self, prefixes, share_index: int):
        """Generator: scan one server share of the restart files of every
        prefix, every file at once, then start every region's read.

        Returns ``(readers, regions)``: the open readers, and one
        ``(prefix, process)`` per bulk-read region, in file order, whose
        process's value is the region's datasets (:meth:`_landed` waits
        for one).  The filesystem's read slots queue the reads; nothing
        here bounds them.
        """
        nservers = self.topo.nservers
        files = [
            (prefix, path)
            for prefix in prefixes
            for path in self._restart_files(prefix)[share_index::nservers]
        ]
        self._inflight = []
        scans = [
            (prefix, self._start(self._scan(path), SCAN))
            for prefix, path in files
        ]
        readers = []
        for prefix, scan in scans:
            reader = yield scan
            if reader is not None:
                readers.append((prefix, reader))
        regions = []
        for prefix, reader in readers:
            for region in _restart_regions(reader.entries(), RESTART_REGION_BYTES):
                self.stats.restart_sieve_waste_bytes += _sieve_waste(region, RESTART_SIEVE_GAP)
                regions.append((prefix, self._start(self._read(reader, region), READ)))
        return [reader for _prefix, reader in readers], regions

    def _next_landed(self, regions):
        """Generator: take the next region to scatter off ``regions`` —
        the first in file order of those whose read has landed, waiting
        for one to land if none has."""
        if not any(proc.processed for _prefix, proc in regions):
            yield self.ctx.env.any_of([proc for _prefix, proc in regions])
        i = next(i for i, (_prefix, proc) in enumerate(regions) if proc.processed)
        return regions.pop(i)

    def _landed(self, region):
        """Generator: wait for one region's read; its datasets."""
        self.stats.restart_regions_read += 1
        result = yield region
        if isinstance(result, BaseException):
            raise result
        return result

    def _region_blocks(self, datasets, window: str, attr_filter):
        """Group one region's datasets into per-block payloads."""
        return datasets_to_blocks(
            [d for d in datasets if d.name.startswith(window + "/")], attr_filter
        )

    # -- the collective restart and the failover resume -----------------------
    def _do_restart_batched(self, prefixes):
        """Generator: the two-phase collective restart for one snapshot.

        Phase one gathered every live client's wanted block IDs of every
        window into ``self._requests[prefixes]`` (each client requests
        from *every* alive server, so the bucket is the complete
        (window, block)->owner map — no allgather, no barrier:
        per-channel FIFO ordering guarantees each client's RestartDone
        arrives after its last batch).  Phase two reads this server's
        file share of every window, every region in flight at once, and
        scatters the regions in the order they land — file order among
        those already landed — batch-decoding each and sending one
        :class:`RestartBatch` per (region, owner).  Its records split
        the time: ``restart_scan`` for the open and for the close round
        trips, and per region ``restart_read_wait`` (waiting for it to
        land, with its bytes) and ``restart_scatter`` (its sends).
        """
        ctx, stats = self.ctx, self.stats
        world = self.topo.world
        requests = self._requests[prefixes]
        owner_of: Dict[Tuple[str, int], int] = {
            (window, bid): client
            for client, req in requests.items()
            for window, _prefix, block_ids in req.parts
            for bid in block_ids
        }
        first = next(iter(requests.values()))
        window_of = dict(zip(first.prefix, first.window))
        attr_filter = first.attr_names
        path = ",".join(prefixes)

        def record(op, t_start, nbytes=0):
            stats.fold(ctx.io_record("rocpanda", op, path=path, nbytes=nbytes, t_start=t_start))

        sent = 0
        t = ctx.now
        readers, regions = yield from self._read_share(prefixes, self.server_index)
        record("restart_scan", t)
        while regions:
            t = ctx.now
            prefix, region = yield from self._next_landed(regions)
            datasets = yield from self._landed(region)
            record("restart_read_wait", t, sum(d.nbytes for d in datasets))
            window = window_of[prefix]
            per_owner: Dict[int, List[DataBlock]] = {}
            for block in self._region_blocks(datasets, window, attr_filter):
                owner = owner_of.get((window, block.block_id))
                if owner is None:
                    continue
                per_owner.setdefault(owner, []).append(block)
            t = ctx.now
            for owner in sorted(per_owner):
                blocks = per_owner[owner]
                batch = RestartBatch(prefix, blocks, len(blocks))
                nbytes = batch.nbytes
                yield from world.send(batch, dest=owner, tag=TAG_REPLY, nbytes=nbytes)
                sent += len(blocks)
                stats.restart_scatter_bytes += nbytes
            record("restart_scatter", t)
        t = ctx.now
        for reader in readers:
            yield from reader.close()
        record("restart_scan", t)
        stats.restart_blocks_sent += sent
        for client in sorted(self._expected_clients()):
            yield from world.send(
                RestartDone(prefixes, sent), dest=client, tag=TAG_REPLY
            )

    def _serve_resume(self, client: int, msg: RestartRequest):
        """Generator: serve a failover resume for a dead server's share.

        One :class:`RestartBatch` per window that still misses blocks,
        then the Done.  Replies go to the requesting client **only** — a
        multicast to all owners could rendezvous-block forever against
        clients that already completed their restart and left the reply
        loop.
        """
        ctx = self.ctx
        share = msg.resume_of
        world = self.topo.world
        self.stats.restart_resumes_served += 1
        ctx.log_fault(f"resuming share of dead server {share} for client {client}")
        sent = 0
        for window, prefix, block_ids in msg.parts:
            if not block_ids:
                continue
            datasets = yield from self._share_datasets(prefix, share)
            wanted = set(block_ids)
            blocks = [
                b
                for b in self._region_blocks(datasets, window, msg.attr_names)
                if b.block_id in wanted
            ]
            if blocks:
                yield from world.send(
                    RestartBatch(prefix, blocks, len(blocks)),
                    dest=client, tag=TAG_REPLY,
                )
                sent += len(blocks)
        self.stats.restart_blocks_sent += sent
        yield from world.send(
            RestartDone(msg.prefix, sent, resume_of=share),
            dest=client, tag=TAG_REPLY,
        )

    def _share_datasets(self, prefix: str, share_rank: int):
        """Generator: decode (and cache) a dead server's restart share
        of one prefix."""
        key = (prefix, share_rank)
        cached = self._resume_cache.get(key)
        if cached is not None:
            return cached
        share_index = self.topo.servers.index(share_rank)
        readers, regions = yield from self._read_share((prefix,), share_index)
        datasets: List = []
        for _prefix, region in regions:
            datasets.extend((yield from self._landed(region)))
        for reader in readers:
            yield from reader.close()
        self._resume_cache[key] = datasets
        return datasets


def _restart_regions(entries, region_bytes: float):
    """Split a file's records into bulk-read regions cut at stage boundaries.

    ``entries`` are ``(extent, RecordHeader)`` pairs in on-disk order,
    each record one attribute of one block or of a stage's blocks.  A
    region is cut only where no block of the records before the cut has
    one after it, so each region decodes to whole blocks that can be
    scattered independently.
    """
    ids = [record_block_ids(header.attrs) for _extent, header in entries]
    last = {block_id: i for i, blocks in enumerate(ids) for block_id in blocks}
    regions: List[List] = []
    current: List = []
    size = 0
    reach = -1
    for i, ((extent, _header), blocks) in enumerate(zip(entries, ids)):
        if current and reach < i and size >= region_bytes:
            regions.append(current)
            current = []
            size = 0
        current.append(extent)
        size += extent[2]
        reach = max(reach, *(last[block_id] for block_id in blocks))
    if current:
        regions.append(current)
    return regions


def _stripes(nbytes: int, stripe: int) -> List[int]:
    """Cut ``nbytes`` into the fewest near-equal reads of at most
    ``stripe`` bytes (one read of an empty run)."""
    count = max(1, -(-nbytes // stripe))
    size, extra = divmod(nbytes, count)
    return [size + 1] * extra + [size] * (count - extra)


def _sieve_waste(region, gap: int) -> int:
    """Hole bytes a region's sieved read charges beside its records."""
    extents = [(offset, length) for _name, offset, length in region]
    return sum(n for _s, n in merge_extents(extents, gap)) - sum(
        n for _s, n in merge_extents(extents)
    )
