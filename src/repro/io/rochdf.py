"""Rochdf: server-less individual I/O (§4.2).

Every compute processor writes its own data blocks into its own HDF
file — no communication, no dedicated servers, but one file *per
process per snapshot* and full exposure to filesystem write contention
(the behaviour Table 1 quantifies).

Restart: each process knows which block IDs it needs (its registered
panes) and scans snapshot files starting with its own, so in the
common same-process-count case restart touches exactly one file, and
"Rochdf gains extra I/O parallelism by having all the processors
performing reads" (§7.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..faults.retry import RetryPolicy, retrying
from ..roccom.module import ServiceModule
from ..shdf.codec import TornFileError
from ..shdf.drivers import HDFDriver, hdf4_driver
from ..shdf.file import SHDFReader, SHDFWriter
from .base import (
    IOStats,
    apply_block,
    collect_blocks,
    datasets_to_blocks,
    encode_blocks,
    parse_dataset_name,
    per_window,
    window_prefixes,
)

__all__ = ["RochdfModule", "snapshot_file_path", "list_snapshot_files"]


def snapshot_file_path(prefix: str, writer_index: int) -> str:
    """Individual-mode file name for one writer's part of a snapshot."""
    return f"{prefix}_p{writer_index:05d}.shdf"


def list_snapshot_files(disk, prefix: str) -> List[str]:
    """All per-process files of a snapshot, sorted by writer index."""
    return disk.listdir(prefix + "_p")


class RochdfModule(ServiceModule):
    """The non-threaded individual I/O service."""

    name = "rochdf"

    def __init__(
        self,
        ctx,
        driver: Optional[HDFDriver] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.ctx = ctx
        self.driver = driver if driver is not None else hdf4_driver()
        #: Backoff schedule for transient disk faults (EIO, disk-full).
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = IOStats()
        self.com = None

    def _note_retry(
        self, attempt: int, exc: BaseException, op: str = "write"
    ) -> None:
        self.stats.retries += 1
        self.ctx.log_fault(f"{self.name} {op} fault ({exc}); retry {attempt + 1}")

    def _note_read_retry(self, attempt: int, exc: BaseException) -> None:
        self._note_retry(attempt, exc, op="read")

    # -- module lifecycle ------------------------------------------------
    def load(self, com) -> None:
        self.com = com
        self._register_io_window(com)

    def unload(self, com) -> None:
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
        """Generator: write local panes to this process's own file.

        Blocking: returns only when all data reached the filesystem.
        """
        ctx = self.ctx
        t0 = ctx.now
        blocks = collect_blocks(self.com, window_name, attr_names)
        file_path = snapshot_file_path(path, ctx.rank)
        writer = SHDFWriter(
            ctx.env, ctx.fs, file_path, self.driver, node=ctx.node,
            recorder=ctx.recorder, rank=ctx.rank,
        )
        nbytes = yield from self._write_file(
            writer, blocks, dict(file_attrs or {}, writer_rank=ctx.rank)
        )
        self.stats.files_created += 1
        self.stats.snapshots += 1
        self.stats.fold(ctx.io_record(
            self.name, "write_attribute", path=file_path, nbytes=nbytes, t_start=t0
        ))

    def _write_file(self, writer: SHDFWriter, blocks, file_attrs) -> int:
        """Generator: open/write/close one snapshot file, retrying faults.

        The whole file — header, every dataset, commit footer — lands
        through one merged filesystem transfer (the same SHDF stage the
        Rocpanda servers land), so a file costs one
        ``fs.write``: ``open`` is the create round trip, ``write_records``
        only stages, and ``close`` lands (:meth:`_close`, the step
        T-Rochdf's I/O thread overrides).  Only that landing can fault,
        and the VFS raises *before* mutating anything: a faulted
        ``close`` leaves the file empty and everything staged, so the
        retry is ``close`` again (a committed writer stages no second
        footer).  Returns the payload bytes written (stats are bumped
        once, after the file is committed).
        """
        yield from writer.open(file_attrs=file_attrs)
        batch = encode_blocks(blocks)
        yield from writer.write_records(batch)
        yield from retrying(
            self.ctx.env, self.retry, lambda: self._close(writer),
            on_retry=self._note_retry,
        )
        nbytes = sum(entry[3] for entry in batch[1])
        self.stats.blocks_written += len(blocks)
        self.stats.bytes_written += nbytes
        return nbytes

    def _close(self, writer: SHDFWriter):
        """Generator: commit, land and release ``writer``'s file — the
        one step of :meth:`_write_file` the two modules do differently.
        Rochdf lands straight through ``fs.write``, taking no turn at
        the write slot: it is the paper's uncoordinated baseline, every
        process writing at once (Table 1's Rochdf column)."""
        return writer.close()

    def read_attribute(
        self,
        window_name,
        attr_names: Optional[List[str]] = None,
        path="snapshot",
    ):
        """Generator: restore this process's panes from snapshot files.

        ``window_name`` and ``path`` are one window and its snapshot
        prefix, or equal-length tuples of them; the windows are restored
        one after another.  Returns the restored block IDs: a sorted
        list, or a tuple of them, one per window.
        """
        restored = []
        for window, prefix in window_prefixes(window_name, path):
            restored.append((yield from self._read_window(window, attr_names, prefix)))
        return per_window(window_name, restored)

    def _read_window(self, window_name: str, attr_names, path: str):
        """Generator: restore one window's panes from its snapshot files.

        Scans the snapshot's files starting at this rank's own index and
        wrapping around, stopping as soon as every wanted block is
        found.  Returns the sorted restored block IDs.

        Each file is opened by structural scan and its wanted records
        are pulled through one sieved read
        (:func:`~repro.shdf.file.read_sieved`) — one directory pass
        plus a few large merged reads instead of a per-dataset
        lookup/read loop.  A transient read fault replays that file's
        sieved read (a faulted one hands out nothing); once retries are
        exhausted the fault propagates to the caller.
        """
        ctx = self.ctx
        t0 = ctx.now
        nbytes = 0
        window = self.com.window(window_name)
        wanted = set(window.pane_ids())
        # Through the fs's disk, not the machine's: under a burst tier
        # the fs namespace is the union of resident and drained files,
        # so a restart sees snapshots the drain has not finished yet.
        files = list_snapshot_files(ctx.fs.disk, path)
        if not files:
            raise FileNotFoundError(f"no snapshot files with prefix {path!r}")
        restored: List[int] = []
        # Start at our own file (same-process-count restarts hit it
        # immediately); wrap around for the general case.
        start = ctx.rank % len(files)
        order = files[start:] + files[:start]
        for file_path in order:
            if not wanted:
                break
            reader = SHDFReader(
                ctx.env, ctx.fs, file_path, self.driver, node=ctx.node,
                recorder=ctx.recorder, rank=ctx.rank,
            )
            try:
                yield from reader.open_scan()
            except TornFileError:
                # A crash left this file without its commit footer; keep
                # scanning.  If the wanted blocks exist nowhere else the
                # KeyError below tells the caller to fall back to the
                # previous good snapshot.
                self.stats.torn_files_skipped += 1
                ctx.log_fault(f"{self.name} skipping torn snapshot file {file_path}")
                continue
            names = [
                n
                for n in reader.names()
                if n.startswith(window_name + "/") and parse_dataset_name(n)[1] in wanted
            ]
            if attr_names is not None:
                # Partial attribute read: sieve only the requested
                # records instead of reading every dataset of the block
                # and discarding the rest after decode (a follow-on to
                # the restart reads' data sieving).  Blocks none of
                # whose records match keep one record so their geometry
                # still restores (the post-decode filter below strips
                # its array, matching the old full-read semantics
                # exactly).
                want_attrs = set(attr_names)
                matched = []
                matched_blocks = set()
                fallback: Dict[int, str] = {}
                for n in names:
                    _window, b, attr = parse_dataset_name(n)
                    if attr in want_attrs:
                        matched.append(n)
                        matched_blocks.add(b)
                    elif b not in fallback:
                        fallback[b] = n
                for b, n in fallback.items():
                    if b not in matched_blocks:
                        matched.append(n)
                names = matched
            # One directory pass + sieved bulk reads for the whole
            # file's wanted records.
            datasets = yield from retrying(
                ctx.env, self.retry,
                lambda: reader.read_batch(names),
                on_retry=self._note_read_retry,
            )
            file_nbytes = sum(ds.nbytes for ds in datasets)
            self.stats.bytes_read += file_nbytes
            nbytes += file_nbytes
            yield from reader.close()
            for block in datasets_to_blocks(datasets, attr_names):
                apply_block(self.com, block)
                wanted.discard(block.block_id)
                restored.append(block.block_id)
                self.stats.blocks_read += 1
        if wanted:
            raise KeyError(
                f"blocks {sorted(wanted)} of window {window_name!r} not found "
                f"in snapshot {path!r}"
            )
        self.stats.fold(ctx.io_record(
            self.name, "read_attribute", path=path, nbytes=nbytes, t_start=t0
        ))
        return sorted(restored)

    def sync(self):
        """Generator: make every completed write durable.

        Non-threaded Rochdf writes are blocking, so without a storage
        tier this is a no-op; with a burst tier it waits for the
        write-behind drain (the durability promise ``sync`` makes).
        """
        t0 = self.ctx.now
        yield self.ctx.env.sleep(0)
        yield from self.ctx.fs.drain_barrier()
        self.stats.fold(self.ctx.io_record(self.name, "sync", t_start=t0))
