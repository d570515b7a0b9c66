"""T-Rochdf: multi-threaded individual I/O with background writing (§6.2).

One I/O thread per process handles all output.  A
``write_attribute`` call copies the output data into local buffers (the
only *visible* cost) and returns; the I/O thread writes the buffered
data while the main thread computes.  The main thread buffers all write
requests of the same snapshot, but blocks until the I/O thread has
drained the *previous* snapshot before buffering a new one — exactly
the paper's policy, which bounds buffer memory to one snapshot's worth.
The threads of all processes take turns at the filesystem: each lands a
file in one hold of the write-slot lease (``fs.leased``), as the
Rocpanda servers do, since a shared NFS server tolerates concurrent
writes far worse than concurrent reads (§7.1).

The overlap is transparent: callers keep the simple blocking interface
and may reuse their arrays immediately after the call returns (we
snapshot the arrays with a real copy).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from ..faults.retry import RetryPolicy
from ..fs.vfs import WriteFaultError
from ..shdf.drivers import HDFDriver
from ..shdf.file import SHDFWriter
from ..vthread import BackgroundWorker
from .base import DataBlock, collect_blocks
from .rochdf import RochdfModule, snapshot_file_path

__all__ = ["TRochdfModule", "BackgroundWriteError"]


class BackgroundWriteError(RuntimeError):
    """Unrecoverable write faults hit by the background I/O thread.

    The thread itself must not die silently (the main thread would wait
    on ``sync`` forever believing its data safe); instead it parks the
    failure here and writes on, and the *next* ``sync`` (or snapshot
    boundary, or unload) raises this on the main thread.  The partial
    file carries no commit footer, so restart readers detect it as torn.
    """


class TRochdfModule(RochdfModule):
    """Threaded Rochdf: same interface, overlapped writes.

    Restart (``read_attribute``) is inherited unchanged from Rochdf:
    "Since no computation can be overlapped with restart operations,
    T-Rochdf performs restart in the same way as Rochdf does" (§7.1).
    """

    name = "trochdf"

    def __init__(
        self,
        ctx,
        driver: Optional[HDFDriver] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(ctx, driver, retry)
        #: Buffered write_attribute calls, ``(path, blocks, file_attrs)``,
        #: oldest first; the single I/O thread (one per process: less
        #: thread switching, competing writes serialized, §6.2) takes
        #: them in this order and is gone while there are none.
        self._jobs: deque = deque()
        self._io = BackgroundWorker(
            ctx.env, self._next_write, f"trochdf-io-r{ctx.rank}"
        )
        self._current_snapshot: Optional[Any] = None
        #: (file_path, exception) pairs from failed background writes,
        #: surfaced to the main thread by :meth:`_raise_io_errors`.
        self._io_errors: List[tuple] = []

    # -- module lifecycle ----------------------------------------------------
    def load(self, com) -> None:
        if self._io.busy:
            raise RuntimeError(
                "trochdf reloaded while its previous I/O thread is still "
                "running; drive unload with 'yield from com.unload_module(...)'"
            )
        super().load(com)

    def unload(self, com):
        """Generator: drain buffered snapshots, then tear down.

        Unload must not lose buffered data: every pending write is
        waited for before the window goes away, so a reload can never
        race a still-writing thread.
        Drive with ``yield from com.unload_module("trochdf")``.
        """
        yield from self._drain(raise_errors=False)
        super().unload(com)
        self._raise_io_errors()

    # -- uniform I/O interface ---------------------------------------------------
    def write_attribute(
        self,
        window_name: str,
        attr_names: Optional[List[str]] = None,
        path: str = "snapshot",
        file_attrs: Optional[Dict[str, Any]] = None,
        snapshot_id: Optional[Any] = None,
    ):
        """Generator: buffer locally and return; I/O happens in background.

        ``snapshot_id`` groups back-to-back calls belonging to one
        snapshot (defaults to ``path``); a call with a *new* snapshot id
        first waits for the previous snapshot's writes to finish.
        """
        ctx = self.ctx
        t0 = ctx.now
        sid = snapshot_id if snapshot_id is not None else path
        if self._current_snapshot is not None and sid != self._current_snapshot:
            # New snapshot: block until the previous one is on disk.
            yield from self._drain()
        self._current_snapshot = sid

        blocks = collect_blocks(self.com, window_name, attr_names)
        # Copy into the shared buffers: the caller may immediately
        # overwrite its arrays.  This memcpy is the visible cost.
        total = 0
        buffered = []
        for block in blocks:
            arrays = {k: v.copy() for k, v in block.arrays.items()}
            total += block.nbytes
            buffered.append(
                DataBlock(
                    window=block.window,
                    block_id=block.block_id,
                    nnodes=block.nnodes,
                    nelems=block.nelems,
                    arrays=arrays,
                    specs=dict(block.specs),
                )
            )
        yield from ctx.memcpy(total)

        self._jobs.append((path, buffered, dict(file_attrs or {})))
        self._io.kick()
        self.stats.snapshots += 1
        self.stats.fold(ctx.io_record(
            self.name, "write_attribute", path=path, nbytes=total, t_start=t0
        ))

    def sync(self):
        """Generator: wait until all buffered snapshots are on disk (§5)."""
        t0 = self.ctx.now
        yield from self._drain()
        yield from self.ctx.fs.drain_barrier()
        self.stats.fold(self.ctx.io_record(self.name, "sync", t_start=t0))

    def read_attribute(
        self,
        window_name,
        attr_names: Optional[List[str]] = None,
        path="snapshot",
    ):
        """Generator: restore panes, attr-sieved exactly like Rochdf.

        T-Rochdf performs restart the same way Rochdf does (§7.1) —
        including the ``attr_names`` partial-read sieve and one window
        after another when given several — but must first wait out its
        own buffered snapshots so a read-after-write of the same prefix
        never observes a half-written file.
        """
        yield from self._drain()
        result = yield from super().read_attribute(window_name, attr_names, path)
        return result

    # -- internals ---------------------------------------------------------------
    def _drain(self, raise_errors: bool = True):
        yield from self._io.wait()
        self._current_snapshot = None
        if raise_errors:
            self._raise_io_errors()

    def _raise_io_errors(self) -> None:
        if not self._io_errors:
            return
        errors, self._io_errors = self._io_errors, []
        raise BackgroundWriteError(
            "background I/O thread hit unrecoverable write faults: "
            + "; ".join(f"{path}: {exc}" for path, exc in errors)
        )

    def _close(self, writer: SHDFWriter):
        """Generator: land the file under the write-slot lease, by the
        Rocpanda lander's rule — the per-dataset round trips first (the
        create round trip came before them), then the lease for one
        ``fs.write``, and the close round trip once it is given back.
        :meth:`_write_file` retries this step, so a faulted landing
        waits out its back-off without the lease."""
        ctx = self.ctx

        def landing():
            if writer.owed_meta:
                yield from writer.settle_meta()
            yield from ctx.fs.leased(ctx.node, lambda _asked: writer.land())

        return writer.close(landing)

    def _next_write(self):
        return self._write_file_behind(*self._jobs.popleft()) if self._jobs else None

    def _write_file_behind(self, path, blocks, file_attrs):
        """Generator, one job of the I/O thread: one buffered call's file."""
        ctx = self.ctx
        t0 = ctx.now
        file_path = snapshot_file_path(path, ctx.rank)
        writer = SHDFWriter(
            ctx.env, ctx.fs, file_path, self.driver, node=ctx.node,
            recorder=ctx.recorder, rank=ctx.rank, visible=False,
        )
        try:
            nbytes = yield from self._write_file(
                writer, blocks, dict(file_attrs, writer_rank=ctx.rank)
            )
        except WriteFaultError as exc:
            # Report to the main thread at its next sync; don't die.
            self._io_errors.append((file_path, exc))
            self.stats.background_write_failures += 1
            ctx.log_fault(f"trochdf background write of {file_path} FAILED: {exc}")
            return
        self.stats.files_created += 1
        self.stats.fold(ctx.io_record(
            self.name, "bg_write", path=file_path, nbytes=nbytes,
            t_start=t0, visible=False,
        ))
