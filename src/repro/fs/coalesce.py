"""I/O-coalescing schedulers: merge pending same-file accesses.

The data-sieving core of two-phase I/O (Thakur et al., PAPERS.md),
applied in both directions:

* :class:`WriteCoalescer` — once a server has gathered many small
  dataset records bound for one file, servicing them as independent
  filesystem writes pays per-call latency and — under the NFS model —
  re-enters the contended write slot once per record.  The coalescer
  instead accumulates the pending records and flushes them as a
  **single** large transfer: one ``fs.write`` covering the combined
  payload + metadata bytes, and one
  :meth:`~repro.fs.vfs.VirtualFile.append_many` mutation.
* :class:`ReadCoalescer` — the restart mirror image: many small record
  reads against one file are merged by :func:`merge_extents` into a few
  large contiguous runs, each serviced as one ``fs.read``.  Sieving
  proper: runs may span small holes between wanted extents (up to the
  ``gap`` threshold), trading a few extra bytes on the wire for one
  large sequential access instead of many seeks.

Fault semantics: ``append_many`` checks the disk's fault hooks against
the combined size *before* appending anything, so an injected write
fault leaves the file exactly as it was — the same raise-before-mutate
contract the per-record path has, now at batch granularity.  Reads
mirror it: :meth:`ReadCoalescer.run` keeps its extent list pending
until every merged run has been served, so an injected read fault
(raised by :meth:`~repro.fs.vfs.VirtualFile.read_checked` before any
data is returned) leaves the coalescer re-runnable — a retry replays
the whole schedule, re-charging virtual time exactly like a retried
write does.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["WriteCoalescer", "ReadCoalescer", "merge_extents"]


def merge_extents(
    extents: Sequence[Tuple[int, int]], gap: int = 0
) -> List[Tuple[int, int]]:
    """Merge ``(offset, nbytes)`` extents into contiguous ``(start, length)`` runs.

    Extents may arrive unsorted, overlapping, or duplicated; the result
    is sorted, disjoint, and covers every input byte exactly once.  Two
    extents whose hole is at most ``gap`` bytes are sieved into one run
    (the hole's bytes are part of the run and will be read/charged — the
    data-sieving trade).  ``gap=0`` still merges touching/overlapping
    extents.
    """
    if gap < 0:
        raise ValueError("negative sieve gap")
    runs: List[List[int]] = []
    for offset, nbytes in sorted(extents):
        if offset < 0 or nbytes < 0:
            raise ValueError(f"bad extent ({offset}, {nbytes})")
        end = offset + nbytes
        if runs and offset <= runs[-1][1] + gap:
            if end > runs[-1][1]:
                runs[-1][1] = end
        else:
            runs.append([offset, end])
    return [(start, end - start) for start, end in runs]


class WriteCoalescer:
    """Accumulate pending appends to one file; flush as one transfer.

    Usage (inside a DES process)::

        c = WriteCoalescer(fs, vfile, node=node)
        for record in records:
            c.add(record, meta_bytes=driver.meta_bytes_per_dataset)
        offsets = yield from c.flush()

    ``flush`` returns the on-disk offset of every chunk, in order, so
    callers can maintain their dataset indexes exactly as if the
    records had been appended one by one.

    A coalescer may live as long as its file is open: an
    :class:`~repro.shdf.file.SHDFWriter` keeps one as its write-behind
    stage, adds to it across many ``write_records`` calls, and reads
    :attr:`pending_bytes` to decide when a transfer is large enough to
    land.  A faulted ``flush`` raises before anything is appended and
    keeps every chunk pending, so the retry is another ``flush``.
    """

    __slots__ = ("fs", "vfile", "node", "_chunks", "_charged")

    def __init__(self, fs, vfile, node=None):
        self.fs = fs
        self.vfile = vfile
        self.node = node
        self._chunks: List = []
        #: Bytes to charge the filesystem model for (payload + per-record
        #: format metadata), which may exceed what lands in the file.
        self._charged = 0

    @property
    def pending(self) -> int:
        """Number of chunks waiting for the next flush."""
        return len(self._chunks)

    @property
    def pending_bytes(self) -> int:
        """Charged bytes accumulated since the last flush."""
        return self._charged

    def add(self, chunk, meta_bytes: int = 0) -> None:
        """Queue one bytes-like chunk (plus driver metadata to charge)."""
        self._chunks.append(chunk)
        self._charged += len(chunk) + meta_bytes

    def flush(self):
        """Generator: service all pending chunks as one large write.

        Charges a single ``fs.write`` for the combined size, lands the
        chunks with one ``append_many``, and returns the list of
        per-chunk offsets.  A no-op (empty list) when nothing is
        pending.
        """
        if not self._chunks:
            return []
        chunks = self._chunks
        offset = yield from self.fs.write(
            self._charged, self.node, land=lambda: self.vfile.append_many(chunks)
        )
        offsets = []
        for chunk in chunks:
            offsets.append(offset)
            offset += len(chunk)
        self._chunks = []
        self._charged = 0
        return offsets


class ReadCoalescer:
    """Accumulate pending ranged reads of one file; serve them merged.

    Usage (inside a DES process)::

        c = ReadCoalescer(fs, vfile, node=node, gap=gap)
        for name, offset, length in entries:
            c.add(offset, length, meta_bytes=driver.meta_bytes_per_dataset)
        chunks = yield from c.run()   # a view per extent, in add order

    Each merged run charges **one** ``fs.read`` covering the run's span
    (wanted bytes plus any sieved-through holes) plus the format
    metadata of the extents it absorbed, then pulls the bytes with one
    checked read.  Overlapping extents are read once and sliced per
    caller.
    """

    __slots__ = ("fs", "vfile", "node", "gap", "_extents", "_meta")

    def __init__(self, fs, vfile, node=None, gap: int = 0):
        self.fs = fs
        self.vfile = vfile
        self.node = node
        #: Maximum hole (bytes) two extents may be merged across.
        self.gap = gap
        self._extents: List[Tuple[int, int]] = []
        #: Driver metadata bytes to charge on top of the merged spans.
        self._meta = 0

    @property
    def pending(self) -> int:
        """Number of extents waiting for the next run."""
        return len(self._extents)

    @property
    def pending_bytes(self) -> int:
        """Charged bytes of the current plan (merged spans + metadata)."""
        return sum(length for _start, length in self.plan()) + self._meta

    def add(self, offset: int, nbytes: int, meta_bytes: int = 0) -> None:
        """Queue one ranged read (plus driver metadata to charge)."""
        if offset < 0 or nbytes < 0:
            raise ValueError(f"bad extent ({offset}, {nbytes})")
        self._extents.append((offset, nbytes))
        self._meta += meta_bytes

    def plan(self) -> List[Tuple[int, int]]:
        """The merged ``(start, length)`` runs the next :meth:`run` will issue."""
        return merge_extents(self._extents, self.gap)

    def run(self, charge=None):
        """Generator: service all pending extents through merged reads.

        Returns one read-only :class:`memoryview` per extent, in
        :meth:`add` order: a slice of its merged run's buffer, which
        each run copies out of the file once.  The pending extents are
        cleared only after *every* run has been served, so a read fault
        raised mid-schedule leaves the coalescer intact for a retry
        (which replays and re-charges the whole schedule).  A no-op
        (empty list) when nothing is pending.

        Each run is one ``fs.read``, in turn.  A caller that charges the
        reads itself passes ``charge``: a generator function given every
        run's charged bytes at once, in plan order, which returns once
        they are all read.
        """
        if not self._extents:
            return []
        runs = self.plan()
        charges = [length for _start, length in runs]
        # Metadata charge rides on the first (largest-savings) run.
        charges[0] += self._meta
        if charge is not None:
            yield from charge(charges)
        buffers: List[Tuple[int, memoryview]] = []
        for (start, length), nbytes in zip(runs, charges):
            if charge is None:
                yield from self.fs.read(nbytes, self.node)
            buffers.append((start, memoryview(self.vfile.read_checked(start, length))))
        chunks = []
        for offset, nbytes in self._extents:
            for start, data in buffers:
                if start <= offset and offset + nbytes <= start + len(data):
                    chunks.append(data[offset - start : offset - start + nbytes])
                    break
            else:  # pragma: no cover - plan() covers every extent
                raise RuntimeError("extent missing from merged read plan")
        self._extents = []
        self._meta = 0
        return chunks
