"""Timed SHDF file access: real bytes + driver/filesystem costs.

:class:`SHDFWriter` and :class:`SHDFReader` are the layer the I/O
libraries (Rochdf, Rocpanda servers) use.  Every operation is a
generator charging virtual time through the filesystem model and the
format driver, while the actual bytes land on / come from the virtual
disk — so restart files decode to exactly what was written.

This layer owns the data sieving of two-phase I/O (Thakur et al.,
PAPERS.md) in both directions, down to the filesystem transfers:

* a writer gathers many small records into a *stage* and lands it as
  **one** ``fs.write`` of the combined payload + metadata bytes and one
  :meth:`~repro.fs.vfs.VirtualFile.append_many` — one fixed write
  latency and one turn at the write slot instead of one per record;
* a reader merges the extents it wants (:func:`merge_extents`) into a
  few contiguous runs, sieving through holes up to a gap, and reads
  each run as one ``fs.read`` (:func:`read_sieved`).

Faults raise before anything is mutated or handed out: ``append_many``
checks the disk's fault hooks against the combined size before it
appends anything, so a faulted landing leaves its stage intact and the
retry lands it; :meth:`~repro.fs.vfs.VirtualFile.read_checked` raises
before it returns a byte, so a faulted sieved read hands out nothing
and its retry replays — and re-charges — every run.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..des import Environment
from ..fs.models import FileSystemModel
from .codec import (
    JOURNAL_ATTR,
    encode_commit_footer,
    encode_header,
    scan_file,
)
from .drivers import HDFDriver, hdf4_driver

__all__ = ["SHDFWriter", "SHDFReader", "merge_extents", "read_sieved"]


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


def read_sieved(
    fs: FileSystemModel,
    vfile,
    extents: Sequence[Tuple[int, int]],
    gap: int = 0,
    meta_bytes: int = 0,
    node=None,
    charge=None,
):
    """Generator: read ``(offset, nbytes)`` extents of ``vfile`` through
    merged runs (:func:`merge_extents` with ``gap``).

    Returns one read-only :class:`memoryview` per extent, in ``extents``
    order: a slice of its run's buffer, which each run copies out of the
    file once, so overlapping extents are read once.  Each run is one
    ``fs.read`` of its span — sieved holes included — and the first
    also carries ``meta_bytes`` (format metadata, charged once); then
    its checked read.  A caller that charges the reads itself passes
    ``charge``: a generator function given every run's charged bytes at
    once, in run order, which returns once they are all read.  A read
    fault in a run raises before any byte is handed out, after the runs
    before it were charged; the retry is another call.
    """
    runs = merge_extents(extents, gap)
    if not runs:
        return []
    charges = [length for _start, length in runs]
    charges[0] += meta_bytes
    if charge is not None:
        yield from charge(charges)
    buffers = []
    for (start, length), nbytes in zip(runs, charges):
        if charge is None:
            yield from fs.read(nbytes, node)
        buffers.append(memoryview(vfile.read_checked(start, length)))
    starts = [start for start, _length in runs]
    chunks = []
    for offset, nbytes in extents:
        i = bisect_right(starts, offset) - 1
        skip = offset - starts[i]
        chunks.append(buffers[i][skip : skip + nbytes])
    return chunks


class _Stage:
    """Records bound for one transfer, the bytes it charges the
    filesystem (payload + per-record format metadata) and the round
    trips they owe."""

    __slots__ = ("chunks", "charged", "meta_ops")

    def __init__(self):
        self.chunks: List = []
        self.charged = 0
        self.meta_ops = 0

    def add(self, chunk, meta_bytes: int = 0) -> None:
        self.chunks.append(chunk)
        self.charged += len(chunk) + meta_bytes


class SHDFWriter:
    """Append-mode writer for one SHDF file.

    Usage (inside a DES process)::

        writer = SHDFWriter(env, fs, "snap_0001.hdf", driver, node=node)
        yield from writer.open(file_attrs={"time_step": 50})
        yield from writer.write_records(
            encode_batch([Dataset("b1/pressure", arr, {...})])
        )
        yield from writer.close()

    There is one on-disk format (see :mod:`.codec`), whatever the
    driver: the driver is a *timing* model.  Every file is journaled —
    its header carries :data:`~.codec.JOURNAL_ATTR` and its last bytes
    are the 12-byte commit footer — so readers can tell a committed
    snapshot from one torn by a crash mid-write.

    **Bytes reach the disk only through landings.**  :meth:`write_records`
    *stages* records (:meth:`stage`) and pays the format's per-dataset
    directory bookkeeping (:meth:`book`, CPU); the stage owes their
    round trips.  A stage lands as one filesystem transfer — what it
    owes first, paid once, then a single ``fs.write`` of its chunks,
    whose ``land`` is one ``append_many`` — so a landing is exactly one
    ``fs.write``: the header is the first chunk of the file's first
    stage, and the commit footer, staged by :meth:`commit`, the last
    chunk of whichever stage lands last.  :meth:`open` is the
    create round trip alone; :meth:`close` commits, lands everything
    staged and pays the close round trip (:meth:`release`), so a
    sequential caller sees metadata, CPU, metadata, transfer, metadata.
    Staging and landing may also be two callers (the Rocpanda server's
    main loop and its lander): :meth:`begin` accepts records before
    :meth:`open`, :meth:`seal` closes the open stage, and
    :meth:`settle_meta` / :meth:`land` pay for the oldest stage while
    new records join the newest.  Stages land in the order they were
    sealed, so the file's bytes do not depend on where the seals fell.

    ``ndatasets`` counts **staged** records, not only landed ones: it
    is the directory size the next ``create_cost`` is charged at, and a
    record is staged exactly once — staging cannot fault, and a caller
    retrying a faulted landing re-runs :meth:`land`, :meth:`flush` or
    :meth:`close`, never ``write_records``; a re-run ``close`` stages no
    second footer.  A fault leaves the stage intact (the VFS raises
    before mutating anything); a crash loses at most the staged bytes,
    in a file that has no commit footer yet — empty if nothing landed —
    and is torn either way.
    """

    def __init__(
        self,
        env: Environment,
        fs: FileSystemModel,
        path: str,
        driver: Optional[HDFDriver] = None,
        node=None,
        recorder=None,
        rank: int = -1,
        visible: bool = True,
    ):
        self.env = env
        self.fs = fs
        self.path = path
        self.driver = driver if driver is not None else hdf4_driver()
        self.node = node
        #: Optional repro.obs.Recorder emitting per-dataset records;
        #: ``visible=False`` marks this writer's time as background
        #: (write-behind) rather than caller-visible.
        self._recorder = recorder
        self._rank = rank
        self._visible = visible
        self._vfile = None
        self._ndatasets = 0
        #: Unlanded stages, oldest first; records join the last one
        #: (empty: the writer accepts none).
        self._stages: deque = deque()
        #: None until :meth:`commit`; then the footer until a landing
        #: carries it, and ``b""`` once one does.
        self._footer: Optional[bytes] = None
        self._open = False

    @property
    def ndatasets(self) -> int:
        """Datasets written so far, staged ones included."""
        return self._ndatasets

    @property
    def staged_bytes(self) -> int:
        """Bytes the open stage's transfer will charge the filesystem for."""
        return self._stages[-1].charged if self._stages else 0

    @property
    def owed_meta(self) -> int:
        """Metadata round trips the oldest stage still owes."""
        return self._stages[0].meta_ops if self._stages else 0

    @property
    def owes_landing(self) -> bool:
        """True while staged bytes — header, records, footer — are unlanded."""
        stages = self._stages
        return bool(stages and (len(stages) > 1 or stages[0].chunks or self._footer))

    @property
    def is_open(self) -> bool:
        """True between a successful ``open`` and the matching ``close``."""
        return self._open

    def _record(self, op: str, nbytes: int, t_start: float) -> None:
        if self._recorder is not None:
            self._recorder.record_io(
                "shdf",
                op,
                self._rank,
                path=self.path,
                nbytes=nbytes,
                t_start=t_start,
                t_end=self.env.now,
                visible=self._visible,
            )

    def begin(self, file_attrs: Optional[Dict[str, Any]] = None) -> None:
        """Create the empty file and start accepting records, behind the
        header its first landing writes (no virtual time passes)."""
        self._vfile = self.fs.disk.create(self.path, exist_ok=True)
        self._vfile.truncate()
        self._ndatasets = 0
        self._footer = None
        self._stages = deque([_Stage()])
        self._stages[0].add(encode_header({**(file_attrs or {}), JOURNAL_ATTR: True}))

    def open(self, file_attrs: Optional[Dict[str, Any]] = None):
        """Generator: the create round trip (:meth:`begin` first, unless
        begun); the file is open and still empty."""
        if self._open:
            raise RuntimeError(f"{self.path}: already open")
        t0 = self.env.now
        if not self._stages:
            self.begin(file_attrs)
        yield from self.fs.meta_op(self.node)
        self._open = True
        self._record("open", 0, t0)

    def write_records(self, batch):
        """Generator: stage many records for one gathered transfer.

        ``batch`` is ``(buf, entries)`` as :func:`~.codec.encode_batch`
        returns it, each entry its own dataset: the buffer joins the
        open stage as one chunk, charged the driver's per-dataset
        metadata bytes for every entry, then :meth:`book`.  Nothing
        reaches the filesystem yet: the records land — together with
        whatever else the stage holds — through a **single** filesystem
        write when it lands, the data-sieving merge that makes gathered
        server-side writes large and sequential.  The disk mutation
        happens through :meth:`~repro.fs.vfs.VirtualFile.append_many`,
        which checks fault hooks *before* appending anything, so the
        raise-before-mutate guarantee holds at stage granularity: a
        faulted landing leaves the records staged, and the retry is
        :meth:`flush` or :meth:`close`, not this call again.
        """
        if not self._stages:
            raise RuntimeError(f"{self.path}: not open")
        buf, entries = batch
        if not entries:
            return
        self._stages[-1].add(buf, self.driver.meta_bytes_per_dataset * len(entries))
        yield from self.book(len(entries), sum(entry[3] for entry in entries))

    def stage(self, records) -> None:
        """Add records, each a sequence of chunks, to the open stage."""
        stage = self._stages[-1]
        meta_bytes = self.driver.meta_bytes_per_dataset
        for record in records:
            stage.add(record[0], meta_bytes)
            for chunk in record[1:]:
                stage.add(chunk)

    def book(self, ndatasets: int, data_nbytes: int):
        """Generator: ``create_cost`` (CPU) for ``ndatasets`` new datasets
        at the directory size each finds; the open stage owes their round
        trips at once, so a seal during the sleep takes them along.
        Recorded as ``write_records`` of ``data_nbytes`` array bytes."""
        if not self._stages:
            raise RuntimeError(f"{self.path}: not open")
        t0 = self.env.now
        n0 = self._ndatasets
        self._ndatasets += ndatasets
        self._stages[-1].meta_ops += self.driver.fs_meta_ops_per_dataset * ndatasets
        yield self.env.sleep(
            sum(self.driver.create_cost(n0 + k) for k in range(ndatasets))
        )
        self._record("write_records", data_nbytes, t0)

    def seal(self) -> None:
        """Close the open stage: it lands as one transfer, after the
        stages sealed before it; later records join a new stage."""
        if self._stages[-1].chunks:
            self._stages.append(_Stage())

    def commit(self) -> None:
        """No more records: the commit footer becomes the last chunk of
        the last stage to land.  Committing again stages nothing."""
        if self._footer is None:
            self._footer = encode_commit_footer(self._ndatasets)

    def _settle_meta(self):
        stage = self._stages[0]
        owed, stage.meta_ops = stage.meta_ops, 0
        yield from self.fs.meta_ops_bulk(owed, self.node)

    def _land_next(self):
        """Generator: the oldest stage — the metadata round trips it
        still owes, then one filesystem transfer (with the footer, if
        the file is committed and no later stage holds a chunk: only the
        newest stage is ever empty; an empty one writes nothing).  A
        faulted write leaves the stage as it was."""
        yield from self._settle_meta()
        stages = self._stages
        stage = stages[0]
        if self._footer and (len(stages) == 1 or not stages[1].chunks):
            stage.add(self._footer)
            self._footer = b""
        if stage.chunks:
            vfile = self._vfile
            yield from self.fs.write(
                stage.charged, self.node, land=lambda: vfile.append_many(stage.chunks)
            )
            stage.chunks = []
            stage.charged = 0
        if len(self._stages) > 1:
            self._stages.popleft()

    def settle_meta(self):
        """Generator: pay the oldest stage's metadata round trips ahead
        of its :meth:`land`: they need no turn at the filesystem."""
        t0 = self.env.now
        yield from self._settle_meta()
        self._record("settle_meta", 0, t0)

    def land(self):
        """Generator: land the oldest stage as one transfer."""
        t0 = self.env.now
        yield from self._land_next()
        self._record("flush", 0, t0)

    def flush(self):
        """Generator: land every stage; a no-op when nothing is staged."""
        if not self._open:
            raise RuntimeError(f"{self.path}: not open")
        while self.owes_landing:
            yield from self.land()

    def release(self):
        """Generator: the close round trip of a file whose bytes all landed."""
        yield from self.fs.meta_op(self.node)
        self._open = False
        self._stages.clear()

    def close(self, landing=None):
        """Generator: :meth:`commit`, land everything staged, then
        :meth:`release` the file.  ``landing``, a generator function,
        lands the oldest stage the caller's way (T-Rochdf's I/O thread
        takes the write-slot lease around :meth:`land`); by default the
        stage lands straight through ``fs.write``."""
        if not self._open:
            raise RuntimeError(f"{self.path}: not open")
        t0 = self.env.now
        self.commit()
        land = landing if landing is not None else self._land_next
        while self.owes_landing:
            yield from land()
        yield from self.release()
        self._record("close", 0, t0)


class SHDFReader:
    """Reader for one SHDF file on the virtual disk.

    :meth:`open_scan` scans the file's record directory into extents —
    names, offsets, lengths — parsing every record header once and
    materializing no array; dataset data is decoded only when
    :meth:`read_extents` / :meth:`read_batch` pulls it through
    :func:`read_sieved`, from those headers.
    """

    def __init__(
        self,
        env: Environment,
        fs: FileSystemModel,
        path: str,
        driver: Optional[HDFDriver] = None,
        node=None,
        recorder=None,
        rank: int = -1,
        visible: bool = True,
    ):
        self.env = env
        self.fs = fs
        self.path = path
        self.driver = driver if driver is not None else hdf4_driver()
        self.node = node
        self._recorder = recorder
        self._rank = rank
        self._visible = visible
        # Record extents -> parsed headers (file order), and the file
        # they index, between open and close.
        self._entries: Optional[Dict] = None
        self._attrs: Optional[Dict[str, Any]] = None
        self._vfile = None

    @property
    def is_open(self) -> bool:
        """True between a successful ``open_scan`` and the matching ``close``."""
        return self._entries is not None

    def _record(self, op: str, nbytes: int, t_start: float) -> None:
        if self._recorder is not None:
            self._recorder.record_io(
                "shdf",
                op,
                self._rank,
                path=self.path,
                nbytes=nbytes,
                t_start=t_start,
                t_end=self.env.now,
                visible=self._visible,
            )

    def open_scan(self):
        """Generator: open the file by *structural scan* (no data decode).

        One metadata round trip, then the file's record directory is
        scanned into extents and their parsed headers; returns the file
        attributes.  A torn file raises :class:`~.codec.TornFileError`
        (see :func:`~.codec.scan_file`).
        """
        if self.is_open:
            raise RuntimeError(f"{self.path}: already open")
        t0 = self.env.now
        yield from self.fs.meta_op(self.node)
        self._vfile = self.fs.disk.open(self.path)
        attrs, entries = scan_file(self._vfile.read())
        # Writer-internal markers (the journal flag) are not user attrs.
        for key in [k for k in attrs if k.startswith("_shdf_")]:
            del attrs[key]
        self._attrs = attrs
        self._entries = entries
        self._record("open_scan", 0, t0)
        return attrs

    @property
    def ndatasets(self) -> int:
        self._require_open()
        return len(self._entries)

    def names(self) -> List[str]:
        self._require_open()
        return [name for name, _offset, _length in self._entries]

    def entries(self) -> List:
        """``((name, offset, length), RecordHeader)`` per record, in file
        order: its extent and parsed header.

        Callers (e.g. the Rocpanda restart servers) use these to chunk
        a file into bulk-read regions, then hand each chunk's extents
        back to :meth:`read_extents`.
        """
        self._require_open()
        return list(self._entries.items())

    @property
    def file_attrs(self) -> Dict[str, Any]:
        self._require_open()
        return self._attrs

    def read_extents(self, entries, sieve_gap: int = 65536, charge=None):
        """Generator: read ``(name, offset, length)`` record extents merged.

        The two-phase read's data movement: per-record filesystem meta
        ops are charged as one bulk event, the extents are merged by
        :func:`read_sieved` (sieving through holes up to ``sieve_gap``
        bytes) into a few large runs, each one ``fs.read`` unless
        ``charge`` charges them, and each record's dataset is built from
        the header :meth:`open_scan` parsed plus its payload slice.  Returns the
        :class:`Dataset` list in ``entries`` order, with private
        writable arrays (restart consumers mutate them in place).

        Directory lookup time is *not* charged here — callers charge it
        once per directory pass (see :meth:`read_batch`).
        """
        self._require_open()
        entries = list(entries)
        if not entries:
            return []
        t0 = self.env.now
        yield from self.fs.meta_ops_bulk(
            self.driver.fs_meta_ops_per_dataset * len(entries), self.node
        )
        records = yield from read_sieved(
            self.fs, self._vfile,
            [(offset, length) for _name, offset, length in entries],
            gap=sieve_gap,
            meta_bytes=self.driver.meta_bytes_per_dataset * len(entries),
            node=self.node, charge=charge,
        )
        datasets = [
            self._entries[extent].dataset(record, copy=True)
            for extent, record in zip(entries, records)
        ]
        self._record("read_extents", sum(d.nbytes for d in datasets), t0)
        return datasets

    def read_batch(self, names: Optional[List[str]] = None, sieve_gap: int = 65536):
        """Generator: read many datasets through one directory pass.

        Charges a single ``lookup_cost`` at the file's directory size —
        one scan locates every requested record — then services the
        extents via :meth:`read_extents`.  ``names=None`` reads
        everything; otherwise datasets are returned in *file order*
        restricted to ``names`` (unknown names raise ``KeyError``).
        """
        self._require_open()
        t0 = self.env.now
        yield self.env.sleep(self.driver.lookup_cost(len(self._entries)))
        if names is None:
            selected = self._entries
        else:
            wanted = set(names)
            unknown = wanted - {name for name, _o, _l in self._entries}
            if unknown:
                raise KeyError(f"no dataset named {sorted(unknown)[0]!r}")
            selected = [e for e in self._entries if e[0] in wanted]
        datasets = yield from self.read_extents(selected, sieve_gap=sieve_gap)
        self._record("read_batch", sum(d.nbytes for d in datasets), t0)
        return datasets

    def close(self):
        """Generator: close the file (recorded as ``close_scan``: a
        reader's close is part of a restart, a writer's of its output)."""
        self._require_open()
        t0 = self.env.now
        yield from self.fs.meta_op(self.node)
        self._entries = None
        self._attrs = None
        self._vfile = None
        self._record("close_scan", 0, t0)

    def _require_open(self):
        if not self.is_open:
            raise RuntimeError(f"{self.path}: not open")
