"""Virtual disk: real bytes behind the simulated filesystems.

The timing of I/O operations is modeled by the filesystem models in
:mod:`repro.fs.models`; the *content* lives here.  Keeping real bytes
means snapshot/restart round-trips are bit-exact and testable, and a
virtual disk can be persisted to (or loaded from) a real directory.

Content: an append-only rope
----------------------------
A file is a list of immutable chunks plus their cumulative end offsets.
``append`` / ``append_many`` keep a *reference* to ``bytes`` and to
read-only views whose ``.obj`` is ``bytes`` — the record views
:func:`~repro.shdf.codec.encode_batch` hands out, so a snapshot byte is
copied once on its way to disk (array → encode buffer) and a file keeps
alive the encode buffers its records came from.  Every other input (a
``bytearray``, a writable view, a numpy buffer) is copied once when
appended, so no holder can change what is on disk.
:meth:`VirtualFile.views` returns the read-only slices of the chunks a
range spans, without copying; :meth:`VirtualFile.read` joins them (a
read that covers exactly one ``bytes`` object returns that object).

Write faults
------------
A disk can refuse writes in two ways, both checked *before* any byte is
mutated so a failed write never leaves partial state behind:

* ``capacity_bytes`` — a hard limit on the total bytes stored across all
  files; growth past it raises :class:`DiskFullError`.
* ``fault_hook`` — an optional callable ``hook(path, nbytes)`` installed
  by the fault injector; it may raise :class:`TransientIOError` (or any
  :class:`WriteFaultError`) to fail the write.

Read faults
-----------
Reads are checked only through :meth:`VirtualFile.read_checked`, which
consults the disk's ``read_fault_hook`` before returning any byte.  The
plain :meth:`VirtualFile.read` and :meth:`VirtualFile.views` stay
unchecked on purpose: structural parses (``SHDFReader.open``, torn-file
detection) must observe the disk as-is, and capacity never constrains
reads.  Fault-injected read paths (the
:class:`~repro.fs.coalesce.ReadCoalescer`) go through the checked entry
point so a transient read EIO can be retried.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

__all__ = [
    "VirtualFile",
    "VirtualDisk",
    "FileNotFound",
    "FileExists",
    "WriteFaultError",
    "TransientIOError",
    "DiskFullError",
]


class FileNotFound(KeyError):
    """Raised when opening a path that does not exist on the disk."""


class FileExists(KeyError):
    """Raised when exclusively creating a path that already exists."""


class WriteFaultError(OSError):
    """Base class for injected or capacity-driven write failures."""


class TransientIOError(WriteFaultError):
    """An EIO-style fault that may succeed if the write is retried."""


class DiskFullError(WriteFaultError):
    """The disk's ``capacity_bytes`` limit would be exceeded (ENOSPC)."""


def _immutable(chunk):
    """``chunk`` as bytes no holder can change: by reference if it already is."""
    if type(chunk) is bytes:
        return chunk
    if (
        type(chunk) is memoryview and chunk.readonly
        and type(chunk.obj) is bytes and chunk.c_contiguous
    ):
        # Flat bytes, so len() counts bytes.
        return chunk if chunk.ndim == 1 and chunk.format == "B" else chunk.cast("B")
    return bytes(chunk)


class VirtualFile:
    """An append-only rope of immutable chunks with ranged reads."""

    def __init__(self, path: str, disk: Optional["VirtualDisk"] = None):
        self.path = path
        self.disk = disk
        #: ``bytes`` or read-only views over ``bytes``, in file order.
        self._chunks: List = []
        #: Cumulative end offset of each chunk (the last one is the size).
        self._ends: List[int] = []

    @property
    def size(self) -> int:
        return self._ends[-1] if self._ends else 0

    def append(self, data) -> int:
        """Append ``data``; returns the offset it was written at."""
        return self.append_many((data,))

    def append_many(self, chunks) -> int:
        """Append several chunks as one transfer; returns the first offset.

        The fault/capacity check covers the *combined* size and runs
        before any chunk lands, so a coalesced write preserves the
        raise-before-mutate guarantee at batch granularity: either every
        chunk is appended or the file is untouched.
        """
        held = [c for c in map(_immutable, chunks) if len(c)]
        total = sum(map(len, held))
        if self.disk is not None:
            self.disk._check_write(self.path, total)
        offset = end = self.size
        for chunk in held:
            end += len(chunk)
            self._ends.append(end)
        self._chunks += held
        if self.disk is not None:
            self.disk._used += total
        return offset

    def views(self, offset: int = 0, nbytes: Optional[int] = None) -> List[memoryview]:
        """Read-only, zero-copy slices of the chunks ``[offset, offset +
        nbytes)`` spans, in order (clipped at end of file)."""
        ends = self._ends
        end = self.size if nbytes is None else min(self.size, offset + nbytes)
        out = []
        i = bisect_right(ends, offset)
        pos = offset
        while pos < end:
            start = ends[i - 1] if i else 0
            stop = min(ends[i], end)
            out.append(memoryview(self._chunks[i])[pos - start : stop - start])
            pos = stop
            i += 1
        return out

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> bytes:
        views = self.views(offset, nbytes)
        if len(views) == 1 and len(views[0]) == len(views[0].obj):
            return views[0].obj  # one whole bytes object: it is the answer
        return b"".join(views)

    def read_checked(self, offset: int = 0, nbytes: Optional[int] = None) -> bytes:
        """Ranged read that consults the disk's read fault hook first.

        Raises whatever the hook raises (a :class:`TransientIOError`
        under injection) *before* returning any data, so callers can
        retry the whole read without having consumed a partial result.
        """
        if self.disk is not None:
            want = self.size - offset if nbytes is None else nbytes
            self.disk._check_read(self.path, max(0, want))
        return self.read(offset, nbytes)

    def truncate(self) -> None:
        if self.disk is not None:
            self.disk._used -= self.size
        self._chunks = []
        self._ends = []

    def __repr__(self) -> str:
        return f"<VirtualFile {self.path!r} ({self.size} bytes)>"


class VirtualDisk:
    """A flat namespace of :class:`VirtualFile` objects."""

    def __init__(self, capacity_bytes: Optional[int] = None):
        self._files: Dict[str, VirtualFile] = {}
        self.capacity_bytes = capacity_bytes
        #: Optional ``hook(path, nbytes)`` consulted before every write;
        #: may raise a :class:`WriteFaultError` to fail it.
        self.fault_hook: Optional[Callable[[str, int], None]] = None
        #: Optional ``hook(path, nbytes)`` consulted by checked reads
        #: (:meth:`VirtualFile.read_checked`); may raise
        #: :class:`TransientIOError` to fail the read.  Capacity never
        #: applies to reads.
        self.read_fault_hook: Optional[Callable[[str, int], None]] = None
        self._used = 0

    def _check_write(self, path: str, grow: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(path, grow)
        cap = self.capacity_bytes
        if cap is not None and self._used + grow > cap:
            raise DiskFullError(
                f"disk full: {self._used} + {grow} > capacity {cap} ({path})"
            )

    def _check_read(self, path: str, nbytes: int) -> None:
        if self.read_fault_hook is not None:
            self.read_fault_hook(path, nbytes)

    def set_capacity(self, capacity_bytes: Optional[int]) -> None:
        """Change the capacity limit (``None`` removes it).

        Existing content is never discarded, even if it already exceeds
        the new limit; only further growth is refused.
        """
        self.capacity_bytes = capacity_bytes

    def create(self, path: str, exist_ok: bool = False) -> VirtualFile:
        if path in self._files:
            if not exist_ok:
                raise FileExists(path)
            return self._files[path]
        f = VirtualFile(path, disk=self)
        self._files[path] = f
        return f

    def open(self, path: str) -> VirtualFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        try:
            f = self._files.pop(path)
        except KeyError:
            raise FileNotFound(path) from None
        self._used -= f.size

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def nfiles(self) -> int:
        return len(self._files)

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- persistence to a real directory -------------------------------
    def persist(self, directory: str) -> List[str]:
        """Write all virtual files under ``directory`` on the real disk.

        Path separators in virtual paths become subdirectories.
        Returns the list of real paths written.
        """
        written = []
        for path, vfile in sorted(self._files.items()):
            real = os.path.join(directory, path.lstrip("/"))
            os.makedirs(os.path.dirname(real) or ".", exist_ok=True)
            with open(real, "wb") as fh:
                fh.write(vfile.read())
            written.append(real)
        return written

    @classmethod
    def load(cls, directory: str) -> "VirtualDisk":
        """Build a virtual disk from every regular file under ``directory``."""
        disk = cls()
        for root, _dirs, names in os.walk(directory):
            for name in names:
                real = os.path.join(root, name)
                rel = os.path.relpath(real, directory)
                vf = disk.create(rel)
                with open(real, "rb") as fh:
                    vf.append(fh.read())
        return disk
