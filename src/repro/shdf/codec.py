"""Binary codec for SHDF: portable, self-describing, append-friendly.

Layout::

    header  := MAGIC "SHDF" | u16 version | attrs
    record  := MAGIC "DSET" | str16 name | attrs | str16 dtype
               | u8 ndim | u64*ndim dims | u64 nbytes | raw data
    commit  := MAGIC "SEOF" | u64 record count     (journaled files)
    attrs   := u32 count | (str16 name | value)*
    value   := u8 tag | payload        (None/bool/int/float/str/bytes/
                                        ndarray/list)

All integers little-endian.  Records are written sequentially, so a
file can be *appended to* without rewriting (this mirrors HDF4's
linearly-growing file directory: finding a dataset requires a scan,
which is what the HDF4 timing driver charges for).

Hot-path notes: the codec sits on the simulator's wall-clock critical
path (every snapshot of every rank round-trips through it), so

* encoding gathers each record as ``(prefix, view of the array's own
  buffer)`` and lands a record, a batch or a whole file with one
  ``bytes.join`` — sized exactly, every payload byte copied
  once (no ``tobytes``, no growing buffer, no trailing ``bytes()``).
  The virtual disk keeps that buffer by reference, so array → disk is
  that one copy;
* a record header is parsed once: :func:`scan_file` decodes every
  header into a :class:`RecordHeader` while jumping over the payloads,
  and datasets are built from those headers plus a payload slice
  (:meth:`RecordHeader.dataset`) — no second walk;
* decoding reads through one :class:`memoryview` with precompiled
  :class:`struct.Struct` instances, and by default returns **read-only
  zero-copy views** of the input buffer (``np.frombuffer``).  Callers
  that mutate decoded arrays in place — the restart path installs them
  into Roccom windows where physics kernels update them — must pass
  ``copy=True``, which copies each payload once, out of the buffer it
  was decoded from.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

from .model import Dataset, FileImage

__all__ = [
    "CodecError",
    "TornFileError",
    "JOURNAL_ATTR",
    "encode_header",
    "encode_dataset",
    "encode_batch",
    "encode_file",
    "encode_commit_footer",
    "decode_file",
    "decode_batch",
    "decode_header",
    "encode_record_prefix",
    "encode_attr_items",
    "pack_record_prefix",
    "array_payload",
    "scan_file",
    "RecordHeader",
]

FILE_MAGIC = b"SHDF"
RECORD_MAGIC = b"DSET"
VERSION = 1

#: Atomic-commit footer: magic + u64 dataset count (12 bytes).  The
#: writer appends it as the final act of ``close``; its absence marks
#: the file as torn.
COMMIT_MAGIC = b"SEOF"
COMMIT_SIZE = 12

#: File attribute the writer injects.  Readers hitting a file that
#: carries it but lacks a valid commit raise :class:`TornFileError`
#: instead of decoding a partial snapshot.
JOURNAL_ATTR = "_shdf_journal"

_TAG_NONE = 0
_TAG_BOOL = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_STR = 4
_TAG_BYTES = 5
_TAG_NDARRAY = 6
_TAG_LIST = 7

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Precompiled fixed-width codecs (struct.pack/unpack with a format
# string re-parses the format on every call).
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_TAG_INT_S = struct.Struct("<Bq")
_TAG_FLOAT_S = struct.Struct("<Bd")
_TAG_STR_S = struct.Struct("<BI")
#: Shape packers for the common ranks; higher ranks fall back to pack().
_DIMS = {n: struct.Struct(f"<{n}Q") for n in range(1, 9)}
#: A record's ``u8 ndim | u64*ndim dims | u64 nbytes``, likewise.
_SHAPES = {n: struct.Struct(f"<B{n}QQ") for n in range(9)}


class CodecError(ValueError):
    """Raised on malformed SHDF bytes or unencodable values."""


class TornFileError(CodecError):
    """A journaled SHDF file is missing its commit (crash mid-write).

    The restart path treats these files as absent and falls back to the
    previous good snapshot instead of decoding garbage.
    """


# -- low-level pieces -------------------------------------------------------

def _str16(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _dims(shape: tuple) -> bytes:
    """``u8 ndim | u64*ndim dims``."""
    ndim = len(shape)
    dims = _DIMS.get(ndim)
    packed = dims.pack(*shape) if dims else struct.pack(f"<{ndim}Q", *shape)
    return _U8.pack(ndim) + packed


def array_payload(arr: np.ndarray):
    """An array's raw bytes as a flat buffer, zero-copy when C-contiguous."""
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.ndim:
        return arr.reshape(-1).view(np.uint8).data
    return arr.tobytes()  # 0-d: scalar buffer, itemsize bytes


class _Reader:
    """Cursor over an immutable buffer; slices are zero-copy views."""

    __slots__ = ("buf", "pos", "_mv", "_len")

    def __init__(self, buf, pos: int = 0):
        self.buf = buf
        self.pos = pos
        self._mv = memoryview(buf)
        self._len = len(buf)

    def take(self, n: int) -> memoryview:
        pos = self.pos
        if pos + n > self._len:
            raise CodecError("truncated SHDF data")
        self.pos = pos + n
        return self._mv[pos : pos + n]

    def u8(self) -> int:
        pos = self.pos
        if pos >= self._len:
            raise CodecError("truncated SHDF data")
        self.pos = pos + 1
        return self._mv[pos]

    def _unpack(self, codec: struct.Struct) -> Any:
        pos = self.pos
        end = pos + codec.size
        if end > self._len:
            raise CodecError("truncated SHDF data")
        self.pos = end
        return codec.unpack_from(self._mv, pos)[0]

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def i64(self) -> int:
        return self._unpack(_I64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def str16(self) -> str:
        # u16() and take() inlined: every record header holds ~10 of these.
        start = self.pos + 2
        if start > self._len:
            raise CodecError("truncated SHDF data")
        end = start + _U16.unpack_from(self._mv, self.pos)[0]
        if end > self._len:
            raise CodecError("truncated SHDF data")
        self.pos = end
        return str(self._mv[start:end], "utf-8")

    @property
    def exhausted(self) -> bool:
        return self.pos >= self._len


def _frombuffer(raw: memoryview, dtype: np.dtype, shape: tuple, copy: bool) -> np.ndarray:
    """Array over ``raw``: a read-only view, or a private copy."""
    data = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if copy:
        return data.copy()
    # frombuffer inherits writability from the buffer (a bytearray
    # would yield a writable alias); pin views read-only so mutation
    # attempts fail loudly instead of corrupting the file image.
    data.flags.writeable = False
    return data


def _encode_value(value: Any, out: list) -> None:
    """Append one attribute value's encoded parts to ``out``."""
    if value is None:
        out.append(b"\x00")
    elif isinstance(value, (bool, np.bool_)):
        out.append(b"\x01\x01" if value else b"\x01\x00")
    elif isinstance(value, (int, np.integer)):
        iv = int(value)
        if not _I64_MIN <= iv <= _I64_MAX:
            raise CodecError(f"integer attribute out of i64 range: {iv}")
        out.append(_TAG_INT_S.pack(_TAG_INT, iv))
    elif isinstance(value, (float, np.floating)):
        out.append(_TAG_FLOAT_S.pack(_TAG_FLOAT, float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += (_TAG_STR_S.pack(_TAG_STR, len(raw)), raw)
    elif isinstance(value, (bytes, bytearray)):
        out += (_TAG_STR_S.pack(_TAG_BYTES, len(value)), value)
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            raise CodecError("object-dtype attribute arrays are not storable")
        arr = np.asarray(value, order="C")  # keeps 0-d shape intact
        out += (
            _U8.pack(_TAG_NDARRAY), _str16(arr.dtype.str), _dims(arr.shape),
            array_payload(arr),
        )
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_STR_S.pack(_TAG_LIST, len(value)))
        for item in value:
            _encode_value(item, out)
    else:
        raise CodecError(f"unencodable attribute value: {type(value).__name__}")


def _decode_value(reader: _Reader, copy: bool = True) -> Any:
    tag = reader.u8()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        return bool(reader.u8())
    if tag == _TAG_INT:
        return reader.i64()
    if tag == _TAG_FLOAT:
        return reader.f64()
    if tag == _TAG_STR:
        n = reader.u32()
        return str(reader.take(n), "utf-8")
    if tag == _TAG_BYTES:
        n = reader.u32()
        return bytes(reader.take(n))
    if tag == _TAG_NDARRAY:
        dtype = np.dtype(reader.str16())
        ndim = reader.u8()
        shape = tuple(reader.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = reader.take(count * dtype.itemsize)
        return _frombuffer(raw, dtype, shape, copy)
    if tag == _TAG_LIST:
        n = reader.u32()
        return [_decode_value(reader, copy) for _ in range(n)]
    raise CodecError(f"unknown attribute tag {tag}")


def _decode_attrs(reader: _Reader, copy: bool = True) -> dict:
    count = reader.u32()
    attrs = {}
    for _ in range(count):
        name = reader.str16()
        attrs[name] = _decode_value(reader, copy)
    return attrs


# -- public API --------------------------------------------------------------

def encode_header(attrs: dict) -> bytes:
    """File header bytes: magic, version, file attributes."""
    return b"".join(
        (FILE_MAGIC, _U16.pack(VERSION), _U32.pack(len(attrs)), encode_attr_items(attrs))
    )


def encode_attr_items(attrs: dict) -> bytes:
    """``(str16 name | value)*`` of ``attrs``: an attrs block without its
    count, so a record's attrs may be packed from several pieces."""
    out = []
    for name, value in attrs.items():
        out.append(_str16(name))
        _encode_value(value, out)
    return b"".join(out)


def pack_record_prefix(name: str, nattrs: int, items, dtype: np.dtype, shape: tuple) -> bytes:
    """A record's bytes up to its payload from its attributes already
    encoded: ``items``, ``nattrs`` attributes' :func:`encode_attr_items`
    bytes as one or several pieces, in order."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long ({len(raw)} bytes)")
    kind = dtype.str.encode("utf-8")
    ndim = len(shape)
    dims = _SHAPES.get(ndim) or struct.Struct(f"<B{ndim}QQ")
    return b"".join((
        RECORD_MAGIC, _U16.pack(len(raw)), raw, _U32.pack(nattrs), *items,
        _U16.pack(len(kind)), kind,
        dims.pack(ndim, *shape, math.prod(shape) * dtype.itemsize),
    ))


def encode_record_prefix(name: str, attrs: dict, dtype: np.dtype, shape: tuple) -> bytes:
    """A record's bytes up to its payload, which must follow: the
    ``prod(shape)`` items of ``dtype``, raw, as one or many chunks."""
    return pack_record_prefix(name, len(attrs), (encode_attr_items(attrs),), dtype, shape)


def _record_parts(dataset: Dataset) -> tuple:
    """One record as ``(prefix bytes, payload buffer)``, nothing copied yet."""
    arr = dataset.data
    prefix = encode_record_prefix(dataset.name, dataset.attrs, arr.dtype, arr.shape)
    return prefix, array_payload(arr)


def encode_dataset(dataset: Dataset) -> bytes:
    """One appendable dataset record."""
    return b"".join(_record_parts(dataset))


def encode_batch(datasets) -> Tuple[memoryview, list]:
    """Encode many datasets into **one** shared, exactly-sized buffer.

    Returns ``(buf, entries)`` where ``buf`` is a read-only
    :class:`memoryview` and ``entries`` is a list of ``(name, offset,
    length, data_nbytes)`` tuples tiling it; ``buf[offset : offset +
    length]`` is a zero-copy view byte-identical to ``encode_dataset``
    of the same dataset.  Every payload byte is copied exactly once,
    from its array into the buffer; being read-only, the views can
    travel ship -> scatter -> coalesce -> disk (and sit in a client's
    re-ship buffer) without any holder being able to corrupt another's.
    """
    parts = []
    entries = []
    offset = 0
    for dataset in datasets:
        prefix, payload = _record_parts(dataset)
        length = len(prefix) + len(payload)
        parts += (prefix, payload)
        entries.append((dataset.name, offset, length, dataset.nbytes))
        offset += length
    return memoryview(b"".join(parts)), entries


def encode_file(image: FileImage) -> bytes:
    """Full file bytes for an in-memory image (payloads copied once)."""
    parts = [encode_header(image.attrs)]
    for dataset in image:
        parts += _record_parts(dataset)
    return b"".join(parts)


def encode_commit_footer(ndatasets: int) -> bytes:
    """Atomic-commit footer (12 bytes: magic + u64 dataset count)."""
    return COMMIT_MAGIC + _U64.pack(ndatasets)


def decode_header(buf: bytes) -> Tuple[dict, int, int]:
    """Decode the header; returns (file_attrs, offset_after_header, version)."""
    if not len(buf):
        raise TornFileError("empty SHDF file (writer crashed before its first landing)")
    reader = _Reader(buf)
    if reader.take(4) != FILE_MAGIC:
        raise CodecError("not an SHDF file (bad magic)")
    version = reader.u16()
    if version != VERSION:
        raise CodecError(f"unsupported SHDF version {version}")
    attrs = _decode_attrs(reader)
    return attrs, reader.pos, version


class RecordHeader(NamedTuple):
    """One dataset record's header, parsed once by :func:`scan_file`.

    ``payload_offset`` is where the array bytes start *within the
    record*: they run from there to the record's end.
    """

    name: str
    attrs: dict
    dtype: np.dtype
    shape: tuple
    payload_offset: int

    def dataset(self, record, copy: bool = False) -> Dataset:
        """The :class:`Dataset` this header describes, over ``record``
        (the record's bytes, header included).

        The data is a read-only view of ``record`` (array-valued
        attributes: of the buffer the header was parsed from); with
        ``copy=True`` every array is a private writable copy.
        """
        raw = memoryview(record)[self.payload_offset :]
        attrs = dict(self.attrs)
        if copy:
            for key, value in attrs.items():
                if isinstance(value, (np.ndarray, list)):
                    attrs[key] = _private(value)
        # trusted: a parsed header is valid by construction (_read_record).
        return Dataset.trusted(
            self.name, _frombuffer(raw, self.dtype, self.shape, copy), attrs
        )


def _private(value: Any) -> Any:
    """A decoded attribute value that shares no buffer with its file."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [_private(v) for v in value]
    return value


def _read_record(reader: _Reader) -> RecordHeader:
    """Parse the record at the cursor and step past its payload."""
    start = reader.pos
    if reader.take(4) != RECORD_MAGIC:
        raise CodecError("bad dataset record magic")
    name = reader.str16()
    if not name:
        raise CodecError("empty dataset name")
    attrs = _decode_attrs(reader, copy=False)
    dtype = np.dtype(reader.str16())
    ndim = reader.u8()
    shape = tuple(reader.u64() for _ in range(ndim))
    nbytes = reader.u64()
    payload_offset = reader.pos - start
    reader.take(nbytes)
    return RecordHeader(name, attrs, dtype, shape, payload_offset)


def scan_file(buf: bytes) -> Tuple[dict, Dict[Tuple[str, int, int], RecordHeader]]:
    """Structural scan: file attrs + every record's parsed header.

    Returns ``(attrs, records)``: ``records`` maps each record's
    ``(name, offset, length)`` extent, in on-disk order, to its
    :class:`RecordHeader`; ``buf[offset : offset + length]`` is the
    whole record, and ``records[extent].dataset(buf[offset : offset +
    length])`` its dataset.  This is the format's one record walk: each
    header is decoded here once, array payloads are jumped over, and
    nothing re-parses a header to decode the data later.

    Corruption handling: a buffer cut mid-record (or mid-magic), or
    carrying garbage where a record should start, raises
    :class:`CodecError` — a short read must never look like a short
    file; a *journaled* file (one whose writer promised a commit — see
    :data:`JOURNAL_ATTR`) missing its commit raises
    :class:`TornFileError`, the signal the restart path uses to skip a
    crash-torn snapshot.
    """
    attrs, pos, _version = decode_header(buf)
    records = {}
    reader = _Reader(buf, pos)
    nbuf = len(buf)
    committed = None
    while not reader.exhausted:
        start = reader.pos
        magic = buf[start : start + 4]
        if magic == RECORD_MAGIC:
            header = _read_record(reader)
            records[(header.name, start, reader.pos - start)] = header
        elif magic == COMMIT_MAGIC and start == nbuf - COMMIT_SIZE:
            committed = _U64.unpack_from(buf, start + 4)[0]
            break
        else:
            raise CodecError(f"truncated or corrupt SHDF record at offset {start}")
    if attrs.get(JOURNAL_ATTR):
        if committed is None:
            raise TornFileError("torn SHDF file (missing commit footer)")
        if committed != len(records):
            raise TornFileError(
                f"torn SHDF file (commit says {committed} datasets, "
                f"found {len(records)})"
            )
    return attrs, records


def decode_batch(records, copy: bool = False) -> list:
    """Decode an iterable of single-record buffers into Datasets.

    The read-side counterpart of :func:`encode_batch`: each element must
    hold exactly one record (a :func:`scan_file` extent sliced out of a
    file buffer, or a shipped batch entry).  Trailing bytes after the
    record raise :class:`CodecError` — a sliced extent must never be
    silently longer than its record.
    """
    out = []
    for chunk in records:
        reader = _Reader(chunk)
        header = _read_record(reader)
        if not reader.exhausted:
            raise CodecError(
                f"trailing bytes after dataset record ({reader._len - reader.pos})"
            )
        out.append(header.dataset(chunk, copy))
    return out


def decode_file(buf: bytes, copy: bool = False) -> FileImage:
    """Decode a full file buffer into a :class:`FileImage`.

    :func:`scan_file` (whose corruption and torn-file errors propagate),
    then each record's dataset built from the header the scan parsed.

    Dataset arrays are **read-only views** of ``buf`` by default;
    callers that mutate them in place (the restart path) must pass
    ``copy=True`` for private writable copies.
    """
    attrs, records = scan_file(buf)
    image = FileImage(attrs)
    view = memoryview(buf)
    for (_name, offset, length), header in records.items():
        image.add(header.dataset(view[offset : offset + length], copy))
    return image
