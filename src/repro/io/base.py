"""Shared machinery of the I/O service modules.

* :class:`DataBlock` — the unit of I/O (§4): all arrays + metadata of
  one pane, self-contained so it can travel between processes and into
  files.
* window ↔ SHDF layout: an array of a data block is encoded as one
  record named ``<window>/b<block_id>/<attr>``, with the dataset
  attributes that rebuild the pane ("neighboring HDF datasets", §4):
  Rochdf's and T-Rochdf's files.  A Rocpanda server lands one
  write-behind stage's blocks as one record per attribute instead
  (:func:`block_record`); :func:`datasets_to_blocks` reads either.
* :class:`IOStats` — per-rank accounting every I/O service maintains;
  the benchmark harness aggregates these into the paper's numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs.records import OpSeconds
from ..roccom.attribute import LOC_WINDOW, AttributeSpec
from ..roccom.registry import Roccom
from ..shdf.codec import (
    array_payload,
    encode_attr_items,
    encode_record_prefix,
    pack_record_prefix,
)
from ..shdf.model import Dataset

__all__ = [
    "DataBlock",
    "IOStats",
    "collect_blocks",
    "apply_block",
    "block_to_datasets",
    "encode_blocks",
    "datasets_to_blocks",
    "dataset_name",
    "parse_dataset_name",
    "window_prefixes",
    "per_window",
]

_NAME_RE = re.compile(r"^(?P<window>[^/]+)/b(?P<block>\d+)/(?P<attr>[^/]+)$")

#: Record attribute of a record holding several blocks' arrays: one row
#: ``(block_id, nnodes, nelems, rows)`` per block, in payload order.
BLOCK_INDEX = "blocks"

#: Estimated per-array protocol overhead when a block travels as a message.
_BLOCK_WIRE_OVERHEAD = 256


@dataclass
class DataBlock:
    """All data of one pane: the unit of distribution and of I/O."""

    window: str
    block_id: int
    nnodes: int
    nelems: int
    #: attr name -> array
    arrays: Dict[str, np.ndarray]
    #: attr name -> AttributeSpec metadata needed to re-register
    specs: Dict[str, AttributeSpec]

    @property
    def data_nbytes(self) -> int:
        """Array bytes: the payload every service's ``IOStats`` counts."""
        return sum(a.nbytes for a in self.arrays.values())

    @property
    def nbytes(self) -> int:
        """Wire/storage size estimate (used by the network model)."""
        return self.data_nbytes + _BLOCK_WIRE_OVERHEAD * max(1, len(self.arrays))

    def __repr__(self) -> str:
        return (
            f"<DataBlock {self.window}/b{self.block_id}: "
            f"{len(self.arrays)} arrays, {self.nbytes} bytes>"
        )


@dataclass
class IOStats(OpSeconds):
    """Per-rank I/O accounting (aggregated by the bench harness): counts,
    and the seconds of the module's own records per op."""

    bytes_written: int = 0
    bytes_read: int = 0
    blocks_written: int = 0
    blocks_read: int = 0
    files_created: int = 0
    snapshots: int = 0
    #: Resilience accounting: faulted operations retried (write faults,
    #: timed-out sends) and dead-server failovers performed.
    retries: int = 0
    failovers: int = 0
    #: Rocpanda syncs that re-asked their server after a silent second.
    sync_reasks: int = 0
    #: Rochdf restart files without a commit footer, skipped.
    torn_files_skipped: int = 0
    #: T-Rochdf background writes that failed for good.
    background_write_failures: int = 0

    #: The fields :func:`repro.obs.stat_counts` exports as counts.
    COUNTS = (
        "retries", "failovers", "sync_reasks", "torn_files_skipped",
        "background_write_failures",
    )

    @property
    def visible_write_time(self) -> float:
        """Time visible to the caller inside write_attribute calls."""
        return self.seconds.get("write_attribute", 0.0)

    @property
    def visible_read_time(self) -> float:
        """Time visible to the caller inside read_attribute calls."""
        return self.seconds.get("read_attribute", 0.0)

    @property
    def sync_time(self) -> float:
        """Time spent waiting in sync()."""
        return self.seconds.get("sync", 0.0)


def collect_blocks(
    com: Roccom, window_name: str, attr_names: Optional[List[str]] = None
) -> List[DataBlock]:
    """Extract the local panes of a window as :class:`DataBlock` s.

    ``attr_names=None`` means "everything registered" — the high-level
    call scientists actually make: *"write the mesh coordinates and the
    pressure value on all the mesh blocks"* (§5).  Window-located
    attributes are excluded (they ride as file attributes instead).
    """
    window = com.window(window_name)
    if attr_names is None:
        attr_names = [
            n
            for n in window.attribute_names()
            if window.attribute(n).location != LOC_WINDOW
        ]
    blocks = []
    for pane in window.panes():
        arrays = {}
        specs = {}
        for name in attr_names:
            spec = window.attribute(name)
            if spec.location == LOC_WINDOW:
                raise ValueError(f"cannot write window-located attribute {name!r}")
            if window.has_array(name, pane.id):
                arrays[name] = window.get_array(name, pane.id)
                specs[name] = spec
        blocks.append(
            DataBlock(
                window=window_name,
                block_id=pane.id,
                nnodes=pane.nnodes,
                nelems=pane.nelems,
                arrays=arrays,
                specs=specs,
            )
        )
    return blocks


def window_prefixes(window_name, path) -> List[Tuple[str, str]]:
    """``read_attribute``'s windows and snapshot prefixes as ``(window,
    prefix)`` pairs: one name and one prefix, or equal-length tuples of
    them (a whole snapshot restored in one collective call)."""
    if isinstance(window_name, str):
        return [(window_name, path)]
    if isinstance(path, str) or len(path) != len(window_name):
        raise ValueError(
            f"read_attribute needs one prefix per window: {window_name!r} "
            f"against {path!r}"
        )
    return list(zip(window_name, path))


def per_window(window_name, values: list):
    """``read_attribute``'s result for ``window_name``: the one window's
    value, or a tuple of the windows' values in call order."""
    return values[0] if isinstance(window_name, str) else tuple(values)


def apply_block(com: Roccom, block: DataBlock) -> None:
    """Install a restored block into the local Roccom window.

    Declares missing attributes, registers (or resizes) the pane, and
    sets every array — the read/restart path.
    """
    window = com.window(block.window)
    for name, spec in block.specs.items():
        if name not in window.attribute_names():
            window.declare_attribute(spec)
    if block.block_id in window.pane_ids():
        window.pane(block.block_id).resize(nnodes=block.nnodes, nelems=block.nelems)
    else:
        window.register_pane(block.block_id, block.nnodes, block.nelems)
    for name, array in block.arrays.items():
        window.set_array(name, block.block_id, array)


def dataset_name(window: str, block_id: int, attr: str) -> str:
    """SHDF dataset name of one array of one data block."""
    return f"{window}/b{block_id}/{attr}"


def parse_dataset_name(name: str) -> Tuple[str, int, str]:
    """Inverse of :func:`dataset_name`; raises ValueError on mismatch."""
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"not a block dataset name: {name!r}")
    return m.group("window"), int(m.group("block")), m.group("attr")


def block_to_datasets(block: DataBlock) -> List[Dataset]:
    """Neighbouring SHDF datasets for one data block (§4)."""
    out = []
    for attr, array in block.arrays.items():
        spec = block.specs[attr]
        # trusted: names/attrs are built right here from known-good
        # window metadata, and this runs once per attribute per
        # snapshot — the validating constructor is measurable overhead.
        out.append(
            Dataset.trusted(
                dataset_name(block.window, block.block_id, attr),
                array,
                {
                    "window": block.window,
                    "block_id": block.block_id,
                    "attr": attr,
                    "location": spec.location,
                    "ncomp": spec.ncomp,
                    "unit": spec.unit,
                    "nnodes": block.nnodes,
                    "nelems": block.nelems,
                },
            )
        )
    return out


#: A block record's ``attr`` / ``location`` / ``ncomp`` / ``unit`` items,
#: encoded, per attribute spec (and the types of ncomp and unit: their
#: hash-equal values of another type encode differently).  Bounded by
#: the distinct specs; no block data.
_SPEC_ITEMS: Dict[tuple, bytes] = {}


def encode_blocks(blocks) -> Tuple[memoryview, list]:
    """``blocks``' records, :func:`block_to_datasets` order, in one
    read-only buffer: ``encode_batch`` of those datasets, byte for byte
    and entry for entry, with no dataset built.  A record's attributes
    are packed from pieces: its block's window and id, its spec's items
    and its block's counts."""
    parts = []
    entries = []
    offset = 0
    for block in blocks:
        window, block_id = block.window, block.block_id
        ids = encode_attr_items({"window": window, "block_id": block_id})
        counts = encode_attr_items({"nnodes": block.nnodes, "nelems": block.nelems})
        for attr, array in block.arrays.items():
            spec = block.specs[attr]
            key = (attr, spec.location, spec.ncomp, type(spec.ncomp), spec.unit, type(spec.unit))
            items = _SPEC_ITEMS.get(key)
            if items is None:
                items = _SPEC_ITEMS[key] = encode_attr_items({
                    "attr": attr, "location": spec.location,
                    "ncomp": spec.ncomp, "unit": spec.unit,
                })
            name = dataset_name(window, block_id, attr)
            prefix = pack_record_prefix(
                name, 8, (ids, items, counts), array.dtype, array.shape
            )
            payload = array_payload(array)
            length = len(prefix) + len(payload)
            parts += (prefix, payload)
            entries.append((name, offset, length, array.nbytes))
            offset += length
    return memoryview(b"".join(parts)), entries


def record_groups(block: DataBlock) -> list:
    """What each of ``block``'s records (:func:`block_to_datasets` order)
    shares with the records it may join in one :func:`block_record`: its
    dataset attributes but the per-block ones, dtype, and shape past
    axis 0.  An array with no rows to join by (0-d, or zero-byte rows)
    joins none: its group is its record's name."""
    specs = block.specs
    return [
        (block.window, attr, specs[attr].location, specs[attr].ncomp,
         specs[attr].unit, a.dtype, a.shape[1:])
        if a.ndim and a.itemsize * math.prod(a.shape[1:])
        else dataset_name(block.window, block.block_id, attr)
        for attr, a in block.arrays.items()
    ]


def block_record(group, parts) -> tuple:
    """The chunks that land ``parts``, ``(EncodedBlock, its entry)``
    records sharing ``group``, as one record: a lone block's record as
    it is, else a new header — named after the first block, with a
    :data:`BLOCK_INDEX` for the per-block attributes — and read-only
    views of the payloads, concatenated along axis 0 (nothing copied).
    """
    if len(parts) == 1:
        block, (_name, offset, length, _nbytes) = parts[0]
        return (block.buf[offset : offset + length],)
    window, attr, location, ncomp, unit, dtype, tail = group
    row = dtype.itemsize * math.prod(tail)
    rows = [(b.block_id, b.nnodes, b.nelems, entry[3] // row) for b, entry in parts]
    index = np.array(rows, dtype=np.int64)
    attrs = {
        "window": window, "attr": attr, "location": location,
        "ncomp": ncomp, "unit": unit, BLOCK_INDEX: index,
    }
    name = dataset_name(window, parts[0][0].block_id, attr)
    prefix = encode_record_prefix(name, attrs, dtype, (int(index[:, 3].sum()), *tail))
    return (prefix, *(b.buf[o + n - nb : o + n] for b, (_, o, n, nb) in parts))


def record_block_ids(attrs: Dict[str, Any]) -> List[int]:
    """Ids of the blocks whose arrays a record with ``attrs`` holds."""
    index = attrs.get(BLOCK_INDEX)
    return [attrs["block_id"]] if index is None else index[:, 0].tolist()


def datasets_to_blocks(
    datasets: List[Dataset], attr_names: Optional[Iterable[str]] = None
) -> List[DataBlock]:
    """Group decoded SHDF datasets back into :class:`DataBlock` s.

    A :func:`block_record` is split along axis 0, each block's rows a
    view of its exact dtype and shape — private and writable iff the
    dataset was decoded as a copy (restart), as a lone block's array is.
    With ``attr_names`` only those arrays are kept; a block none of
    whose datasets is among them still comes back, with its geometry.
    """
    by_block: Dict[Tuple[str, int], DataBlock] = {}
    for ds in datasets:
        window, block_id, attr = parse_dataset_name(ds.name)
        keep = attr_names is None or attr in attr_names
        index = ds.attrs.get(BLOCK_INDEX)
        if index is None:
            parts = [(block_id, ds.attrs["nnodes"], ds.attrs["nelems"], ds.data)]
        else:
            ends = np.cumsum(index[:, 3]).tolist()
            parts = [
                (bid, nnodes, nelems, ds.data[end - rows : end])
                for (bid, nnodes, nelems, rows), end in zip(index.tolist(), ends)
            ]
        spec = AttributeSpec(
            attr,
            location=str(ds.attrs["location"]),
            ncomp=int(ds.attrs["ncomp"]),
            dtype=ds.data.dtype.str.lstrip("<>=|"),
            unit=str(ds.attrs["unit"]),
        )
        for bid, nnodes, nelems, data in parts:
            block = by_block.get((window, bid))
            if block is None:
                block = by_block[(window, bid)] = DataBlock(
                    window, bid, int(nnodes), int(nelems), arrays={}, specs={}
                )
            if keep:
                block.arrays[attr] = data
                block.specs[attr] = spec
    return [by_block[k] for k in sorted(by_block)]
