"""Shared machinery of the I/O service modules.

* :class:`DataBlock` — the unit of I/O (§4): all arrays + metadata of
  one pane, self-contained so it can travel between processes and into
  files.
* window ↔ SHDF layout: each array of each data block becomes one SHDF
  dataset named ``<window>/b<block_id>/<attr>``, with enough dataset
  attributes to reconstruct the pane on read ("data from different
  arrays in the same data block stored in neighboring HDF datasets").
* :class:`IOStats` — per-rank accounting every I/O service maintains;
  the benchmark harness aggregates these into the paper's numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..roccom.attribute import LOC_WINDOW, AttributeSpec
from ..roccom.registry import Roccom
from ..shdf.model import Dataset

__all__ = [
    "DataBlock",
    "IOStats",
    "collect_blocks",
    "apply_block",
    "block_to_datasets",
    "datasets_to_blocks",
    "dataset_name",
    "parse_dataset_name",
]

_NAME_RE = re.compile(r"^(?P<window>[^/]+)/b(?P<block>\d+)/(?P<attr>[^/]+)$")

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
class IOStats:
    """Per-rank I/O accounting (aggregated by the bench harness)."""

    #: Time visible to the caller inside write_attribute calls.
    visible_write_time: float = 0.0
    #: Time visible to the caller inside read_attribute calls.
    visible_read_time: float = 0.0
    #: Time spent waiting in sync().
    sync_time: float = 0.0
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

    def merge(self, other: "IOStats") -> "IOStats":
        return IOStats(
            visible_write_time=self.visible_write_time + other.visible_write_time,
            visible_read_time=self.visible_read_time + other.visible_read_time,
            sync_time=self.sync_time + other.sync_time,
            bytes_written=self.bytes_written + other.bytes_written,
            bytes_read=self.bytes_read + other.bytes_read,
            blocks_written=self.blocks_written + other.blocks_written,
            blocks_read=self.blocks_read + other.blocks_read,
            files_created=self.files_created + other.files_created,
            snapshots=self.snapshots + other.snapshots,
            retries=self.retries + other.retries,
            failovers=self.failovers + other.failovers,
        )


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


def datasets_to_blocks(datasets: List[Dataset]) -> List[DataBlock]:
    """Group decoded SHDF datasets back into :class:`DataBlock` s."""
    by_block: Dict[Tuple[str, int], DataBlock] = {}
    for ds in datasets:
        window, block_id, attr = parse_dataset_name(ds.name)
        key = (window, block_id)
        if key not in by_block:
            by_block[key] = DataBlock(
                window=window,
                block_id=block_id,
                nnodes=int(ds.attrs["nnodes"]),
                nelems=int(ds.attrs["nelems"]),
                arrays={},
                specs={},
            )
        block = by_block[key]
        block.arrays[attr] = ds.data
        block.specs[attr] = AttributeSpec(
            attr,
            location=str(ds.attrs["location"]),
            ncomp=int(ds.attrs["ncomp"]),
            dtype=ds.data.dtype.str.lstrip("<>=|"),
            unit=str(ds.attrs["unit"]),
        )
    return [by_block[k] for k in sorted(by_block)]
