"""Snapshot reading: reassemble distributed output into global views.

Rocketeer, CSAR's in-house visualization tool, reads the HDF snapshot
files written by either I/O service directly (§3.1) — it must cope
with both layouts: one file per compute process (Rochdf/T-Rochdf) and
one file per I/O server (Rocpanda).  This module is that ingestion
layer: it discovers the files of a snapshot, decodes them, and groups
the per-block datasets back into windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fs.vfs import VirtualDisk
from ..io.base import DataBlock, datasets_to_blocks
from ..shdf.codec import TornFileError, decode_file

__all__ = ["Snapshot", "SnapshotSeries", "load_snapshot", "discover_snapshots"]

#: File names produced by the I/O services:
#:   <run>_<step>_<window>_pNNNNN.shdf   (individual mode)
#:   <run>_<step>_<window>_sNNNN.shdf    (collective mode,
#:   <run>_<step>_<window>_sNNNNgG.shdf   and its failover generations)
_SNAPSHOT_RE = re.compile(
    r"^(?P<run>.+)_(?P<step>\d{6})_(?P<window>[a-z0-9]+)_(?P<writer>[ps]\d+)(?:g\d+)?\.shdf$"
)


@dataclass
class Snapshot:
    """One reassembled output phase."""

    run: str
    step: int
    #: window label (lowercased, from the file name) -> blocks by id.
    windows: Dict[str, Dict[int, DataBlock]] = field(default_factory=dict)
    #: File-level attributes seen (e.g. time_step), merged.
    attrs: Dict[str, object] = field(default_factory=dict)
    nfiles: int = 0
    #: Files skipped as torn (no commit footer: their writer crashed
    #: mid-snapshot); a failover generation holds their blocks.
    torn: List[str] = field(default_factory=list)

    def window(self, label: str) -> Dict[int, DataBlock]:
        try:
            return self.windows[label]
        except KeyError:
            raise KeyError(
                f"snapshot {self.run}@{self.step} has no window {label!r}; "
                f"available: {sorted(self.windows)}"
            ) from None

    def field_values(self, label: str, attr: str) -> np.ndarray:
        """Concatenated values of one field across all blocks."""
        blocks = self.window(label)
        parts = [
            b.arrays[attr].ravel() for b in blocks.values() if attr in b.arrays
        ]
        if not parts:
            raise KeyError(f"no field {attr!r} in window {label!r}")
        return np.concatenate(parts)

    def field_stats(self, label: str, attr: str) -> Dict[str, float]:
        values = self.field_values(label, attr)
        return {
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "std": float(values.std()),
            "count": int(values.size),
        }

    @property
    def total_cells(self) -> int:
        return sum(
            b.nelems for blocks in self.windows.values() for b in blocks.values()
        )

    @property
    def nblocks(self) -> int:
        return sum(len(blocks) for blocks in self.windows.values())


def discover_snapshots(disk: VirtualDisk, run: str) -> List[int]:
    """Steps of every snapshot of a run present on the disk, sorted."""
    steps = set()
    for path in disk.listdir(run + "_"):
        m = _SNAPSHOT_RE.match(path)
        if m and m.group("run") == run:
            steps.add(int(m.group("step")))
    return sorted(steps)


def load_snapshot(disk: VirtualDisk, run: str, step: int) -> Snapshot:
    """Reassemble one snapshot from whatever files exist for it.

    A torn file is skipped and listed in :attr:`Snapshot.torn`, as a
    restart skips it.
    """
    snapshot = Snapshot(run=run, step=step)
    prefix = f"{run}_{step:06d}_"
    for path in disk.listdir(prefix):
        m = _SNAPSHOT_RE.match(path)
        if not m or int(m.group("step")) != step:
            continue
        try:
            image = decode_file(disk.open(path).read())
        except TornFileError:
            snapshot.torn.append(path)
            continue
        snapshot.attrs.update(image.attrs)
        snapshot.nfiles += 1
        window_label = m.group("window")
        bucket = snapshot.windows.setdefault(window_label, {})
        for block in datasets_to_blocks(list(image)):
            if block.block_id in bucket:
                raise ValueError(
                    f"duplicate block {block.block_id} for window "
                    f"{window_label!r} in snapshot {run}@{step}"
                )
            bucket[block.block_id] = block
    if snapshot.nfiles == 0:
        raise FileNotFoundError(f"no files for snapshot {run}@{step}")
    return snapshot


class SnapshotSeries:
    """Lazy access to all snapshots of one run (a time series)."""

    def __init__(self, disk: VirtualDisk, run: str):
        self.disk = disk
        self.run = run
        self.steps = discover_snapshots(disk, run)
        if not self.steps:
            raise FileNotFoundError(f"no snapshots for run {run!r}")
        self._cache: Dict[int, Snapshot] = {}

    def __len__(self) -> int:
        return len(self.steps)

    def at(self, step: int) -> Snapshot:
        if step not in self.steps:
            raise KeyError(f"run {self.run!r} has no snapshot at step {step}")
        if step not in self._cache:
            self._cache[step] = load_snapshot(self.disk, self.run, step)
        return self._cache[step]

    def first(self) -> Snapshot:
        return self.at(self.steps[0])

    def last(self) -> Snapshot:
        return self.at(self.steps[-1])

    def time_series(self, window: str, attr: str, reducer=np.mean) -> List[Tuple[int, float]]:
        """``[(step, reducer(field))...]`` across the whole run."""
        out = []
        for step in self.steps:
            values = self.at(step).field_values(window, attr)
            out.append((step, float(reducer(values))))
        return out
