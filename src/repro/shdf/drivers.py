"""Timing drivers: HDF4-like vs HDF5-like metadata cost models.

The paper's performance arguments rest on two measured facts about the
real libraries ([13], §3.2, §4.2, §7.1):

* writing in a scientific format costs far more than raw binary — each
  dataset carries metadata bookkeeping;
* **HDF4's per-dataset access cost grows with the number of datasets
  already in the file** (a linearly scanned file directory), while
  HDF5's grows only logarithmically (B-tree) but with a larger
  constant.

A driver answers: "what does creating / locating dataset number *k* in
this file cost, beyond moving the bytes?"  The costs are split into a
CPU part (charged as plain time at the caller) and a number of extra
filesystem metadata operations (charged through the fs model, so NFS's
high metadata latency hurts exactly like it did in production).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "HDFDriver",
    "hdf4_driver",
    "hdf5_driver",
    "raw_driver",
]


@dataclass(frozen=True)
class HDFDriver:
    """Cost model of one scientific-format implementation."""

    name: str
    #: Fixed CPU cost to create/append one dataset.
    create_base: float
    #: Fixed CPU cost to locate one dataset for reading.
    lookup_base: float
    #: Coefficient of the directory-structure cost term.
    dir_coeff: float
    #: Directory growth: "linear" (HDF4) or "log" (HDF5).
    growth: str
    #: Extra metadata bytes written to the file per dataset.
    meta_bytes_per_dataset: int
    #: Extra filesystem metadata round-trips per dataset operation.
    fs_meta_ops_per_dataset: int

    def structure_cost(self, ndatasets: int) -> float:
        """Directory maintenance/scan CPU cost with ``ndatasets`` present."""
        if ndatasets < 0:
            raise ValueError("ndatasets must be >= 0")
        if self.growth == "linear":
            return self.dir_coeff * ndatasets
        if self.growth == "log":
            return self.dir_coeff * math.log2(1 + ndatasets)
        raise ValueError(f"unknown growth model {self.growth!r}")

    def create_cost(self, ndatasets: int) -> float:
        """CPU cost of creating dataset number ``ndatasets`` (0-based)."""
        return self.create_base + self.structure_cost(ndatasets)

    def lookup_cost(self, ndatasets: int) -> float:
        """CPU cost of locating one dataset in a file of ``ndatasets``."""
        return self.lookup_base + self.structure_cost(ndatasets)


def hdf4_driver(
    create_base: float = 1.0e-3,
    lookup_base: float = 16.0e-3,
    dir_coeff: float = 8.0e-6,
    meta_bytes_per_dataset: int = 2048,
    fs_meta_ops_per_dataset: int = 1,
) -> HDFDriver:
    """HDF4: cheap constants, *linear* directory growth.

    With thousands of datasets per file the linear term dominates the
    writer's ``create_cost`` (a sieved restart never pays ``lookup_cost``).
    """
    return HDFDriver(
        name="hdf4",
        create_base=create_base,
        lookup_base=lookup_base,
        dir_coeff=dir_coeff,
        growth="linear",
        meta_bytes_per_dataset=meta_bytes_per_dataset,
        fs_meta_ops_per_dataset=fs_meta_ops_per_dataset,
    )


def hdf5_driver(
    create_base: float = 2.2e-3,
    lookup_base: float = 2.0e-3,
    dir_coeff: float = 2.0e-4,
    meta_bytes_per_dataset: int = 4096,
    fs_meta_ops_per_dataset: int = 1,
) -> HDFDriver:
    """HDF5: higher constants, *logarithmic* (B-tree) directory growth.

    A cost model only: the bytes on disk are the one SHDF format's,
    whichever driver charged for them.
    """
    return HDFDriver(
        name="hdf5",
        create_base=create_base,
        lookup_base=lookup_base,
        dir_coeff=dir_coeff,
        growth="log",
        meta_bytes_per_dataset=meta_bytes_per_dataset,
        fs_meta_ops_per_dataset=fs_meta_ops_per_dataset,
    )


def raw_driver() -> HDFDriver:
    """A plain-binary baseline: no metadata overhead at all."""
    return HDFDriver(
        name="raw",
        create_base=0.0,
        lookup_base=0.0,
        dir_coeff=0.0,
        growth="linear",
        meta_bytes_per_dataset=0,
        fs_meta_ops_per_dataset=0,
    )
