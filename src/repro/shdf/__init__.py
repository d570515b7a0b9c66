"""SHDF: the scientific hierarchical data format substrate.

Stands in for HDF4/HDF5: a self-describing container of datasets with
attributes, a real binary codec (bit-exact round-trips), and timing
drivers reproducing the HDF4-linear vs HDF5-logarithmic metadata
scaling the paper's design decisions hinge on.
"""

from .codec import (
    JOURNAL_ATTR,
    CodecError,
    TornFileError,
    decode_batch,
    decode_file,
    decode_header,
    encode_commit_footer,
    encode_dataset,
    encode_file,
    encode_header,
    scan_file,
)
from .drivers import HDFDriver, hdf4_driver, hdf5_driver, raw_driver
from .file import SHDFReader, SHDFWriter
from .model import Dataset, FileImage

__all__ = [
    "Dataset",
    "FileImage",
    "CodecError",
    "TornFileError",
    "JOURNAL_ATTR",
    "encode_commit_footer",
    "encode_file",
    "decode_file",
    "encode_header",
    "decode_header",
    "encode_dataset",
    "scan_file",
    "decode_batch",
    "HDFDriver",
    "hdf4_driver",
    "hdf5_driver",
    "raw_driver",
    "SHDFReader",
    "SHDFWriter",
]
