"""What SHDF files restore to, for comparing runs whose stages differ.

A Rocpanda server lands a write-behind stage's blocks one record per
attribute, so two runs that seal stages at different blocks write
different bytes for the same snapshot; what they must agree on is the
blocks each file restores to, array by array, with exact dtypes and
shapes.  Where latency-bound shares merge into their writer's file
(which ones depends on the filesystem, the network and the buffer),
runs agree on the blocks each *path* restores to (:func:`by_path`).
"""

import re

from repro.io import datasets_to_blocks
from repro.shdf import decode_file


def file_blocks(data) -> tuple:
    """``(file attrs, {block_id: block})`` of one file's bytes, each block
    as ``(nnodes, nelems, {attr: (spec, dtype, shape, bytes)})``."""
    image = decode_file(data)
    return image.attrs, {
        block.block_id: (
            block.nnodes,
            block.nelems,
            {
                attr: (block.specs[attr], array.dtype.str, array.shape, array.tobytes())
                for attr, array in block.arrays.items()
            },
        )
        for block in datasets_to_blocks(list(image))
    }


def restored(disk, prefix: str = "") -> dict:
    """:func:`file_blocks` of every file under ``prefix`` on ``disk``."""
    return {path: file_blocks(disk.open(path).read()) for path in disk.listdir(prefix)}


def by_path(files: dict) -> dict:
    """:func:`restored` regrouped per snapshot path: the file name less
    its ``_sNNNN`` (and failover ``gG``) suffix, mapped to the union of
    its server files' blocks (file attributes aside)."""
    out: dict = {}
    for name, (_attrs, blocks) in files.items():
        path = re.sub(r"_s\d+(g\d+)?\.shdf$", "", name)
        merged = out.setdefault(path, {})
        assert not merged.keys() & blocks.keys(), name
        merged.update(blocks)
    return out
