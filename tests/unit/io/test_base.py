"""Unit tests for the I/O layer's block/layout machinery."""

import numpy as np
import pytest

from repro.io import (
    DataBlock,
    IOStats,
    apply_block,
    block_to_datasets,
    collect_blocks,
    dataset_name,
    datasets_to_blocks,
    parse_dataset_name,
)
from repro.obs import IORecord
from repro.roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, LOC_WINDOW, Roccom


def make_com():
    com = Roccom()
    w = com.new_window("Fluid")
    w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
    w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT, unit="Pa"))
    w.declare_attribute(AttributeSpec("step", LOC_WINDOW))
    w.register_pane(1, nnodes=4, nelems=2)
    w.register_pane(5, nnodes=6, nelems=3)
    rng = np.random.default_rng(0)
    for pid, (nn, ne) in ((1, (4, 2)), (5, (6, 3))):
        w.set_array("coords", pid, rng.random((nn, 3)))
        w.set_array("pressure", pid, rng.random(ne))
    return com


class TestNaming:
    def test_roundtrip(self):
        name = dataset_name("Fluid", 12, "pressure")
        assert name == "Fluid/b12/pressure"
        assert parse_dataset_name(name) == ("Fluid", 12, "pressure")

    def test_parse_rejects_garbage(self):
        for bad in ("nope", "Fluid/12/pressure", "Fluid/bx/p", "a/b1/c/d"):
            with pytest.raises(ValueError):
                parse_dataset_name(bad)


class TestCollect:
    def test_collect_all_attrs(self):
        com = make_com()
        blocks = collect_blocks(com, "Fluid")
        assert [b.block_id for b in blocks] == [1, 5]
        assert set(blocks[0].arrays) == {"coords", "pressure"}
        # Window-located attribute excluded.
        assert "step" not in blocks[0].arrays

    def test_collect_subset(self):
        com = make_com()
        blocks = collect_blocks(com, "Fluid", ["pressure"])
        assert set(blocks[0].arrays) == {"pressure"}

    def test_collect_window_located_explicit_rejected(self):
        com = make_com()
        with pytest.raises(ValueError):
            collect_blocks(com, "Fluid", ["step"])

    def test_collect_skips_missing_arrays(self):
        com = Roccom()
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("x", LOC_NODE))
        w.register_pane(0, 3, 0)  # no array set
        blocks = collect_blocks(com, "W")
        assert blocks[0].arrays == {}

    def test_block_nbytes_includes_overhead(self):
        com = make_com()
        blocks = collect_blocks(com, "Fluid")
        raw = sum(a.nbytes for a in blocks[0].arrays.values())
        assert blocks[0].nbytes > raw


class TestDatasetsRoundtrip:
    def test_block_to_datasets_and_back(self):
        com = make_com()
        blocks = collect_blocks(com, "Fluid")
        datasets = [d for b in blocks for d in block_to_datasets(b)]
        assert len(datasets) == 4
        restored = datasets_to_blocks(datasets)
        assert [b.block_id for b in restored] == [1, 5]
        for orig, back in zip(blocks, restored):
            assert set(orig.arrays) == set(back.arrays)
            for k in orig.arrays:
                np.testing.assert_array_equal(orig.arrays[k], back.arrays[k])
            assert orig.nnodes == back.nnodes
            assert orig.nelems == back.nelems

    def test_dataset_attrs_carry_spec(self):
        com = make_com()
        block = collect_blocks(com, "Fluid")[0]
        ds = {d.name: d for d in block_to_datasets(block)}
        p = ds["Fluid/b1/pressure"]
        assert p.attrs["location"] == LOC_ELEMENT
        assert p.attrs["unit"] == "Pa"
        assert p.attrs["nnodes"] == 4

    def test_specs_reconstructed(self):
        com = make_com()
        block = collect_blocks(com, "Fluid")[0]
        back = datasets_to_blocks(block_to_datasets(block))[0]
        spec = back.specs["coords"]
        assert spec.location == LOC_NODE
        assert spec.ncomp == 3
        assert np.dtype(spec.dtype) == np.float64


class TestApplyBlock:
    def test_apply_into_fresh_window(self):
        com = make_com()
        blocks = collect_blocks(com, "Fluid")

        target = Roccom()
        target.new_window("Fluid")
        for block in blocks:
            apply_block(target, block)
        w = target.window("Fluid")
        assert w.pane_ids() == [1, 5]
        np.testing.assert_array_equal(
            w.get_array("coords", 1), com.get_array("Fluid.coords", 1)
        )

    def test_apply_resizes_existing_pane(self):
        com = make_com()
        block = collect_blocks(com, "Fluid")[0]

        target = Roccom()
        w = target.new_window("Fluid")
        w.register_pane(1, nnodes=99, nelems=99)  # stale sizes
        apply_block(target, block)
        assert w.pane(1).nnodes == 4
        assert w.pane(1).nelems == 2


class TestIOStats:
    def test_times_are_the_folded_records(self):
        stats = IOStats()
        for op, t_start, t_end in [
            ("write_attribute", 0.0, 1.0), ("sync", 1.0, 1.5),
            ("write_attribute", 2.0, 4.0), ("bg_write", 0.0, 9.0),
        ]:
            stats.fold(IORecord("rochdf", op, 0, t_start=t_start, t_end=t_end))
        assert stats.seconds == {"write_attribute": 3.0, "sync": 0.5, "bg_write": 9.0}
        assert (stats.visible_write_time, stats.visible_read_time, stats.sync_time) == (
            3.0, 0.0, 0.5
        )
