"""Property-based tests for the I/O layer's integrity invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import cylinder_blocks, partition_blocks
from repro.io import (
    DataBlock,
    PandaServer,
    RocpandaModule,
    ServerConfig,
    block_to_datasets,
    datasets_to_blocks,
    rocpanda_init,
)
from repro.roccom import AttributeSpec, Roccom
from repro.shdf import decode_file
from repro.vmpi import run_spmd


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=60, deadline=None)
def test_partition_conserves_blocks_and_cells(nblocks_raw, nprocs, seed):
    nblocks = max(nblocks_raw, nprocs)
    specs = cylinder_blocks(nblocks, nblocks * 50, seed=seed)
    assignment = partition_blocks(specs, nprocs)
    flat = [s for bucket in assignment for s in bucket]
    assert sorted(s.block_id for s in flat) == [s.block_id for s in specs]
    assert sum(s.ncells for s in flat) == sum(s.ncells for s in specs)
    # Non-trivial balance: no processor holds everything (when it can't).
    if nblocks >= 2 * nprocs:
        loads = [sum(s.ncells for s in bucket) for bucket in assignment]
        assert max(loads) < sum(loads)


@st.composite
def data_blocks(draw):
    nnodes = draw(st.integers(min_value=1, max_value=40))
    nelems = draw(st.integers(min_value=1, max_value=40))
    block_id = draw(st.integers(min_value=0, max_value=10_000))
    arrays = {}
    specs = {}
    for name, loc, ncomp in (("coords", "node", 3), ("value", "element", 1)):
        n = nnodes if loc == "node" else nelems
        shape = (n, ncomp) if ncomp > 1 else (n,)
        arrays[name] = draw(
            st.integers(min_value=0, max_value=1 << 30)
        ) * np.ones(shape) * 1e-9
        specs[name] = AttributeSpec(name, loc, ncomp=ncomp)
    return DataBlock(
        window="W",
        block_id=block_id,
        nnodes=nnodes,
        nelems=nelems,
        arrays=arrays,
        specs=specs,
    )


@given(st.lists(data_blocks(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_block_dataset_roundtrip_is_lossless(blocks):
    # Deduplicate ids (datasets_to_blocks groups by id).
    seen = set()
    unique = []
    for block in blocks:
        if block.block_id not in seen:
            seen.add(block.block_id)
            unique.append(block)
    datasets = [d for b in unique for d in block_to_datasets(b)]
    restored = {b.block_id: b for b in datasets_to_blocks(datasets)}
    assert set(restored) == seen
    for block in unique:
        back = restored[block.block_id]
        assert back.nnodes == block.nnodes
        assert back.nelems == block.nelems
        for name, arr in block.arrays.items():
            np.testing.assert_array_equal(back.arrays[name], arr)


@given(
    st.integers(min_value=1, max_value=3),  # blocks per client
    st.sampled_from([1024, 16 * 1024, 256 * 1024, 10**9]),  # buffer bytes
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_active_buffering_integrity_under_any_buffer_size(
    nblocks, buffer_bytes, seed
):
    """Whatever the server buffer capacity, every byte written by the
    clients is on disk after sync, bit-exact."""
    expected = {}

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 1)
        if topo.is_server:
            yield from PandaServer(
                ctx, topo, ServerConfig(buffer_bytes=buffer_bytes)
            ).run()
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("field", "element"))
        rng = np.random.default_rng(seed + topo.comm.rank)
        for i in range(nblocks):
            pane_id = topo.comm.rank * nblocks + i
            data = rng.random(3000)  # ~24 KB: rendezvous-sized
            w.register_pane(pane_id, 0, 3000)
            w.set_array("field", pane_id, data)
            expected[pane_id] = data.copy()
        yield from com.call_function("OUT.write_attribute", "W", None, "prop")
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()

    machine = Machine(make_testbox(nnodes=4, cpus_per_node=2), seed=seed)
    run_spmd(machine, 4, main)

    image = decode_file(machine.disk.open("prop_s0000.shdf").read())
    blocks = {b.block_id: b for b in datasets_to_blocks(list(image))}
    assert blocks.keys() == expected.keys()
    for pane_id, data in expected.items():
        restored = blocks[pane_id].arrays["field"]
        assert (restored.dtype, restored.shape) == (data.dtype, data.shape)
        np.testing.assert_array_equal(restored, data)
