"""Unit tests for two-phase (batched) block shipping."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import PandaServer, RocpandaModule, rocpanda_init
from repro.io.base import DataBlock, block_to_datasets
from repro.io.rocpanda.protocol import (
    TAG_BLOCK,
    TAG_CTRL,
    BlockBatch,
    BlockEnvelope,
    EncodedBlock,
    WriteBegin,
    encode_block_batch,
)
from repro.roccom import AttributeSpec, Roccom
from repro.shdf.codec import (
    decode_batch,
    encode_batch,
    encode_dataset,
)
from repro.shdf.model import Dataset
from repro.vmpi import run_spmd


def _blocks(n=3, cells=50):
    rng = np.random.default_rng(5)
    out = []
    for i in range(n):
        out.append(
            DataBlock(
                window="W",
                block_id=i,
                nnodes=0,
                nelems=cells,
                arrays={"f": rng.random(cells)},
                specs={"f": AttributeSpec("f", "element")},
            )
        )
    return out


class TestEncodeBatch:
    def test_records_byte_identical_to_single_encodes(self):
        rng = np.random.default_rng(9)
        datasets = [
            Dataset(f"W/b{i}/f", rng.random(20 + i), {"ncomp": 1})
            for i in range(4)
        ]
        buf, entries = encode_batch(datasets)
        assert len(entries) == len(datasets)
        for dataset, (name, offset, length, nbytes) in zip(datasets, entries):
            assert name == dataset.name
            assert nbytes == dataset.nbytes
            assert buf[offset:offset + length] == bytes(
                encode_dataset(dataset)
            )
        # Entries tile the buffer exactly: no gaps, no overlap.
        assert entries[0][1] == 0
        for prev, cur in zip(entries, entries[1:]):
            assert cur[1] == prev[1] + prev[2]
        assert entries[-1][1] + entries[-1][2] == len(buf)

    def test_empty(self):
        buf, entries = encode_batch([])
        assert buf == b"" and entries == []

    @staticmethod
    def _edge_cases():
        """(trusted dataset as the I/O path builds it, contiguous twin)."""
        rng = np.random.default_rng(11)
        grid = rng.random((6, 8))
        arrays = {
            "strided": grid[::2, 1::3],
            "transposed": grid.T,
            "reversed": rng.integers(0, 9, 12)[::-1],
            "zero_d": np.array(2.5),
            "zero_len": np.empty((0, 3), dtype=np.float32),
            "zero_len_strided": grid[:0, ::2],
        }
        attr_sets = [
            {"ncomp": 3, "unit": "m"},
            # Unhashable values: array and list attributes.
            {"origin": np.arange(3.0), "tags": ["a", 1]},
        ]
        for name, arr in arrays.items():
            for attrs in attr_sets:
                trusted = Dataset.trusted(f"W/b0/{name}", arr, dict(attrs))
                twin = Dataset(f"W/b0/{name}", arr.copy(), dict(attrs))
                yield trusted, twin

    def test_edge_cases_match_contiguous_single_encodes(self):
        cases = list(self._edge_cases())
        assert any(not t.data.flags.c_contiguous for t, _ in cases)
        buf, entries = encode_batch([t for t, _ in cases])
        assert buf.readonly
        # Exact size: the records tile the buffer with no slack.
        assert sum(length for _n, _o, length, _nb in entries) == len(buf)
        pos = 0
        for (trusted, twin), (name, offset, length, nbytes) in zip(cases, entries):
            assert (name, offset, nbytes) == (twin.name, pos, twin.nbytes)
            assert buf[offset:offset + length] == encode_dataset(twin)
            assert encode_dataset(trusted) == encode_dataset(twin)
            pos += length
        decoded = decode_batch(buf[o:o + n] for _name, o, n, _nb in entries)
        assert decoded == [twin for _, twin in cases]

    def test_record_views_are_read_only(self):
        """A server must not be able to corrupt the batch a client keeps
        for re-shipping: every record is a read-only view."""
        batch = encode_block_batch("snap", _blocks())
        for eb in batch.blocks:
            assert isinstance(eb.buf, memoryview) and eb.buf.readonly
            for _name, offset, length, _nbytes in eb.entries:
                view = eb.buf[offset : offset + length]
                with pytest.raises(TypeError):
                    view[0] = 0
        buf, _entries = encode_batch(block_to_datasets(_blocks(n=1)[0]))
        assert buf.readonly


class TestEncodeBlockBatch:
    def test_pins_wire_sizes_and_payload(self):
        blocks = _blocks()
        batch = encode_block_batch("snap", blocks)
        assert isinstance(batch, BlockBatch)
        assert batch.path == "snap"
        assert [eb.block_id for eb in batch.blocks] == [0, 1, 2]
        for block, eb in zip(blocks, batch.blocks):
            assert isinstance(eb, EncodedBlock)
            # The accounting size is the source block's: what the
            # wire and the server's buffer charge.
            assert eb.nbytes == block.nbytes
            expected = [
                (d.name, bytes(encode_dataset(d)), d.nbytes)
                for d in block_to_datasets(block)
            ]
            assert [
                (n, bytes(eb.buf[o : o + length]), nb) for n, o, length, nb in eb.entries
            ] == expected

    def test_encoding_is_the_snapshot_copy(self):
        """Mutating source arrays after encoding must not change the
        record bytes (no separate array copy is taken)."""
        blocks = _blocks(n=1)
        batch = encode_block_batch("snap", blocks)
        eb = batch.blocks[0]
        before = bytes(eb.buf)
        blocks[0].arrays["f"][:] = -1.0
        assert bytes(eb.buf) == before


class TestServerBatchPath:
    """The server takes a batch's blocks one :class:`BlockEnvelope` each."""

    def _run(self, send):
        def main(ctx):
            topo = yield from rocpanda_init(ctx, 1)
            if topo.is_server:
                stats = yield from PandaServer(ctx, topo).run()
                return ("server", stats)
            com = Roccom(ctx)
            panda = com.load_module(RocpandaModule(ctx, topo))
            yield from send(ctx, topo)
            yield from panda.finalize()
            return ("client", None)

        machine = Machine(make_testbox(), seed=0)
        job = run_spmd(machine, 2, main)
        (stats,) = [v for k, v in job.returns if k == "server"]
        return machine, stats

    def test_duplicate_batch_blocks_dropped(self):
        blocks = _blocks()
        batch = encode_block_batch("dup", blocks)

        def send(ctx, topo):
            yield from topo.world.send(
                WriteBegin(
                    path=batch.path, window="W", nblocks=len(blocks),
                    total_bytes=sum(b.nbytes for b in blocks), file_attrs={},
                ),
                dest=topo.my_server, tag=TAG_CTRL,
            )
            # The batch as a re-ship after failover sends it: every
            # block a second time.
            for eb in batch.blocks + batch.blocks:
                yield from topo.world.send(
                    BlockEnvelope(batch.path, eb), dest=topo.my_server, tag=TAG_BLOCK
                )

        machine, stats = self._run(send)
        # Every first copy is received, and the second copy that arrives
        # before the lander retires the file; the two after it are dropped
        # unreceived.
        assert stats.blocks_received == len(blocks) + 1
        assert stats.duplicate_blocks_dropped == len(blocks)
        assert stats.blocks_written == len(blocks)
        assert machine.disk.exists("dup_s0000.shdf")
