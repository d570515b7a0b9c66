"""Regression tests for the Rocpanda orphan-block stash (PR 7).

At 256+ ranks with rendezvous-sized blocks, a client's eager WriteBegin
can queue on the destination NIC while the block's rendezvous
announcement (a control message that skips the NIC) overtakes it, so
the server sees data for a path it has never heard of.  The server must
stash such blocks and replay them when the announcement lands — and
still fail loudly when a WriteBegin genuinely never arrives.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import PandaServer, rocpanda_init
from repro.io.base import BLOCK_INDEX, DataBlock, datasets_to_blocks
from repro.io.rocpanda.protocol import (
    TAG_BLOCK,
    TAG_CTRL,
    BlockEnvelope,
    ProtocolError,
    Shutdown,
    WriteBegin,
    encode_block_batch,
)
from repro.roccom import AttributeSpec, LOC_ELEMENT
from repro.shdf import decode_file
from repro.vmpi import run_spmd


def make_block(block_id=0, cells=64):
    """One block as it travels: encoded, the way the client ships it."""
    data = np.arange(float(cells)) + block_id
    block = DataBlock(
        window="W",
        block_id=block_id,
        nnodes=0,
        nelems=cells,
        arrays={"f": data},
        specs={"f": AttributeSpec("f", LOC_ELEMENT)},
    )
    [encoded] = encode_block_batch("", [block]).blocks
    return encoded


def raw_panda_job(client_body, seed=0):
    """One server, one raw client that speaks the wire protocol itself."""
    outcome = {}

    def main(ctx):
        topo = yield from rocpanda_init(ctx, 1)
        if topo.is_server:
            outcome["stats"] = yield from PandaServer(ctx, topo).run()
            return
        yield from client_body(ctx, topo)

    machine = Machine(make_testbox(), seed=seed)
    run_spmd(machine, 2, main)
    return outcome, machine


class TestOrphanReplay:
    def test_block_before_write_begin_is_stashed_and_written(self):
        block = make_block()

        def client(ctx, topo):
            world = topo.world
            server = topo.my_server
            # Data first: the reordering the NIC race produces.
            yield from world.send(
                BlockEnvelope(path="oo", block=block), dest=server, tag=TAG_BLOCK
            )
            yield from world.send(
                WriteBegin(path="oo", window="W", nblocks=1,
                           total_bytes=block.nbytes),
                dest=server, tag=TAG_CTRL,
            )
            yield from world.send(Shutdown(), dest=server, tag=TAG_CTRL)

        outcome, machine = raw_panda_job(client)
        stats = outcome["stats"]
        assert stats.orphan_blocks_stashed == 1
        assert stats.blocks_received == 1
        assert stats.blocks_written == 1
        image = decode_file(machine.disk.open("oo_s0000.shdf").read())
        assert len(image) == 1

    def test_multiple_orphans_replay_in_arrival_order(self):
        blocks = [make_block(i) for i in range(3)]

        def client(ctx, topo):
            world = topo.world
            server = topo.my_server
            for b in blocks:
                yield from world.send(
                    BlockEnvelope(path="mo", block=b), dest=server, tag=TAG_BLOCK
                )
            yield from world.send(
                WriteBegin(path="mo", window="W", nblocks=3,
                           total_bytes=sum(b.nbytes for b in blocks)),
                dest=server, tag=TAG_CTRL,
            )
            yield from world.send(Shutdown(), dest=server, tag=TAG_CTRL)

        outcome, machine = raw_panda_job(client)
        stats = outcome["stats"]
        assert stats.orphan_blocks_stashed == 3
        assert stats.blocks_written == 3
        image = decode_file(machine.disk.open("mo_s0000.shdf").read())
        # Staged together, the three land as one record, in arrival order.
        (record,) = image
        assert record.attrs[BLOCK_INDEX][:, 0].tolist() == [0, 1, 2]
        assert [b.block_id for b in datasets_to_blocks(list(image))] == [0, 1, 2]

    def test_in_order_traffic_never_stashes(self):
        block = make_block()

        def client(ctx, topo):
            world = topo.world
            server = topo.my_server
            yield from world.send(
                WriteBegin(path="io", window="W", nblocks=1,
                           total_bytes=block.nbytes),
                dest=server, tag=TAG_CTRL,
            )
            yield from world.send(
                BlockEnvelope(path="io", block=block), dest=server, tag=TAG_BLOCK
            )
            yield from world.send(Shutdown(), dest=server, tag=TAG_CTRL)

        outcome, _ = raw_panda_job(client)
        assert outcome["stats"].orphan_blocks_stashed == 0
        assert outcome["stats"].blocks_written == 1


class TestOrphanWithoutAnnouncement:
    def test_shutdown_with_unclaimed_orphan_raises(self):
        """A stashed block whose WriteBegin never arrives is a protocol
        violation, not reordering — the server must not eat the data."""
        block = make_block()

        def client(ctx, topo):
            world = topo.world
            server = topo.my_server
            yield from world.send(
                BlockEnvelope(path="never", block=block),
                dest=server, tag=TAG_BLOCK,
            )
            yield from world.send(Shutdown(), dest=server, tag=TAG_CTRL)

        with pytest.raises(ProtocolError, match="never saw a WriteBegin"):
            raw_panda_job(client)
