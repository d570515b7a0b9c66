"""Protocol hygiene of the restart reply paths.

A malformed or unexpected reply must surface as a typed
:class:`ProtocolError` naming the offending message and peer — not a
bare ``TypeError`` — and scatter batches must be internally consistent
before any block is applied.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.faults import RetryPolicy
from repro.io.rocpanda.client import RocpandaModule
from repro.io.rocpanda.protocol import (
    ProtocolError,
    RestartBatch,
    RestartDone,
    RestartRequest,
)


def _gen(value=None):
    """A finished generator returning ``value`` (no events yielded)."""
    return value
    yield  # pragma: no cover


class _FakeWorld:
    """Scripted comm: sends are no-ops, recvs pop canned replies."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, msg, dest, tag):
        self.sent.append((msg, dest, tag))
        return _gen()

    def recv_with_timeout(self, source, tag, timeout):
        return _gen(self.replies.pop(0) if self.replies else None)


def _fake_client(replies):
    return SimpleNamespace(
        topo=SimpleNamespace(world=_FakeWorld(replies), servers=[1]),
        ctx=SimpleNamespace(rank=3, machine=Machine(make_testbox())),
        stats=SimpleNamespace(blocks_read=0, bytes_read=0),
        retry=RetryPolicy(),
        com=None,
    )


def _drain(gen):
    """Drive a generator that never yields events to its return value."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator unexpectedly yielded")


class TestPerBlockReplies:
    def test_unexpected_reply_raises_protocol_error(self):
        bogus = RestartRequest(prefix="ck", window="W", block_ids=())
        fake = _fake_client([(bogus, SimpleNamespace(source=1))])
        with pytest.raises(ProtocolError, match="RestartRequest from rank 1"):
            _drain(RocpandaModule._read_batched(fake, "W", set(), None, "ck"))
        assert isinstance(ProtocolError("x"), RuntimeError)
        # The request went to the one server before the reply was read.
        [(sent, dest, _tag)] = fake.topo.world.sent
        assert isinstance(sent, RestartRequest) and dest == 1

    def test_done_with_missing_blocks_raises_keyerror(self):
        fake = _fake_client(
            [(RestartDone(prefix="ck", blocks_sent=0), SimpleNamespace(source=1))]
        )
        with pytest.raises(KeyError, match="missing blocks"):
            _drain(RocpandaModule._read_batched(fake, "W", {5}, None, "ck"))


class TestBatchConsistency:
    def test_nblocks_mismatch_raises_before_applying(self):
        fake = _fake_client([])
        msg = RestartBatch(prefix="ck", blocks=[], nblocks=2)
        with pytest.raises(ProtocolError, match="declares 2 blocks"):
            RocpandaModule._apply_batch(fake, msg, 1, {5}, [])
        # Nothing was applied before the raise.
        assert fake.stats.blocks_read == 0

    def test_batch_nbytes_counts_framing(self):
        block = SimpleNamespace(nbytes=100)
        msg = RestartBatch(prefix="ck", blocks=[block, block], nblocks=2)
        assert msg.nbytes == 2 * (100 + 64)
