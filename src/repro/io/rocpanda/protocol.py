"""Rocpanda client/server wire protocol.

Message classes carried over vmpi between compute clients and their
dedicated I/O server.  Control messages are tiny (eager protocol);
block payloads are large (rendezvous), so a client's send completes
exactly when the server has buffered the block — giving the
"clients return to computation when all the output data are buffered
at the servers" semantics of active buffering (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..base import DataBlock, encode_blocks, record_groups, window_prefixes

__all__ = [
    "ProtocolError",
    "TAG_CTRL",
    "TAG_BLOCK",
    "TAG_REPLY",
    "WriteBegin",
    "BlockEnvelope",
    "EncodedBlock",
    "BlockBatch",
    "encode_block_batch",
    "SyncRequest",
    "SyncReply",
    "RestartRequest",
    "restart_parts",
    "RestartBatch",
    "RestartDone",
    "Shutdown",
    "Join",
    "ShareBatch",
    "JoinReply",
]

class ProtocolError(RuntimeError):
    """A message arrived that violates the Rocpanda wire protocol.

    Raised by the server when it receives e.g. a :class:`BlockEnvelope`
    for a path no client has announced with :class:`WriteBegin` —
    turning what used to be an obscure ``AttributeError`` deep in the
    writer into an explicit, diagnosable failure.
    """


#: Tag for small control messages (client -> server).
TAG_CTRL = 1
#: Tag for block payloads (client -> server during output).
TAG_BLOCK = 2
#: Tag for server -> client replies (sync acks, restart blocks).
TAG_REPLY = 3


@dataclass(frozen=True)
class WriteBegin:
    """A client announces one collective output call."""

    path: str
    window: str
    nblocks: int
    total_bytes: int
    file_attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class BlockEnvelope:
    """One data block on the wire."""

    path: str
    block: "EncodedBlock"

    @property
    def nbytes(self) -> int:
        # Wire size is dominated by the block payload.
        return self.block.nbytes + 64


class EncodedBlock:
    """One data block already serialised to SHDF record bytes.

    The *client* encodes (one pass over the whole snapshot into a
    shared buffer) and ships the record bytes, which the server lands
    (:func:`~repro.io.base.block_record`).  ``entries`` are this block's
    :func:`~repro.io.base.encode_blocks` entries in the batch's
    read-only ``buf``, ``groups`` their
    :func:`~repro.io.base.record_groups`.  ``nbytes`` is pinned to the source
    :class:`DataBlock`'s accounting size (arrays plus a per-array wire
    estimate), which is what the wire and the server's buffer charge.
    """

    __slots__ = ("block_id", "nnodes", "nelems", "nbytes", "buf", "entries", "groups")

    def __init__(self, block: DataBlock, buf: memoryview, entries: List[Tuple], groups: List):
        self.block_id = block.block_id
        self.nnodes = block.nnodes
        self.nelems = block.nelems
        self.nbytes = block.nbytes
        self.buf = buf
        self.entries = entries
        self.groups = groups

    @property
    def data_nbytes(self) -> int:
        """Array bytes of the block (what ``IOStats.bytes_written`` counts)."""
        return sum(e[3] for e in self.entries)

    def __repr__(self) -> str:
        return (
            f"<EncodedBlock b{self.block_id} "
            f"{len(self.entries)} records, {self.nbytes} bytes>"
        )


@dataclass
class BlockBatch:
    """A whole snapshot's encoded blocks, as the client holds them.

    Not a wire message: the client ships the blocks one
    :class:`BlockEnvelope` each and keeps the batch for a re-ship.
    """

    path: str
    blocks: List[EncodedBlock]


def encode_block_batch(path: str, blocks) -> BlockBatch:
    """Serialise ``blocks`` into one :class:`BlockBatch`.

    All records of all blocks are encoded into **one** shared,
    read-only buffer (:func:`repro.io.base.encode_blocks`), which is
    what lets the same bytes sit in the client's re-ship buffer while a
    server writes them.
    """
    buf, entries = encode_blocks(blocks)
    shared: dict = {}  # one object per group: the server's lookups match by identity
    encoded = []
    i = 0
    for block in blocks:
        groups = [shared.setdefault(g, g) for g in record_groups(block)]
        n = len(block.arrays)
        encoded.append(EncodedBlock(block, buf, entries[i : i + n], groups))
        i += n
    return BlockBatch(path, encoded)


@dataclass(frozen=True)
class SyncRequest:
    """Client asks: tell me when everything I sent is on disk.

    ``seq`` pairs requests with replies so a client that re-sends a
    request (reply lost / server slow) can discard stale replies.
    """

    seq: int = 0


@dataclass(frozen=True)
class SyncReply:
    """Server: all output affecting this client is on disk."""

    seq: int = 0


def restart_parts(window, prefix, block_ids) -> List[Tuple[str, str, Any]]:
    """One restart's ``(window, prefix, block IDs)`` triples: one
    window's, or equal-length tuples of them (``read_attribute``'s
    convention, :func:`~repro.io.base.window_prefixes`)."""
    if isinstance(window, str):
        return [(window, prefix, block_ids)]
    pairs = window_prefixes(window, prefix)
    if len(block_ids) != len(pairs):
        raise ValueError(f"restart of {window!r} needs one block-ID set per window")
    return [(w, p, ids) for (w, p), ids in zip(pairs, block_ids)]


@dataclass(frozen=True)
class RestartRequest:
    """A client's restart demand: which blocks it wants from a snapshot.

    ``window``, ``prefix`` and ``block_ids`` are one window, its
    snapshot prefix and the wanted block IDs, or equal-length tuples of
    them — every window of a snapshot in one request, which the servers
    serve as one collective.  They are stored as tuples; :attr:`parts`
    pairs them up.

    The client sends its request to *every* alive server (so each
    server builds the full (window, block)->owner map from its own
    bucket, without a server collective), and replies arrive as
    :class:`RestartBatch` scatter messages.

    ``resume_of`` marks a failover resume: "server ``resume_of`` died
    owing me its share of the restart files — you are its heir, rescan
    that share for the ``block_ids`` I am still missing" (per window).
    Resume requests are served immediately (no bucketing).
    """

    prefix: Any
    window: Any
    block_ids: Tuple
    attr_names: Optional[Tuple[str, ...]] = None
    resume_of: Optional[int] = None

    def __post_init__(self):
        parts = restart_parts(self.window, self.prefix, self.block_ids)
        object.__setattr__(self, "window", tuple(w for w, _p, _ids in parts))
        object.__setattr__(self, "prefix", tuple(p for _w, p, _ids in parts))
        object.__setattr__(self, "block_ids", tuple(tuple(ids) for _w, _p, ids in parts))

    @property
    def parts(self) -> List[Tuple[str, str, Tuple[int, ...]]]:
        """``(window, prefix, block IDs)`` per window, in request order."""
        return list(zip(self.window, self.prefix, self.block_ids))


@dataclass
class RestartBatch:
    """One file region's restored blocks for one owner, as one message.

    The scatter phase of two-phase restart: a server bulk-reads a
    region of its file share, groups the decoded blocks per owning
    client, and ships each group as a single aggregated envelope.
    ``nblocks`` restates the payload length so the receiver can check
    block-count consistency per reply batch (a torn or mis-sliced
    batch fails loudly as a :class:`ProtocolError`).  Wire size is a
    64-byte envelope per block on top of the block payloads.
    ``prefix`` is the region's snapshot prefix; each block names its
    window.
    """

    prefix: str
    blocks: List[DataBlock]
    nblocks: int

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes + 64 for b in self.blocks)


@dataclass(frozen=True)
class RestartDone:
    """Server signal: the collective restart for ``prefix`` (a
    :class:`RestartRequest`'s prefixes) is complete.

    ``resume_of`` echoes the :class:`RestartRequest` field so a client
    waiting on several outstanding shares (its normal per-server Dones
    plus failover resumes) can retire exactly the one that finished.
    """

    prefix: Any
    blocks_sent: int
    resume_of: Optional[int] = None


@dataclass(frozen=True)
class Shutdown:
    """Client is finalizing; server exits after all clients say so."""


@dataclass(frozen=True)
class Join:
    """Server -> a path's writer: count my clients' blocks in your file.

    ``nblocks`` maps each client of the joining server's share to the
    blocks it announced; ``file_attrs`` are their ``WriteBegin``'s, for a
    writer none of whose own clients announced the path yet.  ``kind``
    ``"withdraw"``: the joiner takes the share back, no answer came in
    time; ``"ask"``: a heir asks whether the writer's file holds an
    adopted client's blocks (answered ``held``, ``landed`` or
    ``refused``, never ``accepted``); ``"poll"``: the writer asks a peer
    whether it joins, answered by its Join or by ``"local"`` (it lands
    its share itself, or has none); ``"done"``: every client of the
    sender has shut down — ``"local"`` for every path.
    """

    path: str
    nblocks: Dict[int, int]
    file_attrs: Dict[str, Any] = field(default_factory=dict)
    kind: str = "join"


@dataclass
class ShareBatch:
    """A joined server's whole share of a path, ``(client, block)`` pairs,
    as one message to the path's writer."""

    path: str
    blocks: List[Tuple[int, EncodedBlock]]

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes + 64 for _client, block in self.blocks)


@dataclass(frozen=True)
class JoinReply:
    """Writer -> joiner about ``clients``' blocks of ``path``: ``"accepted"``
    (ship them), ``"refused"`` (the writer's file does not hold them:
    land them yourself), ``"landed"`` (they are in its committed file) or
    ``"held"`` (its retired file holds some: the verdict follows the
    commit)."""

    path: str
    clients: Tuple[int, ...]
    verdict: str
