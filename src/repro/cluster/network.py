"""Interconnect model.

Messages between two CPUs cost::

    software_overhead + latency * scale_factor(nprocs) + nbytes / bw

where ``bw`` is the intra-node memory-bus bandwidth when both endpoints
share a node (the effect behind the 1→15-client throughput rise in
Fig 3(a)) and the link bandwidth otherwise.  Each node's NIC admits a
bounded number of concurrent incoming transfers; additional transfers
queue — this produces the contention seen when many clients target one
I/O server.

``scale_factor`` models the paper's observation that Turing's message
passing layer "does not scale well" (§7.1): per-message cost grows with
the job size.  On Frost it is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..des import Environment, Resource
from ..util.units import MB, USEC
from .node import Node

__all__ = ["NetworkSpec", "Network"]


def _deliver(args) -> None:
    # Landing trampoline for intra-node mailbox deliveries.
    mailbox, envelope = args
    mailbox.deliver(envelope)


def _land_nic_deliver(args) -> None:
    # Landing trampoline for inter-node mailbox deliveries.
    nic, req, mailbox, envelope = args
    nic.release(req)
    mailbox.deliver(envelope)


@dataclass(frozen=True)
class NetworkSpec:
    """Static parameters of an interconnect."""

    #: One-way small-message latency (seconds).
    latency: float = 60 * USEC
    #: Inter-node point-to-point bandwidth (bytes/s).
    inter_bw: float = 120 * MB
    #: Intra-node (shared-memory) bandwidth (bytes/s).
    intra_bw: float = 350 * MB
    #: CPU-side software overhead charged at each endpoint per message.
    sw_overhead: float = 15 * USEC
    #: Max concurrent incoming transfers a NIC serves; more queue up.
    nic_streams: int = 1
    #: Per-message latency growth per process in the job: the effective
    #: latency is ``latency * (1 + scale_alpha * nprocs)``.
    scale_alpha: float = 0.0
    #: Messages up to this size use the eager protocol (no handshake).
    eager_threshold: int = 16 * 1024


class Network:
    """Runtime network instance bound to a DES environment."""

    def __init__(self, env: Environment, spec: NetworkSpec, nodes: List[Node], nprocs: int):
        self.env = env
        self.spec = spec
        self.nodes = nodes
        self.nprocs = nprocs
        self._nics: Dict[int, Resource] = {
            node.index: Resource(env, capacity=spec.nic_streams) for node in nodes
        }
        # spec and nprocs are fixed for the lifetime of the instance, so
        # the latency scale factor and per-(locality, size) wire times
        # are interned once instead of recomputed per message.  The
        # memo is capped: block payloads cluster into a few dozen size
        # classes, but a pathological workload with unique sizes must
        # not grow it without bound.
        self._eff_latency = spec.latency * (1.0 + spec.scale_alpha * nprocs)
        self._tt_memo: Dict[tuple, float] = {}
        #: Total payload bytes moved (diagnostics).
        self.bytes_transferred = 0
        self.messages = 0
        #: Optional fault filter installed by the fault injector:
        #: ``filter(src_rank, dst_rank, tag, nbytes)`` returns ``None``
        #: (deliver normally) or ``(kind, extra_delay)`` with ``kind``
        #: in ``{"drop", "duplicate", "delay"}``.  Consulted by
        #: ``Comm.send``; ``None`` (the default) costs one attribute
        #: check on the no-fault path.
        self.fault_filter = None

    # -- cost helpers ---------------------------------------------------
    def effective_latency(self) -> float:
        return self._eff_latency

    def bandwidth(self, src: Node, dst: Node) -> float:
        return self.spec.intra_bw if src.index == dst.index else self.spec.inter_bw

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.spec.eager_threshold

    def fault_decision(self, src_rank: int, dst_rank: int, tag: int, nbytes: int):
        """Consult the installed fault filter for one message, if any."""
        if self.fault_filter is None:
            return None
        return self.fault_filter(src_rank, dst_rank, tag, nbytes)

    def transfer_time(self, src: Node, dst: Node, nbytes: int) -> float:
        """Pure wire time, excluding NIC queueing and endpoint overhead.

        Memoized per (locality, size) class — ``latency + nbytes / bw``
        evaluated once per distinct message size, with the division
        kept (not turned into a multiply by a reciprocal) so memoized
        and cold results are bit-identical.
        """
        memo = self._tt_memo
        same = src.index == dst.index
        key = (same, nbytes)
        t = memo.get(key)
        if t is None:
            bw = self.spec.intra_bw if same else self.spec.inter_bw
            t = self._eff_latency + nbytes / bw
            if len(memo) < 65536:
                memo[key] = t
        return t

    # -- operations -----------------------------------------------------
    def transfer(self, src: Node, dst: Node, nbytes: int):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Intra-node transfers bypass the NIC (memory copy); inter-node
        transfers hold one of the destination NIC's stream slots for
        the duration, so concurrent senders to one node queue up.
        External load on either node (shared Turing nodes) slows the
        transfer proportionally.
        """
        load = max(src.external_load, dst.external_load)
        duration = self.transfer_time(src, dst, nbytes) * load
        self.messages += 1
        self.bytes_transferred += nbytes
        if src.index == dst.index:
            yield self.env.sleep(duration)
            return
        nic = self._nics[dst.index]
        req = nic.request()
        yield req
        try:
            yield self.env.sleep(duration)
        finally:
            nic.release(req)

    def schedule_delivery(
        self,
        src: Node,
        dst: Node,
        nbytes: int,
        mailbox,
        envelope,
        extra_delay: float = 0.0,
    ) -> None:
        """Fire-and-forget :meth:`transfer` that lands as
        ``mailbox.deliver(envelope)``.

        Virtual timing, NIC queueing included, is that of ``transfer``;
        only the mechanism differs.  The flight is one
        :meth:`~repro.des.Environment.schedule_callback` entry instead of
        a generator process and a completion :class:`~repro.des.Event`,
        and the landing action is data, not a per-message closure.  One
        of these runs per eager point-to-point message.  ``extra_delay``
        adds injected flight time (message-delay faults).
        """
        load = max(src.external_load, dst.external_load)
        duration = self.transfer_time(src, dst, nbytes) * load + extra_delay
        self.messages += 1
        self.bytes_transferred += nbytes
        env = self.env
        if src.index == dst.index:
            env.schedule_callback(_deliver, (mailbox, envelope), delay=duration)
            return
        nic = self._nics[dst.index]
        req = nic.request()

        def _fly(_event) -> None:
            env.schedule_callback(
                _land_nic_deliver, (nic, req, mailbox, envelope), delay=duration
            )

        req.callbacks.append(_fly)

    def control_message(self, src: Node, dst: Node):
        """Generator: a zero-payload control message (handshake leg).

        Control messages do not occupy NIC stream slots.
        """
        load = max(src.external_load, dst.external_load)
        yield self.env.sleep(self._eff_latency * load)
