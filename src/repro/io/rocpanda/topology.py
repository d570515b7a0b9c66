"""Rocpanda job topology: who serves, who computes, who talks to whom.

Simulations using Rocpanda with *n* clients and *m* servers run on
*n + m* processors.  After MPI initialization every processor calls
:func:`rocpanda_init`, which splits MPI_COMM_WORLD into a client
communicator and a server communicator (§4.1).  Server ranks are
spread across nodes by choosing global ranks ``0, s, 2s, ...`` with
stride ``s = nprocs // nservers`` — on an SMP machine with one server
per node's worth of ranks this dedicates one CPU per node to I/O.

Each server serves the ``s - 1`` client ranks that follow it; with
fine-grained distribution and dynamic load balancing the clients carry
roughly equal data, so "the I/O workload is partitioned among the
servers ... resulting in a balanced I/O workload at the servers
automatically" (§4.1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...cluster.node import ROLE_SERVER

__all__ = [
    "Topology",
    "server_ranks",
    "rocpanda_init",
    "clients_of",
    "failover_server",
    "expected_clients",
    "path_writer",
    "server_file_path",
]


def server_ranks(nprocs: int, nservers: int) -> List[int]:
    """Global ranks dedicated as I/O servers: ``0, s, 2s, ...``."""
    if not 0 < nservers <= nprocs:
        raise ValueError(f"need 0 < nservers ({nservers}) <= nprocs ({nprocs})")
    if nprocs - nservers < nservers:
        # The stride-based layout needs at least one client per server;
        # fewer clients than servers would interleave server ranks at
        # stride 1 and leave tail servers with no clients — the run
        # would hang waiting for Shutdowns that can never come.
        raise ValueError(
            f"Rocpanda needs nclients >= nservers: {nprocs} ranks with "
            f"{nservers} servers leaves only {nprocs - nservers} clients"
        )
    stride = nprocs // nservers
    ranks = [i * stride for i in range(nservers)]
    return ranks


def clients_of(server: int, servers: Tuple[int, ...], nprocs: int) -> Tuple[int, ...]:
    """Client world-ranks assigned to ``server`` (mirrors ``_plan``).

    Each server serves the non-server ranks between itself and the next
    server; trailing ranks belong to the last server.  Pure function of
    the layout, so survivors can compute a dead peer's client set.
    """
    ordered = sorted(servers)
    i = ordered.index(server)
    end = ordered[i + 1] if i + 1 < len(ordered) else nprocs
    sset = set(ordered)
    return tuple(r for r in range(server + 1, end) if r not in sset)


def failover_server(dead: int, servers: Tuple[int, ...], is_dead) -> int:
    """Deterministic replacement for a dead server: next alive in ring.

    Every surviving rank evaluates the same pure rule — the dead
    server's position in the sorted server list walks forward (with
    wrap-around) until a server for which ``is_dead(rank)`` is false is
    found — so clients and adopting servers agree without coordination.
    Raises RuntimeError when no server survives.
    """
    ordered = sorted(servers)
    start = ordered.index(dead)
    for step in range(1, len(ordered) + 1):
        candidate = ordered[(start + step) % len(ordered)]
        if not is_dead(candidate):
            return candidate
    raise RuntimeError("no surviving Rocpanda server to fail over to")


def expected_clients(rank: int, topo: "Topology", machine, quiet=frozenset()) -> set:
    """World ranks whose data (and Shutdown) server ``rank`` must see.

    While every rank is alive this is exactly its ``my_clients``.  It
    additionally adopts the clients of every dead server whose
    deterministic failover target (:func:`failover_server`) is ``rank`` —
    the same pure rule the clients evaluate, so both sides agree without
    coordination — but the ``quiet`` ones, which shut down before.
    """
    dead_ranks = machine.dead_ranks()
    expected = set(topo.my_clients)
    for dead in dead_ranks:
        expected.discard(dead)
        if dead not in topo.servers or dead == rank:
            continue
        try:
            heir = failover_server(dead, topo.servers, machine.is_dead)
        except RuntimeError:
            continue
        if heir == rank:
            expected.update(
                r for r in clients_of(dead, topo.servers, topo.nprocs)
                if r not in dead_ranks and r not in quiet
            )
    return expected


def server_file_path(prefix: str, server_index: int, gen: int = 0) -> str:
    """Collective-mode file name for one server's part of a snapshot — the
    one place that builds it.  A path re-announced after its file was
    retired (a failover re-ship) lands in generation ``gen`` beside it."""
    return f"{prefix}_s{server_index:04d}{f'g{gen}' if gen else ''}.shdf"


def path_writer(path: str, group: Tuple[int, ...], is_dead) -> int:
    """The server that writes ``path``'s one file for a lease ``group``.

    A stable hash of the path (CRC-32, the same in every process, unlike
    ``hash()``) picks a member of the group; a dead one is skipped the
    way :func:`failover_server` skips it, so every server that asks
    names the same writer.  Raises RuntimeError when none survives.
    """
    ordered = sorted(group)
    start = ordered[zlib.crc32(path.encode()) % len(ordered)]
    return start if not is_dead(start) else failover_server(start, ordered, is_dead)


@dataclass
class Topology:
    """One rank's view of the Rocpanda process layout."""

    nprocs: int
    nservers: int
    servers: Tuple[int, ...]
    #: This rank's role.
    is_server: bool
    #: World rank of the server handling this client (clients only).
    my_server: Optional[int]
    #: World ranks of this server's clients (servers only).
    my_clients: Tuple[int, ...]
    #: Client-only communicator (the one the application computes on),
    #: or the server communicator on server ranks.
    comm: object = None
    #: The original world communicator (for client<->server traffic).
    world: object = None

    @property
    def nclients(self) -> int:
        return self.nprocs - self.nservers


def _plan(nprocs: int, nservers: int):
    servers = server_ranks(nprocs, nservers)
    sset = set(servers)
    assignment = {}
    current = None
    for rank in range(nprocs):
        if rank in sset:
            current = rank
            assignment[current] = []
        else:
            assignment[current].append(rank)
    # Ranks before the first server (none, since 0 is a server) and
    # trailing ranks fall to the last server.
    return servers, assignment


def rocpanda_init(ctx, nservers: int):
    """Generator: split the world into clients and servers (§4.1).

    Every rank calls this collectively; returns a :class:`Topology`
    whose ``comm`` is the client communicator on clients ("all the
    instances of MPI_COMM_WORLD need to be replaced by the client
    communicator", §4.2) and the server communicator on servers.
    """
    world = ctx.world
    nprocs = world.size
    servers, assignment = _plan(nprocs, nservers)
    is_server = ctx.rank in assignment
    if is_server:
        ctx.set_role(ROLE_SERVER)
    sub = yield from world.split(1 if is_server else 0, key=ctx.rank)
    my_server = None
    my_clients: Tuple[int, ...] = ()
    if is_server:
        my_clients = tuple(assignment[ctx.rank])
    else:
        for s in reversed(servers):
            if s < ctx.rank:
                my_server = s
                break
        if my_server is None:
            my_server = servers[0]
    return Topology(
        nprocs=nprocs,
        nservers=nservers,
        servers=tuple(servers),
        is_server=is_server,
        my_server=my_server,
        my_clients=my_clients,
        comm=sub,
        world=world,
    )
