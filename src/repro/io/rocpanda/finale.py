"""The Rocpanda servers' finalize.

A server is *done* once every client it expects has shut down and all it
took is on disk.  A server that returned then may still be needed: a
peer dying later hands its clients to the next live server in the ring
(:func:`~.topology.failover_server`), and a server that has gone answers
none of their re-asks.  So a done server **lingers**, still serving,
until every other server is done, gone or dead.  The last to be done
wakes the rest at its own instant — state the servers of one job share,
not a message — so where nobody dies every wall stays where it was.

A death voids every lingering server's word, since one may now adopt the
victim's clients: each is woken to look again.  A client that shut down
to a server that then died is not adopted: it sends nothing more.
"""

from __future__ import annotations

from typing import Dict, Set

from ...des import Event

__all__ = ["Finale"]


class Finale:
    """The finalize state the servers of one job share."""

    def __init__(self, env):
        self._env = env
        #: Lingering servers, done since the last death; returned servers.
        self.done: Set[int] = set()
        self.gone: Set[int] = set()
        #: server -> the clients that shut down to it (its own set).
        self.shut: Dict[int, Set[int]] = {}
        self._wake = Event(env)

    @classmethod
    def of(cls, ctx) -> "Finale":
        """The one of ``ctx``'s job, kept in ``Job.shared``."""
        finale = ctx.job.shared.get("rocpanda.finale")
        if finale is None:
            finale = ctx.job.shared["rocpanda.finale"] = cls(ctx.env)
        return finale

    def quiet(self, dead) -> Set[int]:
        """Clients that shut down to a server in ``dead`` (it died since)."""
        return set().union(*(c for s, c in self.shut.items() if s in dead))

    def linger(self, server):
        """Generator: ``server`` is done.  True once it may return; False
        when a message (handled here) or a wake sends it back to look
        again — a death may have handed it clients."""
        ctx = server.ctx
        me, is_dead = ctx.rank, ctx.machine.is_dead
        self.done.add(me)
        if all(s in self.done or s in self.gone or is_dead(s) for s in server.topo.servers):
            self.done.discard(me)
            self.gone.add(me)
            self._notify()
            return True
        status = yield from server.topo.world.probe(until=self._wake)
        if status is not None:
            self.done.discard(me)
            yield from server._handle_one(status)
        return False

    def died(self, rank: int) -> None:
        """Server ``rank`` crashed.  Done, it leaves nothing to adopt;
        else every lingering server looks again."""
        if rank in self.done:
            self.done.discard(rank)
        else:
            self.done.clear()
            self._notify()

    def _notify(self) -> None:
        wake, self._wake = self._wake, Event(self._env)
        wake.succeed()
