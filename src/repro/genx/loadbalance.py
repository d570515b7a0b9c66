"""Dynamic load balancing: migrating data blocks between processors.

GENx's Charm++ configuration provides "additional functionality such
as dynamic load balancing" (§3.1), and the collective I/O architecture
was explicitly designed so that "data blocks may be migrated among
processors, without affecting how I/O is done" (§4.1): the servers
collect whatever blocks each client currently owns, so migration needs
no interaction with the I/O layer at all.

:class:`LoadBalancer` implements a measurement-driven rebalancing pass
for a running job:

1. all ranks allgather their measured per-step compute time;
2. if the max/mean imbalance exceeds ``threshold``, overloaded ranks
   pick donor blocks (greedily, largest first) for the most underloaded
   ranks;
3. blocks travel as ordinary :class:`~repro.io.base.DataBlock`
   messages; the receiver registers the panes, the sender deregisters
   them — the physics module and Roccom window stay consistent.

The plan is computed identically on every rank from the allgathered
loads (deterministic), so no extra coordination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..io.base import DataBlock, apply_block, collect_blocks
from ..roccom.registry import Roccom
from .meshblock import BlockSpec, MeshBlock

__all__ = ["LoadBalancer", "MigrationPlan", "plan_migrations"]

#: Internal vmpi tag space for migration traffic.
_MIGRATE_TAG = 1 << 18


@dataclass(frozen=True)
class Migration:
    """One block move: (window, block_id, cells) from src to dst rank."""

    window: str
    block_id: int
    cells: int
    src: int
    dst: int


@dataclass
class MigrationPlan:
    """The agreed set of moves for one rebalancing pass."""

    moves: List[Migration] = field(default_factory=list)

    def outgoing(self, rank: int) -> List[Migration]:
        return [m for m in self.moves if m.src == rank]

    def incoming(self, rank: int) -> List[Migration]:
        return [m for m in self.moves if m.dst == rank]

    @property
    def nmoves(self) -> int:
        return len(self.moves)


def plan_migrations(
    loads: List[float],
    blocks_by_rank: List[List[Tuple[str, int, int]]],
    threshold: float = 1.10,
    max_moves_per_rank: int = 2,
) -> MigrationPlan:
    """Compute a deterministic migration plan from measured loads.

    ``blocks_by_rank[r]`` lists ``(window, block_id, cells)`` for rank
    r's movable blocks.  Returns an empty plan when the max/mean load
    ratio is below ``threshold``.
    """
    nranks = len(loads)
    plan = MigrationPlan()
    if nranks < 2:
        return plan
    mean = sum(loads) / nranks
    if mean <= 0 or max(loads) / mean < threshold:
        return plan

    # Cells stand in for work; convert load imbalance to cell deficit.
    cells_of = [sum(c for _, _, c in blocks) for blocks in blocks_by_rank]
    total_cells = sum(cells_of)
    if total_cells == 0:
        return plan
    target = total_cells / nranks

    surplus = sorted(
        (r for r in range(nranks) if cells_of[r] > target),
        key=lambda r: -(cells_of[r] - target),
    )
    balance = list(cells_of)
    for src in surplus:
        moved = 0
        # Donor blocks: largest first, but never the last block.
        donors = sorted(blocks_by_rank[src], key=lambda b: -b[2])
        for window, block_id, cells in donors:
            if moved >= max_moves_per_rank:
                break
            if balance[src] - cells < target * 0.5:
                continue  # would overshoot
            dst = min(range(nranks), key=lambda r: (balance[r], r))
            if dst == src or balance[dst] + cells > target * 1.05:
                continue
            plan.moves.append(Migration(window, block_id, cells, src, dst))
            balance[src] -= cells
            balance[dst] += cells
            moved += 1
    return plan


class LoadBalancer:
    """Runtime block migration for a set of physics modules."""

    def __init__(self, threshold: float = 1.10, max_moves_per_rank: int = 2):
        self.threshold = threshold
        self.max_moves_per_rank = max_moves_per_rank
        #: Completed migrations (diagnostics).
        self.history: List[Migration] = []
        self._epoch = 0

    def _movable_blocks(self, modules) -> List[Tuple[str, int, int]]:
        out = []
        for module in modules:
            if len(module.blocks) <= 1:
                continue  # never strand a module without blocks
            for block in module.blocks:
                out.append((module.window_name, block.block_id, block.nelems))
        return out

    def rebalance(self, ctx, com: Roccom, comm, modules, measured_load: float):
        """Generator: one collective rebalancing pass.

        Every rank must call this collectively with its own
        ``measured_load`` (e.g. seconds of the last step).  Returns the
        number of blocks this rank sent + received.
        """
        self._epoch += 1
        loads = yield from comm.allgather(float(measured_load))
        movable = self._movable_blocks(modules)
        all_blocks = yield from comm.allgather(movable)
        plan = plan_migrations(
            loads, all_blocks, self.threshold, self.max_moves_per_rank
        )
        if not plan.nmoves:
            return 0

        by_window = {m.window_name: m for m in modules}
        rank = comm.rank
        tag = _MIGRATE_TAG + (self._epoch % 1024)
        moved = 0

        # Post outgoing blocks non-blocking (two ranks may trade blocks
        # simultaneously — blocking sends could deadlock), then drop
        # them locally.
        requests = []
        for move in plan.outgoing(rank):
            module = by_window[move.window]
            window = com.window(move.window)
            [payload] = [
                b
                for b in collect_blocks(com, move.window)
                if b.block_id == move.block_id
            ]
            mesh = next(b for b in module.blocks if b.block_id == move.block_id)
            requests.append(
                comm.isend((payload, mesh.spec), dest=move.dst, tag=tag)
            )
            module.blocks.remove(mesh)
            module._total_cells -= mesh.nelems
            window.deregister_pane(move.block_id)
            moved += 1

        # Receive incoming blocks and install them.
        for move in plan.incoming(rank):
            (payload, spec), _status = yield from comm.recv(
                source=move.src, tag=tag
            )
            module = by_window[move.window]
            apply_block(com, payload)
            mesh = MeshBlock(
                spec,
                coords=payload.arrays["coords"],
                conn=payload.arrays["conn"],
            )
            module.blocks.append(mesh)
            module.blocks.sort(key=lambda b: b.block_id)
            module._total_cells += mesh.nelems
            moved += 1

        for request in requests:
            yield from request.wait()

        self.history.extend(
            m for m in plan.moves if rank in (m.src, m.dst)
        )
        return moved
