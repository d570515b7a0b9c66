"""Block-to-processor partitioning.

The partitioner assigns pre-cut mesh blocks to compute processors,
balancing total cell count (a stand-in for both compute load and I/O
volume — with "fine-grained data distribution and dynamic load-
balancing, the clients are likely to receive a balanced data
assignment, resulting in a balanced I/O workload at the servers
automatically", §4.1).

Also provides :func:`migrate`, a toy dynamic-load-balancing move used
to demonstrate that block migration "may ... happen among processors,
without affecting how I/O is done" (§4.1).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from .meshblock import BlockSpec

__all__ = ["partition_blocks", "assignment_stats", "migrate"]


def partition_blocks(
    specs: Sequence[BlockSpec], nprocs: int
) -> List[List[BlockSpec]]:
    """LPT (longest-processing-time) greedy balance by cell count.

    Returns ``nprocs`` lists of block specs.  Deterministic: ties break
    on processor index, blocks sorted by (cells desc, id asc).
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be > 0")
    if len(specs) < nprocs:
        raise ValueError(
            f"cannot give {nprocs} processors at least one of {len(specs)} blocks"
        )
    # (load, proc) heap: pops the least-loaded processor, lowest index
    # on ties.
    heap = [(0, p) for p in range(nprocs)]
    buckets: List[List[BlockSpec]] = [[] for _ in range(nprocs)]
    for spec in sorted(specs, key=lambda s: (-s.ncells, s.block_id)):
        load, target = heapq.heappop(heap)
        buckets[target].append(spec)
        heapq.heappush(heap, (load + spec.ncells, target))
    for bucket in buckets:
        # Stable sort: equal ids keep their LPT assignment order.
        bucket.sort(key=lambda s: s.block_id)
    return buckets


def assignment_stats(assignment: List[List[BlockSpec]]) -> Dict[str, float]:
    """Balance diagnostics: max/mean cell load and block counts."""
    loads = [sum(s.ncells for s in bucket) for bucket in assignment]
    counts = [len(bucket) for bucket in assignment]
    mean = sum(loads) / len(loads)
    return {
        "max_load": float(max(loads)),
        "mean_load": float(mean),
        "imbalance": float(max(loads) / mean) if mean else 0.0,
        "min_blocks": float(min(counts)),
        "max_blocks": float(max(counts)),
    }


def migrate(
    assignment: List[List[BlockSpec]], block_id: int, to_proc: int
) -> Tuple[int, int]:
    """Move one block to another processor (dynamic load balancing).

    Returns ``(from_proc, to_proc)``.  Raises KeyError if the block is
    not assigned anywhere.
    """
    if not 0 <= to_proc < len(assignment):
        raise ValueError(f"no processor {to_proc}")
    for proc, bucket in enumerate(assignment):
        for i, spec in enumerate(bucket):
            if spec.block_id == block_id:
                if proc != to_proc:
                    bucket.pop(i)
                    assignment[to_proc].append(spec)
                    assignment[to_proc].sort(key=lambda s: s.block_id)
                return proc, to_proc
    raise KeyError(f"block {block_id} not assigned to any processor")
