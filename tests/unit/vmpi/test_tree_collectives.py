"""Placement of the binomial-tree / pairwise collectives.

Every result is checked against what the collective is *defined* to
return — ``[payloads[r] for r in range(size)]`` at the root, item ``r``
at rank ``r``, the comm-rank-order fold — for every size, root, and
(non-contiguous) subgroup.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.vmpi import run_spmd


def launch(nprocs, main, seed=0):
    machine = Machine(make_testbox(nnodes=8, cpus_per_node=8), seed=seed)
    return run_spmd(machine, nprocs, main)


def _tree(n):
    """Test id: the tree at this many ranks (or rooted here)."""
    return f"tree-{n}"


class TestBothAlgosMatchSpec:
    """Tree (gather/scatter/reduce) and pairwise (alltoall) schedules
    both produce the specified result."""

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("root_raw", [0, 1, 4], ids=_tree)
    def test_gather_rank_ordered_any_root(self, size, root_raw):
        root = root_raw % size
        out = {}

        def main(ctx):
            out[ctx.rank] = yield from ctx.world.gather(
                {"r": ctx.rank}, root=root
            )

        launch(size, main)
        assert out[root] == [{"r": r} for r in range(size)]
        for r in range(size):
            if r != root:
                assert out[r] is None

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("root_raw", [0, 2, 7], ids=_tree)
    def test_scatter_by_rank_any_root(self, size, root_raw):
        root = root_raw % size
        out = {}

        def main(ctx):
            items = (
                [f"item{i}" for i in range(size)] if ctx.rank == root else None
            )
            out[ctx.rank] = yield from ctx.world.scatter(items, root=root)

        launch(size, main)
        assert out == {r: f"item{r}" for r in range(size)}

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13], ids=_tree)
    def test_alltoall_transpose(self, size):
        out = {}

        def main(ctx):
            items = [(ctx.rank, d) for d in range(size)]
            out[ctx.rank] = yield from ctx.world.alltoall(items)

        launch(size, main)
        for r in range(size):
            assert out[r] == [(s, r) for s in range(size)]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13], ids=_tree)
    def test_allgather(self, size):
        out = {}

        def main(ctx):
            out[ctx.rank] = yield from ctx.world.allgather(ctx.rank * 11)

        launch(size, main)
        expected = [r * 11 for r in range(size)]
        assert all(v == expected for v in out.values())

    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_reduce_noncommutative_is_rank_order_fold(self, size, root):
        """Gathered values fold in comm-rank order whatever the root, so
        even a non-commutative op gives the left-fold result."""
        op = lambda a, b: a + b  # string concat: order-sensitive
        out = {}

        def main(ctx):
            out[ctx.rank] = yield from ctx.world.reduce(
                f"<{ctx.rank}>", op=op, root=root
            )

        launch(size, main)
        assert out[root] == "".join(f"<{r}>" for r in range(size))
        assert all(out[r] is None for r in range(size) if r != root)

    @pytest.mark.parametrize("size", [3, 5], ids=_tree)
    def test_large_numpy_payload_rendezvous(self, size):
        """Payloads past the eager threshold ride rendezvous through
        the tree hops without corruption."""
        arrs = {r: np.full(8192, float(r)) for r in range(size)}
        out = {}

        def main(ctx):
            gathered = yield from ctx.world.gather(arrs[ctx.rank], root=2)
            if gathered is not None:
                out["gathered"] = gathered

        launch(size, main)
        for r in range(size):
            np.testing.assert_array_equal(out["gathered"][r], arrs[r])


class TestNonContiguousSplitGroups:
    """Tree collectives on subcommunicators whose world ranks are a
    scattered, non-contiguous subset (S3)."""

    @pytest.mark.parametrize("root", [0, 2], ids=_tree)
    def test_gather_on_scattered_group(self, root):
        # colors: group A = world ranks {0, 3, 5, 6}, B = {1, 2, 4, 7}.
        colors = {0: 0, 3: 0, 5: 0, 6: 0, 1: 1, 2: 1, 4: 1, 7: 1}
        groups = ([0, 3, 5, 6], [1, 2, 4, 7])
        out = {}

        def main(ctx):
            sub = yield from ctx.world.split(colors[ctx.rank])
            gathered = yield from sub.gather(ctx.rank, root=root)
            out[ctx.rank] = (sub.rank, gathered)

        launch(8, main)
        for group in groups:
            for sub_rank, world_rank in enumerate(group):
                assert out[world_rank] == (
                    sub_rank, group if sub_rank == root else None
                )

    def test_full_suite_on_scattered_group(self):
        colors = {0: 0, 3: 0, 5: 0, 6: 0, 1: 1, 2: 1, 4: 1, 7: 1}
        groups = {0: [0, 3, 5, 6], 1: [1, 2, 4, 7]}
        out = {}

        def main(ctx):
            sub = yield from ctx.world.split(colors[ctx.rank])
            g = yield from sub.gather(ctx.rank * 3, root=1)
            b = yield from sub.bcast(
                ("root2", ctx.rank) if sub.rank == 2 else None, root=2
            )
            ag = yield from sub.allgather(ctx.rank)
            a2a = yield from sub.alltoall(
                [f"{sub.rank}->{d}" for d in range(sub.size)]
            )
            out[ctx.rank] = (g, b, ag, a2a)

        launch(8, main)
        for world_rank, (g, b, ag, a2a) in out.items():
            group = groups[colors[world_rank]]
            me = group.index(world_rank)
            assert g == ([r * 3 for r in group] if me == 1 else None)
            assert b == ("root2", group[2])
            assert ag == group
            assert a2a == [f"{s}->{me}" for s in range(4)]

    def test_nonzero_root_on_scattered_group(self):
        colors = {0: None, 1: 0, 2: None, 3: 0, 4: 0, 5: None, 6: 0}
        out = {}

        def main(ctx):
            sub = yield from ctx.world.split(colors[ctx.rank])
            if sub is None:
                return
            items = (
                [r * 2 for r in range(sub.size)] if sub.rank == 3 else None
            )
            got = yield from sub.scatter(items, root=3)
            out[ctx.rank] = (sub.rank, got)

        launch(7, main)
        # group = world ranks {1, 3, 4, 6} -> sub ranks 0..3.
        assert out == {1: (0, 0), 3: (1, 2), 4: (2, 4), 6: (3, 6)}
