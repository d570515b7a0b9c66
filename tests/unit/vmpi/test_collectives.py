"""Unit tests for vmpi collectives and communicator management."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.vmpi import MPIError, run_spmd


def launch(nprocs, main, seed=0, nnodes=8, cpus=8):
    machine = Machine(make_testbox(nnodes=nnodes, cpus_per_node=cpus), seed=seed)
    return run_spmd(machine, nprocs, main)


class TestBcast:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
    def test_all_ranks_receive(self, size):
        received = {}

        def main(ctx):
            obj = {"payload": 42} if ctx.rank == 0 else None
            result = yield from ctx.world.bcast(obj, root=0)
            received[ctx.rank] = result

        launch(size, main)
        assert all(received[r] == {"payload": 42} for r in range(size))

    def test_nonzero_root(self):
        received = {}

        def main(ctx):
            obj = "from-2" if ctx.rank == 2 else None
            result = yield from ctx.world.bcast(obj, root=2)
            received[ctx.rank] = result

        launch(5, main)
        assert all(v == "from-2" for v in received.values())

    def test_numpy_payload(self):
        arr = np.arange(1000.0)
        received = {}

        def main(ctx):
            obj = arr if ctx.rank == 0 else None
            result = yield from ctx.world.bcast(obj)
            received[ctx.rank] = result

        launch(4, main)
        for r in range(4):
            np.testing.assert_array_equal(received[r], arr)

    def test_bad_root(self):
        def main(ctx):
            with pytest.raises(MPIError):
                yield from ctx.world.bcast(1, root=10)

        launch(2, main)


class TestGatherScatter:
    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_gather_collects_by_rank(self, size):
        out = {}

        def main(ctx):
            result = yield from ctx.world.gather(ctx.rank * 10, root=0)
            out[ctx.rank] = result

        launch(size, main)
        assert out[0] == [r * 10 for r in range(size)]
        for r in range(1, size):
            assert out[r] is None

    def test_scatter_distributes_by_rank(self):
        out = {}

        def main(ctx):
            items = [f"item{i}" for i in range(4)] if ctx.rank == 0 else None
            result = yield from ctx.world.scatter(items, root=0)
            out[ctx.rank] = result

        launch(4, main)
        assert out == {r: f"item{r}" for r in range(4)}

    def test_scatter_wrong_length_raises(self):
        def main(ctx):
            if ctx.rank == 0:
                with pytest.raises(MPIError):
                    yield from ctx.world.scatter([1, 2, 3], root=0)
            else:
                yield from ctx.sleep(0)

        launch(4, main)

    def test_gather_nonzero_root(self):
        out = {}

        def main(ctx):
            result = yield from ctx.world.gather(ctx.rank, root=1)
            out[ctx.rank] = result

        launch(3, main)
        assert out[1] == [0, 1, 2]


class TestReductions:
    def test_allgather(self):
        out = {}

        def main(ctx):
            result = yield from ctx.world.allgather(ctx.rank**2)
            out[ctx.rank] = result

        launch(4, main)
        for r in range(4):
            assert out[r] == [0, 1, 4, 9]

    def test_reduce_sum_default(self):
        out = {}

        def main(ctx):
            result = yield from ctx.world.reduce(ctx.rank + 1, root=0)
            out[ctx.rank] = result

        launch(4, main)
        assert out[0] == 10
        assert out[1] is None

    def test_reduce_custom_op(self):
        out = {}

        def main(ctx):
            result = yield from ctx.world.reduce(ctx.rank, op=max, root=0)
            out[ctx.rank] = result

        launch(5, main)
        assert out[0] == 4

    def test_allreduce(self):
        out = {}

        def main(ctx):
            result = yield from ctx.world.allreduce(1)
            out[ctx.rank] = result

        launch(6, main)
        assert all(v == 6 for v in out.values())

    def test_alltoall(self):
        out = {}

        def main(ctx):
            items = [f"{ctx.rank}->{d}" for d in range(ctx.world.size)]
            result = yield from ctx.world.alltoall(items)
            out[ctx.rank] = result

        launch(3, main)
        for r in range(3):
            assert out[r] == [f"{s}->{r}" for s in range(3)]

    def test_alltoall_wrong_length(self):
        def main(ctx):
            with pytest.raises(MPIError):
                yield from ctx.world.alltoall([1])

        launch(3, main)


class TestBarrier:
    def test_barrier_synchronizes(self):
        times = {}

        def main(ctx):
            yield from ctx.sleep(float(ctx.rank))
            yield from ctx.world.barrier()
            times[ctx.rank] = ctx.now

        launch(4, main)
        # Everyone leaves at or after the slowest arrival (t=3).
        assert all(t >= 3.0 for t in times.values())

    def test_consecutive_collectives_stay_aligned(self):
        out = {}

        def main(ctx):
            a = yield from ctx.world.allreduce(1)
            yield from ctx.world.barrier()
            b = yield from ctx.world.allgather(ctx.rank)
            out[ctx.rank] = (a, b)

        launch(3, main)
        for r in range(3):
            assert out[r] == (3, [0, 1, 2])


class TestSplit:
    def test_split_into_two_groups(self):
        out = {}

        def main(ctx):
            color = ctx.rank % 2
            sub = yield from ctx.world.split(color)
            members = yield from sub.allgather(ctx.rank)
            out[ctx.rank] = (sub.size, sub.rank, members)

        launch(6, main)
        assert out[0] == (3, 0, [0, 2, 4])
        assert out[1] == (3, 0, [1, 3, 5])
        assert out[4] == (3, 2, [0, 2, 4])

    def test_split_with_none_color(self):
        out = {}

        def main(ctx):
            color = 0 if ctx.rank < 2 else None
            sub = yield from ctx.world.split(color)
            if sub is not None:
                yield from sub.barrier()
            out[ctx.rank] = sub

        launch(4, main)
        assert out[2] is None and out[3] is None
        assert out[0] is not None and out[0].size == 2

    def test_split_key_reorders(self):
        out = {}

        def main(ctx):
            # Reverse order via key.
            sub = yield from ctx.world.split(0, key=-ctx.rank)
            out[ctx.rank] = sub.rank

        launch(3, main)
        assert out == {0: 2, 1: 1, 2: 0}

    def test_rocpanda_style_split(self):
        """The client/server split Rocpanda init performs (§4.1)."""
        out = {}

        def main(ctx):
            nprocs = ctx.world.size
            nservers = nprocs // 4
            stride = nprocs // nservers
            is_server = ctx.rank % stride == 0
            sub = yield from ctx.world.split(1 if is_server else 0)
            out[ctx.rank] = ("server" if is_server else "client", sub.size)

        launch(8, main)
        servers = [r for r, (kind, _) in out.items() if kind == "server"]
        assert servers == [0, 4]
        assert out[0][1] == 2  # server comm size
        assert out[1][1] == 6  # client comm size

    @pytest.mark.parametrize("size", [5, 13, 24])
    def test_scatter_passes_each_bundle_its_payload_size(self, size, monkeypatch):
        """Split's scatter sizes every item once and hands ``_send`` the
        bundle's size: it must be what payload_nbytes makes of the
        bundle, or virtual time would move."""
        from repro.vmpi import Comm
        from repro.vmpi.datatypes import payload_nbytes

        sent = []
        send = Comm._send

        def spy(self, obj, dest, tag=0, nbytes=None, **kw):
            if nbytes is not None:
                sent.append((nbytes, payload_nbytes(obj)))
            return send(self, obj, dest, tag, nbytes, **kw)

        monkeypatch.setattr(Comm, "_send", spy)

        def main(ctx):
            color = None if ctx.rank % 7 == 6 else ctx.rank % 3
            sub = yield from ctx.world.split(color, key=-ctx.rank)
            yield from ctx.world.scatter(
                [(r, [r] * r, np.zeros(r)) for r in range(size)] if ctx.rank == 0 else None
            )
            return None if sub is None else sub.size

        launch(size, main)
        assert sent and all(passed == sized for passed, sized in sent)

    def test_shared_sizing_equals_payload_nbytes(self):
        from collections import namedtuple

        from repro.vmpi.datatypes import payload_nbytes, shared_payload_nbytes

        group = tuple(range(40))
        Plan = namedtuple("Plan", "comm nbytes")
        payloads = [
            (3, group, 1), [(0, (7, group, 0)), (1, None)], Plan(1, 99),
            ("abc", {"k": group}, np.zeros(3), b"xy"), (), group,
        ]
        memo = {}
        for obj in payloads * 2:
            assert shared_payload_nbytes(obj, memo) == payload_nbytes(obj)

    def test_dup_gives_independent_message_space(self):
        out = {}

        def main(ctx):
            dup = yield from ctx.world.dup()
            if ctx.rank == 0:
                yield from ctx.world.send("world", dest=1, tag=5)
                yield from dup.send("dup", dest=1, tag=5)
            elif ctx.rank == 1:
                dup_msg, _ = yield from dup.recv(source=0, tag=5)
                world_msg, _ = yield from ctx.world.recv(source=0, tag=5)
                out["msgs"] = (dup_msg, world_msg)
            else:
                yield from ctx.sleep(0)

        launch(3, main)
        assert out["msgs"] == ("dup", "world")


class TestJobMechanics:
    def test_returns_collected_per_rank(self):
        def main(ctx):
            yield from ctx.sleep(0)
            return ctx.rank * 2

        result = launch(4, main)
        assert result.returns == [0, 2, 4, 6]

    def test_compute_times_tracked(self):
        def main(ctx):
            yield from ctx.compute(2.0)

        result = launch(3, main)
        assert all(t == pytest.approx(2.0) for t in result.compute_times)
        assert result.max_compute_time == pytest.approx(2.0)

    def test_wall_time_reported(self):
        def main(ctx):
            yield from ctx.sleep(7.5)

        result = launch(2, main)
        assert result.wall_time == pytest.approx(7.5)

    def test_determinism_same_seed(self):
        def main(ctx):
            yield from ctx.world.barrier()
            yield from ctx.compute(1.0)
            data = yield from ctx.world.allgather(ctx.rank)
            return (ctx.now, tuple(data))

        r1 = launch(4, main, seed=5)
        r2 = launch(4, main, seed=5)
        assert r1.returns == r2.returns
        assert r1.wall_time == r2.wall_time

    def test_rank_rngs_are_independent_streams(self):
        def main(ctx):
            yield from ctx.sleep(0)
            return float(ctx.rng.random())

        result = launch(4, main)
        assert len(set(result.returns)) == 4
