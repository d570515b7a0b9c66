"""The filesystem models' write-slot lease (``fs.write_lease``).

One FIFO resource per model with as many slots as the model has
independent write servers; writers that take it around ``fs.write``
queue outside the model instead of contending inside it.
"""

import pytest

from repro.des import Environment, Interrupt
from repro.fs import GPFSModel, LocalFSModel, NFSModel
from repro.fs.tiers import BurstBufferTier
from repro.util import MB


def _models(env):
    nfs = NFSModel(env)
    return {
        "nfs": nfs,
        "gpfs": GPFSModel(env, nservers=3, slots_per_server=2),
        "local": LocalFSModel(env),
        "tier": BurstBufferTier(env, nfs),
    }


class TestCapacity:
    def test_one_slot_per_independent_write_server(self):
        models = _models(Environment())
        assert models["nfs"].write_lease().capacity == 1
        assert models["gpfs"].write_lease().capacity == 3 * 2
        assert models["local"].write_lease("n0").capacity == 1
        assert models["tier"].write_lease().capacity == float("inf")

    def test_shared_models_hand_every_node_the_same_lease(self):
        models = _models(Environment())
        for name in ("nfs", "gpfs", "tier"):
            assert models[name].write_lease("n0") is models[name].write_lease("n1")

    def test_local_disks_lease_per_node(self):
        fs = LocalFSModel(Environment())
        assert fs.write_lease("n0") is fs.write_lease("n0")
        assert fs.write_lease("n0") is not fs.write_lease("n1")
        # ... and the lease is not the disk: holding it, a write proceeds.
        assert fs.write_lease("n0") is not fs._node_disk("n0")

    def test_the_lease_is_not_the_service_slot(self):
        # A holder must be able to call fs.write without deadlocking.
        env = Environment()
        fs = NFSModel(env, write_bw=10 * MB, meta_latency=0.0)

        def holder():
            lease = fs.write_lease()
            req = lease.request()
            yield req
            yield from fs.write(10 * MB)
            lease.release(req)

        env.run(until=env.process(holder()))
        assert env.now == pytest.approx(1.0)

    def test_tier_front_never_blocks(self):
        env = Environment()
        lease = BurstBufferTier(env, NFSModel(env)).write_lease()
        requests = [lease.request() for _ in range(100)]
        assert all(r.triggered for r in requests)
        assert not lease.queue


class TestQueueing:
    def test_grants_are_fifo(self):
        env = Environment()
        lease = NFSModel(env).write_lease()
        order = []

        def writer(i):
            yield env.timeout(i * 1e-3)  # ask in index order
            req = lease.request()
            yield req
            order.append(i)
            yield env.timeout(1.0)
            lease.release(req)

        procs = [env.process(writer(i)) for i in range(5)]
        env.run(until=env.all_of(procs))
        assert order == [0, 1, 2, 3, 4]

    def test_cancel_while_queued_lets_the_next_one_through(self):
        env = Environment()
        lease = NFSModel(env).write_lease()
        first, second, third = (lease.request() for _ in range(3))
        assert first.triggered and not second.triggered
        second.cancel()
        lease.release(first)
        assert third.triggered and not second.triggered
        assert lease.users == [third] and not lease.queue

    def test_interrupted_holder_releases_through_finally(self):
        env = Environment()
        fs = NFSModel(env, write_bw=1 * MB)
        lease = fs.write_lease()

        def holder():
            req = lease.request()
            try:
                yield req
                yield from fs.write(100 * MB)
            finally:
                if req.triggered:
                    lease.release(req)
                else:
                    req.cancel()

        def crasher(victim):
            yield env.timeout(1.0)
            victim.interrupt("crash")

        victim = env.process(holder())
        env.process(crasher(victim))
        with pytest.raises(Interrupt):
            env.run(until=victim)
        assert lease.count == 0 and not lease.queue
        # The interrupted write left the model itself clean, too.
        assert fs._write_demand == 0 and fs._write_server.count == 0
        assert lease.request().triggered


class TestPeakWriteDemand:
    def _run(self, leased):
        env = Environment()
        fs = NFSModel(env, write_bw=10 * MB, meta_latency=0.0)
        lease = fs.write_lease()

        def writer():
            req = lease.request() if leased else None
            if leased:
                yield req
            yield from fs.write(10 * MB)
            if leased:
                lease.release(req)

        procs = [env.process(writer()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        return env.now, fs.metrics

    def test_unleased_writers_contend_inside_the_model(self):
        now, metrics = self._run(leased=False)
        assert metrics.peak_write_demand == 4
        assert now > 4.0  # the NFS write penalty

    def test_leased_writers_take_turns(self):
        now, metrics = self._run(leased=True)
        assert metrics.peak_write_demand == 1
        assert now == pytest.approx(4.0)
        assert metrics.write_ops == 4 and metrics.bytes_written == 40 * MB
