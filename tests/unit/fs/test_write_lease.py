"""The filesystem models' write-slot lease (``fs.write_lease``).

One FIFO resource per model with as many slots as the model has
independent write servers; writers that take it around ``fs.write``
queue outside the model instead of contending inside it, through
``fs.leased``: one lock RPC, the FIFO queue, one hold, given back
whatever happens in it.
"""

import pytest

from repro.des import Environment, Interrupt
from repro.fs import GPFSModel, LocalFSModel, NFSModel, WriteFaultError
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

        def crasher(victim):
            yield env.timeout(1.0)
            victim.interrupt("crash")

        victim = env.process(fs.leased(None, lambda _asked: fs.write(100 * MB)))
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

        def writer():
            if leased:
                yield from fs.leased(None, lambda _asked: fs.write(10 * MB))
            else:
                yield from fs.write(10 * MB)

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


class TestLeased:
    """``fs.leased``: the one way a writer takes the lease."""

    def test_asking_costs_one_lock_rpc_then_the_fifo_queue(self):
        env = Environment()
        fs = NFSModel(env, write_bw=10 * MB, meta_latency=1e-3)
        events = []

        def writer(i):
            def land(t_asked):
                events.append(("granted", i, t_asked, env.now))
                yield from fs.write(10 * MB)

            yield from fs.leased(
                None, land, asked=lambda t_rpc: events.append(("asked", i, t_rpc, env.now))
            )

        env.run(until=env.all_of([env.process(writer(i)) for i in range(2)]))
        assert events[:2] == [("asked", 0, 0.0, 1e-3), ("asked", 1, 0.0, 1e-3)]
        (_, first, asked0, at0), (_, second, asked1, at1) = events[2:]
        assert (first, second) == (0, 1) and asked0 == asked1 == 1e-3
        # The second grant waits for the first write: its latency and 1 s of bytes.
        assert at0 == 1e-3 and at1 == pytest.approx(1e-3 + 1e-3 + 1.0)
        # One lock RPC each; the writes took turns.
        assert fs.metrics.meta_ops == 2 and fs.metrics.peak_write_demand == 1

    def test_a_fault_in_the_hold_gives_the_lease_back(self):
        env = Environment()
        fs = NFSModel(env, meta_latency=0.0)
        granted = []

        def faulty(_asked):
            yield env.timeout(0.5)
            raise WriteFaultError("EIO")

        def second(_asked):
            granted.append(env.now)
            yield env.timeout(0.0)

        def first():
            with pytest.raises(WriteFaultError):
                yield from fs.leased(None, faulty)

        env.run(until=env.all_of([
            env.process(first()), env.process(fs.leased(None, second)),
        ]))
        assert granted == [0.5]
        lease = fs.write_lease()
        assert lease.count == 0 and not lease.queue
