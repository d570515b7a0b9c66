"""Unit tests for filesystem timing models."""

import pytest

from repro.des import Environment, Interrupt
from repro.fs import GPFSModel, LocalFSModel, NFSModel
from repro.util import MB


def drive(env, gen):
    """Run a single generator as a process and return elapsed time."""
    start = env.now

    def proc():
        yield from gen

    p = env.process(proc())
    env.run(until=p)
    return env.now - start


class TestNFS:
    def test_single_write_time(self):
        env = Environment()
        fs = NFSModel(env, write_bw=30 * MB, meta_latency=0.0)
        elapsed = drive(env, fs.write(30 * MB))
        assert elapsed == pytest.approx(1.0)

    def test_writes_serialize_through_one_server(self):
        env = Environment()
        fs = NFSModel(env, write_bw=10 * MB, meta_latency=0.0, write_penalty=0.0)

        def writer():
            yield from fs.write(10 * MB)

        procs = [env.process(writer()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        # 4 x 1s writes serialized => 4s aggregate.
        assert env.now == pytest.approx(4.0)

    def test_concurrent_write_demand_degrades_bandwidth(self):
        env = Environment()
        fs = NFSModel(
            env, write_bw=10 * MB, meta_latency=0.0, write_penalty=0.5,
            max_penalty_factor=100.0,
        )

        def writer():
            yield from fs.write(10 * MB)

        procs = [env.process(writer()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        # Demand 4 while serving: each service slower than 1s.
        assert env.now > 4.0

    def test_penalty_factor_is_capped(self):
        env = Environment()
        fs = NFSModel(
            env, write_bw=10 * MB, meta_latency=0.0, write_penalty=10.0,
            max_penalty_factor=2.0,
        )

        def writer():
            yield from fs.write(10 * MB)

        procs = [env.process(writer()) for _ in range(3)]
        env.run(until=env.all_of(procs))
        # First service sees demand 3 but factor capped at 2; demand drops
        # as writers finish: 2s + 2s + 1s = 5s upper bound.
        assert env.now <= 6.0

    def test_reads_run_concurrently(self):
        env = Environment()
        fs = NFSModel(env, read_bw=10 * MB, read_slots=4, meta_latency=0.0)

        def reader():
            yield from fs.read(10 * MB)

        procs = [env.process(reader()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        # 4 concurrent slots: all finish in ~1s.
        assert env.now == pytest.approx(1.0)

    def test_reads_beyond_slots_queue(self):
        env = Environment()
        fs = NFSModel(env, read_bw=10 * MB, read_slots=2, meta_latency=0.0)

        def reader():
            yield from fs.read(10 * MB)

        procs = [env.process(reader()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(2.0)

    def test_metrics_accumulate(self):
        env = Environment()
        fs = NFSModel(env)
        drive(env, fs.write(1 * MB))
        drive(env, fs.read(2 * MB))
        drive(env, fs.meta_op())
        assert fs.metrics.bytes_written == 1 * MB
        assert fs.metrics.bytes_read == 2 * MB
        assert fs.metrics.write_ops == 1
        assert fs.metrics.read_ops == 1
        assert fs.metrics.meta_ops == 1
        assert fs.metrics.write_busy_time > 0

    def test_negative_size_rejected(self):
        env = Environment()
        fs = NFSModel(env)
        with pytest.raises(ValueError):
            drive(env, fs.write(-1))


class TestGPFS:
    def test_stripes_across_servers(self):
        env = Environment()
        fs = GPFSModel(env, nservers=2, server_bw=10 * MB, meta_latency=0.0)

        def writer():
            yield from fs.write(10 * MB)

        procs = [env.process(writer()) for _ in range(2)]
        env.run(until=env.all_of(procs))
        # Two writes land on different servers: parallel, ~1s.
        assert env.now == pytest.approx(1.0)

    def test_queueing_when_servers_busy(self):
        env = Environment()
        fs = GPFSModel(env, nservers=2, server_bw=10 * MB, meta_latency=0.0)

        def writer():
            yield from fs.write(10 * MB)

        procs = [env.process(writer()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        # 4 writes on 2 servers => 2 rounds => 2s.
        assert env.now == pytest.approx(2.0)

    def test_invalid_nservers(self):
        env = Environment()
        with pytest.raises(ValueError):
            GPFSModel(env, nservers=0)

    def test_read_path(self):
        env = Environment()
        fs = GPFSModel(env, nservers=1, server_bw=10 * MB, meta_latency=0.0)
        elapsed = drive(env, fs.read(20 * MB))
        assert elapsed == pytest.approx(2.0)


@pytest.mark.parametrize(
    "make, slot",
    [
        (lambda env: NFSModel(env, read_slots=1), lambda fs: fs._read_server),
        (lambda env: GPFSModel(env, nservers=1), lambda fs: fs._servers[0]),
        (lambda env: LocalFSModel(env), lambda fs: fs._node_disk("n0")),
    ],
    ids=["nfs", "gpfs", "local"],
)
def test_an_interrupted_read_keeps_no_slot(make, slot):
    """A crash withdraws a queued read and gives a held slot back."""
    env = Environment()
    fs = make(env)

    def reader():
        try:
            yield from fs.read(10 * MB, node="n0")
        except Interrupt:
            pass

    holder, queued = env.process(reader()), env.process(reader())

    def crash():
        yield env.timeout(0.01)
        queued.interrupt("crash")
        yield env.timeout(0.01)
        holder.interrupt("crash")

    env.process(crash())
    env.run()
    assert slot(fs).count == 0 and not slot(fs).queue


class TestLocalFS:
    def test_per_node_independence(self):
        env = Environment()
        fs = LocalFSModel(env, bw=10 * MB, meta_latency=0.0)

        def writer(node):
            yield from fs.write(10 * MB, node=node)

        procs = [env.process(writer(n)) for n in ("node0", "node1")]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(1.0)

    def test_same_node_serializes(self):
        env = Environment()
        fs = LocalFSModel(env, bw=10 * MB, meta_latency=0.0)

        def writer():
            yield from fs.write(10 * MB, node="node0")

        procs = [env.process(writer()) for _ in range(2)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(2.0)
