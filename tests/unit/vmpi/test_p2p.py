"""Unit tests for vmpi point-to-point messaging."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.vmpi import ANY_SOURCE, ANY_TAG, Job, MPIError, payload_nbytes, run_spmd


def launch(nprocs, main, seed=0, spec=None):
    machine = Machine(spec or make_testbox(), seed=seed)
    return run_spmd(machine, nprocs, main)


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5

    def test_scalars_small(self):
        assert payload_nbytes(3) == 16
        assert payload_nbytes(None) == 16

    def test_containers_sum_recursively(self):
        flat = payload_nbytes([np.zeros(100)])
        assert flat >= 800

    def test_object_with_nbytes_attr(self):
        class Blob:
            nbytes = 4096

        assert payload_nbytes(Blob()) == 4096

    def test_string(self):
        assert payload_nbytes("hello") == 53


class TestSendRecv:
    def test_basic_roundtrip(self):
        results = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send({"a": 7}, dest=1, tag=11)
            else:
                data, status = yield from comm.recv(source=0, tag=11)
                results["data"] = data
                results["status"] = status

        launch(2, main)
        assert results["data"] == {"a": 7}
        assert results["status"].source == 0
        assert results["status"].tag == 11

    def test_large_array_is_delivered_intact(self):
        payload = np.arange(100000, dtype=np.float64)
        received = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send(payload, dest=1)
            else:
                data, _ = yield from comm.recv(source=0)
                received["data"] = data

        launch(2, main)
        np.testing.assert_array_equal(received["data"], payload)

    def test_large_send_takes_longer_than_small(self):
        times = {}

        def main_factory(nbytes):
            def main(ctx):
                comm = ctx.world
                if ctx.rank == 0:
                    yield from comm.send(np.zeros(nbytes // 8), dest=1)
                else:
                    yield from comm.recv(source=0)
                times[(nbytes, ctx.rank)] = ctx.now

            return main

        r_small = launch(2, main_factory(1 << 10))
        r_big = launch(2, main_factory(1 << 24))
        assert r_big.wall_time > r_small.wall_time

    def test_message_order_preserved_same_tag(self):
        received = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                for i in range(5):
                    yield from comm.send(i, dest=1, tag=7)
            else:
                for _ in range(5):
                    value, _ = yield from comm.recv(source=0, tag=7)
                    received.append(value)

        launch(2, main)
        assert received == [0, 1, 2, 3, 4]

    def test_tag_matching_out_of_order(self):
        received = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send("first", dest=1, tag=1)
                yield from comm.send("second", dest=1, tag=2)
            else:
                value, _ = yield from comm.recv(source=0, tag=2)
                received.append(value)
                value, _ = yield from comm.recv(source=0, tag=1)
                received.append(value)

        launch(2, main)
        assert received == ["second", "first"]

    def test_any_source_any_tag(self):
        received = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank in (0, 1):
                yield from comm.send(f"from-{ctx.rank}", dest=2, tag=ctx.rank + 5)
            else:
                for _ in range(2):
                    value, status = yield from comm.recv(
                        source=ANY_SOURCE, tag=ANY_TAG
                    )
                    received.append((value, status.source))

        launch(3, main)
        assert sorted(received) == [("from-0", 0), ("from-1", 1)]

    def test_rendezvous_blocks_sender_until_recv(self):
        trace = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                # Large message: rendezvous protocol.
                yield from comm.send(np.zeros(1 << 20), dest=1)
                trace["send_done"] = ctx.now
            else:
                yield from ctx.sleep(5.0)
                yield from comm.recv(source=0)
                trace["recv_done"] = ctx.now

        launch(2, main)
        # Sender can only finish after the receiver showed up at t=5.
        assert trace["send_done"] > 5.0

    def test_eager_send_returns_before_recv_posted(self):
        trace = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send(b"x" * 100, dest=1)  # small: eager
                trace["send_done"] = ctx.now
            else:
                yield from ctx.sleep(5.0)
                yield from comm.recv(source=0)

        launch(2, main)
        assert trace["send_done"] < 1.0

    def test_send_bad_rank_raises(self):
        def main(ctx):
            with pytest.raises(MPIError):
                yield from ctx.world.send(1, dest=99)

        launch(2, main)

    def test_self_send_eager(self):
        received = []

        def main(ctx):
            comm = ctx.world
            yield from comm.send("self", dest=0, tag=3)
            value, _ = yield from comm.recv(source=0, tag=3)
            received.append(value)

        launch(1, main)
        assert received == ["self"]


class TestNonBlocking:
    def test_isend_irecv(self):
        received = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                req = comm.isend(np.arange(10), dest=1)
                yield from ctx.compute(1.0)  # overlap
                yield from req.wait()
            else:
                req = comm.irecv(source=0)
                yield from ctx.compute(1.0)
                (data, status) = yield from req.wait()
                received.append(data)

        launch(2, main)
        np.testing.assert_array_equal(received[0], np.arange(10))

    def test_request_test_and_complete(self):
        flags = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from ctx.sleep(1.0)
                yield from comm.send(b"z" * 100, dest=1)
            else:
                req = comm.irecv(source=0)
                flags.append(req.test())
                yield from ctx.sleep(5.0)
                flags.append(req.test())
                yield from req.wait()

        launch(2, main)
        assert flags == [False, True]


class TestProbe:
    def test_probe_does_not_consume(self):
        results = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send(b"payload" * 10, dest=1, tag=9)
            else:
                status = yield from comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
                results.append(("probe", status.source, status.tag))
                value, _ = yield from comm.recv(source=status.source, tag=status.tag)
                results.append(("recv", value))

        launch(2, main)
        assert results[0] == ("probe", 0, 9)
        assert results[1][1] == b"payload" * 10

    def test_iprobe_immediate(self):
        results = []

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from ctx.sleep(2.0)
                yield from comm.send(1, dest=1)
            else:
                results.append(comm.iprobe())  # nothing yet
                yield from ctx.sleep(5.0)
                results.append(comm.iprobe())  # message waiting
                yield from comm.recv(source=0)
                results.append(comm.iprobe())  # consumed

        launch(2, main)
        assert results[0] is None
        assert results[1] is not None and results[1].source == 0
        assert results[2] is None

    def test_probe_blocks_until_message(self):
        times = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from ctx.sleep(3.0)
                yield from comm.send(1, dest=1)
            else:
                yield from comm.probe()
                times["probed"] = ctx.now
                yield from comm.recv(source=0)

        launch(2, main)
        assert times["probed"] >= 3.0


EAGER = b"x" * 100
RNDV = np.zeros(1 << 17)  # 1 MiB: rendezvous


class TestGuardedSendRecv:
    """The timeout-guarded calls, at the vmpi level."""

    def test_eager_guarded_send_is_ok_before_any_receive(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                out["verdict"] = yield from comm.send_with_timeout(
                    EAGER, dest=1, tag=3, timeout=0.5
                )
                out["sent_at"] = ctx.now
            else:
                yield from ctx.sleep(5.0)
                out["data"], _ = yield from comm.recv(source=0, tag=3)

        launch(2, main)
        assert out["verdict"] == "ok"
        assert out["sent_at"] < 0.5
        assert out["data"] == EAGER

    def test_rendezvous_matched_in_time_is_ok_and_cancels_the_guard(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from ctx.sleep(1.0)  # rank 1 is parked in its recv
                depth = ctx.env.queue_depth()
                out["verdict"] = yield from comm.send_with_timeout(
                    RNDV, dest=1, tag=3, timeout=100.0
                )
                yield from ctx.sleep(1.0)  # rank 1 has returned
                out["depth"] = (depth, ctx.env.queue_depth())
            else:
                out["data"], _ = yield from comm.recv(source=0, tag=3)

        result = launch(2, main)
        assert out["verdict"] == "ok"
        np.testing.assert_array_equal(out["data"], RNDV)
        # The guard left with the send: nothing of it still queued, and
        # the job did not run on to the guard's deadline.
        assert out["depth"][1] == out["depth"][0]
        assert result.wall_time < 10.0

    def test_unmatched_rendezvous_is_retracted_at_the_deadline(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                out["verdict"] = yield from comm.send_with_timeout(
                    RNDV, dest=1, tag=3, timeout=0.5
                )
                out["at"] = ctx.now
            else:
                yield from ctx.sleep(2.0)  # never posts a receive
                out["pending"] = comm.iprobe(source=0)

        launch(2, main)
        assert out["verdict"] == "retracted"
        assert 0.5 <= out["at"] < 0.6
        assert out["pending"] is None  # the announcement is withdrawn

    def test_dropped_announcement_reads_as_retracted(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                out["verdict"] = yield from comm.send_with_timeout(
                    RNDV, dest=1, tag=3, timeout=0.5
                )
                out["at"] = ctx.now
            else:
                out["got"] = yield from comm.recv_with_timeout(
                    source=0, tag=3, timeout=2.0
                )

        machine = Machine(make_testbox(), seed=0)
        job = Job(machine, 2)
        job.network.fault_filter = lambda src, dst, tag, nbytes: ("drop", None)
        job.run(main)
        assert out["verdict"] == "retracted"
        assert 0.5 <= out["at"] < 0.6
        assert out["got"] is None  # the receiver never saw it

    def test_receiver_mid_pull_at_the_deadline_is_stuck(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                out["verdict"] = yield from comm.send_with_timeout(
                    RNDV, dest=1, tag=3, timeout=0.001  # the pull takes ~3 ms
                )
                out["at"] = ctx.now
            else:
                data, _ = yield from comm.recv(source=0, tag=3)
                out["recv_done"] = ctx.now
                out["intact"] = data is RNDV

        launch(2, main)
        assert out["verdict"] == "stuck"
        assert out["at"] < out["recv_done"]
        assert out["intact"]  # the pull still completes

    def test_timed_out_recv_returns_none_and_steals_nothing(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from ctx.sleep(1.0)
                yield from comm.send("late", dest=1, tag=3)
            else:
                out["first"] = yield from comm.recv_with_timeout(
                    source=0, tag=3, timeout=0.5
                )
                out["timed_out_at"] = ctx.now
                out["second"], _ = yield from comm.recv(source=0, tag=3)

        launch(2, main)
        assert out["first"] is None
        assert 0.5 <= out["timed_out_at"] < 0.6
        assert out["second"] == "late"

    def test_recv_with_timeout_returns_a_queued_or_timely_message(self):
        out = {}

        def main(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send("queued", dest=1, tag=3)
                yield from ctx.sleep(1.0)
                yield from comm.send(RNDV, dest=1, tag=4)
            else:
                yield from ctx.sleep(0.5)
                out["queued"] = yield from comm.recv_with_timeout(
                    source=0, tag=3, timeout=0.25
                )
                out["timely"] = yield from comm.recv_with_timeout(
                    source=0, tag=4, timeout=5.0
                )

        result = launch(2, main)
        payload, status = out["queued"]
        assert (payload, status.source, status.tag) == ("queued", 0, 3)
        np.testing.assert_array_equal(out["timely"][0], RNDV)
        assert result.wall_time < 2.0  # the 5 s guard went with the match

    @pytest.mark.parametrize("payload", [EAGER, RNDV], ids=["eager", "rendezvous"])
    def test_guarded_and_plain_send_finish_at_the_same_instant(self, payload):
        def run(guarded):
            times = {}

            def main(ctx):
                comm = ctx.world
                if ctx.rank == 0:
                    if guarded:
                        yield from comm.send_with_timeout(
                            payload, dest=1, tag=3, timeout=50.0
                        )
                    else:
                        yield from comm.send(payload, dest=1, tag=3)
                    times["send"] = ctx.now
                else:
                    yield from ctx.sleep(0.25)
                    yield from comm.recv(source=0, tag=3)
                    times["recv"] = ctx.now

            times["wall"] = launch(2, main).wall_time
            return times

        assert run(guarded=True) == run(guarded=False)
