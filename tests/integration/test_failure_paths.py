"""Failure-injection and error-path tests across the stack."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, IncompleteRestoreError, lab_scale_motor, run_genx
from repro.io import PandaServer, RocpandaModule, rocpanda_init
from repro.io.rocpanda.protocol import TAG_CTRL
from repro.roccom import AttributeSpec, Roccom
from repro.vmpi import run_spmd


def launch(nprocs, main, seed=0):
    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed)
    return run_spmd(machine, nprocs, main), machine


class TestDeadlockDetection:
    def test_mutual_recv_deadlock_is_reported(self):
        def main(ctx):
            partner = (ctx.rank + 1) % ctx.world.size
            yield from ctx.world.recv(source=partner, tag=99)

        with pytest.raises(RuntimeError, match="deadlock"):
            launch(2, main)

    def test_single_rank_waiting_forever(self):
        def main(ctx):
            yield from ctx.world.probe(source=0, tag=1)

        with pytest.raises(RuntimeError, match="deadlock"):
            launch(1, main)

    def test_error_message_names_stuck_ranks(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.sleep(1.0)
            else:
                yield from ctx.world.recv(source=0, tag=5)

        with pytest.raises(RuntimeError, match="rank1"):
            launch(2, main)


class TestServerRobustness:
    def test_unexpected_message_type_fails_loudly(self):
        """Garbage on the server's control channel must not be dropped."""

        def main(ctx):
            topo = yield from rocpanda_init(ctx, 1)
            if topo.is_server:
                yield from PandaServer(ctx, topo).run()
                return
            yield from topo.world.send(
                {"not": "a protocol message"}, dest=topo.my_server, tag=TAG_CTRL
            )
            com = Roccom(ctx)
            panda = com.load_module(RocpandaModule(ctx, topo))
            yield from panda.finalize()

        with pytest.raises(TypeError, match="unexpected message"):
            launch(2, main)

    def test_block_without_write_begin_is_protocol_error(self):
        """A data block for an unannounced path must raise ProtocolError,
        not an AttributeError from deep inside the writer."""
        from repro.io import ProtocolError
        from repro.io.base import DataBlock
        from repro.io.rocpanda.protocol import TAG_BLOCK, BlockEnvelope

        def main(ctx):
            topo = yield from rocpanda_init(ctx, 1)
            if topo.is_server:
                yield from PandaServer(ctx, topo).run()
                return
            rogue = DataBlock(
                window="W", block_id=0, nnodes=0, nelems=4,
                arrays={"f": np.zeros(4)}, specs={},
            )
            yield from topo.world.send(
                BlockEnvelope("never_begun", rogue),
                dest=topo.my_server,
                tag=TAG_BLOCK,
            )
            com = Roccom(ctx)
            panda = com.load_module(RocpandaModule(ctx, topo))
            yield from panda.finalize()

        with pytest.raises(ProtocolError, match="WriteBegin"):
            launch(2, main)

    def test_restart_of_missing_prefix_fails(self):
        def main(ctx):
            topo = yield from rocpanda_init(ctx, 1)
            if topo.is_server:
                # The scan of the nonexistent prefix raises inside the
                # server rank; the launcher surfaces it.
                yield from PandaServer(ctx, topo).run()
                return
            com = Roccom(ctx)
            panda = com.load_module(RocpandaModule(ctx, topo))
            w = com.new_window("W")
            w.register_pane(0, 0, 0)
            # The server fails while scanning; the client would block
            # forever, so only issue the request and bail out.
            from repro.io.rocpanda.protocol import RestartRequest

            yield from topo.world.send(
                RestartRequest(prefix="ghost", window="W", block_ids=(0,)),
                dest=topo.my_server,
                tag=TAG_CTRL,
            )

        # The server's exception propagates out of the job run.
        with pytest.raises(FileNotFoundError):
            launch(2, main)


class TestProcessErrorPropagation:
    def test_exception_in_one_rank_surfaces(self):
        def main(ctx):
            yield from ctx.sleep(float(ctx.rank))
            if ctx.rank == 1:
                raise ValueError("solver diverged")

        with pytest.raises(ValueError, match="solver diverged"):
            launch(3, main)

    def test_error_during_collective_surfaces(self):
        def main(ctx):
            if ctx.rank == 0:
                raise RuntimeError("bad root")
            yield from ctx.world.bcast(None, root=0)

        with pytest.raises((RuntimeError,)):
            launch(3, main)


class TestRoccomMisuse:
    def test_write_attribute_of_unknown_window(self):
        from repro.io import RochdfModule

        def main(ctx):
            com = Roccom(ctx)
            com.load_module(RochdfModule(ctx))
            with pytest.raises(KeyError, match="no window"):
                yield from com.call_function(
                    "OUT.write_attribute", "Ghost", None, "x"
                )

        launch(1, main)

    def test_call_of_unregistered_function(self):
        def main(ctx):
            com = Roccom(ctx)
            com.new_window("W")
            with pytest.raises(KeyError):
                yield from com.call_function("W.vanish")

        launch(1, main)


class TestJobTimeout:
    def test_until_deadline_enforced(self):
        from repro.vmpi.launcher import Job

        machine = Machine(make_testbox(), seed=0)

        def main(ctx):
            yield from ctx.sleep(100.0)

        job = Job(machine, 1)
        with pytest.raises(RuntimeError, match="did not finish"):
            job.run(main, until=5.0)


class TestIncompleteRestore:
    """A restart builds no initial condition, so nothing hides an array
    the snapshot lacks: the restore names what it left unset."""

    @pytest.mark.parametrize("io_mode,nservers", [("rochdf", 0), ("rocpanda", 1)])
    def test_a_snapshot_missing_an_attribute_fails_the_restore(
        self, monkeypatch, io_mode, nservers
    ):
        motor = lab_scale_motor(
            scale=0.005, nblocks_fluid=4, nblocks_solid=2, steps=1, snapshot_interval=1
        )
        config = dict(workload=motor, io_mode=io_mode, nservers=nservers)
        call = Roccom.call_function

        def without_temperature(self, qualified, *args, **kwargs):
            if qualified.endswith(".write_attribute") and args[0] == "Rocflo":
                names = self.window("Rocflo").attribute_names()
                args = ("Rocflo", [a for a in names if a != "temperature"], *args[2:])
            return call(self, qualified, *args, **kwargs)

        monkeypatch.setattr(Roccom, "call_function", without_temperature)
        written = run_genx(
            Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=0),
            2 + nservers, GENxConfig(prefix="sub", **config),
        )
        monkeypatch.undo()
        with pytest.raises(IncompleteRestoreError, match="'temperature'") as failed:
            run_genx(
                Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=0,
                        disk=written.machine.disk),
                2 + nservers,
                GENxConfig(prefix="re", steps=0, restart_step=1,
                           restart_prefix="sub", **config),
            )
        assert failed.value.window == "Rocflo"
        assert failed.value.attribute == "temperature"
        assert "pane" in str(failed.value) and "'Rocflo'" in str(failed.value)
