"""Read-fault semantics of the virtual filesystem and SHDF's sieved read.

The read mirror of the write-fault contract: a checked read consults
the disk's ``read_fault_hook`` *before* returning any byte, structural
(unchecked) reads never fault, and a faulted merged read
(:func:`repro.shdf.file.read_sieved`) hands out nothing, so a retry
replays — and re-charges — the whole thing.
"""

import pytest

from repro.cluster import Machine, testbox as make_testbox
from repro.des import Environment
from repro.faults import FaultPlan, TransientEIO
from repro.fs import NFSModel, TransientIOError, VirtualDisk
from repro.shdf.file import merge_extents, read_sieved


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


class TestReadFaultHook:
    def test_read_checked_raises_plain_read_does_not(self):
        disk = VirtualDisk()
        f = disk.create("a")
        f.append(b"payload")

        def hook(path, nbytes):
            raise TransientIOError(f"injected ({path})")

        disk.read_fault_hook = hook
        with pytest.raises(TransientIOError):
            f.read_checked(0, 4)
        # Structural parses (torn-file scans, recovery) stay unchecked.
        assert f.read() == b"payload"
        disk.read_fault_hook = None
        assert f.read_checked(0, 4) == b"payl"

    def test_transient_eio_op_field_validated(self):
        assert TransientEIO(op="read").op == "read"
        assert TransientEIO().op == "write"
        with pytest.raises(ValueError):
            TransientEIO(op="chmod")

    def test_injector_installs_read_hook_with_budget(self):
        machine = Machine(make_testbox(nnodes=1), seed=7)
        f = machine.disk.create("ck_s0000")
        f.append(b"x" * 64)
        plan = FaultPlan((TransientEIO(op="read", path_prefix="ck", count=2),))
        injector = machine.install_faults(plan)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                f.read_checked(0, 8)
        # Budget exhausted: third attempt succeeds; writes never faulted.
        assert f.read_checked(0, 8) == b"x" * 8
        f.append(b"y")
        # The per-spec budget is fully drained.
        assert [cell[0] for _spec, cell in injector._read_eio_budgets] == [0]

    def test_read_eio_does_not_arm_write_hook(self):
        machine = Machine(make_testbox(nnodes=1), seed=7)
        plan = FaultPlan((TransientEIO(op="read", count=1),))
        machine.install_faults(plan)
        assert machine.disk.fault_hook is None
        assert machine.disk.read_fault_hook is not None


class TestReadCoalescerUnderFaults:
    def test_raise_before_mutate_and_replay_recharges(self):
        """A fault mid-schedule hands out no byte; the retry replays
        every merged run and re-charges full virtual time."""
        env = Environment()
        fs = NFSModel(env)
        f = fs.disk.create("f")
        f.append(bytes(range(200)))
        fails = [1]

        def hook(path, nbytes):
            if fails[0] > 0:
                fails[0] -= 1
                raise TransientIOError(f"injected ({path})")

        fs.disk.read_fault_hook = hook
        extents = [(0, 10), (100, 10)]  # two disjoint runs
        assert merge_extents(extents) == [(0, 10), (100, 10)]

        def attempt():
            try:
                return (yield from read_sieved(fs, f, extents))
            except TransientIOError:
                return None

        assert drive(env, attempt()) is None
        first_charge = env.now
        chunks = drive(env, attempt())
        assert chunks == [bytes(range(10)), bytes(range(100, 110))]
        # The replay re-charged at least the faulted run's time again.
        assert env.now > first_charge
        # 1 op charged before the first run's checked read faulted + 2
        # on the successful replay.
        assert fs.metrics.read_ops == 3
