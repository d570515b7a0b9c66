"""Unit tests for fault plans and the live injector."""

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.des import Interrupt
from repro.faults import (
    DiskFull,
    FaultPlan,
    MessageFault,
    ServerCrash,
    Straggler,
    TransientEIO,
)
from repro.fs import TransientIOError
from repro.vmpi import run_spmd


class TestFaultPlan:
    def test_of_type_filters(self):
        plan = FaultPlan(
            (
                ServerCrash(rank=1, at_time=2.0),
                TransientEIO(count=3),
                ServerCrash(rank=2, at_time=4.0),
            )
        )
        assert len(plan) == 3
        assert [f.rank for f in plan.of_type(ServerCrash)] == [1, 2]
        assert len(plan.of_type(TransientEIO)) == 1
        assert plan.of_type(DiskFull) == ()

    def test_plan_is_immutable_and_iterable(self):
        plan = FaultPlan([TransientEIO()])  # list coerced to tuple
        assert isinstance(plan.faults, tuple)
        assert list(plan) == [TransientEIO()]
        with pytest.raises(AttributeError):
            plan.faults = ()

    def test_message_fault_kind_validated(self):
        with pytest.raises(ValueError):
            MessageFault("corrupt")
        for kind in ("drop", "duplicate", "delay"):
            MessageFault(kind)


def _machine(plan=None, seed=0):
    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed)
    if plan is not None:
        machine.install_faults(plan)
    return machine


class TestInjectorDiskFaults:
    def test_transient_eio_budget(self):
        machine = _machine(FaultPlan((TransientEIO(count=2),)))
        f = machine.disk.create("ck_x")
        for _ in range(2):
            with pytest.raises(TransientIOError):
                f.append(b"data")
        f.append(b"data")  # budget exhausted
        assert f.read() == b"data"

    def test_transient_eio_path_prefix_filter(self):
        machine = _machine(FaultPlan((TransientEIO(path_prefix="ck", count=5),)))
        other = machine.disk.create("log")
        other.append(b"untouched")  # prefix mismatch: no fault
        target = machine.disk.create("ck_0")
        with pytest.raises(TransientIOError):
            target.append(b"data")

    def test_disk_full_window_opens_and_clears(self):
        machine = _machine(
            FaultPlan((DiskFull(at_time=1.0, capacity_bytes=4, duration=2.0),))
        )
        env = machine.env
        assert machine.disk.capacity_bytes is None
        env.run(until=1.5)
        assert machine.disk.capacity_bytes == 4
        env.run(until=3.5)
        assert machine.disk.capacity_bytes is None

    def test_straggler_window_scales_node_load(self):
        machine = _machine(
            FaultPlan((Straggler(node=1, start=1.0, duration=1.0, factor=8.0),))
        )
        env = machine.env
        baseline = machine.nodes[1].external_load
        env.run(until=1.5)
        assert machine.nodes[1].external_load == baseline * 8.0
        env.run(until=2.5)
        assert machine.nodes[1].external_load == baseline

    def test_double_install_rejected(self):
        machine = _machine(FaultPlan((TransientEIO(),)))
        with pytest.raises(RuntimeError):
            machine.install_faults(FaultPlan((TransientEIO(),)))


class TestInjectorCrashes:
    def test_crash_interrupts_victim_only(self):
        machine = _machine(FaultPlan((ServerCrash(rank=1, at_time=0.5),)))

        def main(ctx):
            try:
                yield from ctx.sleep(1.0)
                return "finished"
            except Interrupt:
                return "crashed"

        result = run_spmd(machine, 3, main)
        assert result.returns == ["finished", "crashed", "finished"]
        assert machine.is_dead(1)
        assert machine.dead_ranks() == {1}
        assert not machine.is_dead(0)

    def test_crash_is_recorded_as_fault_counter(self):
        machine = _machine(FaultPlan((ServerCrash(rank=0, at_time=0.5),)))

        def main(ctx):
            try:
                yield from ctx.sleep(1.0)
            except Interrupt:
                pass
            return ctx.rank

        run_spmd(machine, 2, main)
        assert machine.faults.fired["server_crash"] >= 1

    def test_dead_oracle_set_before_interrupt_delivery(self):
        """The victim itself observes is_dead(me) inside its handler."""
        machine = _machine(FaultPlan((ServerCrash(rank=0, at_time=0.5),)))
        seen = {}

        def main(ctx):
            try:
                yield from ctx.sleep(1.0)
            except Interrupt:
                seen["dead"] = machine.is_dead(ctx.rank)
            return None

        run_spmd(machine, 1, main)
        assert seen == {"dead": True}


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self):
        """Two identical (plan, seed) runs inject byte-identical faults."""

        def one_run():
            machine = _machine(
                FaultPlan(
                    (
                        TransientEIO(count=2),
                        ServerCrash(rank=1, at_time=0.3),
                    )
                ),
                seed=7,
            )
            log = []

            def main(ctx):
                f = ctx.disk.create(f"f{ctx.rank}")
                for i in range(4):
                    try:
                        f.append(b"x" * 8)
                    except TransientIOError:
                        log.append(("eio", ctx.rank, i, ctx.now))
                    try:
                        yield from ctx.sleep(0.2)
                    except Interrupt:
                        log.append(("dead", ctx.rank, i, ctx.now))
                        return "crashed"
                return "ok"

            result = run_spmd(machine, 2, main)
            return log, result.returns

        assert one_run() == one_run()
