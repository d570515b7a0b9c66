"""T-Rochdf's I/O threads land under the filesystem's write-slot lease.

Each thread pays its file's create and per-dataset round trips, asks
for the lease with one lock RPC, holds it for exactly one ``fs.write``
(its ``shdf`` ``flush`` record) and pays the close round trip after
giving it back — the rule the Rocpanda lander follows, through the one
helper both use (``FileSystemModel.leased``).  Blocking Rochdf stays
the paper's uncoordinated baseline.  A crash of a thread holding the
lease or queued for it, and a fault that outlasts a thread's retries,
give the lease up, so no other thread waits on a dead or failed one.
"""

import numpy as np
import pytest

from repro.cluster import Machine, turing
from repro.des import Interrupt
from repro.faults import DiskFull, FaultPlan, RetryPolicy, ServerCrash, TransientEIO
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.io import BackgroundWriteError, TRochdfModule
from repro.roccom import Roccom
from repro.shdf import scan_file
from repro.vmpi import run_spmd
from tests.integration.test_faults import _declare

NRANKS = 4


def _motor_job(io_mode, nclients=64):
    machine = Machine(turing(), seed=100)
    config = GENxConfig(
        workload=lab_scale_motor(scale=0.02, steps=4, snapshot_interval=2),
        io_mode=io_mode, prefix=io_mode,
    )
    return machine, run_genx(machine, nclients, config)


def _holds(result):
    """The I/O threads' holds of the lease: one ``flush`` record each."""
    return [r for r in result.recorder.io_records if (r.module, r.op) == ("shdf", "flush")]


def test_one_writer_at_a_time_for_trochdf_sixty_four_for_rochdf():
    """``rochdf_write_64``'s shape, 64 clients of the motor on Turing:
    Rochdf's writers all reach the NFS server at once, T-Rochdf's take
    turns; the files are the same."""
    machine, result = _motor_job("rochdf")
    assert machine.fs.metrics.peak_write_demand == 64
    assert not _holds(result)
    machine, result = _motor_job("trochdf")
    assert machine.fs.metrics.peak_write_demand == 1
    assert result.files_created == 64 * 9


def test_the_holds_are_the_filesystems_write_busy_time():
    """A hold is one write and every write is held."""
    machine, result = _motor_job("trochdf", nclients=16)
    holds = _holds(result)
    metrics = machine.fs.metrics
    assert len(holds) == metrics.write_ops == result.files_created
    held = sum(r.t_end - r.t_start for r in holds)
    assert held == pytest.approx(metrics.write_busy_time, abs=1e-9)
    assert metrics.peak_write_demand == 1


def test_a_faulted_landing_is_not_counted_as_a_write():
    """Transient EIOs whose retries all succeed: the filesystem counts
    the writes and bytes that reached the disk — the clean job's — and
    keeps the faulted holds' seconds in its write-busy time."""
    clean, _ = _motor_job("trochdf", nclients=16)
    machine = Machine(turing(), seed=100)
    machine.install_faults(FaultPlan((TransientEIO(count=4),)))
    config = GENxConfig(
        workload=lab_scale_motor(scale=0.02, steps=4, snapshot_interval=2),
        io_mode="trochdf", prefix="trochdf",
    )
    result = run_genx(machine, 16, config)
    assert sum(c.io_stats.retries for c in result.clients) == 4
    metrics, ref = machine.fs.metrics, clean.fs.metrics
    assert (metrics.write_ops, metrics.bytes_written) == (ref.write_ops, ref.bytes_written)
    assert metrics.write_ops == len(_holds(result))
    assert metrics.write_busy_time > ref.write_busy_time


def _arrays(rank):
    rng = np.random.default_rng(70 + rank)
    return {rank * 2 + i: (rng.random((400 + i, 3)), rng.random(200 + i)) for i in range(2)}


def _main(victim=None, crash_at=None, retry=None, modules=None):
    """Every rank writes its panes through T-Rochdf and syncs; ``victim``
    dies at ``crash_at``, its I/O thread with it."""

    def main(ctx):
        com = Roccom(ctx)
        mod = com.load_module(TRochdfModule(ctx, retry=retry))
        if modules is not None:
            modules[ctx.rank] = mod
        w = _declare(com)
        for pid, (coords, pressure) in _arrays(ctx.rank).items():
            w.register_pane(pid, len(coords), len(pressure))
            w.set_array("coords", pid, coords)
            w.set_array("pressure", pid, pressure)
        if ctx.rank == victim:

            def stop_io():
                yield ctx.env.timeout(crash_at - ctx.now)
                mod._io.interrupt("crash")

            ctx.env.process(stop_io(), name="crash-io")
        try:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "ck")
            yield from com.call_function("OUT.sync")
        except Interrupt:
            return "crashed"
        except BackgroundWriteError:
            return "failed"
        return "ok"

    return main


def _run(plan=None, **kw):
    machine = Machine(turing(), seed=0)
    if plan is not None:
        machine.install_faults(plan)
    result = run_spmd(machine, NRANKS, _main(**kw))
    return machine, result


def _lease_is_free(machine):
    lease = machine.fs.write_lease()
    return not lease.users and not lease.queue


def _committed(machine, rank):
    scan_file(machine.disk.open(f"ck_p{rank:05d}.shdf").read())  # raises if torn
    return True


@pytest.mark.parametrize("where", ["holding", "queued"])
def test_a_crashed_thread_never_blocks_the_others(where):
    """Crash the first holder mid-hold, or the last in line while it
    queues: every other thread lands its file, no later than it did
    fault-free, and the lease ends free."""
    clean_machine, clean = _run()
    assert clean.returns == ["ok"] * NRANKS
    holds = {r.rank: r for r in _holds(clean)}
    assert len(holds) == NRANKS and clean_machine.fs.metrics.peak_write_demand == 1
    order = sorted(holds, key=lambda rank: holds[rank].t_start)
    if where == "holding":
        victim = order[0]
        at = (holds[victim].t_start + holds[victim].t_end) / 2
    else:
        victim = order[-1]
        at = (holds[order[0]].t_end + holds[victim].t_start) / 2
        # Its metadata round trips and lock RPC were paid long before.
        (settled,) = [
            r for r in clean.recorder.io_records
            if (r.rank, r.module, r.op) == (victim, "shdf", "settle_meta")
        ]
        assert settled.t_end + clean_machine.fs.meta_latency < at < holds[victim].t_start
    machine, result = _run(
        FaultPlan((ServerCrash(rank=victim, at_time=at),)), victim=victim, crash_at=at
    )
    assert result.returns[victim] == "crashed"
    for rank in set(range(NRANKS)) - {victim}:
        assert result.returns[rank] == "ok", rank
        assert _committed(machine, rank)
    survivors = {r.rank: r for r in _holds(result) if r.rank != victim}
    assert survivors.keys() == set(range(NRANKS)) - {victim}
    for rank, hold in survivors.items():
        assert hold.t_start <= holds[rank].t_start, rank
    assert _lease_is_free(machine)
    assert machine.fs.metrics.peak_write_demand == 1


def test_exhausted_retries_release_the_lease_and_fail_at_the_next_sync():
    """The disk fills for good after the first file: every later thread
    takes its turns (the lease is given up for each back-off and after
    the last attempt), and each failed one raises at its sync."""
    clean_machine, clean = _run()
    first = min(_holds(clean), key=lambda r: r.t_start)
    capacity = clean_machine.disk.open(f"ck_p{first.rank:05d}.shdf").size
    retry = RetryPolicy(max_attempts=3, base_delay=1e-3)
    modules = {}
    machine, result = _run(
        FaultPlan((DiskFull(at_time=0.0, capacity_bytes=capacity),)),
        retry=retry, modules=modules,
    )
    assert result.returns[first.rank] == "ok"
    failed = set(range(NRANKS)) - {first.rank}
    assert {rank: result.returns[rank] for rank in failed} == dict.fromkeys(failed, "failed")
    for rank in failed:
        # Every attempt asked for and got the lease: the thread ahead
        # of it gave it back, faulted or not.
        assert modules[rank].stats.retries == retry.max_attempts - 1
        assert not modules[rank]._io.busy
    assert _lease_is_free(machine)
    assert machine.fs.metrics.peak_write_demand == 1

