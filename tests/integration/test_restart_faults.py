"""Integration tests: faults injected *during* restart reads.

The write lands fault-free; the faults target the read-back itself — a
server crash mid-bulk-read (clients resume the dead rank's file share
from its deterministic heir) and transient read ``EIO`` during the
sieved reads (absorbed by the read retry of the Rocpanda server, and of
Rochdf / T-Rochdf on their individual files).  Each must recover to a
restore digest-identical to a fully fault-free run and replay
deterministically under the same seed; exhausted retries must raise.
"""

import pytest

from repro.bench import faults as faults_bench
from repro.bench.faults import PATIENT_RETRY, checkpoint_restart
from repro.faults import FaultPlan, RetryPolicy, ServerCrash, TransientEIO
from repro.fs.vfs import TransientIOError
from repro.vmpi import run_spmd


def _panda_restart(plan):
    return checkpoint_restart("rocpanda", plan, phase="restart", retry=PATIENT_RETRY)


def _run_twice(plan):
    return _panda_restart(plan), _panda_restart(plan)


@pytest.fixture(scope="module")
def reference_digest():
    """Digest of the restore with no faults installed at all."""
    digest, info = _panda_restart(FaultPlan(()))
    assert "missing_blocks" not in info
    return digest


class TestServerCrashMidRestart:
    def test_recovers_via_heir_and_is_deterministic(self, reference_digest):
        plan = FaultPlan((ServerCrash(rank=2, at_time=0.004),))
        (digest1, info1), (digest2, info2) = _run_twice(plan)
        # Recovery: bit-identical restore despite the mid-read crash.
        assert "missing_blocks" not in info1, info1
        assert digest1 == reference_digest
        # The dead rank's share really was re-served by its heir.
        rocpanda = info1["counters"]["rocpanda"]
        assert rocpanda.get("restart_resumes_served", 0) > 0
        assert info1["client_failovers"] > 0
        assert rocpanda.get("crashed") == 1
        # Determinism: same seed, same digest, same counters.
        assert (digest1, info1) == (digest2, info2)

    def test_the_dead_rank_reads_nothing_after_the_crash(self, monkeypatch):
        """The crash stops the dead server's region reads at its
        instant: none of them keeps a read slot past it."""
        jobs = []

        def spmd(*args, **kwargs):
            jobs.append(run_spmd(*args, **kwargs))
            return jobs[-1]

        monkeypatch.setattr(faults_bench, "run_spmd", spmd)
        crash = ServerCrash(rank=2, at_time=0.004)
        _panda_restart(FaultPlan((crash,)))
        records = jobs[-1].recorder.io_records
        scans = [r for r in records if r.op == "open_scan" and r.rank == crash.rank]
        assert scans and all(r.t_end < crash.at_time for r in scans)
        reads = [
            r for r in records
            if r.module == "shdf" and r.op == "read_extents" and r.rank == crash.rank
        ]
        assert all(r.t_end <= crash.at_time for r in reads), reads


class TestTransientReadEIOMidRestart:
    def test_read_retry_absorbs_injected_eio(self, reference_digest):
        plan = FaultPlan(
            (TransientEIO(op="read", path_prefix="ck", count=2),)
        )
        (digest1, info1), (digest2, info2) = _run_twice(plan)
        assert "missing_blocks" not in info1, info1
        assert digest1 == reference_digest
        # The injected EIOs were hit and retried server-side.
        assert info1["counters"]["rocpanda"].get("read_retries") == 2
        assert (digest1, info1) == (digest2, info2)

    def test_exhausted_read_retries_raise(self):
        # The retry runs inside the region's read process; once
        # exhausted the fault reaches the server when it waits on that
        # region.
        plan = FaultPlan(
            (TransientEIO(op="read", path_prefix="ck", count=500),)
        )
        with pytest.raises(TransientIOError):
            _panda_restart(plan)


@pytest.mark.parametrize("module_name", ["rochdf", "trochdf"])
class TestIndividualRestartReadEIO:
    """Rochdf / T-Rochdf restart reads go through the checked, retried path."""

    def test_read_retry_restores_bit_identical_arrays(self, module_name):
        reference, info = checkpoint_restart(module_name, phase="restart")
        assert "missing_blocks" not in info, info
        plan = FaultPlan((TransientEIO(op="read", path_prefix="ck", count=2),))
        first = checkpoint_restart(module_name, plan, phase="restart")
        digest, info = first
        assert "missing_blocks" not in info, info
        assert digest == reference
        # Both injected EIOs were hit and retried, not silently skipped.
        assert info["client_retries"] == 2
        assert info["counters"][module_name]["retries"] == 2
        assert info["counters"]["faults"]["eio_injected"] == 2
        assert first == checkpoint_restart(module_name, plan, phase="restart")

    def test_exhausted_read_retries_raise(self, module_name):
        plan = FaultPlan((TransientEIO(op="read", path_prefix="ck", count=50),))
        with pytest.raises(TransientIOError):
            checkpoint_restart(
                module_name, plan, phase="restart", retry=RetryPolicy(max_attempts=3)
            )
