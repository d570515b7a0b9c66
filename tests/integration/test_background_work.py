"""The background workers composed: every one of them in one job, and
nothing of them left behind when the job ends.

T-Rochdf's I/O thread, the Rocpanda client's sender, the server's lander
and the burst tier's drain each run on a
:class:`~repro.vthread.BackgroundWorker`; their own tests take them one
at a time.
"""

import pathlib
import re

import pytest

import repro
from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.des import Process
from repro.fs import TierConfig
from repro.fs.tiers import apply_storage_tier
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.vthread import BackgroundWorker
from tests.restored import restored

#: Below one snapshot of the workload (~93 KB per server file), so the
#: tier evicts and spills while the lander is still landing.
TIGHT_TIER = TierConfig(capacity_bytes=64 * 1024, drain_chunk_bytes=16 * 1024)


def run(io_mode, storage_tier="direct", client_buffering=False):
    machine = Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=0)
    rocpanda = io_mode == "rocpanda"
    config = GENxConfig(
        workload=lab_scale_motor(
            scale=0.05, nblocks_fluid=16, nblocks_solid=8,
            steps=8, snapshot_interval=4,
        ),
        io_mode=io_mode,
        nservers=1 if rocpanda else 0,
        prefix="bg",
        client_buffering=client_buffering,
        storage_tier=storage_tier,
        tier_config=TIGHT_TIER if storage_tier == "burst" else None,
    )
    return run_genx(machine, 5 if rocpanda else 4, config)


def test_three_workers_in_one_sync_leave_the_direct_image():
    """Sender -> lander -> drain: a client's ``sync`` returns only when
    all three have run dry, and the backing disk then holds what the
    plain run (no sender, no tier) wrote, block for block — the records
    are the stages', which the sender's timing moves."""
    plain = run("rocpanda")
    stacked = run("rocpanda", storage_tier="burst", client_buffering=True)
    tier = stacked.machine.fs
    assert tier.stats.evictions and tier.stats.drain_flushes
    assert tier.backlog_bytes == 0
    assert tier.journal.validate(stacked.machine.disk) == []
    image = restored(stacked.machine.disk)
    assert len(image) == 9
    assert image == restored(plain.machine.disk)


@pytest.fixture
def made(monkeypatch):
    """Every worker and every DES process created during the test."""
    made = {BackgroundWorker: [], Process: []}
    for cls, log in made.items():
        def init(self, *args, _init=cls.__init__, _log=log, **kwargs):
            _init(self, *args, **kwargs)
            _log.append(self)

        monkeypatch.setattr(cls, "__init__", init)
    return made


@pytest.mark.parametrize(
    "io_mode, storage_tier, client_buffering",
    [
        (io_mode, tier, False)
        for io_mode in ("rochdf", "trochdf", "rocpanda")
        for tier in ("direct", "burst")
    ]
    + [("rocpanda", "direct", True), ("rocpanda", "burst", True)],
)
def test_a_finished_job_leaves_nothing_blocked(
    made, io_mode, storage_tier, client_buffering
):
    """Quiescence: when the last rank returns no worker is busy and no
    process of the job's environment is alive — an idle writer is a
    process that does not exist, not one parked on a wake-up."""
    result = run(io_mode, storage_tier, client_buffering)
    env = result.machine.env
    workers = [w for w in made[BackgroundWorker] if w.env is env]
    expected = {
        "rochdf": 0, "trochdf": 4, "rocpanda": 4 + 2,  # senders, lander, forwarder
    }[io_mode] + (storage_tier == "burst")
    assert len(workers) == expected
    assert [w for w in workers if w.busy] == []
    assert len(made[Process]) >= 4
    assert [p.name for p in made[Process] if p.env is env and p.is_alive] == []


def test_a_tier_that_absorbs_nothing_starts_no_process(made):
    machine = Machine(make_testbox(nnodes=2, cpus_per_node=2), seed=0)
    tier = apply_storage_tier(machine, "burst")

    def main():
        yield from tier.drain_barrier()
        yield from tier.meta_op(None)

    proc = machine.env.process(main())
    machine.env.run()
    assert made[Process] == [proc]


def test_background_work_starts_only_through_the_worker():
    """Source-level: under ``repro/io`` and ``repro/fs`` a process is
    spawned only at the fire-and-forget reply (a sync's, a merged
    share's ``Landed``) and for a restart
    share's scans and region reads, all in flight at once; everything
    else that runs behind its caller is a ``BackgroundWorker``.  The
    primitives it replaced stay gone."""
    src = pathlib.Path(repro.__file__).parent
    spawns = [
        f"{path.relative_to(src)}: {line.strip()}"
        for sub in ("io", "fs")
        for path in sorted((src / sub).rglob("*.py"))
        for line in path.read_text().splitlines()
        if "env.process(" in line
    ]
    assert [s.split(":")[0] for s in spawns] == [
        "io/rocpanda/restart.py", "io/rocpanda/server.py",
    ], spawns
    server = (src / "io/rocpanda/server.py").read_text()
    assert re.findall(r'name="(panda-[a-z-]+)"', server) == ["panda-reply"]
    restart = (src / "io/rocpanda/restart.py").read_text()
    assert re.findall(r'"(panda-[a-z-]+)"', restart) == [
        "panda-restart-scan", "panda-restart-read",
    ]
    # No read-ahead depth: the filesystem's read slots queue the reads.
    assert "readahead" not in restart and "pending" not in restart
    gone = re.compile(r"Store\(|VThread")
    hits = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert not hits, hits
