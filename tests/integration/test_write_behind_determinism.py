"""Virtual-time pins for the Rocpanda server's write-behind stage.

The stage limit is a module constant (``server.WRITE_BEHIND_BYTES``), not
an option.  It is the smallest stage worth a transfer: the lander, which
stages the queue itself, seals a stage at it once it has caught up with
the queue (a smaller one only at a file's close or while the main loop
waits), and a busy lander's next transfer is whatever queued during its
landing.  Patched to 0, every stage the lander has when it catches up is
sealed — through the same staged code path, not a kept fork — and the
blocks that queued behind its bookkeeping or landing still share it.

Pinned below, for ``Machine(turing(), seed=100)`` on shrunken versions
of the four Rocpanda benchmark workloads, are ``(wall, visible I/O,
filesystem write ops)`` under the default limit and under limit 0,
and on per-node disks — "the parent" a later change is held to, bit
for bit.  A landing is one
write (a file's header and commit footer ride its first and last), so
the write ops count landings.  A stage's first block pays the create
cost of its new datasets, during which the blocks behind it queue, so
the limit matters only where the lander catches up inside a burst of
blocks: the small-block weak and strong jobs, where the default makes
fewer transfers and ends sooner; the write and restart jobs are the
same under either limit, on Turing and on per-node disks.  What holds
whatever the numbers are: limit 0 never makes fewer transfers than the
default, never ends sooner, and the files restore to the same blocks.
(Their bytes differ where the seals fell apart: a stage lands one
record per attribute.)  The restart triples moved when a snapshot's
restart became one collective over every window, and again when each
restart region began to be read as stripes of at most 512 KiB queued at
one instant: on Turing's eight read slots a region lands in about one
stripe's time, so the restart ends sooner (0.1805 -> 0.1677 s); a
per-node disk has one slot, where the stripes only add their round
trips (0.1290 -> 0.1296 s).
"""

import pytest

from repro.cluster import Machine, turing
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx, scalability_cylinder
from repro.io.rocpanda import server
from tests.restored import restored

#: (wall_time, visible_io_time, fs write ops) under the default limit ...
DEFAULT = {
    "write": (0.8052159695071206, 0.048411973384286905, 21),
    "restart": (0.16768358096421518, 0.031241341943014783, 4),
    "weak": (0.20419562778589187, 0.040994793917571104, 6),
    "strong": (0.2717071592631234, 0.02130883281101628, 5),
}
#: ... and with the limit patched to 0.
LIMIT_ZERO = {
    "write": (0.8052159695071206, 0.048411973384286905, 21),
    "restart": (0.16768358096421518, 0.031241341943014783, 4),
    "weak": (0.22283465972392452, 0.040994793917571104, 8),
    "strong": (0.2948499190722947, 0.02130883281101628, 8),
}
#: ... and under the default limit on per-node disks.  Limit 0 gives the
#: same write and restart triples there, and more transfers, later, on
#: the small-block weak and strong jobs.
LOCAL = {
    "write": (0.7145983965526748, 0.036524673825216805, 24),
    "restart": (0.12956059734598785, 0.02637469177246099, 4),
    "weak": (0.15643078709629596, 0.03722859008789043, 6),
    "strong": (0.1878600949925009, 0.01636463112967329, 6),
}


def _jobs():
    """name -> (nranks, config, prefix of the job whose disk it starts from)."""
    motor = lab_scale_motor(
        scale=0.02, steps=4, snapshot_interval=2, nblocks_fluid=16, nblocks_solid=8
    )
    cylinder = scalability_cylinder(
        blocks_per_client_fluid=2, blocks_per_client_solid=1,
        per_client_bytes=0.05 * 2**20, steps=2, snapshot_interval=2,
    )
    strong = lab_scale_motor(
        scale=0.01, steps=4, snapshot_interval=4, nblocks_fluid=32, nblocks_solid=32
    )
    panda = dict(io_mode="rocpanda")
    return {
        "write": (10, GENxConfig(workload=motor, nservers=2, prefix="w", **panda), None),
        # Restart the step-4 snapshot with fewer servers than wrote it;
        # steps=0 writes the restored windows back out.
        "restart": (
            9,
            GENxConfig(
                workload=motor, nservers=1, prefix="r", steps=0,
                restart_step=4, restart_prefix="w", **panda,
            ),
            "write",
        ),
        "weak": (9, GENxConfig(workload=cylinder, nservers=1, prefix="k", **panda), None),
        "strong": (
            18,
            GENxConfig(
                workload=strong, nservers=2, prefix="s",
                initial_snapshot=False, **panda,
            ),
            None,
        ),
    }


def _run_all(spec=turing):
    """Every job: {name: (triple, restored files, the lease's ledger)}."""
    out, disks = {}, {}
    for name, (nranks, config, start_from) in _jobs().items():
        machine = Machine(spec(), seed=100, disk=disks.get(start_from))
        result = run_genx(machine, nranks, config)
        disks[name] = machine.disk
        image = restored(machine.disk)
        metrics = machine.fs.metrics
        out[name] = (
            (result.wall_time, result.visible_io_time, metrics.write_ops),
            image,
            (
                sum(s.stats.seconds.get("land", 0.0) for s in result.servers),
                metrics.write_busy_time,
                metrics.peak_write_demand,
            ),
        )
    return out


def _triples(runs):
    return {name: run[0] for name, run in runs.items()}


@pytest.fixture(scope="module")
def per_block():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "WRITE_BEHIND_BYTES", 0)
        return _run_all()


@pytest.fixture(scope="module")
def default():
    return _run_all()


def _local_disks():
    return make_testbox(nnodes=8, cpus_per_node=4)


@pytest.fixture(scope="module")
def per_block_local():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "WRITE_BEHIND_BYTES", 0)
        return _run_all(_local_disks)


@pytest.fixture(scope="module")
def default_local():
    return _run_all(_local_disks)


def test_limit_zero_is_the_parent_bit_for_bit(per_block, default):
    assert _triples(per_block) == LIMIT_ZERO
    assert _triples(default) == DEFAULT
    for name, (triple, image, _lease) in default.items():
        assert per_block[name][0][2] >= triple[2], name
        assert per_block[name][1] == image, name


def test_default_limit_same_files_fewer_transfers_no_later(
    per_block, default, per_block_local, default_local
):
    for name, (triple, image, _lease) in default.items():
        (wall, _visible, ops), (ref_wall, _ref_visible, ref_ops) = triple, LIMIT_ZERO[name]
        assert image == per_block[name][1], name
        assert ops <= ref_ops, name
        assert wall == pytest.approx(ref_wall, abs=1e-5) or wall < ref_wall, name
    # Per-node disks: limit 0 seals whatever the lander has staged each
    # time it catches up, the default only a stage past the limit or at
    # the end of a burst — fewer transfers and sooner wherever the lander
    # catches up inside one (the small-block jobs); the limit has no
    # effect on the large-block write and restart jobs.
    assert _triples(default_local) == LOCAL
    for name, (triple, image, _lease) in default_local.items():
        (wall, _visible, ops), (ref_wall, _ref_visible, ref_ops) = triple, per_block_local[name][0]
        assert image == per_block_local[name][1], name
        if name in ("weak", "strong"):
            assert ops < ref_ops and wall < ref_wall, name
        else:
            assert (ops, wall) == (ref_ops, ref_wall), name


def test_under_the_lease_only_bytes_move(per_block, default):
    """The servers' holds of Turing's one write slot add up to exactly
    the filesystem's write-busy time: no lock RPC, create, metadata or
    close round trip is paid by a server the others are queued behind."""
    for runs in (per_block, default):
        for name, (_triple, _image, (held, busy, peak)) in runs.items():
            assert held == pytest.approx(busy, abs=1e-9), name
            assert peak == 1, name
