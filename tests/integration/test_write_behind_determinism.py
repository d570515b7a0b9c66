"""Virtual-time pins for the Rocpanda server's write-behind stage.

The stage limit is a module constant (``server.WRITE_BEHIND_BYTES``), not
an option; patched to 0 here, every block lands on its own — through the
same staged code path, not a kept fork — and must reproduce, bit for
bit, the reference values below: ``Machine(turing(), seed=100)`` on
shrunken versions of the four Rocpanda benchmark workloads, the third
number of each triple being the filesystem's write-op count.  The
default limit must then do fewer transfers and finish earlier, and leave
the same files behind.

The triples were first captured on the commit before the stage existed
(b1f166d), and re-derived when every landing began to take the
filesystem's write-slot lease (ISSUE 18: one lock RPC per open, landing
and close; write 1.2991 -> 1.4209, restart 1.1756 -> 1.2446, weak
1.7145 -> 1.8525, strong 1.2234 -> 1.3058).  They were re-derived again
when the server became a two-stage pipeline (ISSUE 19): the main loop
only keeps the format's books and a lander process does every
filesystem wait, so a block's metadata round trips, lock RPC and
transfer overlap the next blocks' bookkeeping — write 1.4209 -> 1.0224,
restart 1.2446 -> 0.8950, weak 1.8525 -> 1.1265, strong
1.3058 -> 0.8840 — with visible I/O lower where a sender used to meet a
landing (write, weak), unchanged elsewhere, and the op counts unchanged.
"""

import pytest

from repro.cluster import Machine, turing
from repro.genx import GENxConfig, lab_scale_motor, run_genx, scalability_cylinder
from repro.io.rocpanda import server

#: (wall_time, visible_io_time, fs write ops), every block landing alone.
PARENT = {
    "write": (1.0224068641351867, 0.048411973384286905, 156),
    "restart": (0.8950154420461217, 0.031241341943015588, 46),
    "weak": (1.126539746456382, 0.04405320981716296, 92),
    "strong": (0.8839733874828659, 0.02130883281101628, 108),
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


def _run_all():
    """Every job: {name: (triple, disk image)}."""
    out, disks = {}, {}
    for name, (nranks, config, start_from) in _jobs().items():
        machine = Machine(turing(), seed=100, disk=disks.get(start_from))
        result = run_genx(machine, nranks, config)
        disks[name] = machine.disk
        image = {p: machine.disk.open(p).read() for p in machine.disk.listdir("")}
        out[name] = (
            (result.wall_time, result.visible_io_time, machine.fs.metrics.write_ops),
            image,
        )
    return out


@pytest.fixture(scope="module")
def per_block():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "WRITE_BEHIND_BYTES", 0)
        return _run_all()


def test_limit_zero_is_the_parent_bit_for_bit(per_block):
    assert {name: triple for name, (triple, _image) in per_block.items()} == PARENT


def test_default_limit_same_files_fewer_transfers_no_later(per_block):
    for name, (triple, image) in _run_all().items():
        (wall, _visible, ops), (ref_wall, _ref_visible, ref_ops) = triple, PARENT[name]
        assert image == per_block[name][1], name
        assert ops < ref_ops, name
        assert wall < ref_wall, name
