"""Job assembly costs O(1) spec/partition passes per job, not per rank,
and a restart builds no initial condition.

Deterministic call counts, no timing: before the assignment became
job-scoped every client rank rebuilt the whole job's block specs and
its LPT partition, so these counts grew with the client count.
"""

from collections import Counter

import pytest

import repro.genx.driver as driver
import repro.genx.physics.base as physics_base
import repro.genx.workloads as workloads
from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import (
    GENxConfig,
    lab_scale_motor,
    partition_blocks,
    run_genx,
    scalability_cylinder,
)
from repro.genx.physics import Rocburn, Rocflo, Rocfrac
from repro.genx.physics.base import PhysicsModule

KINDS = ("fluid", "solid", "burn")


def _cylinder():
    return scalability_cylinder(
        per_client_bytes=8 * 1024,
        blocks_per_client_fluid=2,
        blocks_per_client_solid=1,
        steps=1,
        snapshot_interval=1,
    )


def _motor():
    return lab_scale_motor(
        scale=0.002, nblocks_fluid=24, nblocks_solid=12,
        steps=1, snapshot_interval=1,
    )


def _run(workload, nclients, nservers, disk=None, **config):
    io_mode = "rocpanda" if nservers else "rochdf"
    return run_genx(
        Machine(make_testbox(nnodes=8), seed=1, disk=disk),
        nclients + nservers,
        GENxConfig(
            workload=workload, io_mode=io_mode, nservers=nservers, prefix="asm",
            **config,
        ),
    )


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_spec_and_partition_passes_do_not_grow_with_clients(monkeypatch):
    spec_calls = _counting(monkeypatch, workloads, "cylinder_blocks")
    lpt_calls = _counting(monkeypatch, driver, "partition_blocks")
    per_job = []
    for nclients, nservers in ((8, 1), (16, 2)):
        del spec_calls[:], lpt_calls[:]
        _run(_cylinder(), nclients, nservers)
        per_job.append((len(spec_calls), len(lpt_calls)))
        assert all(nprocs == nclients for _specs, nprocs in lpt_calls)
    # One fluid + one solid spec pass, one LPT pass per window.
    assert per_job == [(2, len(KINDS))] * 2


@pytest.mark.parametrize("make_workload", [_motor, _cylinder])
@pytest.mark.parametrize("nclients,nservers", [(6, 0), (8, 2)])
def test_each_rank_gets_its_reference_bucket(
    monkeypatch, make_workload, nclients, nservers
):
    """Sharing one assignment hands rank r exactly what it used to compute:
    ``partition_blocks(specs, P)[r]``, per window."""
    handed = {}  # (world rank, window) -> block ids
    real_declare = PhysicsModule.declare

    def spy(self, com, specs):
        handed[com.ctx.rank, self.window_name] = [s.block_id for s in specs]
        return real_declare(self, com, specs)

    monkeypatch.setattr(PhysicsModule, "declare", spy)
    workload = make_workload()
    _run(workload, nclients, nservers)

    client_ranks = sorted({rank for rank, _window in handed})
    assert len(client_ranks) == nclients
    windows = [w for rank, w in handed if rank == client_ranks[0]]
    assert len(windows) == len(KINDS)
    spec_map = workload.blocks_for(nclients)
    for kind, window in zip(KINDS, windows):
        reference = partition_blocks(spec_map[kind], nclients)
        for crank, rank in enumerate(client_ranks):
            assert handed[rank, window] == [
                s.block_id for s in reference[crank]
            ], (kind, crank)


@pytest.mark.parametrize("nclients,nservers", [(6, 0), (8, 2)])
def test_a_restart_builds_no_initial_condition(monkeypatch, nclients, nservers):
    """A fresh job builds each block's geometry and fields once; a restart
    job builds none, since the restore reads all of them."""
    built = _counting(monkeypatch, physics_base, "build_block")
    filled = Counter()
    for module in (Rocflo, Rocfrac, Rocburn):
        real = module.init_fields

        def counted(self, window, block, rng, real=real):
            filled[block.block_id, self.window_name] += 1
            return real(self, window, block, rng)

        monkeypatch.setattr(module, "init_fields", counted)
    workload = _motor()
    blocks = sum(len(specs) for specs in workload.blocks_for(nclients).values())
    written = _run(workload, nclients, nservers)
    assert len(built) == sum(filled.values()) == blocks
    assert set(filled.values()) == {1}
    del built[:]
    filled.clear()
    _run(workload, nclients, nservers, disk=written.machine.disk,
         steps=0, restart_step=1, restart_prefix="asm")
    assert built == [] and not filled
