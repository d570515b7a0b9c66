"""Integration tests: full GENx runs under all three I/O services."""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.cluster.presets import turing
from repro.genx import GENxConfig, lab_scale_motor, run_genx, scalability_cylinder
from repro.io import datasets_to_blocks
from repro.roccom import Roccom
from repro.shdf import decode_file


def tiny_workload(steps=8, interval=4):
    return lab_scale_motor(
        scale=0.01, nblocks_fluid=12, nblocks_solid=6, steps=steps,
        snapshot_interval=interval,
    )


def make_machine(seed=0, disk=None):
    return Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=seed, disk=disk)


class TestRunGENx:
    @pytest.mark.parametrize("io_mode,nprocs,nservers", [
        ("rochdf", 4, 0),
        ("trochdf", 4, 0),
        ("rocpanda", 5, 1),
    ])
    def test_complete_run_all_modes(self, io_mode, nprocs, nservers):
        config = GENxConfig(
            workload=tiny_workload(), io_mode=io_mode, nservers=nservers,
            prefix=f"t_{io_mode}",
        )
        result = run_genx(make_machine(), nprocs, config)
        nclients = nprocs - (nservers if io_mode == "rocpanda" else 0)
        assert len(result.clients) == nclients
        assert result.computation_time > 0
        assert all(c.rocman.steps == 8 for c in result.clients)
        # 3 snapshots (initial, step 4, step 8).
        assert all(c.rocman.snapshots == 3 for c in result.clients)

    def test_rocpanda_reduces_files_by_client_server_ratio(self):
        wl = tiny_workload()
        r_hdf = run_genx(
            make_machine(), 4, GENxConfig(workload=wl, io_mode="rochdf", prefix="fr_h")
        )
        r_panda = run_genx(
            make_machine(), 5,
            GENxConfig(workload=wl, io_mode="rocpanda", nservers=1, prefix="fr_p"),
        )
        # Rochdf: one file per client per window per snapshot; Rocpanda:
        # one per server per window per snapshot => 4x fewer here.
        assert r_hdf.files_created == 4 * r_panda.files_created

    def test_physics_state_evolves_across_snapshots(self):
        config = GENxConfig(workload=tiny_workload(), io_mode="rochdf", prefix="ev")
        result = run_genx(make_machine(), 2, config)
        disk = result.machine.disk
        first = decode_file(disk.open("ev_000000_rocflo_p00000.shdf").read())
        last = decode_file(disk.open("ev_000008_rocflo_p00000.shdf").read())
        name = next(n for n in first.names() if n.endswith("/pressure"))
        assert not np.array_equal(first.get(name).data, last.get(name).data)

    def test_snapshot_files_decode_with_expected_metadata(self):
        config = GENxConfig(workload=tiny_workload(), io_mode="rochdf", prefix="md")
        result = run_genx(make_machine(), 2, config)
        image = decode_file(
            result.machine.disk.open("md_000004_rocburn_p00001.shdf").read()
        )
        assert image.attrs["time_step"] == 4
        assert len(image) > 0
        ds = image.get(image.names()[0])
        assert "location" in ds.attrs

    def test_visible_io_ordering_between_modes(self):
        """T-Rochdf visible I/O << Rochdf visible I/O (Table 1 shape)."""
        wl = tiny_workload()
        times = {}
        for mode in ("rochdf", "trochdf"):
            config = GENxConfig(workload=wl, io_mode=mode, prefix=f"ord_{mode}")
            times[mode] = run_genx(make_machine(), 4, config).visible_io_time
        assert times["trochdf"] < times["rochdf"] / 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GENxConfig(workload=tiny_workload(), io_mode="carrier-pigeon")
        with pytest.raises(ValueError):
            GENxConfig(workload=tiny_workload(), io_mode="rocpanda", nservers=0)

    def test_weak_scaling_workload_scales_data(self):
        wl = scalability_cylinder(per_client_bytes=64 * 1024, steps=4, snapshot_interval=4)
        r2 = run_genx(
            make_machine(), 2, GENxConfig(workload=wl, io_mode="rochdf", prefix="w2")
        )
        r4 = run_genx(
            make_machine(), 4, GENxConfig(workload=wl, io_mode="rochdf", prefix="w4")
        )
        b2 = sum(c.io_stats.bytes_written for c in r2.clients)
        b4 = sum(c.io_stats.bytes_written for c in r4.clients)
        assert b4 / b2 == pytest.approx(2.0, rel=0.3)

    def test_deterministic_given_seed(self):
        config = GENxConfig(workload=tiny_workload(), io_mode="rochdf", prefix="det")
        r1 = run_genx(make_machine(seed=9), 2, config)
        r2 = run_genx(make_machine(seed=9), 2, config)
        assert r1.computation_time == r2.computation_time
        assert r1.visible_io_time == r2.visible_io_time


@pytest.mark.parametrize("io_mode,nprocs,nservers", [
    ("rochdf", 4, 0),
    ("trochdf", 4, 0),
    ("rocpanda", 5, 1),
])
def test_a_finished_job_frees_its_windows_without_the_cycle_collector(
    monkeypatch, io_mode, nprocs, nservers
):
    """The GENx main unloads its I/O module once the job is done, so no
    Roccom <-> module cycle keeps a client's windows (and the arrays a
    restart restored into them) alive until a cyclic collection."""
    windows = []
    new_window = Roccom.new_window

    def keep_a_weakref(self, name):
        window = new_window(self, name)
        windows.append(weakref.ref(window))
        return window

    monkeypatch.setattr(Roccom, "new_window", keep_a_weakref)
    config = GENxConfig(
        workload=tiny_workload(steps=4), io_mode=io_mode, nservers=nservers,
        prefix=f"gc_{io_mode}",
    )
    gc.disable()
    try:
        result = run_genx(make_machine(), nprocs, config)
        assert result.clients and windows
        assert [ref for ref in windows if ref() is not None] == []
    finally:
        gc.enable()


class TestRestartIntegration:
    @pytest.mark.parametrize("io_mode,nprocs,nservers", [
        ("rochdf", 4, 0),
        ("rocpanda", 6, 2),
    ])
    def test_checkpoint_restart_roundtrip(self, io_mode, nprocs, nservers):
        """Snapshot doubles as checkpoint; a new run restores from it."""
        wl = tiny_workload(steps=4, interval=4)
        write_cfg = GENxConfig(
            workload=wl, io_mode=io_mode, nservers=nservers, prefix="ckpt"
        )
        first = run_genx(make_machine(seed=1), nprocs, write_cfg)
        disk = first.machine.disk

        restart_cfg = GENxConfig(
            workload=wl, io_mode=io_mode, nservers=nservers, prefix="ckpt2",
            restart_step=4, restart_prefix="ckpt", initial_snapshot=True,
        )
        second = run_genx(make_machine(seed=2, disk=disk), nprocs, restart_cfg)
        assert second.restart_time > 0

        # The restarted run's step-0 snapshot must equal the first
        # run's step-4 snapshot (same restored state written back out).
        suffix = "_rocflo_p00000.shdf" if io_mode == "rochdf" else "_rocflo_s0000.shdf"
        a, b = (
            {blk.block_id: blk for blk in datasets_to_blocks(list(decode_file(
                disk.open(prefix + suffix).read()
            )))}
            for prefix in ("ckpt_000004", "ckpt2_000000")
        )
        assert sorted(a) == sorted(b)
        for block_id, block in a.items():
            np.testing.assert_array_equal(
                block.arrays["pressure"], b[block_id].arrays["pressure"]
            )

    def test_restart_with_different_server_count(self):
        wl = tiny_workload(steps=4, interval=4)
        first = run_genx(
            make_machine(seed=3), 6,
            GENxConfig(workload=wl, io_mode="rocpanda", nservers=2, prefix="rs"),
        )
        second = run_genx(
            make_machine(seed=4, disk=first.machine.disk), 9,
            GENxConfig(
                workload=wl, io_mode="rocpanda", nservers=3, prefix="rs2",
                restart_step=4, restart_prefix="rs",
            ),
        )
        assert second.restart_time > 0
        assert len(second.clients) == 6
