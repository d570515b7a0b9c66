"""Smoke tests for the ablation studies that gate CI cheaply.

Only the tiny, deterministic ablations run here (the full A1-A6 sweep
is ``python -m repro paper``'s concern); the point is that the matrices
keep their shape and their headline inequalities hold at toy sizes.
"""

import pytest

from repro.bench.micro import (
    run_driver_tier_matrix,
    run_fig3a_partial_read,
    run_hdf_driver_scaling,
)


class TestDriverScaling:
    def test_hdf4_write_is_superlinear_hdf5_near_linear(self):
        out = run_hdf_driver_scaling(dataset_counts=(100, 400))
        assert set(out) == {"hdf4", "hdf5"}
        (h4_small, _), (h4_big, _) = out["hdf4"][100], out["hdf4"][400]
        (h5_small, h5_read), (h5_big, _) = out["hdf5"][100], out["hdf5"][400]
        # 4x the datasets per file: HDF4's linear directory makes the
        # write cost grow faster than the count, HDF5's B-tree does not.
        assert h4_big > 4.5 * h4_small
        assert 3.5 * h5_small < h5_big < 4.5 * h5_small
        assert h5_read > 0


class TestDriverTierMatrix:
    def test_matrix_shape_and_burst_wins_for_every_driver(self):
        out = run_driver_tier_matrix(ndatasets=50)
        assert set(out) == {"hdf4", "hdf5"}
        for driver, tiers in out.items():
            assert set(tiers) == {"direct", "burst"}
            direct = tiers["direct"]
            burst = tiers["burst"]
            # Direct mode is durable the moment the write returns.
            assert direct["durable_s"] == direct["visible_write_s"]
            # The burst tier collapses visible write time; the drain
            # overlaps the write, so durability trails it by the last
            # flush only — strictly later, and well before direct's.
            assert burst["visible_write_s"] < direct["visible_write_s"]
            assert burst["visible_write_s"] < burst["durable_s"] < direct["durable_s"]

    def test_single_driver_single_tier(self):
        from repro.shdf.drivers import hdf4_driver

        out = run_driver_tier_matrix(
            ndatasets=10, drivers=(hdf4_driver,), tiers=("burst",)
        )
        assert list(out) == ["hdf4"]
        assert list(out["hdf4"]) == ["burst"]


class TestPartialReadModules:
    @pytest.mark.parametrize("module", ["rochdf", "trochdf"])
    def test_sieve_cuts_visible_read_time(self, module):
        pr = run_fig3a_partial_read(
            nprocs=2, nblocks_per_rank=2, nelems=256, module=module
        )
        assert pr["module"] == module
        assert pr["partial_read_s"] < pr["full_read_s"]
        assert pr["partial_read_bytes"] < pr["full_read_bytes"]

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            run_fig3a_partial_read(nprocs=2, module="rocpanda")
