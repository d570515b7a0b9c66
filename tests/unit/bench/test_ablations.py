"""Smoke tests for the ablation studies that gate CI cheaply.

Only the tiny, deterministic ablations run here (the full A1-A6 sweep
is a bench-CLI concern); the point is that the matrices keep their
shape and their headline inequalities hold at toy sizes.
"""

import pytest

from repro.bench.ablations import run_driver_tier_matrix
from repro.bench.fig3a import run_fig3a_partial_read


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
