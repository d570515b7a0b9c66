"""Unit tests for GENxRunResult metric aggregation."""

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.io import ServerConfig
from repro.shdf import hdf4_driver, hdf5_driver, scan_file
from repro.util import MB


@pytest.fixture(scope="module")
def results():
    wl = lab_scale_motor(
        scale=0.02, nblocks_fluid=12, nblocks_solid=6, steps=8,
        snapshot_interval=4,
    )
    out = {}
    for mode, nprocs, nservers in (
        ("rochdf", 3, 0),
        ("trochdf", 3, 0),
        ("rocpanda", 4, 1),
    ):
        out[mode] = run_genx(
            Machine(make_testbox(), seed=2),
            nprocs,
            GENxConfig(workload=wl, io_mode=mode, nservers=nservers, prefix="m"),
        )
    return out


class TestMetricAggregation:
    def test_computation_time_is_max_over_clients(self, results):
        r = results["rochdf"]
        assert r.computation_time == max(
            c.rocman.compute_wall_time for c in r.clients
        )

    def test_visible_io_time_is_max_over_clients(self, results):
        r = results["rocpanda"]
        assert r.visible_io_time == max(
            c.rocman.output_wall_time for c in r.clients
        )

    def test_bytes_per_snapshot_consistent_across_modes(self, results):
        """Same workload => same data volume, whatever the I/O service."""
        per_snapshot = {
            mode: r.bytes_written_per_snapshot for mode, r in results.items()
        }
        base = per_snapshot["rochdf"]
        for mode, value in per_snapshot.items():
            # Rocpanda counts wire size (small per-array envelope on
            # top of raw data), so allow a few percent of slack.
            assert value == pytest.approx(base, rel=0.05), mode

    def test_files_created_by_mode(self, results):
        # 3 snapshots x 3 windows x 3 clients for individual I/O.
        assert results["rochdf"].files_created == 27
        assert results["trochdf"].files_created == 27
        # 3 snapshots x 3 windows x 1 server for collective I/O.
        assert results["rocpanda"].files_created == 9

    def test_server_reports_only_in_rocpanda(self, results):
        assert results["rochdf"].servers == []
        assert len(results["rocpanda"].servers) == 1

    def test_wall_time_positive_and_ordered(self, results):
        for r in results.values():
            assert r.wall_time > 0
            assert r.computation_time <= r.wall_time

    def test_client_counts(self, results):
        assert len(results["rochdf"].clients) == 3
        assert len(results["rocpanda"].clients) == 3


class TestDriverFactory:
    """``GENxConfig.driver_factory`` is every service's format driver."""

    @staticmethod
    def _booked(machine, driver):
        """The directory bookkeeping the files on ``machine`` cost under
        ``driver``: each dataset's ``create_cost`` at its index."""
        return sum(
            driver.create_cost(i)
            for path in machine.disk.listdir("d_")
            for i in range(len(scan_file(machine.disk.open(path).read())[1]))
        )

    @pytest.mark.parametrize(
        "factory, server_config, charged",
        [
            (hdf5_driver, None, hdf5_driver),
            (hdf4_driver, None, hdf4_driver),
            # An explicit server config wins, driver included.
            (hdf5_driver, ServerConfig(), hdf4_driver),
        ],
    )
    def test_the_factory_reaches_the_servers_bookkeeping(
        self, factory, server_config, charged
    ):
        wl = lab_scale_motor(
            scale=0.02, nblocks_fluid=12, nblocks_solid=6, steps=4,
            snapshot_interval=4,
        )
        machine = Machine(make_testbox(), seed=2)
        result = run_genx(
            machine, 4,
            GENxConfig(
                workload=wl, io_mode="rocpanda", nservers=1, prefix="d",
                driver_factory=factory, server_config=server_config,
            ),
        )
        (server,) = result.servers
        booked = server.stats.seconds["bg_write"]
        assert booked == pytest.approx(self._booked(machine, charged()), rel=1e-12)
        other = hdf4_driver if charged is hdf5_driver else hdf5_driver
        assert booked != pytest.approx(self._booked(machine, other()), rel=1e-3)
