"""Benchmarks: ablations of the design choices (DESIGN.md A1-A6)."""

import pytest

from repro.bench import ARTEFACTS, sizing


@pytest.fixture
def run_artefact(benchmark, save_artefact):
    """Run an artefact under the benchmark timer and save its file."""
    def _run(name):
        result = benchmark.pedantic(
            ARTEFACTS[name].result, args=sizing(), rounds=1, iterations=1
        )
        save_artefact(name, result)
        return result

    return _run


def test_active_buffering(run_artefact):
    """A1: buffering at the servers hides the write cost (§6.1)."""
    result = run_artefact("ablation_a1_active_buffering").column("visible_io")
    assert result["buffered"] < result["write_through"] / 2


def test_hdf4_vs_hdf5_scaling(run_artefact):
    """A2: HDF4 degrades linearly with datasets/file, HDF5 does not."""
    result = run_artefact("ablation_a2_hdf_drivers")
    counts = sorted(next(iter(result.values())).keys())
    h4, h5 = result["hdf4"], result["hdf5"]
    small, big = counts[0], counts[-1]
    # HDF4 wins small files (cheap constants), loses big ones (linear
    # directory scan) — the [13] observation.
    assert h4[small][0] < h5[small][0]
    assert h4[big][0] > h5[big][0]
    assert h4[big][1] > h5[big][1]
    # HDF4 per-dataset write cost grows superlinearly with file size.
    h4_rate_small = h4[small][0] / small
    h4_rate_big = h4[big][0] / big
    assert h4_rate_big > 1.5 * h4_rate_small
    # HDF5 per-dataset cost stays nearly flat.
    h5_rate_small = h5[small][0] / small
    h5_rate_big = h5[big][0] / big
    assert h5_rate_big < 1.5 * h5_rate_small


def test_client_server_ratio(run_artefact):
    """A3: the paper's >= 8:1 ratio is a sensible operating point."""
    result = run_artefact("ablation_a3_ratio").rows()
    ratios = sorted(result)
    # Fewer servers => fewer files but more visible I/O; the sweep
    # must show both monotone trends.
    files = [result[r]["files"] for r in ratios]
    assert all(b <= a for a, b in zip(files, files[1:]))
    assert result[ratios[-1]]["visible_io"] > result[ratios[0]]["visible_io"]


def test_buffer_overflow(run_artefact):
    """A4: undersized buffers degrade gracefully (overflow flushes)."""
    result = run_artefact("ablation_a4_buffer").rows()
    fractions = sorted(result)
    tiny, huge = fractions[0], fractions[-1]
    # Undersized buffers must trigger overflow writes and cost more
    # visible time; amply-sized buffers must never overflow.
    assert result[tiny]["overflow_flushes"] > 0
    assert result[huge]["overflow_flushes"] == 0
    assert result[tiny]["visible_io"] > result[huge]["visible_io"]


def test_client_buffering(run_artefact):
    """A5: the full buffer hierarchy shrinks visible I/O further."""
    result = run_artefact("ablation_a5_client_buffering").column("visible_io")
    assert result["client+server"] < result["server_only"] / 3


def test_load_balancing(run_artefact):
    """A6: runtime block migration flattens an imbalanced partition."""
    result = run_artefact("ablation_a6_load_balancing")
    assert result["balanced"] < result["static"]
