"""Benchmark: reproduce Fig 3(a) (§7.2) — apparent write throughput, Frost.

Paper shape: with Rocpanda the apparent aggregate write throughput
rises from 1 to 15 compute processors (one SMP node, intra-node
bandwidth utilization), then scales with the number of per-node I/O
servers, reaching ~875 MB/s with 512 total processors — more than five
times the parallel-HDF5 (FLASH benchmark) throughput measured on the
same machine; Rochdf stays pinned near the shared filesystem's
capability.

The simulator does not meet this shape yet, so these are plain tests
(``PYTHONPATH=src pytest benchmarks/test_fig3a.py``) rather than the artefact's
check in :mod:`repro.bench.sweep`, which ``python -m repro paper`` runs.
"""

import pytest

from repro.bench import ARTEFACTS, sizing
from repro.bench.sweep import PARALLEL_HDF5_REFERENCE_BPS


@pytest.fixture(scope="module")
def fig3a_result():
    return ARTEFACTS["fig3a"].result(*sizing())


def test_fig3a(fig3a_result):
    res = fig3a_result
    panda = res.column("rocpanda")
    rochdf = res.column("rochdf")

    # Throughput rises from 1 client to a full node of 15 clients.
    assert panda[15] > 2.0 * panda[1]

    # Beyond one node it scales with the number of servers.
    assert panda[60] > 1.5 * panda[15]
    assert panda[480] > 4.0 * panda[60]
    # Monotone non-decreasing across node-count scaling.
    scaling = [panda[n] for n in (15, 30, 60, 120, 480)]
    assert all(b > a for a, b in zip(scaling, scaling[1:]))

    # Far above the parallel-HDF5 reference at full scale (paper: >5x).
    assert panda[480] > 5.0 * PARALLEL_HDF5_REFERENCE_BPS

    # Rochdf: pinned by the filesystem + format overhead, roughly flat
    # once past a node, and far below Rocpanda.
    flat = [rochdf[n] for n in (15, 30, 60, 120, 480)]
    assert max(flat) / min(flat) < 2.0
    for n in (15, 30, 60, 120, 480):
        assert panda[n] > rochdf[n]
    assert panda[480] > 20 * rochdf[480]
