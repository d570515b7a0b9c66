"""Benchmark: reproduce Fig 3(b) (§7.2) — SMP computation time, Frost.

Paper shape: as the job grows, using all 16 CPUs per node for compute
("16NS") becomes visibly slower than using 15 ("15NS"), because AIX
background work preempts compute and per-timestep synchronization
amplifies the slowest rank.  Dedicating the 16th CPU to a Rocpanda
server ("15S") costs only slightly more than leaving it idle and stays
well below 16NS — the dedicated server CPU absorbs the OS tasks while
also doing the I/O (§4.1: "double effects").
"""

import pytest

from repro.bench import ARTEFACTS, sizing

PROC_COUNTS = (15, 60, 240)


@pytest.fixture(scope="module")
def fig3b_result():
    return ARTEFACTS["fig3b"].result(*sizing())


def test_fig3b(benchmark, fig3b_result, save_artefact):
    benchmark.pedantic(lambda: fig3b_result, rounds=1, iterations=1)
    save_artefact("fig3b", fig3b_result)

    res = fig3b_result
    v16 = res.column("16NS")
    v15 = res.column("15NS")
    v15s = res.column("15S")
    largest = PROC_COUNTS[-1]

    # At scale, 16 compute ranks per node are visibly slower than 15.
    assert v16[largest] > 1.02 * v15[largest]

    # The gap grows with the number of processors (noise amplification).
    gap_small = v16[PROC_COUNTS[0]] - v15[PROC_COUNTS[0]]
    gap_large = v16[largest] - v15[largest]
    assert gap_large > gap_small

    # 15S: slightly above idle-CPU 15NS, but clearly below 16NS, and
    # even below 16NS * (15/16) adjusted work at scale (the paper's
    # punchline: dedicating the CPU to I/O pays for itself).
    assert v15s[largest] >= 0.995 * v15[largest]
    assert v15s[largest] < v16[largest]
    for n in PROC_COUNTS:
        assert v15s[n] < 1.05 * v16[n]
