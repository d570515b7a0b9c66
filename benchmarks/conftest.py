"""Shared fixtures for the benchmark suite.

Each benchmark runs one artefact of :data:`repro.bench.ARTEFACTS` (the
definition ``python -m repro paper`` also runs), prints its paper-style
rows, saves them to its ``bench_results/`` file, and asserts the
qualitative shape (who wins, by roughly what factor).  Absolute wall
time of the benchmark function itself is what pytest-benchmark records.

Environment knobs (read by :func:`repro.bench.sizing`):

* ``REPRO_BENCH_SCALE`` — workload scale factor (default 1.0 = the
  paper-faithful sizes);
* ``REPRO_BENCH_RUNS``  — repetitions per configuration (default: each
  artefact's own).
"""

import os

import pytest

from repro.bench import ARTEFACTS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artefact(results_dir):
    """``save_artefact(name, result)``: render into the artefact's file."""
    def _save(name: str, result):
        artefact = ARTEFACTS[name]
        text = artefact.text(result)
        path = os.path.join(results_dir, artefact.filename)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print()
        print(text)
        return path

    return _save
