"""The paper registry: one definition per ``bench_results/`` file."""

import os
from collections import Counter
from dataclasses import replace

import pytest

import repro.bench.sweep as sweep_module
from repro.bench import ARTEFACTS, Grid, Row, Sweep, run_faultbench
from repro.bench.sweep import RESTART_LEDGER
from repro.cluster import testbox as make_testbox
from repro.genx import lab_scale_motor
from repro.util.stats import Summary

RESULTS = os.path.join(os.path.dirname(__file__), "..", "..", "..", "bench_results")


def test_every_committed_table_has_exactly_one_definition():
    committed = {n for n in os.listdir(RESULTS) if n.endswith(".txt")}
    producers = Counter(a.filename for a in ARTEFACTS.values())
    assert all(count == 1 for count in producers.values()), producers
    assert set(producers) == committed
    assert all(name == a.name for name, a in ARTEFACTS.items())


def test_every_artefact_but_the_unmet_and_the_unclaimed_checks_its_shape():
    """Table 1 and Fig 3(a) do not meet the paper's shape yet; the partial
    read and A2b report, they claim no shape."""
    unchecked = {name for name, a in ARTEFACTS.items() if a.shape is None}
    assert unchecked == {"table1", "fig3a", "fig3a_partial_read", "a2_tiers"}


def _tiny(rows, runs=2, policy="best"):
    return Sweep(
        preset=lambda: make_testbox(nnodes=4, cpus_per_node=2),
        workload=lambda scale: lab_scale_motor(
            scale=0.005 * scale, nblocks_fluid=8, nblocks_solid=4,
            steps=4, snapshot_interval=2,
        ),
        rows=rows, runs=runs, seed=7, policy=policy, prefix="tiny",
    )


def test_sweep_fills_named_columns_per_point_and_restarts_on_the_disk():
    seen = []

    def visible(result):
        seen.append(result.machine.seed)
        return result.visible_io_time

    sweep = _tiny([
        Row(2, "rochdf", 2, {"io": visible},
            restart={"restart": lambda r: r.restart_time}, restart_seed=100),
        Row(4, "rochdf", 4, {"io": visible}),
    ])
    grid = sweep()
    assert isinstance(grid, Grid)
    assert grid.xs == [2, 4]
    assert set(grid.cells) == {"io", "restart"}
    assert set(grid.column("io")) == {2, 4}
    assert list(grid.column("restart")) == [2]
    assert grid.value("restart", 2) > 0
    assert grid.rows()[4] == {"io": grid.value("io", 4)}
    # What each point's jobs cost the host sits beside the cells.
    assert set(grid.host) == {2, 4}
    assert all(v > 0 for host in grid.host.values() for v in host.values())
    # Runs are seeded seed, seed + 1, ...; the restart job sees its own.
    assert seen == [7, 8, 7, 8]
    # Best of N: the kept value is one of the runs' own.
    once = _tiny(sweep.rows, runs=1)()
    assert grid.value("io", 2) <= once.value("io", 2)


def test_a_restart_row_restarts_on_its_own_server_count():
    """Written at 2 servers, restarted at 1: the restart job runs one."""
    servers = []

    def restarted(result):
        servers.append(len(result.servers))
        return result.restart_time

    grid = _tiny([
        Row(2, "rocpanda", 4, {"io": lambda r: r.visible_io_time}, servers=2,
            restart={"restart": restarted}, restart_servers=1),
    ], runs=1)()
    assert grid.value("restart", 2) > 0
    assert servers == [1]


def test_runs_and_scale_override_the_definition():
    row = Row("only", "rochdf", 2, {"bytes": lambda r: r.bytes_written_per_snapshot})
    sweep = _tiny([row], policy="mean_ci")
    grid = sweep(scale=2.0, runs=3)
    assert grid.cells["bytes"]["only"].n == 3
    assert grid.value("bytes", "only") > sweep().value("bytes", "only")


def test_the_chaos_matrix_artefact_fails_naming_the_rows_that_did():
    """A chaos matrix with a row that did not recover or replay fails its
    check, and the message names the artefact and that row alone."""
    payload = run_faultbench(only=["transient_eio/rochdf", "transient_eio/trochdf"])
    assert "NO" not in ARTEFACTS["faults"].text(payload)
    ARTEFACTS["faults"].check(payload)
    payload["matrix"][1]["runs_identical"] = False
    with pytest.raises(AssertionError, match="transient_eio/trochdf") as failed:
        ARTEFACTS["faults"].check(payload)
    assert str(failed.value).startswith("faults: ")
    assert "transient_eio/rochdf" not in str(failed.value)


def test_the_restart_ledger_fails_on_a_restart_below_its_read_floor():
    """A restart faster than the filesystem can serve its bytes fails the
    check, and the message names the artefact and that row."""
    cells = {
        8: {"restart_s": 0.32, "read_floor_s": 0.23},
        4: {"restart_s": 0.33, "read_floor_s": 0.23},
    }
    grid = Grid(list(cells), {
        metric: {n: Summary(row[metric], 0.0, 1) for n, row in cells.items()}
        for metric in ("restart_s", "read_floor_s")
    })
    ARTEFACTS["restart_ledger"].check(grid)
    grid.cells["restart_s"][4] = Summary(0.2, 0.0, 1)
    with pytest.raises(AssertionError, match="4 servers") as failed:
        ARTEFACTS["restart_ledger"].check(grid)
    assert str(failed.value).startswith("restart_ledger: ")


def test_restart_rows_share_their_write(monkeypatch):
    """The restart ledger's three rows differ only in their restart, so
    one write per seed serves all three: four jobs, not six, and each
    row's cells are those it reads alone."""
    jobs = []
    real = sweep_module.run_genx

    def counted(machine, nprocs, config, placement=None):
        jobs.append((nprocs, config.restart_step))
        return real(machine, nprocs, config, placement)

    monkeypatch.setattr(sweep_module, "run_genx", counted)
    grid = RESTART_LEDGER(scale=0.02)
    assert jobs == [(72, None), (72, 2), (68, 2), (66, 2)]
    alone = replace(RESTART_LEDGER, rows=RESTART_LEDGER.rows[-1:])(scale=0.02)
    assert alone.rows()[2] == grid.rows()[2]
    assert len(jobs) == 6
