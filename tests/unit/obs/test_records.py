"""Unit tests for the instrumentation layer (repro.obs)."""

import json

import numpy as np
import pytest

from repro.cluster import Machine, turing
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.io import IOStats, RochdfModule, ServerStats
from repro.obs import (
    IORecord,
    Recorder,
    aggregate,
    overlap_ratio,
    phase_of,
    phase_rollup,
    records_by_rank,
    records_to_csv,
    render_timeline,
    stat_counts,
    summary_payload,
)
from repro.roccom import AttributeSpec, LOC_ELEMENT, Roccom
from repro.vmpi import run_spmd


def rec(module="m", op="write_attribute", rank=0, nbytes=10,
        t_start=0.0, t_end=1.0, visible=True, path=""):
    return IORecord(module=module, op=op, rank=rank, path=path, nbytes=nbytes,
                    t_start=t_start, t_end=t_end, visible=visible)


class TestRecorder:
    def test_record_io_appends(self):
        r = Recorder()
        record = r.record_io("m", "op", 3, nbytes=7, t_start=1.0, t_end=2.5)
        assert r.io_records == [record]
        assert record.rank == 3
        assert record.duration == pytest.approx(1.5)


class TestAggregate:
    def test_visible_background_split(self):
        records = [
            rec(op="write_attribute", t_end=1.0, visible=True),
            rec(op="bg_write", t_end=3.0, visible=False),
            rec(op="sync", t_end=0.5, visible=True),
            rec(op="read_attribute", t_end=2.0, visible=True),
        ]
        rollup = aggregate(records)["m"]
        assert rollup.visible_time == pytest.approx(3.5)
        assert rollup.background_time == pytest.approx(3.0)
        # sync and reads are excluded from the visible *write* path.
        assert rollup.visible_write_time == pytest.approx(1.0)
        assert rollup.overlap_ratio == pytest.approx(3.0 / 4.0)
        assert rollup.ops["bg_write"].count == 1

    def test_overlap_ratio_zero_without_background(self):
        records = [rec(op="write_attribute", t_end=1.0)]
        assert overlap_ratio(records) == 0.0
        assert overlap_ratio([]) == 0.0

    def test_overlap_ratio_module_filter(self):
        records = [
            rec(module="a", op="bg_write", t_end=1.0, visible=False),
            rec(module="b", op="write_attribute", t_end=1.0),
        ]
        assert overlap_ratio(records, module="a") == 1.0
        assert overlap_ratio(records, module="b") == 0.0

    def test_phases(self):
        assert phase_of(rec(op="bg_write", visible=False)) == "write-behind"
        assert phase_of(rec(op="read_attribute")) == "restart"
        assert phase_of(rec(op="sync")) == "sync"
        assert phase_of(rec(op="write_attribute")) == "output"
        phases = phase_rollup([rec(op="sync", t_end=0.5)])
        assert phases["m"]["sync"] == pytest.approx(0.5)

    def test_every_reader_op_is_restart(self):
        """What SHDFReader records is restart time; a writer's close is
        output, and the reader's close has its own name."""
        for op in ("open_scan", "read_extents", "read_batch", "close_scan"):
            assert phase_of(rec(module="shdf", op=op)) == "restart", op
        assert phase_of(rec(module="shdf", op="close")) == "output"
        records = [
            rec(module="shdf", op="read_extents", t_end=2.0),
            rec(module="shdf", op="bg_write", t_end=1.0, visible=False),
        ]
        assert aggregate(records)["shdf"].visible_write_time == 0.0
        assert overlap_ratio(records) == 1.0

    def test_records_by_rank_sorted(self):
        records = [
            rec(rank=1, t_start=5.0, t_end=6.0),
            rec(rank=1, t_start=1.0, t_end=2.0),
            rec(rank=0, t_start=0.0, t_end=1.0),
        ]
        grouped = records_by_rank(records)
        assert sorted(grouped) == [0, 1]
        assert [r.t_start for r in grouped[1]] == [1.0, 5.0]


class TestExport:
    def test_csv_round(self):
        text = records_to_csv([rec(path="f.shdf")])
        lines = text.strip().split("\n")
        assert lines[0].startswith("module,op,rank,path")
        assert "f.shdf" in lines[1]

    def test_summary_payload_and_json(self):
        r = Recorder()
        r.record_io("m", "write_attribute", 0, nbytes=10, t_start=0, t_end=1)
        r.record_io("m", "bg_write", 0, nbytes=10, t_start=1, t_end=2,
                    visible=False)
        r.count_send(0, 1, 64, eager=True)
        payload = summary_payload(r, [("m", IOStats(retries=2))])
        assert payload["nrecords"] == 2
        assert payload["modules"]["m"]["overlap_ratio"] == pytest.approx(0.5)
        assert payload["comm"]["messages_sent"] == 1
        assert payload["counters"] == {"m": {"retries": 2}}
        assert "records" not in payload
        parsed = json.loads(json.dumps(summary_payload(r, [], include_records=True)))
        assert len(parsed["records"]) == 2
        assert parsed["counters"] == {}

    def test_stat_counts_sum_each_count_over_its_holders(self):
        """A module's count is the sum of the field over every holder;
        zeros, and modules with no count, are left out; a mapping
        (the fault injector's) counts as it stands."""
        counts = stat_counts([
            ("rocpanda", IOStats(failovers=1, bytes_written=99)),
            ("rocpanda", IOStats(failovers=2, sync_reasks=1)),
            ("rocpanda", ServerStats(write_flushes=4, crashed=True)),
            ("rocpanda", ServerStats(write_flushes=3)),
            ("rochdf", IOStats()),
            ("faults", {"server_crash": 1}),
        ])
        assert counts == {
            "faults": {"server_crash": 1},
            "rocpanda": {"crashed": 1, "failovers": 3, "sync_reasks": 1, "write_flushes": 7},
        }
        assert type(counts["rocpanda"]["crashed"]) is int

    def test_log_event_appends(self):
        r = Recorder()
        r.log_event(0.25, "fault", 7, "server 3 dead")
        assert [(e.time, e.category, e.rank) for e in r.events] == [(0.25, "fault", 7)]
        assert "r7" in str(r.events[0]) and "server 3 dead" in str(r.events[0])

    def test_render_timeline(self):
        records = [rec(rank=0, path="a"), rec(rank=2, path="b"),
                   rec(rank=2, t_start=1.0, t_end=2.0)]
        text = render_timeline(records, limit_per_rank=1)
        assert "rank 0:" in text
        assert "rank 2:" in text
        assert "1 more record(s)" in text
        only = render_timeline(records, ranks=[0])
        assert "rank 2:" not in only


class TestEndToEndRecordStream:
    def _run_rochdf(self, nblocks=1, cells=500):
        def main(ctx):
            com = Roccom(ctx)
            com.load_module(RochdfModule(ctx))
            w = com.new_window("W")
            w.declare_attribute(AttributeSpec("f", LOC_ELEMENT))
            rng = np.random.default_rng(0)
            for i in range(nblocks):
                w.register_pane(i, 0, cells)
                w.set_array("f", i, rng.random(cells))
            yield from com.call_function("OUT.write_attribute", "W", None, "e2e")

        machine = Machine(make_testbox(), seed=0)
        return run_spmd(machine, 1, main)

    def test_write_attribute_record_sequence(self):
        result = self._run_rochdf()
        records = result.recorder.io_records
        ops = [(r.module, r.op) for r in records]
        # One file open, the datasets, the close, then the module-level
        # record for the whole interface call.
        assert ops[0] == ("shdf", "open")
        assert ops[-1] == ("rochdf", "write_attribute")
        assert ops[-2] == ("shdf", "close")
        # The fault-free fast path coalesces the snapshot's datasets
        # into one merged transfer record.
        assert ("shdf", "write_records") in ops
        top = records[-1]
        assert top.visible
        assert top.nbytes > 0
        # The module record spans all the file-layer records.
        assert top.t_start <= records[0].t_start
        assert top.t_end >= records[-2].t_end
        # Plain Rochdf hides nothing.
        assert overlap_ratio(records, module="rochdf") == 0.0

    def test_a_restart_job_records_no_output_time(self):
        """A Rocpanda job that only restarts a checkpoint writes nothing:
        every visible record of it is restart or sync time."""
        motor = lab_scale_motor(
            scale=0.02, nblocks_fluid=16, nblocks_solid=16, steps=2, snapshot_interval=2
        )
        panda = dict(workload=motor, io_mode="rocpanda", nservers=2)
        machine = Machine(turing(), seed=100)
        run_genx(machine, 18, GENxConfig(prefix="w", **panda))
        restart = Machine(turing(), seed=100, disk=machine.disk)
        result = run_genx(restart, 18, GENxConfig(
            prefix="r", steps=0, initial_snapshot=False,
            restart_step=2, restart_prefix="w", **panda,
        ))
        records = result.recorder.io_records
        phases = phase_rollup(records)
        assert phases["shdf"]["restart"] > 0
        assert not [m for m, p in phases.items() if "output" in p]
        assert all(r.visible_write_time == 0.0 for r in aggregate(records).values())

    def test_comm_counters_from_job(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.world.send(b"x" * 1000, dest=1)
            else:
                yield from ctx.world.recv(source=0)

        machine = Machine(make_testbox(), seed=0)
        result = run_spmd(machine, 2, main)
        comm = result.recorder.comm
        assert comm.messages_sent == 1
        assert comm.messages_received == 1
        assert comm.bytes_sent == comm.bytes_received == 1000
        assert comm.sent_by_rank == {0: 1}
