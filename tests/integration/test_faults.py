"""Integration tests: fault injection across the full I/O stack.

Covers the headline recovery stories end to end: an I/O-server crash
whose block assignments fail over to the survivor (with a
different-server-count restart reading back bit-identical data), the
buffer-overflow counter surfacing through the obs rollups, background
write faults reported at the next sync, and the faultbench chaos
matrix meeting its 100%-recovery acceptance bar.
"""

import pathlib
import re

import numpy as np
import pytest

import repro.io
from repro.bench import run_faultbench
from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.cluster import turing
from repro.faults import FaultPlan, MessageFault, RetryPolicy, ServerCrash, TransientEIO
from repro.genx import GENxConfig, lab_scale_motor, run_genx
from repro.fs.vfs import TransientIOError
from repro.io import (
    BackgroundWriteError,
    PandaServer,
    RochdfModule,
    RocpandaModule,
    ServerConfig,
    TRochdfModule,
    rocpanda_init,
)
from repro.io.base import record_block_ids
from repro.io.rocpanda import server as panda_server
from repro.io.rocpanda.protocol import TAG_CTRL, TAG_REPLY
from repro.obs import summary_payload
from repro.roccom import AttributeSpec, LOC_ELEMENT, LOC_NODE, Roccom
from repro.shdf import TornFileError, decode_file, scan_file
from repro.shdf.codec import COMMIT_MAGIC, COMMIT_SIZE, FILE_MAGIC, encode_commit_footer
from repro.vmpi import run_spmd
from tests.restored import file_blocks

NBLOCKS = 3  # per client
EAGER_NODES = 300


def _declare(com):
    w = com.new_window("Fluid")
    w.declare_attribute(AttributeSpec("coords", LOC_NODE, ncomp=3))
    w.declare_attribute(AttributeSpec("pressure", LOC_ELEMENT))
    return w


def _write_main(
    nservers, server_config=None, servers=None, after_sync=None, nodes=1200,
    prefixes=("ck",), client_buffering=False,
):
    """Checkpoint writer: data depends only on the client rank.

    ``servers`` (a list) collects the live :class:`PandaServer` objects;
    ``after_sync(ctx, window)`` runs at the instant ``OUT.sync`` returns.
    The default ``nodes`` makes 34 KB rendezvous-sized blocks;
    ``EAGER_NODES`` makes 9 KB ones the servers' write-behind stage merges.
    ``prefixes`` names the snapshots, written back to back before the sync.
    ``client_buffering`` ships them from the clients' background senders.
    """

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            server = PandaServer(ctx, topo, server_config)
            if servers is not None:
                servers.append(server)
            stats = yield from server.run()
            return ("server", stats)
        com = Roccom(ctx)
        panda = com.load_module(
            RocpandaModule(ctx, topo, client_buffering=client_buffering)
        )
        w = _declare(com)
        rng = np.random.default_rng(300 + topo.comm.rank)
        for i in range(NBLOCKS):
            pid = topo.comm.rank * NBLOCKS + i
            nn, ne = nodes + i, nodes // 2 + i
            w.register_pane(pid, nn, ne)
            w.set_array("coords", pid, rng.random((nn, 3)))
            w.set_array("pressure", pid, rng.random(ne))
        yield from ctx.sleep(0.05)  # past init: faults land mid-write
        for prefix in prefixes:
            yield from com.call_function("OUT.write_attribute", "Fluid", None, prefix)
        yield from com.call_function("OUT.sync")
        if after_sync is not None:
            after_sync(ctx, w)
        yield from panda.finalize()
        return ("client", panda.stats)

    return main


def _restart_main(nservers, per_client):
    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            stats = yield from PandaServer(ctx, topo).run()
            return ("server", stats)
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("Fluid")
        first = topo.comm.rank * per_client
        for pid in range(first, first + per_client):
            w.register_pane(pid, 0, 0)
        ids = yield from com.call_function("OUT.read_attribute", "Fluid", None, "ck")
        restored = {
            pid: {
                "coords": w.get_array("coords", pid).copy(),
                "pressure": w.get_array("pressure", pid).copy(),
            }
            for pid in ids
        }
        yield from panda.finalize()
        return ("client", restored)

    return main


def _launch(nprocs, main, plan=None, seed=0, disk=None, spec=None):
    """Run ``main`` on the test box (per-node disks), or on ``spec``."""
    machine = Machine(
        spec or make_testbox(nnodes=8, cpus_per_node=4), seed=seed, disk=disk
    )
    if plan is not None:
        machine.install_faults(plan)
    return run_spmd(machine, nprocs, main), machine


def _disk_image(machine):
    return {path: machine.disk.open(path).read() for path in machine.disk.listdir("")}


def _checkpoint_then_restart(plan, spec=None, **write_kwargs):
    """Write 8 procs / 2 servers (under ``plan``), restart 6 / 3."""
    result, machine = _launch(
        8, _write_main(2, **write_kwargs), plan=plan, spec=spec
    )
    restart, _ = _launch(
        6, _restart_main(3, per_client=NBLOCKS * 2), seed=1, disk=machine.disk
    )
    restored = {}
    for kind, value in restart.returns:
        if kind == "client":
            restored.update(value)
    return result, machine, restored


class TestServerCrashFailover:
    """ISSUE satellite: crash + failover + different-server-count restart."""

    @pytest.mark.parametrize("client_buffering", [False, True])
    def test_restart_bit_identical_to_fault_free_reference(self, client_buffering):
        """Also when the blocks in flight at the crash belong to the
        clients' background senders, which then do the failover."""
        _, _, reference = _checkpoint_then_restart(plan=None)
        plan = FaultPlan((ServerCrash(rank=4, at_time=0.055),))
        result, machine, restored = _checkpoint_then_restart(
            plan, client_buffering=client_buffering
        )

        # The fault actually happened and was survived, not avoided.
        assert machine.is_dead(4)
        server_stats = [s for kind, s in result.returns if kind == "server"]
        assert any(s.crashed for s in server_stats)
        client_stats = [s for kind, s in result.returns if kind == "client"]
        assert sum(s.failovers for s in client_stats) >= 1

        # Every block of the 18-block checkpoint came back bit-identical.
        assert set(restored) == set(reference) == set(range(18))
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(
                    restored[pid][name], reference[pid][name]
                )

    def test_crash_recorded_in_obs_counters(self):
        plan = FaultPlan((ServerCrash(rank=4, at_time=0.055),))
        result, _ = _launch(8, _write_main(2), plan=plan)
        counters = summary_payload(result.recorder)["counters"]
        assert counters["faults"]["server_crash"] == 1
        assert counters["rocpanda"]["server_crashes"] == 1
        assert counters["rocpanda"]["failovers"] >= 1

    def test_fault_events_name_the_dead_server_and_the_heir(self):
        plan = FaultPlan((ServerCrash(rank=4, at_time=0.055),))
        result, _ = _launch(8, _write_main(2), plan=plan)
        events = [e for e in result.recorder.events if e.category == "fault"]
        # Each client of the dead server says who died and who took over.
        assert [(e.rank, e.message) for e in events if e.rank != 4] == [
            (client, "server 4 dead; failing over to 0") for client in (5, 6, 7)
        ]
        assert any(e.rank == 4 and "crashed" in e.message for e in events)
        # A fault-free run has nothing to say.
        clean, _ = _launch(8, _write_main(2))
        assert clean.recorder.events == []


class TestWriteBehindStage:
    """The server's staged transfers under faults, crashes and sync."""

    @pytest.fixture
    def whole_file_stage(self, monkeypatch):
        """A stage that holds every (eager-sized) block of a file:
        flushes happen only when the queue runs dry or the file closes,
        so each lands several blocks."""
        monkeypatch.setattr(panda_server, "WRITE_BEHIND_BYTES", 2**30)

    @staticmethod
    def _one_server_write(fail_append=None):
        """4 clients / 1 server; optionally fail the server file's
        ``fail_append``-th append (0 is the first landing) once."""
        machine = Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=0)
        appends = []

        def hook(path, nbytes):
            appends.append(nbytes)
            if len(appends) - 1 == fail_append:
                raise TransientIOError(f"injected EIO ({path})")

        machine.disk.fault_hook = hook
        main = _write_main(1, nodes=EAGER_NODES)
        result = run_spmd(machine, 5, main)
        stats = next(s for kind, s in result.returns if kind == "server")
        (path,) = machine.disk.listdir("ck_s")
        return machine.disk.open(path).read(), stats, appends

    def test_eio_on_a_staged_flush_retries_the_flush_alone(self, whole_file_stage):
        reference, ref_stats, ref_appends = self._one_server_write()
        # One append per staged transfer, the header and the footer
        # riding — and the first transfer carries more than one 9 KB block.
        assert ref_stats.write_flushes == len(ref_appends)
        assert ref_stats.write_flushes < ref_stats.blocks_written == 4 * NBLOCKS
        assert ref_appends[0] > 2 * 8_400
        image, stats, appends = self._one_server_write(fail_append=0)
        # Same file: no array staged twice, none lost.
        assert image == reference
        arrays = [
            (block_id, d.attrs["attr"])
            for d in decode_file(image)
            for block_id in record_block_ids(d.attrs)
        ]
        assert len(arrays) == len(set(arrays)) == 2 * 4 * NBLOCKS
        assert stats.write_retries == 1
        assert appends == ref_appends[:1] + ref_appends
        assert stats.write_flushes == ref_stats.write_flushes
        assert stats.blocks_written == ref_stats.blocks_written
        assert stats.bytes_written == ref_stats.bytes_written

    def test_crash_with_a_staged_tail_is_a_torn_file_the_heir_covers(
        self, whole_file_stage
    ):
        clean, _, reference = _checkpoint_then_restart(plan=None, nodes=EAGER_NODES)
        # Mid-way through the bookkeeping of server 4's first block.
        first = next(
            r for r in clean.recorder.io_records
            if (r.rank, r.module, r.op) == (4, "rocpanda", "bg_write")
        )
        servers = []
        plan = FaultPlan((ServerCrash(rank=4, at_time=(first.t_start + first.t_end) / 2),))
        result, machine, restored = _checkpoint_then_restart(
            plan, servers=servers, nodes=EAGER_NODES
        )
        (crashed,) = [s for s in servers if s.stats.crashed]
        # It died holding staged blocks, which it does not report as
        # written: nothing of them reached the disk ...
        staged = [st for st in crashed._paths.values() if st.staged]
        assert staged and all(st.staged_bytes for st in staged)
        assert crashed.stats.blocks_received > 0
        assert crashed.stats.blocks_written == crashed.stats.bytes_written == 0
        # ... in a file that has no commit footer, so the restart scan
        # refuses it and the heir's re-shipped copy supplies the blocks.
        for st in staged:
            with pytest.raises(TornFileError):
                decode_file(machine.disk.open(st.writer.path).read())
        client_stats = [s for kind, s in result.returns if kind == "client"]
        assert sum(s.failovers for s in client_stats) >= 1
        assert set(restored) == set(reference) == set(range(18))
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(
                    restored[pid][name], reference[pid][name]
                )

    @pytest.mark.parametrize(
        "limit",
        [0, panda_server.WRITE_BEHIND_BYTES, 2**30],
        ids=["per_block", "default", "whole_file"],
    )
    @pytest.mark.parametrize("nodes", [EAGER_NODES, 1200], ids=["eager", "rendezvous"])
    def test_sync_returns_only_once_every_shipped_block_is_on_disk(
        self, limit, nodes, monkeypatch
    ):
        monkeypatch.setattr(panda_server, "WRITE_BEHIND_BYTES", limit)
        servers = []
        synced = []

        def after_sync(ctx, window):
            # Nothing this client was told is durable may still be staged.
            assert all(
                st.staged_bytes == 0 and not st.staged
                for server in servers
                for st in server._paths.values()
            )
            # What its server's file holds at this instant (it commits
            # once the server's other clients are done too).
            mine = "ck_s0000.shdf" if ctx.rank < 4 else "ck_s0001.shdf"
            arrays = {
                pid: {attr: window.get_array(attr, pid).copy() for attr in ("coords", "pressure")}
                for pid in window.pane_ids()
            }
            synced.append((mine, ctx.machine.disk.open(mine).read(), arrays))

        _, machine = _launch(8, _write_main(2, None, servers, after_sync, nodes=nodes))
        checked = []
        for path, at_sync, arrays in synced:
            final = machine.disk.open(path).read()
            assert final[: len(at_sync)] == at_sync
            landed = {
                (block_id, header.attrs["attr"])
                for (_name, offset, length), header in scan_file(final)[1].items()
                if offset + length <= len(at_sync)
                for block_id in record_block_ids(header.attrs)
            }
            _attrs, blocks = file_blocks(final)
            for pid, by_attr in arrays.items():
                for attr, array in by_attr.items():
                    assert (pid, attr) in landed
                    assert blocks[pid][2][attr][3] == array.tobytes()
                checked.append(pid)
        assert sorted(checked) == list(range(6 * NBLOCKS))
        written = sum(s.stats.blocks_written for s in servers)
        flushes = sum(s.stats.write_flushes for s in servers)
        assert written == 6 * NBLOCKS
        # Blocks share transfers where there is a limit to share under,
        # eager-sized or rendezvous (the write-slot lease removed the
        # reason to land rendezvous blocks one by one).  Under limit 0
        # blocks share a transfer only where they piled up behind a busy
        # lander: a file's rendezvous blocks do, behind the landing of
        # its first; its eager ones do not.
        assert flushes <= written
        assert (flushes < written) == (limit > 0 or nodes > EAGER_NODES)


class TestWriteSlotLease:
    """Two servers' landers taking turns at Turing's one NFS write slot."""

    @staticmethod
    def _records(result, rank, module, op):
        return [
            r for r in result.recorder.io_records
            if (r.rank, r.module, r.op) == (rank, module, op)
        ]

    @pytest.fixture(scope="class")
    def contended_instant(self):
        """An instant at which server 4's lander holds the lease (inside
        a transfer) while server 0's is queued — in the fault-free run,
        which the crashing runs below follow up to that instant (a plan
        changes nothing of what is sent or when)."""
        result, machine = _launch(8, _write_main(2), spec=turing())
        assert machine.fs.metrics.peak_write_demand == 1
        for wait in self._records(result, 0, "rocpanda", "slot_wait"):
            t = (wait.t_start + wait.t_end) / 2
            if any(
                f.t_start < t < f.t_end for f in self._records(result, 4, "shdf", "flush")
            ):
                return t
        raise AssertionError("server 0 never queued behind a landing of server 4")

    @pytest.mark.parametrize("victim", [4, 0], ids=["holding", "queued"])
    def test_crash_at_the_lease_never_parks_the_survivor(
        self, contended_instant, victim
    ):
        _, _, reference = _checkpoint_then_restart(plan=None, spec=turing())
        servers = []
        plan = FaultPlan((ServerCrash(rank=victim, at_time=contended_instant),))
        result, machine, restored = _checkpoint_then_restart(
            plan, spec=turing(), servers=servers
        )
        # The run terminated (we are here), with the lease free: the
        # crash interrupted the victim's lander too, whose Interrupt
        # unwound through the release (holder) or withdrew its request
        # (queued).
        lease = machine.fs.write_lease()
        assert lease.count == 0 and not lease.queue
        (crashed,) = [s for s in servers if s.stats.crashed]
        (survivor,) = [s for s in servers if not s.stats.crashed]
        assert crashed.ctx.rank == victim
        assert not crashed._lander.busy and not survivor._lander.busy
        # The landing it died in never completed, and nothing of the
        # victim's reached the filesystem after the crash instant.
        assert crashed._landings
        assert all(
            r.t_end <= contended_instant
            for r in result.recorder.io_records
            if r.rank == victim and r.module in ("shdf", "rocpanda")
        )
        # The survivor drained its own blocks and the heir's re-shipped ones.
        assert survivor.stats.blocks_written == 6 * NBLOCKS
        assert not survivor._queue and not survivor._paths
        client_stats = [s for kind, s in result.returns if kind == "client"]
        assert sum(s.failovers for s in client_stats) == 3
        assert set(restored) == set(reference) == set(range(18))
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(
                    restored[pid][name], reference[pid][name]
                )

    def test_faulted_landing_gives_the_lease_up_for_the_back_off(self):
        def run(fail_flush):
            machine = Machine(turing(), seed=0)
            lease = machine.fs.write_lease()
            holders, state = [], {"armed": fail_flush}

            def hook(path, nbytes):
                # Every append is a landing.
                if path.endswith("s0001.shdf"):
                    holders.append(lease.users[0])
                    if state["armed"]:
                        state["armed"] = False
                        raise TransientIOError(f"injected EIO ({path})")

            machine.disk.fault_hook = hook
            result = run_spmd(machine, 8, _write_main(2))
            stats = [s for kind, s in result.returns if kind == "server"]
            image = {p: machine.disk.open(p).read() for p in machine.disk.listdir("ck_s")}
            return image, stats, holders, lease

        reference, ref_stats, ref_holders, _ = run(fail_flush=False)
        image, stats, holders, lease = run(fail_flush=True)
        assert image == reference
        assert sum(s.write_retries for s in stats) == 1
        assert sum(s.write_retries for s in ref_stats) == 0
        assert [s.write_flushes for s in stats] == [s.write_flushes for s in ref_stats]
        # One more landing attempt than landings, and the retry held a
        # *new* grant: the first was released before the back-off.
        assert len(holders) == len(ref_holders) + 1
        assert holders[0] is not holders[1]
        assert lease.count == 0 and not lease.queue

    @pytest.mark.parametrize(
        "faulted", [{0}, {1}, {0, 1}], ids=["header", "footer", "every"]
    )
    def test_a_faulted_entry_resumes_at_the_write_that_faulted(self, faulted):
        """Server 4's file lands in two entries, one write each: the
        first carries the header, the second the commit footer.  An EIO
        on either leaves the file's bytes as they were and costs one more
        lock RPC, one more turn at the slot and that one write again; the
        retry lands header, records and footer exactly once."""

        def run(fail=frozenset()):
            machine = Machine(turing(), seed=0)
            appends = []

            offsets = []  # where each landing starts, in landing order

            def hook(path, nbytes):
                if path.endswith("s0001.shdf"):
                    offset = machine.disk.open(path).size
                    appends.append((offset, nbytes))
                    if offset not in offsets:  # a landing's first attempt
                        offsets.append(offset)
                        if len(offsets) - 1 in fail:
                            raise TransientIOError(f"injected EIO ({path})")

            machine.disk.fault_hook = hook
            result = run_spmd(machine, 8, _write_main(2))
            stats = [s for kind, s in result.returns if kind == "server"]
            image = {p: machine.disk.open(p).read() for p in machine.disk.listdir("ck_s")}
            return result, machine, image, stats, appends

        result, ref_machine, reference, ref_stats, ref_appends = run()
        # Two landings, one append each, the first at offset 0.
        assert [size for size, _n in ref_appends] == [0, ref_appends[0][1]]
        assert len(reference["ck_s0001.shdf"]) == sum(n for _s, n in ref_appends)
        lands = self._records(result, 4, "rocpanda", "land")
        assert len(lands) == 2 and all(land.nbytes > 0 for land in lands)
        _, machine, image, stats, appends = run(frozenset(faulted))
        assert image == reference
        # Each faulted landing is attempted twice, at the same offset.
        assert appends == [a for k, a in enumerate(ref_appends) for _ in range(1 + (k in faulted))]
        assert sum(s.write_retries for s in stats) == len(faulted)
        assert [s.write_flushes for s in stats] == [s.write_flushes for s in ref_stats]
        assert [s.blocks_written for s in stats] == [s.blocks_written for s in ref_stats]
        metrics, ref_metrics = machine.fs.metrics, ref_machine.fs.metrics
        assert metrics.write_ops == ref_metrics.write_ops + len(faulted)
        # The retries' lock RPCs, nothing else re-paid.
        assert metrics.meta_ops == ref_metrics.meta_ops + len(faulted)
        lease = machine.fs.write_lease()
        assert lease.count == 0 and not lease.queue

    def test_crash_after_the_footer_leaves_a_committed_file(self):
        """The close round trip is paid after the lease is given back; a
        server that dies in it has written its commit footer."""
        result, _ = _launch(8, _write_main(2), spec=turing())
        closing = self._records(result, 4, "rocpanda", "settle")[-1]
        assert closing.t_start == self._records(result, 4, "rocpanda", "land")[-1].t_end
        crash_at = (closing.t_start + closing.t_end) / 2

        _, _, reference = _checkpoint_then_restart(plan=None, spec=turing())
        servers = []
        plan = FaultPlan((ServerCrash(rank=4, at_time=crash_at),))
        _, machine, restored = _checkpoint_then_restart(
            plan, spec=turing(), servers=servers
        )
        (crashed,) = [s for s in servers if s.stats.crashed]
        assert crashed.stats.blocks_written == 3 * NBLOCKS
        assert [(blocks, close) for _st, blocks, close in crashed._landings] == [([], True)]
        lease = machine.fs.write_lease()
        assert lease.count == 0 and not lease.queue
        # Committed: the restart scan takes it (beside the heir's copy of
        # the blocks its unanswered clients re-shipped).
        _attrs, committed = file_blocks(machine.disk.open("ck_s0001.shdf").read())
        assert sum(len(arrays) for _nn, _ne, arrays in committed.values()) == 2 * 3 * NBLOCKS
        assert set(restored) == set(reference) == set(range(18))
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(
                    restored[pid][name], reference[pid][name]
                )

    def test_crash_with_sealed_stages_still_to_land(self):
        """Three snapshots back to back: a busy lander is sealed nothing
        by size, but every later file's close entry queues behind it,
        carrying all that was staged meanwhile — header, blocks and
        footer in one landing."""
        prefixes = ("aa", "bb", "ck")
        result, _ = _launch(8, _write_main(2, prefixes=prefixes), spec=turing())
        lands = self._records(result, 4, "rocpanda", "land")
        staged = self._records(result, 4, "rocpanda", "bg_write")
        assert len(staged) == 3 * NBLOCKS * len(prefixes)
        # The second file's only landing, after the main loop staged its
        # last block and retired its last file.
        in_flight = next(r for r in lands if r.path.startswith("bb_"))
        assert [r.path for r in lands].count(in_flight.path) == 1
        assert in_flight.nbytes > 0 and in_flight.t_start > staged[-1].t_end
        crash_at = (in_flight.t_start + in_flight.t_end) / 2

        _, _, reference = _checkpoint_then_restart(plan=None, spec=turing())
        servers = []
        plan = FaultPlan((ServerCrash(rank=4, at_time=crash_at),))
        result, machine, restored = _checkpoint_then_restart(
            plan, spec=turing(), servers=servers, prefixes=prefixes
        )
        (crashed,) = [s for s in servers if s.stats.crashed]
        # The first file landed whole; the second's one landing was in
        # flight, the third file's sealed behind it — all still buffer
        # memory, none reported written.
        assert crashed.stats.blocks_written == 3 * NBLOCKS
        assert [
            (len(blocks), close) for _st, blocks, close in crashed._landings
        ] == [(3 * NBLOCKS, True)] * 2
        assert crashed._buffered_bytes == sum(
            b.nbytes for _st, blocks, _close in crashed._landings for b in blocks
        )
        assert not crashed._lander.busy and not crashed._paths
        lease = machine.fs.write_lease()
        assert lease.count == 0 and not lease.queue
        # No byte of a queued landing after the crash instant: the first
        # file is committed, the other two are empty (created, nothing
        # landed) — torn, and covered by the heir.
        decode_file(machine.disk.open("aa_s0001.shdf").read())
        for state, _blocks, _close in crashed._landings:
            image = machine.disk.open(state.writer.path).read()
            assert len(image) == 0
            with pytest.raises(TornFileError):
                decode_file(image)
        assert all(
            r.t_end <= crash_at
            for r in result.recorder.io_records
            if r.rank == 4 and r.module in ("shdf", "rocpanda")
        )
        assert set(restored) == set(reference) == set(range(18))
        for pid in reference:
            for name in ("coords", "pressure"):
                np.testing.assert_array_equal(
                    restored[pid][name], reference[pid][name]
                )

    def test_heir_adopts_while_its_own_lander_is_busy(self, contended_instant):
        servers = []
        plan = FaultPlan((ServerCrash(rank=4, at_time=contended_instant),))
        result, machine, restored = _checkpoint_then_restart(
            plan, spec=turing(), servers=servers
        )
        (heir,) = [s for s in servers if not s.stats.crashed]
        # At the crash the heir's lander was mid-landing, queued for the
        # slot the victim held (the victim's release is its grant) ...
        assert any(
            r.t_start < contended_instant == r.t_end
            for r in self._records(result, 0, "rocpanda", "slot_wait")
        )
        # ... and its main loop took the orphaned clients' re-shipped
        # snapshot meanwhile and afterwards, into the same file.
        adopted = [
            r for r in self._records(result, 0, "rocpanda", "ingest")
            if r.t_start > contended_instant
        ]
        assert adopted and heir.stats.blocks_received == 6 * NBLOCKS
        assert heir.stats.blocks_written == 6 * NBLOCKS
        assert heir._buffered_bytes == 0 and not heir._landings
        assert not heir._lander.busy
        assert set(restored) == set(range(18))

    def test_exhausted_retries_in_the_lander_raise_out_of_run(self):
        """Landings that fail for good must not hang the clients in sync
        nor let the job end as if the data were safe."""
        machine = Machine(turing(), seed=0)

        def hook(path, nbytes):
            raise TransientIOError(f"injected EIO ({path})")  # every landing

        machine.disk.fault_hook = hook
        servers = []
        config = ServerConfig(retry=RetryPolicy(max_attempts=3, base_delay=1e-4))
        with pytest.raises(BackgroundWriteError, match="landing failed for good"):
            run_spmd(machine, 8, _write_main(2, config, servers))
        failed = [s for s in servers if s.stats.write_retries]
        assert failed and all(s.stats.write_retries == 2 for s in failed)
        assert all(s.stats.blocks_written == 0 and not s.stats.crashed for s in servers)

    def test_a_queued_server_still_answers_a_rendezvous_sender(self):
        """Server 4's clients ship 1 MB blocks, so its landings hold the
        slot for ~20 ms each.  Client 1 ships a late snapshot ``b`` that
        gives server 0 something to land — it queues behind server 4 —
        and client 2 ships ``c`` (rendezvous-sized blocks) meanwhile."""
        late = {}

        def main(ctx):
            topo = yield from rocpanda_init(ctx, 2)
            if topo.is_server:
                stats = yield from PandaServer(ctx, topo).run()
                return ("server", stats)
            com = Roccom(ctx)
            panda = com.load_module(RocpandaModule(ctx, topo))
            w = _declare(com)
            nn = 40_000 if ctx.rank > 4 else 1200
            rng = np.random.default_rng(ctx.rank)
            for i in range(NBLOCKS):
                pid = topo.comm.rank * NBLOCKS + i
                w.register_pane(pid, nn, nn // 2)
                w.set_array("coords", pid, rng.random((nn, 3)))
                w.set_array("pressure", pid, rng.random(nn // 2))
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "a")
            if ctx.rank in (1, 2):
                yield from ctx.sleep(0.12 if ctx.rank == 1 else 0.13)
                t0 = ctx.now
                yield from com.call_function(
                    "OUT.write_attribute", "Fluid", None, "bc"[ctx.rank - 1]
                )
                late[ctx.rank] = (t0, ctx.now)
            yield from com.call_function("OUT.sync")
            yield from panda.finalize()
            return ("client", panda.stats)

        result, machine = _launch(8, main, spec=turing())
        asked, sent = late[2]
        ingests = [
            r for r in self._records(result, 0, "rocpanda", "ingest") if r.path == "c"
        ]
        assert len(ingests) == NBLOCKS and asked < ingests[0].t_start
        # Server 0's main loop took the late blocks while its lander sat
        # queued for the slot, in one unbroken wait (it keeps its place) ...
        waits = self._records(result, 0, "rocpanda", "slot_wait")
        assert any(
            w.t_start < asked and ingests[-1].t_end < w.t_end for w in waits
        )
        # ... while server 4 held it, inside one transfer ...
        assert any(
            f.t_start < ingests[0].t_start and ingests[-1].t_end < f.t_end
            for f in self._records(result, 4, "shdf", "flush")
        )
        # ... so the sender was done before server 0 next touched the
        # filesystem (the first landing, header and all, its lander had
        # been queueing for all along).
        held = [
            r for op in ("open", "flush", "close")
            for r in self._records(result, 0, "shdf", op) if r.t_end > asked
        ]
        assert sent <= min(r.t_start for r in held)
        assert machine.fs.metrics.peak_write_demand == 1


class TestSyncSurvivesLostMessages:
    """``SyncRequest`` and ``SyncReply`` are eager: a drop is invisible
    to the transport, and only the client's re-ask recovers it."""

    @pytest.mark.parametrize(
        "lost", [dict(tag=TAG_CTRL, src=1), dict(tag=TAG_REPLY, dst=1)],
        ids=["request", "reply"],
    )
    def test_a_dropped_sync_message_is_asked_for_again(self, lost):
        clean, clean_machine = _launch(8, _write_main(2))
        (asked,) = [
            r for r in clean.recorder.io_records
            if (r.rank, r.module, r.op) == (1, "rocpanda", "sync")
        ]
        # Client 1's first control message from the instant it enters
        # sync is its SyncRequest; the first reply it is sent, the ack.
        plan = FaultPlan((MessageFault("drop", start=asked.t_start, **lost),))
        result, machine = _launch(8, _write_main(2), plan=plan)
        counters = summary_payload(result.recorder)["counters"]
        assert counters["faults"] == {"msg_drop": 1}
        assert counters["rocpanda"]["sync_reasks"] == 1
        assert "sync_reasks" not in summary_payload(clean.recorder)["counters"].get(
            "rocpanda", {}
        )
        # A re-ask is not a retry: no faulted operation was redone.
        client_stats = [s for kind, s in result.returns if kind == "client"]
        assert sum(s.retries + s.failovers for s in client_stats) == 0
        (synced,) = [
            r for r in result.recorder.io_records
            if (r.rank, r.module, r.op) == (1, "rocpanda", "sync")
        ]
        assert synced.t_end > asked.t_end
        assert _disk_image(machine) == _disk_image(clean_machine)


class TestOverflowCounterExport:
    """ISSUE satellite: overflow_flushes visible in the obs rollups."""

    def test_forced_overflow_shows_in_summary_payload(self):
        config = ServerConfig(buffer_bytes=2048)  # << one 34 KB block
        result, _ = _launch(5, _write_main(1, server_config=config))
        stats = next(s for kind, s in result.returns if kind == "server")
        assert stats.overflow_flushes >= 1
        payload = summary_payload(result.recorder)
        assert (
            payload["counters"]["rocpanda"]["overflow_flushes"]
            == stats.overflow_flushes
        )

    def test_no_overflow_no_counter(self):
        result, _ = _launch(5, _write_main(1))
        counters = summary_payload(result.recorder)["counters"]
        assert "overflow_flushes" not in counters.get("rocpanda", {})


class TestBackgroundWriteFaultReporting:
    """T-Rochdf's I/O thread must not die silently on write faults."""

    def test_exhausted_retries_surface_at_next_sync(self):
        plan = FaultPlan((TransientEIO(count=500),))  # never heals

        def main(ctx):
            com = Roccom(ctx)
            com.load_module(
                TRochdfModule(
                    ctx, retry=RetryPolicy(max_attempts=2, base_delay=1e-4)
                )
            )
            w = _declare(com)
            w.register_pane(ctx.rank, 16, 8)
            rng = np.random.default_rng(ctx.rank)
            w.set_array("coords", ctx.rank, rng.random((16, 3)))
            w.set_array("pressure", ctx.rank, rng.random(8))
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "bad")
            try:
                yield from com.call_function("OUT.sync")
            except BackgroundWriteError as exc:
                return ("failed", str(exc))
            return ("ok", None)

        result, _ = _launch(2, main, plan=plan)
        assert all(kind == "failed" for kind, _ in result.returns)
        assert all("bad" in message for _, message in result.returns)
        counters = summary_payload(result.recorder)["counters"]
        assert counters["trochdf"]["background_write_failures"] >= 2


class TestCoalescedWriteResumesAtFaultedStage:
    """One snapshot file is open (the create round trip) / staged records
    / close, and what each stage puts in the file — header, records,
    commit footer — rides close's one merged write.  A fault in it leaves
    the file empty and everything staged; the retry, ``close`` again,
    lands each stage's bytes exactly once."""

    @staticmethod
    def _write(fail_append=None):
        def main(ctx):
            com = Roccom(ctx)
            mod = com.load_module(RochdfModule(ctx))
            w = _declare(com)
            rng = np.random.default_rng(5)
            for pid in range(2):
                w.register_pane(pid, 16, 8)
                w.set_array("coords", pid, rng.random((16, 3)))
                w.set_array("pressure", pid, rng.random(8))
            yield from com.call_function("OUT.write_attribute", "Fluid", None, "st")
            return mod.stats

        machine = Machine(make_testbox(nnodes=1, cpus_per_node=1), seed=0)
        sizes = []  # the file's size at each append attempt

        def hook(path, nbytes):
            sizes.append(machine.disk.open(path).size)
            if len(sizes) - 1 == fail_append:
                raise TransientIOError(f"injected EIO ({path})")

        machine.disk.fault_hook = hook
        (stats,) = run_spmd(machine, 1, main).returns
        (path,) = machine.disk.listdir("st")
        return bytes(machine.disk.open(path).read()), stats, sizes

    @pytest.mark.parametrize("stage", ["open", "records", "close"])
    def test_fault_in_each_stage(self, stage):
        reference, ref_stats, ref_sizes = self._write()
        assert (ref_sizes, ref_stats.retries) == ([0], 0)
        image, stats, sizes = self._write(fail_append=0)
        assert image == reference
        assert (sizes, stats.retries) == ([0, 0], 1)
        assert stats.blocks_written == ref_stats.blocks_written == 2
        assert stats.bytes_written == ref_stats.bytes_written
        _attrs, records = scan_file(image)
        if stage == "open":
            assert image.startswith(FILE_MAGIC) and image.count(FILE_MAGIC) == 1
        elif stage == "records":
            names = [name for name, _offset, _length in records]
            assert len(names) == len(set(names)) == 2 * 2
        else:
            assert image.count(COMMIT_MAGIC) == 1
            assert image[-COMMIT_SIZE:] == encode_commit_footer(len(records))


class TestIdleInjectorIsTransparent:
    """An installed injector that never fires must not change the run.

    Every I/O service has one data path and one protocol whether or not
    an injector is installed, so the fault matrix measures the path
    production runs — also under a plan that *could* kill a rank, the
    one thing a Rocpanda client looks at (it keeps un-synced output).
    """

    @staticmethod
    def _run(io_mode, plan):
        machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=7)
        if plan is not None:
            machine.install_faults(plan)
        config = GENxConfig(
            workload=lab_scale_motor(scale=0.02, steps=4, snapshot_interval=2),
            io_mode=io_mode,
            nservers=1 if io_mode == "rocpanda" else 0,
        )
        result = run_genx(machine, 4, config)
        return result.wall_time, result.visible_io_time, _disk_image(machine)

    @pytest.mark.parametrize("io_mode", ["rochdf", "trochdf", "rocpanda"])
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(()),
            FaultPlan((TransientEIO(start=1e9),)),
            FaultPlan((ServerCrash(rank=0, at_time=1e9),)),
        ],
        ids=["empty_plan", "never_fires", "crash_never_comes"],
    )
    def test_same_times_and_disk_image_as_no_injector(self, io_mode, plan):
        reference = self._run(io_mode, None)
        assert reference[2], "job wrote no files"
        assert self._run(io_mode, plan) == reference

    def test_no_io_module_asks_whether_an_injector_is_installed(self):
        """The fork cannot come back unnoticed: nothing under
        ``repro/io`` holds the injector or branches on its presence
        (liveness is ``machine.is_dead``, always there)."""
        fork = re.compile(r"faults is (not )?None|_faults\b")
        sources = sorted(pathlib.Path(repro.io.__file__).parent.rglob("*.py"))
        assert len(sources) > 5
        hits = [
            f"{path.name}:{n}: {line.strip()}"
            for path in sources
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if fork.search(line)
        ]
        assert not hits, hits


class TestChaosMatrix:
    """ISSUE acceptance: 100% recovery, 100% determinism, full matrix."""

    def test_batched_shipping_rows_recover(self):
        """Spot-check: the rocpanda rows stay at 100% recovery and
        determinism, so the encoded batch — shipped, and after a
        failover re-shipped, one guarded block at a time — replays
        cleanly under faults."""
        payload = run_faultbench(
            only=["server_crash/rocpanda", "msg_drop/rocpanda"]
        )
        assert payload["recovery_rate"] == 1.0
        assert payload["determinism_rate"] == 1.0

    def test_full_matrix_recovers_and_replays(self):
        payload = run_faultbench()
        failed = [
            f"{r['scenario']}/{r['module']}"
            for r in payload["matrix"]
            if not (r["recovered"] and r["runs_identical"])
        ]
        assert not failed, f"non-recovered or non-deterministic rows: {failed}"
        assert payload["recovery_rate"] == 1.0
        assert payload["determinism_rate"] == 1.0
        assert len(payload["matrix"]) >= 10
