"""Unit tests for SHDFWriter's file-level write-behind stage."""

import numpy as np
import pytest

from repro.des import Environment
from repro.fs import NFSModel, TransientIOError
from repro.obs import Recorder
from repro.shdf import (
    Dataset,
    SHDFWriter,
    decode_file,
    hdf4_driver,
)
from repro.shdf.codec import encode_batch


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


def batches(nbatches=4, per_batch=3):
    rng = np.random.default_rng(11)
    return [
        encode_batch(
            Dataset(f"W/b{b}/f{k}", rng.random(30 + 7 * b + k), {"ncomp": 1})
            for k in range(per_batch)
        )
        for b in range(nbatches)
    ]


def write_file(flush_every_call, end_with_flush=False):
    """One file from the same batches; returns (bytes, fs, writer)."""
    env = Environment()
    fs = NFSModel(env)
    writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())

    def program():
        yield from writer.open(file_attrs={"k": 1})
        for records in batches():
            yield from writer.write_records(records)
            if flush_every_call:
                yield from writer.flush()
        if end_with_flush:
            yield from writer.flush()
            assert writer.staged_bytes == 0
        yield from writer.close()

    drive(env, program())
    return bytes(fs.disk.open("f.shdf").read()), fs, writer


class TestStagedWriteRecords:
    @pytest.mark.parametrize("end_with_flush", [False, True])
    def test_same_bytes_as_flushing_every_call(self, end_with_flush):
        eager, fs_eager, _ = write_file(True)
        staged, fs_staged, writer = write_file(False, end_with_flush)
        assert staged == eager
        assert writer.staged_bytes == 0
        # Same bytes and bookkeeping charged.  Flushing every call is a
        # transfer per batch (the header riding the first) and the
        # footer alone; staging is one transfer carrying all of it — two
        # if a flush before the close leaves the footer on its own.
        nbatches = len(batches())
        assert fs_eager.metrics.write_ops == nbatches + 1
        assert fs_staged.metrics.write_ops == 1 + end_with_flush
        assert fs_staged.metrics.bytes_written == fs_eager.metrics.bytes_written
        assert fs_staged.metrics.meta_ops == fs_eager.metrics.meta_ops

    def test_staging_pays_bookkeeping_but_lands_nothing(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        first, second = batches(2)

        def program():
            yield from writer.open()
            # The create round trip alone: the header waits, staged, for
            # the first landing.
            assert writer._vfile.size == 0 and fs.metrics.write_ops == 0
            header = writer.staged_bytes
            assert header > 0
            size, ops, t0 = writer._vfile.size, fs.metrics.write_ops, env.now
            yield from writer.write_records(first)
            assert env.now > t0  # create_cost + meta ops are per batch
            assert writer._vfile.size == size
            assert fs.metrics.write_ops == ops
            # ndatasets counts staged records: the next batch's
            # create_cost is charged at the true directory size.
            assert writer.ndatasets == len(first[1])
            meta = hdf4_driver().meta_bytes_per_dataset
            assert writer.staged_bytes == header + len(first[0]) + meta * len(first[1])
            # One flush lands everything staged, in order.
            yield from writer.write_records(second)
            assert writer.staged_bytes == header + sum(
                len(buf) + meta * len(entries) for buf, entries in (first, second)
            )
            yield from writer.flush()
            assert writer.staged_bytes == 0
            assert fs.metrics.write_ops == ops + 1
            assert writer._vfile.size == size + header + len(first[0]) + len(second[0])
            yield from writer.close()

        drive(env, program())

    def test_flush_on_empty_stage_is_a_noop(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())

        def program():
            yield from writer.open()
            yield from writer.flush()  # the header, alone
            assert fs.metrics.write_ops == 1 and writer._vfile.size > 0
            t0, ops = env.now, fs.metrics.write_ops
            yield from writer.flush()
            yield from writer.write_records(encode_batch([]))
            assert (env.now, fs.metrics.write_ops) == (t0, ops)
            yield from writer.close()

        drive(env, program())

    def test_closed_writer_rejects_staging_and_flush(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        (records,) = batches(1)

        def program():
            yield from writer.open()
            yield from writer.write_records(records)
            yield from writer.close()

        drive(env, program())
        assert writer.staged_bytes == 0
        with pytest.raises(RuntimeError):
            drive(env, writer.write_records(records))
        with pytest.raises(RuntimeError):
            drive(env, writer.flush())


class TestFaultedFlush:
    def _faulting_fs(self, env):
        """Once armed, the next append faults; later ones succeed."""
        fs = NFSModel(env)
        left = {"n": 1, "armed": False}

        def hook(path, nbytes):
            if left["armed"] and left["n"] > 0:
                left["n"] -= 1
                raise TransientIOError(path)

        fs.disk.fault_hook = hook
        return fs, left

    @pytest.mark.parametrize("fault_in", ["flush", "close"])
    def test_fault_keeps_the_stage_and_retry_lands_it_once(self, fault_in):
        env = Environment()
        fs, fault = self._faulting_fs(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        (records,) = batches(1)

        def program():
            yield from writer.open()
            yield from writer.write_records(records)  # staging cannot fault
            fault["armed"] = True
            size = writer._vfile.size
            with pytest.raises(TransientIOError):
                yield from getattr(writer, fault_in)()
            # Raise-before-mutate: nothing landed, everything still staged,
            # and counted — a retry must not stage the records again.
            assert writer._vfile.size == size
            assert writer.staged_bytes > 0
            assert writer.ndatasets == len(records[1])
            assert writer.is_open
            if fault_in == "flush":
                yield from writer.flush()
            # A re-run close stages no second footer.
            yield from writer.close()

        drive(env, program())
        reference = Environment()
        ref_fs = NFSModel(reference)
        ref = SHDFWriter(reference, ref_fs, "f.shdf", hdf4_driver())

        def clean():
            yield from ref.open()
            yield from ref.write_records(records)
            yield from ref.close()

        drive(reference, clean())
        assert fs.disk.open("f.shdf").read() == ref_fs.disk.open("f.shdf").read()
        # The retry re-paid the transfer, not the format bookkeeping; a
        # flush before the close leaves the footer its own transfer.  The
        # faulted write is not counted, though its seconds are.
        assert fs.metrics.meta_ops == ref_fs.metrics.meta_ops
        assert ref_fs.metrics.write_ops == 1
        assert fs.metrics.write_ops == 1 + (fault_in == "flush")
        assert fs.metrics.bytes_written == ref_fs.metrics.bytes_written
        assert fs.metrics.write_busy_time > ref_fs.metrics.write_busy_time


class TestSealThenLand:
    """Staging and landing as two callers: seal now, land later."""

    def _sealed_writer(self):
        """A begun (not yet open) writer holding three sealed stages —
        header + batch 0, batches 1+2, batch 3 — before anything lands."""
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        b0, b1, b2, b3 = batches()

        def stage():
            writer.begin(file_attrs={"k": 1})
            assert not writer.is_open
            yield from writer.write_records(b0)
            writer.seal()
            writer.seal()  # nothing staged since: no empty stage
            yield from writer.write_records(b1)
            yield from writer.write_records(b2)
            writer.seal()
            yield from writer.write_records(b3)
            writer.seal()
            assert writer.staged_bytes == 0
            # Bookkeeping was CPU only: the filesystem saw nothing yet.
            assert (fs.metrics.meta_ops, fs.metrics.write_ops) == (0, 0)
            assert writer.ndatasets == sum(len(entries) for _buf, entries in batches())

        drive(env, stage())
        return env, fs, writer

    def test_sealed_stages_land_in_order_one_transfer_each(self):
        env, fs, writer = self._sealed_writer()
        sizes = []

        def land():
            yield from writer.open()  # the create round trip, no write
            assert (fs.metrics.meta_ops, fs.metrics.write_ops) == (1, 0)
            for _ in range(3):
                size, ops = writer._vfile.size, fs.metrics.write_ops
                yield from writer.settle_meta()
                assert fs.metrics.write_ops == ops  # round trips, no transfer
                yield from writer.land()
                assert fs.metrics.write_ops == ops + 1
                sizes.append(writer._vfile.size - size)
            ops = fs.metrics.write_ops
            yield from writer.flush()  # nothing left
            assert fs.metrics.write_ops == ops
            yield from writer.close()  # the footer, alone: the last stage went
            assert fs.metrics.write_ops == ops + 1

        drive(env, land())
        b0, b1, b2, b3 = (len(buf) for buf, _entries in batches())
        header = len(bytes(fs.disk.open("f.shdf").read())) - 12 - (b0 + b1 + b2 + b3)
        assert sizes == [header + b0, b1 + b2, b3]
        eager, fs_eager, _ = write_file(True)
        assert bytes(fs.disk.open("f.shdf").read()) == eager
        assert fs.metrics.meta_ops == fs_eager.metrics.meta_ops
        assert fs.metrics.bytes_written == fs_eager.metrics.bytes_written

    def test_close_lands_what_is_sealed_and_what_is_open(self):
        env, fs, writer = self._sealed_writer()
        extra = encode_batch([Dataset("W/tail", np.arange(5.0), {"ncomp": 1})])

        def finish():
            yield from writer.open()
            yield from writer.write_records(extra)  # joins a new, open stage
            ops = fs.metrics.write_ops
            yield from writer.close()
            # Three sealed stages, then the open one with the footer.
            assert fs.metrics.write_ops == ops + 4

        drive(env, finish())
        names = decode_file(fs.disk.open("f.shdf").read()).names()
        assert names == [e[0] for _buf, entries in batches() for e in entries] + ["W/tail"]

    def test_meta_round_trips_are_paid_once_across_a_faulted_landing(self):
        env, fs, writer = self._sealed_writer()
        armed = {"n": 0}

        def hook(path, nbytes):
            if armed["n"]:
                armed["n"] -= 1
                raise TransientIOError(path)

        fs.disk.fault_hook = hook

        def land():
            yield from writer.open()
            meta = fs.metrics.meta_ops
            yield from writer.settle_meta()
            owed = fs.metrics.meta_ops - meta
            assert owed == len(batches()[0][1]) * hdf4_driver().fs_meta_ops_per_dataset
            armed["n"] = 1
            size = writer._vfile.size
            with pytest.raises(TransientIOError):
                yield from writer.land()
            assert writer._vfile.size == size
            t0 = env.now
            yield from writer.settle_meta()  # nothing owed any more
            assert (env.now, fs.metrics.meta_ops) == (t0, meta + owed)
            yield from writer.land()  # the retry: the same stage, once
            assert fs.metrics.meta_ops == meta + owed
            yield from writer.close()

        drive(env, land())
        eager, fs_eager, _ = write_file(True)
        assert bytes(fs.disk.open("f.shdf").read()) == eager
        assert fs.metrics.meta_ops == fs_eager.metrics.meta_ops

    def test_open_and_close_in_their_halves_round_trips_apart_from_writes(self):
        """open is the create round trip, close is commit / landings /
        release: a caller's hold of a write slot covers the landings
        alone.  The committed footer rides the last stage; a landing that
        faulted appends nothing, and committing again stages no second
        footer — the same bytes, the same round trips."""
        env, fs, writer = self._sealed_writer()
        armed = {"n": 0}

        def hook(path, nbytes):
            if armed["n"]:
                armed["n"] -= 1
                raise TransientIOError(path)

        fs.disk.fault_hook = hook

        def land():
            yield from writer.open()
            assert (fs.metrics.meta_ops, fs.metrics.write_ops) == (1, 0)
            assert writer.is_open and writer._vfile.size == 0
            for _ in range(2):
                yield from writer.settle_meta()
                yield from writer.land()
            writer.commit()
            yield from writer.settle_meta()
            meta, ops, size = fs.metrics.meta_ops, fs.metrics.write_ops, writer._vfile.size
            written, busy = fs.metrics.bytes_written, fs.metrics.write_busy_time
            armed["n"] = 1
            with pytest.raises(TransientIOError):
                yield from writer.land()  # the last stage, footer and all
            # The faulted write took its time and counted nothing else.
            assert (fs.metrics.write_ops, fs.metrics.bytes_written) == (ops, written)
            assert fs.metrics.write_busy_time > busy
            assert writer._vfile.size == size and writer.owes_landing
            writer.commit()
            yield from writer.land()
            # Two attempts of one landing, one write, nothing else;
            # committed, not yet closed.
            assert (fs.metrics.meta_ops, fs.metrics.write_ops) == (meta, ops + 1)
            assert not writer.owes_landing and writer.is_open
            b3 = len(batches()[3][0])
            assert writer._vfile.size == size + b3 + 12
            decode_file(fs.disk.open("f.shdf").read())
            yield from writer.release()
            assert fs.metrics.meta_ops == meta + 1 and not writer.is_open

        drive(env, land())
        eager, fs_eager, _ = write_file(True)
        assert bytes(fs.disk.open("f.shdf").read()) == eager
        assert fs.metrics.meta_ops == fs_eager.metrics.meta_ops
        assert fs.metrics.bytes_written == fs_eager.metrics.bytes_written

    @pytest.mark.parametrize("closed_at", [0.012249830078125001])
    def test_sequential_caller_sees_the_parent_instants(self, closed_at):
        """open / write_records / close on ``NFSModel``: the create round
        trip, CPU, then the datasets' round trips, one transfer and the
        close round trip, pinned to the last bit.  Against header, stage
        and footer as three writes (open at 0.0030012397766113284, close
        at 0.015249830078125) the open ends one write earlier and the
        close two: a write costs ``meta_latency`` plus its bytes, and
        the bytes are the same."""
        env = Environment()
        fs = NFSModel(env)
        recorder = Recorder()
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver(), recorder=recorder)
        rng = np.random.default_rng(11)
        records = encode_batch(
            Dataset(f"W/b0/f{k}", rng.random(30 + k), {"ncomp": 1}) for k in range(3)
        )
        marks = []

        def program():
            yield from writer.open(file_attrs={"k": 1})
            marks.append(env.now)
            yield from writer.write_records(records)
            marks.append(env.now)
            yield from writer.close()
            marks.append(env.now)

        drive(env, program())
        assert marks[0] == fs.meta_latency
        busy = sum(r.duration for r in recorder.io_records)
        assert marks[2] == busy == closed_at
        assert closed_at == pytest.approx(0.015249830078125 - 2 * fs.meta_latency)
        assert marks[1] == pytest.approx(0.004524)
        assert (fs.metrics.meta_ops, fs.metrics.write_ops) == (5, 1)
