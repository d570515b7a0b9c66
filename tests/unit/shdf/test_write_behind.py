"""Unit tests for SHDFWriter's file-level write-behind stage."""

import numpy as np
import pytest

from repro.des import Environment
from repro.fs import NFSModel, TransientIOError
from repro.shdf import (
    Dataset,
    SHDFWriter,
    decode_file,
    hdf4_driver,
    read_dataset_at,
    read_index,
)
from repro.shdf.codec import encode_records


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
        encode_records(
            Dataset(f"W/b{b}/f{k}", rng.random(30 + 7 * b + k), {"ncomp": 1})
            for k in range(per_batch)
        )
        for b in range(nbatches)
    ]


def write_file(format_version, flush_every_call, end_with_flush=False):
    """One file from the same batches; returns (bytes, fs, writer)."""
    env = Environment()
    fs = NFSModel(env)
    writer = SHDFWriter(
        env, fs, "f.shdf", hdf4_driver(), format_version=format_version
    )

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
    @pytest.mark.parametrize("format_version", [1, 2])
    @pytest.mark.parametrize("end_with_flush", [False, True])
    def test_same_bytes_as_flushing_every_call(self, format_version, end_with_flush):
        eager, fs_eager, _ = write_file(format_version, True)
        staged, fs_staged, writer = write_file(format_version, False, end_with_flush)
        assert staged == eager
        assert writer.staged_bytes == 0
        # Same bytes and bookkeeping charged; one transfer instead of four.
        nbatches = len(batches())
        assert fs_eager.metrics.write_ops - fs_staged.metrics.write_ops == nbatches - 1
        assert fs_staged.metrics.bytes_written == fs_eager.metrics.bytes_written
        assert fs_staged.metrics.meta_ops == fs_eager.metrics.meta_ops

    def test_v2_index_offsets_point_at_the_staged_records(self):
        staged, _, _ = write_file(2, False)
        index = read_index(staged)
        assert index == read_index(write_file(2, True)[0])
        names = [name for records in batches() for name, _rec, _n in records]
        assert list(index) == names
        for name, (offset, _length) in index.items():
            assert read_dataset_at(staged, offset).name == name

    def test_staging_pays_bookkeeping_but_lands_nothing(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        first, second = batches(2)

        def program():
            yield from writer.open()
            size, ops, t0 = writer._vfile.size, fs.metrics.write_ops, env.now
            yield from writer.write_records(first)
            assert env.now > t0  # create_cost + meta ops are per batch
            assert writer._vfile.size == size
            assert fs.metrics.write_ops == ops
            # ndatasets counts staged records: the next batch's
            # create_cost is charged at the true directory size.
            assert writer.ndatasets == len(first)
            meta = hdf4_driver().meta_bytes_per_dataset
            assert writer.staged_bytes == sum(len(r[1]) + meta for r in first)
            assert writer.charge_for(second) == sum(
                len(r[1]) + meta for r in second
            )
            # One flush lands everything staged, in order.
            yield from writer.write_records(second)
            assert writer.staged_bytes == writer.charge_for(first + second)
            yield from writer.flush()
            assert writer.staged_bytes == 0
            assert fs.metrics.write_ops == ops + 1
            assert writer._vfile.size == size + sum(
                len(r[1]) for r in first + second
            )
            yield from writer.close()

        drive(env, program())

    def test_flush_on_empty_stage_is_a_noop(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())

        def program():
            yield from writer.open()
            t0, ops = env.now, fs.metrics.write_ops
            yield from writer.flush()
            yield from writer.write_records([])
            assert (env.now, fs.metrics.write_ops) == (t0, ops)
            yield from writer.close()

        drive(env, program())

    def test_write_dataset_lands_the_stage_first(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        (records,) = batches(1)
        extra = Dataset("W/tail", np.arange(4.0))

        def program():
            yield from writer.open()
            yield from writer.write_records(records)
            yield from writer.write_dataset(extra)
            yield from writer.close()

        drive(env, program())
        names = decode_file(fs.disk.open("f.shdf").read()).names()
        assert names == [r[0] for r in records] + ["W/tail"]

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
            assert writer.ndatasets == len(records)
            assert writer.is_open
            if fault_in == "flush":
                yield from writer.flush()
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
        # The retry re-paid the transfer, not the format bookkeeping.
        assert fs.metrics.meta_ops == ref_fs.metrics.meta_ops
        assert fs.metrics.write_ops == ref_fs.metrics.write_ops + 1
