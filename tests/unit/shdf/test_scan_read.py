"""Sieved reads (open_scan / read_batch) vs a per-dataset loop.

The sieved restart path must return exactly the datasets the pure
codec decodes (and a one-name-per-call ``read_batch`` loop reads),
while issuing one merged ``fs.read`` and charging format metadata
identically.
"""

import numpy as np
import pytest

from repro.des import Environment
from repro.fs import NFSModel
from repro.shdf import decode_batch, decode_file, scan_file
from repro.shdf.codec import encode_batch
from repro.shdf.drivers import hdf4_driver
from repro.shdf.file import SHDFReader, SHDFWriter
from repro.shdf.model import Dataset


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


def _datasets(n=6):
    rng = np.random.default_rng(11)
    return [
        Dataset(f"W/b{i}/f", rng.random(30 + 7 * i), {"ncomp": 1})
        for i in range(n)
    ]


def _write(env, fs, datasets, path="f.shdf"):
    writer = SHDFWriter(env, fs, path, hdf4_driver())

    def go():
        yield from writer.open(file_attrs={"step": 42})
        yield from writer.write_records(encode_batch(datasets))
        yield from writer.close()

    drive(env, go())


class TestScanFile:
    def test_entries_cover_every_record_in_file_order(self):
        env = Environment()
        fs = NFSModel(env)
        datasets = _datasets()
        _write(env, fs, datasets)
        buf = fs.disk.open("f.shdf").read()
        attrs, entries = scan_file(buf)
        assert attrs.get("step") == 42
        assert [name for name, _o, _l in entries] == [d.name for d in datasets]
        offsets = [o for _n, o, _l in entries]
        assert offsets == sorted(offsets)
        decoded = decode_batch([buf[o : o + l] for _n, o, l in entries])
        for got, want in zip(decoded, datasets):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data, want.data)


class TestReadBatch:
    def _roundtrip(self, names=None):
        datasets = _datasets()
        env1 = Environment()
        fs1 = NFSModel(env1)
        _write(env1, fs1, datasets)
        env2 = Environment()
        fs2 = NFSModel(env2)
        _write(env2, fs2, datasets)

        wanted = names if names is not None else [d.name for d in datasets]
        reader1 = SHDFReader(env1, fs1, "f.shdf", hdf4_driver())

        def per_dataset():
            yield from reader1.open_scan()
            out = []
            for name in wanted:
                out += yield from reader1.read_batch([name])
            yield from reader1.close()
            return out

        base_meta = fs1.metrics.meta_ops
        got1 = drive(env1, per_dataset())
        loop_meta = fs1.metrics.meta_ops - base_meta

        reader2 = SHDFReader(env2, fs2, "f.shdf", hdf4_driver())

        def batch():
            yield from reader2.open_scan()
            out = yield from reader2.read_batch(names)
            yield from reader2.close()
            return out

        base_meta2 = fs2.metrics.meta_ops
        base_reads = fs2.metrics.read_ops
        got2 = drive(env2, batch())
        return got1, got2, loop_meta, fs2.metrics.meta_ops - base_meta2, (
            fs2.metrics.read_ops - base_reads
        )

    def test_full_file_matches_per_dataset_loop(self):
        got1, got2, loop_meta, batch_meta, batch_reads = self._roundtrip()
        env = Environment()
        fs = NFSModel(env)
        _write(env, fs, _datasets())
        assert got2 == list(decode_file(fs.disk.open("f.shdf").read()))
        assert [d.name for d in got2] == [d.name for d in got1]
        for a, b in zip(got1, got2):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.attrs == b.attrs
        # Same per-dataset format metadata charge, one merged transfer.
        assert batch_meta == loop_meta
        assert batch_reads == 1

    def test_subset_preserves_file_order(self):
        names = ["W/b4/f", "W/b1/f"]  # requested out of order
        _got1, got2, _lm, _bm, _br = self._roundtrip(names)
        assert [d.name for d in got2] == ["W/b1/f", "W/b4/f"]

    def test_unknown_name_raises_keyerror(self):
        env = Environment()
        fs = NFSModel(env)
        _write(env, fs, _datasets())
        reader = SHDFReader(env, fs, "f.shdf", hdf4_driver())

        def go():
            yield from reader.open_scan()
            yield from reader.read_batch(["W/nope/f"])

        with pytest.raises(KeyError):
            drive(env, go())

    def test_requires_scan_mode(self):
        env = Environment()
        fs = NFSModel(env)
        _write(env, fs, _datasets())
        reader = SHDFReader(env, fs, "f.shdf", hdf4_driver())
        with pytest.raises(RuntimeError):
            drive(env, reader.read_batch())

    def test_entries_accessor_returns_copy(self):
        env = Environment()
        fs = NFSModel(env)
        datasets = _datasets()
        _write(env, fs, datasets)
        reader = SHDFReader(env, fs, "f.shdf", hdf4_driver())
        drive(env, reader.open_scan())
        entries = reader.entries()
        assert len(entries) == len(datasets)
        entries.clear()
        assert len(reader.entries()) == len(datasets)
