"""Unit tests for SHDF drivers and the timed file API."""

import numpy as np
import pytest

from repro.des import Environment
from repro.fs import LocalFSModel
from repro.obs import Recorder
from repro.shdf import (
    Dataset,
    SHDFReader,
    SHDFWriter,
    hdf4_driver,
    hdf5_driver,
    raw_driver,
)
from repro.shdf.codec import encode_batch


class TestDrivers:
    def test_hdf4_cost_grows_linearly(self):
        d = hdf4_driver(create_base=0.0, dir_coeff=1e-3)
        assert d.create_cost(100) == pytest.approx(0.1)
        assert d.create_cost(200) == pytest.approx(0.2)

    def test_hdf5_cost_grows_logarithmically(self):
        d = hdf5_driver(create_base=0.0, dir_coeff=1e-3)
        c100 = d.create_cost(100)
        c200 = d.create_cost(200)
        assert c200 < 2 * c100
        assert c200 > c100

    def test_hdf5_constant_higher_than_hdf4(self):
        assert hdf5_driver().create_base > hdf4_driver().create_base

    def test_crossover_hdf4_beats_hdf5_small_files_loses_big(self):
        h4, h5 = hdf4_driver(), hdf5_driver()

        def total_cost(driver, k):
            return sum(driver.create_cost(i) for i in range(k))

        assert total_cost(h4, 10) < total_cost(h5, 10)
        assert total_cost(h4, 5000) > total_cost(h5, 5000)

    def test_raw_driver_is_free(self):
        d = raw_driver()
        assert d.create_cost(10_000) == 0.0
        assert d.lookup_cost(10_000) == 0.0

    def test_negative_ndatasets_rejected(self):
        with pytest.raises(ValueError):
            hdf4_driver().structure_cost(-1)


def run(env, gen):
    def proc():
        result = yield from gen
        return result

    p = env.process(proc())
    env.run(until=p)
    return p.value


def write_one(writer, dataset):
    """Generator: stage one dataset and land it on its own."""
    yield from writer.write_records(encode_batch([dataset]))
    yield from writer.flush()


class TestTimedFileAPI:
    def make(self, driver=None):
        env = Environment()
        fs = LocalFSModel(env)
        return env, fs, driver or hdf4_driver()

    def test_write_read_roundtrip(self):
        env, fs, driver = self.make()
        blocks = [
            Dataset("b1/coords", np.random.default_rng(0).random((5, 3))),
            Dataset("b1/pressure", np.arange(5.0), {"units": "Pa"}),
        ]

        def program():
            writer = SHDFWriter(env, fs, "snap.hdf", driver)
            yield from writer.open(file_attrs={"step": 1})
            for block in blocks:
                yield from write_one(writer, block)
            yield from writer.close()

            reader = SHDFReader(env, fs, "snap.hdf", driver)
            attrs = yield from reader.open_scan()
            assert attrs == {"step": 1}
            out = yield from reader.read_batch()
            yield from reader.close()
            return out

        out = run(env, program())
        assert out == blocks

    def test_hdf5_driver_files_restart_bit_identically(self):
        """The driver is a cost model: the bytes are the one format's,
        and they come back through ``open_scan`` / ``read_batch``."""
        rng = np.random.default_rng(3)
        blocks = [
            Dataset(f"b{i}/f", rng.random((4 + i, 3)), {"ncomp": 3, "step": i})
            for i in range(6)
        ]
        images = {}
        for factory in (hdf4_driver, hdf5_driver):
            env, fs, driver = self.make(factory())

            def program():
                writer = SHDFWriter(env, fs, "snap.hdf", driver)
                yield from writer.open(file_attrs={"step": 7})
                yield from writer.write_records(encode_batch(blocks[:2]))
                yield from writer.write_records(encode_batch(blocks[2:]))
                yield from writer.close()
                reader = SHDFReader(env, fs, "snap.hdf", driver)
                attrs = yield from reader.open_scan()
                out = yield from reader.read_batch()
                yield from reader.close()
                return attrs, out

            attrs, out = run(env, program())
            assert attrs == {"step": 7}
            assert out == blocks
            assert all(d.data.flags.writeable for d in out)
            images[driver.name] = bytes(fs.disk.open("snap.hdf").read())
        assert images["hdf5"] == images["hdf4"]

    def test_write_charges_time(self):
        env, fs, driver = self.make()

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer.open()
            yield from write_one(writer, Dataset("d", np.zeros(1000)))
            yield from writer.close()

        run(env, program())
        assert env.now > 0

    def test_more_datasets_cost_more_per_dataset_hdf4(self):
        driver = hdf4_driver(create_base=0.0, dir_coeff=1e-3)
        env, fs, _ = self.make(driver)

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer.open()
            t_first = env.now
            yield from write_one(writer, Dataset("d0", np.zeros(1)))
            cost_first = env.now - t_first
            for i in range(1, 100):
                yield from write_one(writer, Dataset(f"d{i}", np.zeros(1)))
            t_last = env.now
            yield from write_one(writer, Dataset("dlast", np.zeros(1)))
            cost_last = env.now - t_last
            yield from writer.close()
            return cost_first, cost_last

        cost_first, cost_last = run(env, program())
        assert cost_last > cost_first + 0.05

    def test_write_to_unopened_raises(self):
        env, fs, driver = self.make()
        writer = SHDFWriter(env, fs, "f.hdf", driver)

        def program():
            with pytest.raises(RuntimeError):
                yield from write_one(writer, Dataset("d", np.zeros(1)))

        run(env, program())

    def test_double_open_raises(self):
        env, fs, driver = self.make()

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer.open()
            with pytest.raises(RuntimeError):
                yield from writer.open()
            yield from writer.close()

        run(env, program())

    def test_reopen_truncates(self):
        env, fs, driver = self.make()

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer.open()
            yield from write_one(writer, Dataset("old", np.zeros(1)))
            yield from writer.close()

            writer2 = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer2.open()
            yield from write_one(writer2, Dataset("new", np.ones(1)))
            yield from writer2.close()

            reader = SHDFReader(env, fs, "f.hdf", driver)
            yield from reader.open_scan()
            return reader.names()

        names = run(env, program())
        assert names == ["new"]

    def test_reader_single_dataset(self):
        env, fs, driver = self.make()

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver)
            yield from writer.open()
            yield from write_one(writer, Dataset("a", np.arange(3.0)))
            yield from write_one(writer, Dataset("b", np.arange(4.0)))
            yield from writer.close()

            reader = SHDFReader(env, fs, "f.hdf", driver)
            yield from reader.open_scan()
            (ds,) = yield from reader.read_batch(["b"])
            assert reader.ndatasets == 2
            yield from reader.close()
            return ds

        ds = run(env, program())
        np.testing.assert_array_equal(ds.data, np.arange(4.0))

    def test_reader_unopened_raises(self):
        env, fs, driver = self.make()
        reader = SHDFReader(env, fs, "nothing.hdf", driver)
        with pytest.raises(RuntimeError):
            reader.names()

    def test_busy_time_tracked(self):
        """The writer's records time all of its life, one after another."""
        env, fs, driver = self.make()
        recorder = Recorder()

        def program():
            writer = SHDFWriter(env, fs, "f.hdf", driver, recorder=recorder)
            yield from writer.open()
            yield from write_one(writer, Dataset("d", np.zeros(10000)))
            yield from writer.close()

        run(env, program())
        records = recorder.io_records
        assert [r.op for r in records] == ["open", "write_records", "flush", "close"]
        assert sum(r.duration for r in records) == pytest.approx(env.now)
