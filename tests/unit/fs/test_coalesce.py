"""Unit tests for coalesced writes: one filesystem transfer per stage.

The virtual disk's batched append (``VirtualFile.append_many``) and the
SHDF writer's stage, which gathers many records and lands them as one
``fs.write`` (repro.shdf.file).
"""

import numpy as np
import pytest

from repro.des import Environment
from repro.fs import DiskFullError, NFSModel, TransientIOError, VirtualDisk
from repro.shdf.codec import (
    JOURNAL_ATTR,
    encode_commit_footer,
    encode_dataset,
    encode_header,
)
from repro.shdf.drivers import HDFDriver, hdf4_driver
from repro.shdf.file import SHDFReader, SHDFWriter
from repro.shdf.model import Dataset


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


class TestAppendMany:
    def test_offsets_and_content_match_sequential_appends(self):
        disk = VirtualDisk()
        one = disk.create("a")
        many = disk.create("b")
        chunks = [b"alpha", b"bee", b"", b"gamma!"]
        for chunk in chunks:
            one.append(chunk)
        first = many.append_many(chunks)
        assert first == 0
        assert many.read() == one.read() == b"".join(chunks)
        assert disk._used == 2 * len(b"".join(chunks))

    def test_raises_before_mutating_on_capacity(self):
        disk = VirtualDisk(capacity_bytes=10)
        f = disk.create("a")
        f.append(b"12345")
        with pytest.raises(DiskFullError):
            f.append_many([b"123", b"456789"])
        # Batch granularity: the first chunk alone would have fit, but
        # nothing at all may land when the combined size cannot.
        assert f.read() == b"12345"
        assert disk._used == 5


#: Charges 3 metadata bytes per record and nothing else, so a stage's
#: transfer is the only cost a landing pays.
META3 = HDFDriver(
    name="meta3", create_base=0.0, lookup_base=0.0, dir_coeff=0.0,
    growth="linear", meta_bytes_per_dataset=3, fs_meta_ops_per_dataset=0,
)


def staged_writer(env, fs, chunks):
    """A writer whose open stage holds the header and ``chunks``, each
    its own record."""
    writer = SHDFWriter(env, fs, "f", META3)
    writer.begin()
    writer.stage((chunk,) for chunk in chunks)
    return writer


class TestWriteCoalescer:
    def test_one_transfer_same_bytes_and_time(self):
        """A stage of N records lands as one fs.write whose virtual time
        equals the charged total, with the bytes of appending singly."""
        chunks = [b"a" * 100, b"b" * 50, b"c" * 7]
        header = encode_header({JOURNAL_ATTR: True})

        env1 = Environment()
        fs1 = NFSModel(env1)
        plain = fs1.disk.create("f")

        def per_call():
            yield from fs1.write(len(header))
            plain.append(header)
            for chunk in chunks:
                yield from fs1.write(len(chunk) + 3)
                plain.append(chunk)

        drive(env1, per_call())

        env2 = Environment()
        fs2 = NFSModel(env2)
        writer = staged_writer(env2, fs2, chunks)
        assert writer.staged_bytes == len(header) + sum(len(c) + 3 for c in chunks)
        drive(env2, writer.land())

        assert fs2.disk.open("f").read() == fs1.disk.open("f").read()
        assert fs2.metrics.write_ops == 1
        assert fs2.metrics.bytes_written == fs1.metrics.bytes_written
        # NFS charges a fixed latency plus a linear byte cost per write
        # op, so merging N ops saves exactly (N-1) fixed latencies — the
        # modeled data-sieving win; the byte charge is identical.
        assert env1.now - env2.now == pytest.approx(3 * fs1.meta_latency)
        # The landed stage is empty again, and landing it is a no-op.
        assert writer.staged_bytes == 0 and not writer.owes_landing
        t_landed = env2.now
        drive(env2, writer.land())
        assert env2.now == t_landed and fs2.metrics.write_ops == 1

    def test_faulted_landing_mutates_nothing_and_retry_lands(self):
        """A fault in the landing's write raises before the file or the
        stage changes; landing again writes the whole stage."""
        chunks = [b"x" * 40, b"y" * 9]
        env = Environment()
        fs = NFSModel(env)
        writer = staged_writer(env, fs, chunks)
        staged = writer.staged_bytes
        fails = [1]

        def hook(path, nbytes):
            if fails[0] > 0:
                fails[0] -= 1
                raise TransientIOError(f"injected ({path})")

        fs.disk.fault_hook = hook
        with pytest.raises(TransientIOError):
            drive(env, writer.land())
        assert fs.disk.open("f").size == 0
        assert writer.staged_bytes == staged and writer.owes_landing
        assert fs.metrics.write_ops == 0
        drive(env, writer.land())
        header = encode_header({JOURNAL_ATTR: True})
        assert fs.disk.open("f").read() == header + b"".join(chunks)
        assert fs.metrics.write_ops == 1
        assert fs.metrics.bytes_written == staged
        assert not writer.owes_landing

    def test_meta_ops_bulk_matches_loop(self):
        env1 = Environment()
        fs1 = NFSModel(env1)

        def loop():
            for _ in range(7):
                yield from fs1.meta_op()

        drive(env1, loop())
        env2 = Environment()
        fs2 = NFSModel(env2)
        drive(env2, fs2.meta_ops_bulk(7))
        assert env2.now == pytest.approx(env1.now)
        assert fs2.metrics.meta_ops == fs1.metrics.meta_ops == 7
        with pytest.raises(ValueError):
            drive(Environment(), NFSModel(Environment()).meta_ops_bulk(-1))


class TestWriteRecords:
    def _datasets(self, n=5):
        rng = np.random.default_rng(3)
        return [
            Dataset(f"W/b{i}/f", rng.random(40 + i), {"ncomp": 1})
            for i in range(n)
        ]

    def test_equivalent_to_per_dataset_writes(self):
        """write_records == landing every dataset on its own: the bytes
        the pure codec gives, the same readable directory — but one
        merged transfer for header, records and footer, where landing
        each dataset alone takes N transfers (the header riding the
        first) and the footer one more: N fewer fixed per-write
        latencies of virtual time."""
        datasets = self._datasets()
        records = [(d.name, encode_dataset(d), d.nbytes) for d in datasets]

        def write(env, fs, coalesced):
            writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
            yield from writer.open(file_attrs={"k": 1})
            if coalesced:
                yield from writer.write_records(records)
            else:
                for record in records:
                    yield from writer.write_records([record])
                    yield from writer.flush()
            yield from writer.close()

        env1, env2 = Environment(), Environment()
        fs1, fs2 = NFSModel(env1), NFSModel(env2)
        drive(env1, write(env1, fs1, False))
        drive(env2, write(env2, fs2, True))
        expected = (
            encode_header({"k": 1, JOURNAL_ATTR: True})
            + b"".join(record for _name, record, _n in records)
            + encode_commit_footer(len(records))
        )
        assert fs2.disk.open("f.shdf").read() == expected
        assert fs1.disk.open("f.shdf").read() == expected
        assert (fs1.metrics.write_ops, fs2.metrics.write_ops) == (len(datasets) + 1, 1)
        assert env1.now - env2.now == pytest.approx(len(datasets) * fs1.meta_latency)
        assert fs2.metrics.meta_ops == fs1.metrics.meta_ops
        assert fs2.metrics.bytes_written == fs1.metrics.bytes_written

        reader_env = Environment()
        reader = SHDFReader(reader_env, fs2, "f.shdf", hdf4_driver())

        def read_back():
            yield from reader.open_scan()
            for d in datasets:
                (got,) = yield from reader.read_batch([d.name])
                np.testing.assert_array_equal(got.data, d.data)
            yield from reader.close()

        drive(reader_env, read_back())

    def test_empty_and_closed(self):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "e.shdf", hdf4_driver())
        with pytest.raises(RuntimeError):
            drive(env, writer.write_records([]))

        def open_write_nothing():
            yield from writer.open()
            yield from writer.write_records([])
            yield from writer.close()

        drive(env, open_write_nothing())
        assert writer.ndatasets == 0
