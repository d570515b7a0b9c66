"""Unit tests for coalesced reads: SHDF's sieved read (repro.shdf.file).

The restart mirror image of the write stage: merged extents must
return exactly the bytes a per-call read loop would, while charging one
``fs.read`` per contiguous run — the modeled data-sieving win.
"""

import pytest

from repro.des import Environment
from repro.fs import NFSModel
from repro.shdf.file import merge_extents, read_sieved


def drive(env, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    env.process(runner(), name="drive")
    env.run()
    return box.get("value")


class TestMergeExtents:
    def test_sorted_disjoint_runs(self):
        assert merge_extents([(10, 5), (0, 5)]) == [(0, 5), (10, 5)]

    def test_touching_and_overlapping_merge(self):
        assert merge_extents([(0, 5), (5, 5)]) == [(0, 10)]
        assert merge_extents([(0, 8), (4, 10)]) == [(0, 14)]
        assert merge_extents([(0, 10), (2, 3)]) == [(0, 10)]

    def test_duplicates_and_empty_extents(self):
        assert merge_extents([(3, 4), (3, 4), (3, 0)]) == [(3, 4)]
        assert merge_extents([]) == []

    def test_gap_sieves_small_holes_only(self):
        extents = [(0, 10), (20, 10)]
        assert merge_extents(extents, gap=10) == [(0, 30)]
        assert merge_extents(extents, gap=9) == [(0, 10), (20, 10)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            merge_extents([(0, 4)], gap=-1)
        with pytest.raises(ValueError):
            merge_extents([(-1, 4)])
        with pytest.raises(ValueError):
            merge_extents([(0, -4)])


class TestReadCoalescer:
    def _file(self, disk, nbytes=512):
        f = disk.create("f")
        f.append(bytes(i % 251 for i in range(nbytes)))
        return f

    def test_one_transfer_same_bytes_and_time(self):
        """Adjacent extents collapse into one fs.read whose virtual time
        saves exactly (N-1) fixed latencies vs the per-call loop, and
        the returned chunks are byte-identical, in extent order."""
        extents = [(0, 100), (100, 50), (150, 7)]

        env1 = Environment()
        fs1 = NFSModel(env1)
        f1 = self._file(fs1.disk)

        def per_call():
            out = []
            for offset, nbytes in extents:
                yield from fs1.read(nbytes)
                out.append(f1.read_checked(offset, nbytes))
            return out

        chunks1 = drive(env1, per_call())

        env2 = Environment()
        fs2 = NFSModel(env2)
        assert merge_extents(extents) == [(0, 157)]
        chunks2 = drive(env2, read_sieved(fs2, self._file(fs2.disk), extents))

        assert chunks2 == chunks1
        assert fs2.metrics.read_ops == 1
        assert fs2.metrics.bytes_read == fs1.metrics.bytes_read
        assert env1.now - env2.now == pytest.approx(2 * fs1.meta_latency)
        # Nothing to read: no fs.read, no virtual time.
        env3 = Environment()
        fs3 = NFSModel(env3)
        assert drive(env3, read_sieved(fs3, None, [])) == []
        assert fs3.metrics.read_ops == 0 and env3.now == 0

    def test_meta_bytes_charged_once(self):
        env1 = Environment()
        fs1 = NFSModel(env1)
        f1 = self._file(fs1.disk)

        def per_call():
            for offset, nbytes in [(0, 20), (20, 20)]:
                yield from fs1.read(nbytes + 3)
                f1.read_checked(offset, nbytes)

        drive(env1, per_call())

        env2 = Environment()
        fs2 = NFSModel(env2)
        drive(env2, read_sieved(fs2, self._file(fs2.disk), [(0, 20), (20, 20)], meta_bytes=6))
        # Payload + per-record metadata bytes match the loop exactly.
        assert fs2.metrics.bytes_read == fs1.metrics.bytes_read == 46
        assert fs2.metrics.read_ops == 1

    def test_sieve_gap_reads_hole_bytes(self):
        """A sieved hole is read and charged — the data-sieving trade —
        but never returned to any caller."""
        env = Environment()
        fs = NFSModel(env)
        f = self._file(fs.disk)
        data = f.read()
        extents = [(0, 10), (26, 10)]
        assert merge_extents(extents, gap=16) == [(0, 36)]
        chunks = drive(env, read_sieved(fs, f, extents, gap=16))
        assert chunks == [data[0:10], data[26:36]]
        assert fs.metrics.read_ops == 1
        assert fs.metrics.bytes_read == 36

    def test_overlapping_extents_read_once_sliced_per_caller(self):
        env = Environment()
        fs = NFSModel(env)
        f = self._file(fs.disk)
        data = f.read()
        chunks = drive(env, read_sieved(fs, f, [(40, 20), (50, 20), (45, 5)]))
        assert chunks == [data[40:60], data[50:70], data[45:50]]
        assert fs.metrics.read_ops == 1
        assert fs.metrics.bytes_read == 30  # merged span, not the sum

    def test_charge_takes_every_run_at_once(self):
        """A caller's ``charge`` gets every run's bytes, metadata on the
        first, in run order, and no fs.read is charged beside it."""
        env = Environment()
        fs = NFSModel(env)
        f = self._file(fs.disk)
        data = f.read()
        seen = []

        def charge(charges):
            seen.append(list(charges))
            yield env.sleep(1.0)

        chunks = drive(env, read_sieved(
            fs, f, [(100, 10), (0, 10)], meta_bytes=5, charge=charge
        ))
        assert seen == [[15, 10]]
        assert chunks == [data[100:110], data[0:10]]
        assert fs.metrics.read_ops == 0 and env.now == 1.0

    def test_rejects_bad_extent(self):
        fs = NFSModel(Environment())
        with pytest.raises(ValueError):
            drive(Environment(), read_sieved(fs, None, [(-1, 4)]))
        with pytest.raises(ValueError):
            drive(Environment(), read_sieved(fs, None, [(0, -4)]))
        assert fs.metrics.read_ops == 0
