"""Unit tests for the virtual disk."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.fs import FileExists, FileNotFound, VirtualDisk


def test_create_and_read_back():
    disk = VirtualDisk()
    f = disk.create("out/snap.hdf")
    f.append(b"hello")
    assert disk.open("out/snap.hdf").read() == b"hello"


def test_create_existing_raises():
    disk = VirtualDisk()
    disk.create("a")
    with pytest.raises(FileExists):
        disk.create("a")
    assert disk.create("a", exist_ok=True) is disk.open("a")


def test_open_missing_raises():
    disk = VirtualDisk()
    with pytest.raises(FileNotFound):
        disk.open("missing")


def test_unlink():
    disk = VirtualDisk()
    disk.create("x")
    disk.unlink("x")
    assert not disk.exists("x")
    with pytest.raises(FileNotFound):
        disk.unlink("x")


def test_append_returns_offset():
    disk = VirtualDisk()
    f = disk.create("f")
    assert f.append(b"abc") == 0
    assert f.append(b"de") == 3
    assert f.size == 5


def test_append_many_lands_every_input_kind_in_order():
    """bytes, views over bytes, bytearrays, writable views and numpy
    buffers all land as their bytes; empty chunks add nothing."""
    disk = VirtualDisk()
    f = disk.create("f")
    base = b"0123456789"
    chunks = [
        b"ab", memoryview(base)[2:5], b"", bytearray(b"cd"),
        memoryview(bytearray(b"ef")), np.array([1, 2], dtype=np.uint16),
    ]
    assert f.append(b"<") == 0
    assert f.append_many(chunks) == 1
    assert f.read() == b"<ab234cdef\x01\x00\x02\x00"
    assert f.size == disk.total_bytes == 14


def test_mutating_an_appended_buffer_leaves_the_file_unchanged():
    """What is on disk is copied or immutable: a holder of the source
    buffer cannot change it after the append."""
    f = VirtualDisk().create("f")
    ba = bytearray(b"abcd")
    wv = memoryview(bytearray(b"efgh"))
    arr = np.frombuffer(bytearray(b"ijkl"), dtype=np.uint8)
    f.append(ba)
    f.append_many([wv, arr])
    ba[:] = b"ZZZZ"
    wv[:] = b"YYYY"
    arr[:] = 0
    assert f.read() == b"abcdefghijkl"


def test_appending_a_read_only_view_over_bytes_keeps_a_reference():
    """The landing copy is gone: an 8 MiB view over ``bytes`` lands
    without allocating its size, and a read of one whole ``bytes`` chunk
    is that object; a ``bytearray`` of the same size is copied once."""
    payload = bytes(8 << 20)
    view = memoryview(payload)[4096:]
    mutable = bytearray(len(view))
    f = VirtualDisk().create("f")
    g = VirtualDisk().create("g")
    tracemalloc.start()
    try:
        f.append(view)
        f.append_many([view])
        by_reference = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g.append(mutable)
        copied = tracemalloc.get_traced_memory()[1] - by_reference
    finally:
        tracemalloc.stop()
    assert by_reference < 64 * 1024
    assert copied >= len(mutable)
    whole = VirtualDisk().create("w")
    whole.append(payload)
    assert whole.read() is payload


def test_views_are_read_only_slices_of_the_appended_bytes():
    payload = b"0123456789"
    f = VirtualDisk().create("f")
    f.append(payload)
    f.append(memoryview(payload)[:4])
    views = f.views(8, 4)
    assert [bytes(v) for v in views] == [b"89", b"01"]
    assert all(v.readonly and v.obj is payload for v in views)
    assert f.views(14) == [] and f.views(3, 0) == []


def test_ranged_read():
    f = VirtualDisk().create("f")
    f.append(b"0123456789")
    assert f.read(2, 3) == b"234"
    assert f.read(8) == b"89"


def test_truncate():
    f = VirtualDisk().create("f")
    f.append(b"data")
    f.truncate()
    assert f.size == 0


def test_listdir_prefix_filtering():
    disk = VirtualDisk()
    for path in ("run1/a", "run1/b", "run2/a"):
        disk.create(path)
    assert disk.listdir("run1/") == ["run1/a", "run1/b"]
    assert disk.listdir() == ["run1/a", "run1/b", "run2/a"]


def test_stats():
    disk = VirtualDisk()
    disk.create("a").append(b"12345")
    disk.create("b").append(b"67")
    assert disk.nfiles == 2
    assert disk.total_bytes == 7


def test_persist_and_load_roundtrip(tmp_path):
    disk = VirtualDisk()
    disk.create("snap/file1.hdf").append(b"\x01\x02binary\x00data")
    disk.create("file2").append(b"top-level")
    written = disk.persist(str(tmp_path))
    assert len(written) == 2
    assert all(os.path.exists(p) for p in written)

    loaded = VirtualDisk.load(str(tmp_path))
    assert loaded.open("snap/file1.hdf").read() == b"\x01\x02binary\x00data"
    assert loaded.open("file2").read() == b"top-level"


def test_ranged_reads_copy_once_and_stay_immutable():
    """``read`` slices through a view (one copy) but still hands back
    plain ``bytes``: equal to the same slice of the flat content for
    whole-file, mid-file and past-EOF ranges, and untouched by a later
    append (the view is released, so the file can still grow)."""
    f = VirtualDisk().create("f")
    content = bytes(range(200))
    f.append(content[:50])
    f.append_many([content[50:51], b"", content[51:]])
    reads = []
    for offset in (0, 7, 49, 50, 51, 199, 200, 250):
        for nbytes in (None, 0, 1, 25, 150, 200, 500):
            end = None if nbytes is None else offset + nbytes
            for got in (f.read(offset, nbytes), f.read_checked(offset, nbytes)):
                assert type(got) is bytes
                assert got == content[offset:end], (offset, nbytes)
                reads.append((got, content[offset:end]))
    f.append(b"\xff" * 4096)
    assert all(got == expected for got, expected in reads)
    assert f.read(198) == content[198:] + b"\xff" * 4096
