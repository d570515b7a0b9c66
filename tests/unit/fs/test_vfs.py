"""Unit tests for the virtual disk."""

import os

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


def test_write_at_extends_with_zeros():
    disk = VirtualDisk()
    f = disk.create("f")
    f.write_at(4, b"xy")
    assert f.read() == b"\x00\x00\x00\x00xy"


def test_write_at_overwrites():
    disk = VirtualDisk()
    f = disk.create("f")
    f.append(b"abcdef")
    f.write_at(2, b"ZZ")
    assert f.read() == b"abZZef"


def test_write_at_negative_offset_rejected():
    f = VirtualDisk().create("f")
    with pytest.raises(ValueError):
        f.write_at(-1, b"x")


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
