"""Write-fault semantics of the virtual filesystem.

The contract the retry layers build on: a failed write raises *before*
mutating anything, so a retried operation resumes exactly where it
faulted with no duplicated or lost bytes — and a disk that took faults
mid-run still persists/loads exactly like a healthy one.
"""

import pytest

from repro.fs import (
    DiskFullError,
    TransientIOError,
    VirtualDisk,
    WriteFaultError,
)


class TestCapacity:
    def test_write_over_capacity_raises_and_leaves_no_partial_state(self):
        disk = VirtualDisk(capacity_bytes=10)
        f = disk.create("a")
        f.append(b"12345678")
        with pytest.raises(DiskFullError):
            f.append(b"xyz")  # 8 + 3 > 10
        assert f.read() == b"12345678"  # nothing appended
        assert disk.total_bytes == 8

    def test_capacity_restored_write_succeeds_without_duplication(self):
        disk = VirtualDisk()
        f = disk.create("a")
        disk.set_capacity(4)
        with pytest.raises(DiskFullError):
            f.append(b"hello")
        disk.set_capacity(None)
        f.append(b"hello")
        assert f.read() == b"hello"

    def test_set_capacity_never_discards_existing_content(self):
        disk = VirtualDisk()
        f = disk.create("a")
        f.append(b"0123456789")
        disk.set_capacity(2)  # already over the new limit
        assert f.read() == b"0123456789"
        with pytest.raises(DiskFullError):
            f.append(b"!")

    def test_disk_full_is_a_write_fault(self):
        assert issubclass(DiskFullError, WriteFaultError)
        assert issubclass(TransientIOError, WriteFaultError)


class TestFaultHook:
    def test_hook_failure_leaves_file_unchanged(self):
        disk = VirtualDisk()
        fails = [2]

        def hook(path, nbytes):
            if fails[0] > 0:
                fails[0] -= 1
                raise TransientIOError(f"injected ({path})")

        disk.fault_hook = hook
        f = disk.create("a")
        for _ in range(2):
            with pytest.raises(TransientIOError):
                f.append(b"data")
        assert f.read() == b""
        f.append(b"data")  # budget exhausted: third attempt lands
        assert f.read() == b"data"

    def test_hook_applies_to_append_many_too(self):
        """One check for the whole batch, sized in bytes, before any
        chunk lands."""
        disk = VirtualDisk()
        f = disk.create("a")
        f.append(b"0000")
        seen = []

        def hook(path, nbytes):
            seen.append(nbytes)
            raise TransientIOError(path)

        disk.fault_hook = hook
        with pytest.raises(TransientIOError):
            f.append_many([b"11", memoryview(b"2222")[1:], bytearray(b"3")])
        assert seen == [6]
        assert f.read() == b"0000"
        assert disk.total_bytes == 4


class TestPersistAfterFaults:
    def test_persist_load_roundtrip_includes_post_fault_files(self, tmp_path):
        """Files created after an injected fault survive persist/load."""
        disk = VirtualDisk()
        healthy = disk.create("ck/healthy")
        healthy.append(b"before faults")

        fails = [1]

        def hook(path, nbytes):
            if fails[0] > 0:
                fails[0] -= 1
                raise TransientIOError(f"injected ({path})")

        disk.fault_hook = hook
        recovered = disk.create("ck/recovered")
        with pytest.raises(TransientIOError):
            recovered.append(b"first try")
        recovered.append(b"second try")  # retry succeeds
        disk.fault_hook = None
        disk.create("ck/after").append(b"post-fault file")

        disk.persist(str(tmp_path))
        loaded = VirtualDisk.load(str(tmp_path))
        assert loaded.listdir() == disk.listdir()
        for path in disk.listdir():
            assert loaded.open(path).read() == disk.open(path).read()
        assert loaded.open("ck/recovered").read() == b"second try"
        assert loaded.total_bytes == disk.total_bytes
