"""Property test: the rope-backed ``VirtualFile`` is a flat byte array.

Random sequences of ``append`` / ``append_many`` / ``truncate`` /
``read`` / ``read_checked`` / ``views`` (and appends refused by a fault
hook) run against a plain ``bytearray`` oracle.  The inputs cover every
kind the I/O stack hands the disk — ``bytes``, read-only views over
``bytes`` (kept by reference), and ``bytearray``s, writable views and
numpy buffers (copied) — and every mutable input is scribbled over after
each step: the file must never change.  After every step each chunk the
file holds is ``bytes`` or a read-only view whose ``.obj`` is ``bytes``.

Tier-1 runs the default example budget; the CI fault group runs it with
``--hypothesis-profile=long`` (see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import TransientIOError, VirtualDisk

_KINDS = ["bytes", "view", "strided_view", "bytearray", "writable_view", "ndarray"]


def _make(kind: str, raw: bytes, pad: int):
    """An appendable input of ``kind`` holding ``raw``, and its mutable
    source (``None`` when nothing can change it)."""
    if kind == "bytes":
        return raw, None
    if kind == "view":  # a record view into a wider encode buffer
        return memoryview(b"x" * pad + raw + b"y")[pad : pad + len(raw)], None
    if kind == "strided_view":  # read-only over bytes, but not contiguous
        wide = bytes(b for c in raw for b in (c, 0))
        return memoryview(wide)[::2], None
    if kind == "bytearray":
        source = bytearray(raw)
        return source, source
    if kind == "writable_view":
        source = bytearray(b"z" * pad + raw)
        return memoryview(source)[pad:], source
    source = np.frombuffer(bytearray(raw), dtype=np.uint8).copy()
    return source, source


_inputs = st.tuples(
    st.sampled_from(_KINDS), st.binary(max_size=48), st.integers(0, 8)
)
_range = st.tuples(st.integers(0, 300), st.one_of(st.none(), st.integers(0, 120)))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _inputs),
        st.tuples(st.just("append_many"), st.lists(_inputs, max_size=5)),
        st.tuples(st.just("faulted_append_many"), st.lists(_inputs, min_size=1, max_size=3)),
        st.tuples(st.just("truncate"), st.none()),
        st.tuples(st.sampled_from(["read", "read_checked", "views"]), _range),
    ),
    max_size=30,
)


def _scribble(source) -> None:
    if isinstance(source, np.ndarray):
        source[...] = 0xEE
    else:
        source[:] = b"\xee" * len(source)


def _held_immutably(chunk) -> bool:
    return type(chunk) is bytes or (
        type(chunk) is memoryview and chunk.readonly and type(chunk.obj) is bytes
    )


@given(_ops)
@settings(deadline=None)
def test_rope_matches_a_flat_bytearray_and_never_changes(ops):
    disk = VirtualDisk()
    f = disk.create("f")
    oracle = bytearray()
    sources = []

    def refuse(path, nbytes):
        raise TransientIOError(path)

    for op, arg in ops:
        if op in ("append", "append_many", "faulted_append_many"):
            specs = [arg] if op == "append" else arg
            made = [_make(kind, raw, pad) for kind, raw, pad in specs]
            chunks = [chunk for chunk, _source in made]
            if op == "faulted_append_many":
                disk.fault_hook = refuse
                with pytest.raises(TransientIOError):
                    f.append_many(chunks)
                disk.fault_hook = None
            else:
                offset = f.append(chunks[0]) if op == "append" else f.append_many(chunks)
                assert offset == len(oracle)
                for _kind, raw, _pad in specs:
                    oracle += raw
            sources += [source for _chunk, source in made if source is not None]
        elif op == "truncate":
            f.truncate()
            oracle.clear()
        else:
            offset, nbytes = arg
            end = None if nbytes is None else offset + nbytes
            want = bytes(oracle[offset:end])
            if op == "views":
                views = f.views(offset, nbytes)
                assert all(v.readonly and type(v.obj) is bytes for v in views)
                assert b"".join(views) == want
            else:
                got = getattr(f, op)(offset, nbytes)
                assert type(got) is bytes and got == want
        for source in sources:
            _scribble(source)
        assert f.size == len(oracle) == disk.total_bytes == disk._used
        assert f.read() == oracle
        assert all(map(_held_immutably, f._chunks))
