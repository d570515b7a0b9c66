"""Property-based tests (hypothesis) for the SHDF codec."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.shdf import Dataset, FileImage, decode_file, encode_file

_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.int8, np.uint8, np.bool_]
)

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)

_scalar_attr = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=30),
    st.binary(max_size=30),
)

_attr_value = st.one_of(
    _scalar_attr,
    st.lists(_scalar_attr, max_size=5),
)

_attrs = st.dictionaries(_names, _attr_value, max_size=5)


@st.composite
def datasets(draw, name=None):
    dtype = draw(_DTYPES)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=8))
    data = draw(
        hnp.arrays(
            dtype=dtype,
            shape=shape,
            elements=hnp.from_dtype(
                np.dtype(dtype), allow_nan=False, allow_infinity=False
            ),
        )
    )
    return Dataset(name or draw(_names), data, draw(_attrs))


@st.composite
def file_images(draw):
    image = FileImage(draw(_attrs))
    names = draw(st.lists(_names, unique=True, max_size=6))
    for name in names:
        image.add(draw(datasets(name=name)))
    return image


@given(file_images())
@settings(max_examples=150, deadline=None)
def test_encode_decode_roundtrip(image):
    decoded = decode_file(encode_file(image))
    assert decoded == image


@given(file_images())
@settings(max_examples=60, deadline=None)
def test_encode_is_deterministic(image):
    assert encode_file(image) == encode_file(image)


@given(datasets(), datasets())
@settings(max_examples=60, deadline=None)
def test_appending_preserves_earlier_records(d1, d2):
    if d1.name == d2.name:
        d2 = Dataset(d2.name + "_2", d2.data, d2.attrs)
    image = FileImage()
    image.add(d1)
    image.add(d2)
    decoded = decode_file(encode_file(image))
    assert decoded.names() == [d1.name, d2.name]
    assert decoded.get(d1.name) == d1


@given(file_images(), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_truncation_never_decodes_silently(image, cut):
    """Chopping bytes off the end either errors or drops whole records."""
    from repro.shdf import CodecError

    buf = encode_file(image)
    if cut >= len(buf):
        return
    truncated = buf[:-cut]
    try:
        decoded = decode_file(truncated)
    except CodecError:
        return
    # If it decoded, it must be a clean prefix of the original records.
    assert len(decoded) <= len(image)
    for got, expected in zip(decoded, image):
        assert got == expected


@given(file_images())
@settings(max_examples=60, deadline=None)
def test_zero_copy_and_copying_decodes_are_identical(image):
    """Read-only views and private copies must hold identical content."""
    buf = encode_file(image)
    views = decode_file(buf)            # zero-copy default
    copies = decode_file(buf, copy=True)
    assert views == copies == image


@given(st.lists(datasets(), max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_batch_is_exactly_the_concatenated_single_encodes(batch, data):
    """One exactly-sized buffer == the per-record encodes laid end to end,
    also when arrays arrive as non-contiguous views (the I/O path's
    ``Dataset.trusted`` skips the constructor's C-order copy)."""
    from repro.shdf.codec import decode_batch, encode_batch, encode_dataset

    sent = []
    for ds in batch:
        arr = ds.data
        if arr.ndim >= 1 and data.draw(st.booleans()):
            # Same values behind a strided (and, for ndim >= 2,
            # transposed-back) view of a wider allocation.
            wide = np.repeat(arr, 2, axis=-1)
            arr = wide[..., ::2]
            if arr.ndim >= 2:
                arr = np.ascontiguousarray(arr.T).T
        sent.append(Dataset.trusted(ds.name, arr, ds.attrs))
    buf, entries = encode_batch(sent)
    assert buf.readonly
    assert bytes(buf) == b"".join(encode_dataset(ds) for ds in batch)
    assert [(n, nb) for n, _o, _l, nb in entries] == [
        (ds.name, ds.nbytes) for ds in batch
    ]
    pos = 0
    for _name, offset, length, _nbytes in entries:
        assert offset == pos
        pos += length
    assert pos == len(buf)
    assert decode_batch(buf[o:o + n] for _name, o, n, _nb in entries) == batch


def _journaled(image):
    """A committed journaled file's bytes, as ``SHDFWriter`` lays it out,
    and the ``(start, end)`` span of every record in it."""
    from repro.shdf.codec import (
        JOURNAL_ATTR, encode_commit_footer, encode_dataset, encode_header,
    )

    parts = [encode_header({**image.attrs, JOURNAL_ATTR: True})]
    spans = []
    pos = len(parts[0])
    for ds in image:
        record = encode_dataset(ds)
        spans.append((pos, pos + len(record)))
        parts.append(record)
        pos += len(record)
    parts.append(encode_commit_footer(len(image)))
    return b"".join(parts), spans


@given(file_images(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_scanned_headers_decode_like_decode_batch(image, copy):
    """One header walk: the datasets built from ``scan_file``'s parsed
    headers equal ``decode_batch`` over the same extents, and the
    extents tile the records exactly."""
    from repro.shdf.codec import decode_batch, scan_file

    buf, spans = _journaled(image)
    _attrs, records = scan_file(buf)
    assert [(o, o + n) for _name, o, n in records] == spans
    assert [name for name, _o, _n in records] == image.names()
    view = memoryview(buf)
    built = [
        header.dataset(view[o : o + n], copy)
        for (_name, o, n), header in records.items()
    ]
    assert built == decode_batch((view[o : o + n] for _name, o, n in records), copy)
    assert built == list(image)
    for ds in built:
        assert ds.data.flags.writeable == copy


@given(file_images(), st.data())
@settings(max_examples=120, deadline=None)
def test_damaged_journaled_files_raise_the_documented_errors(image, data):
    """Truncated, corrupt and torn buffers: a cut on a record boundary
    is torn (``TornFileError``), any other cut, garbage where a record
    or the footer should start, or a record with bad magic is corrupt
    (``CodecError``, not torn), a wrong commit count is torn."""
    from repro.shdf import CodecError, TornFileError, decode_file, scan_file

    buf, spans = _journaled(image)
    header_end = spans[0][0] if spans else len(buf) - 12
    boundaries = {header_end} | {end for _start, end in spans}
    damage = data.draw(st.sampled_from(["cut", "garbage", "magic", "count"]))
    if damage == "cut":
        cut = data.draw(st.integers(0, len(buf) - 1))
        damaged = buf[:cut]
        expected = TornFileError if cut == 0 or cut in boundaries else CodecError
    elif damage == "garbage":
        damaged = buf + data.draw(st.binary(min_size=1, max_size=16))
        expected = CodecError
    elif damage == "magic" and spans:
        start = data.draw(st.sampled_from([s for s, _e in spans]))
        damaged = buf[:start] + b"X" + buf[start + 1 :]
        expected = CodecError
    else:
        damaged = buf[:-8] + (len(image) + 1).to_bytes(8, "little")
        expected = TornFileError
    for decode in (scan_file, decode_file):
        try:
            decode(damaged)
        except CodecError as exc:
            assert type(exc) is expected, (damage, exc)
        else:
            raise AssertionError(f"{damage}: decoded a damaged file")


# -- a snapshot's block records: the template encoder against the reference --

_label = st.text(
    alphabet=st.characters(blacklist_characters="/.", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
_units = st.one_of(
    st.none(),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
    st.text(alphabet=st.characters(min_codepoint=128, max_codepoint=0x2FFF,
                                   blacklist_categories=("Cs",)), min_size=1, max_size=4),
)
_counts = st.integers(0, 10**6).flatmap(
    lambda n: st.sampled_from([n, np.int64(n)])
)


@st.composite
def _specs(draw, attr):
    from repro.roccom import AttributeSpec

    return AttributeSpec(
        attr,
        draw(st.sampled_from(["node", "element", "pane"])),
        ncomp=draw(st.integers(1, 6)),
        dtype=draw(st.sampled_from(["f8", "f4", "i8"])),
        unit=draw(_units),
    )


@st.composite
def _array(draw, spec):
    """An array of ``spec``'s dtype, 1-D or 2-D, maybe empty, laid out
    C-contiguous, in Fortran order or as a strided view."""
    rows = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(rows,), (rows, spec.ncomp)]))
    dtype = np.dtype(spec.dtype)
    data = draw(hnp.arrays(dtype, shape, elements=hnp.from_dtype(
        dtype, allow_nan=False, allow_infinity=False)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "strided":
        return np.repeat(data, 2, axis=0)[::2]
    return data


@st.composite
def _blocks(draw):
    """Blocks of one window, as ``collect_blocks`` hands them over: the
    same spec objects on every block, or equal copies, or (drawn per
    block) another spec for the same attribute."""
    from dataclasses import replace

    from repro.io.base import DataBlock

    window = draw(_label)
    attrs = draw(st.lists(_label, min_size=1, max_size=4, unique=True))
    shared = {attr: draw(_specs(attr)) for attr in attrs}
    ids = draw(st.lists(st.integers(0, 999_999), max_size=5, unique=True))
    blocks = []
    for block_id in ids:
        specs = {}
        for attr in draw(st.permutations(attrs)):
            choice = draw(st.sampled_from(["shared", "copy", "other"]))
            if choice == "shared":
                specs[attr] = shared[attr]
            elif choice == "copy":
                specs[attr] = replace(shared[attr])
            else:
                specs[attr] = draw(_specs(attr))
        arrays = {attr: draw(_array(spec)) for attr, spec in specs.items()}
        blocks.append(DataBlock(
            window, block_id, draw(_counts), draw(_counts), arrays, specs
        ))
    return blocks


@given(_blocks())
@settings(deadline=None)
def test_block_records_equal_the_generic_encode(blocks):
    """``encode_blocks`` packs each record's prefix from pieces; its
    buffer and entries are, byte for byte, the generic encode of the
    same blocks' datasets."""
    from repro.io.base import block_to_datasets, encode_blocks
    from repro.shdf.codec import encode_batch

    buf, entries = encode_blocks(blocks)
    ref_buf, ref_entries = encode_batch(
        d for b in blocks for d in block_to_datasets(b)
    )
    assert buf.readonly
    assert bytes(buf) == bytes(ref_buf)
    assert entries == ref_entries


def _drive(env, gen):
    env.process(gen)
    env.run()


@given(_blocks(), st.booleans())
@settings(deadline=None)
def test_one_chunk_batch_lands_the_records_written_one_by_one(blocks, fault):
    """A file whose batch stages as one chunk scans to the records and
    bytes of one whose records are staged one by one, charged the same
    bytes and round trips; a faulted landing leaves the stage as it
    was, and the retried ``close`` lands it."""
    from repro.des import Environment
    from repro.fs import NFSModel, TransientIOError
    from repro.io.base import encode_blocks
    from repro.shdf import scan_file
    from repro.shdf.codec import COMMIT_SIZE
    from repro.shdf.drivers import hdf4_driver
    from repro.shdf.file import SHDFWriter

    buf, entries = encode_blocks(blocks)

    def write(one_chunk):
        env = Environment()
        fs = NFSModel(env)
        writer = SHDFWriter(env, fs, "f.shdf", hdf4_driver())
        armed = {"n": 0}

        def hook(path, nbytes):
            if armed["n"]:
                armed["n"] -= 1
                raise TransientIOError(path)

        fs.disk.fault_hook = hook

        def program():
            yield from writer.open(file_attrs={"step": 3})
            if one_chunk:
                yield from writer.write_records((buf, entries))
            else:
                for name, offset, length, nbytes in entries:
                    record = buf[offset : offset + length]
                    yield from writer.write_records((record, [(name, 0, length, nbytes)]))
            if fault and one_chunk:
                staged = writer.staged_bytes
                armed["n"] = 1
                try:
                    yield from writer.close()
                except TransientIOError:
                    pass
                else:
                    raise AssertionError("the armed landing did not fault")
                # Nothing landed; the stage holds what it held, and the
                # commit footer the faulted landing took on.
                assert writer._vfile.size == 0
                assert writer.staged_bytes == staged + COMMIT_SIZE
                assert writer.owes_landing
                assert writer.ndatasets == len(entries)
            yield from writer.close()

        _drive(env, program())
        return bytes(fs.disk.open("f.shdf").read()), fs.metrics

    gathered, metrics = write(True)
    one_by_one, ref_metrics = write(False)
    assert gathered == one_by_one
    assert scan_file(gathered) == scan_file(one_by_one)
    assert [name for name, _o, _n in scan_file(gathered)[1]] == [e[0] for e in entries]
    assert metrics.bytes_written == ref_metrics.bytes_written
    assert metrics.meta_ops == ref_metrics.meta_ops
    assert metrics.write_ops == ref_metrics.write_ops == 1
