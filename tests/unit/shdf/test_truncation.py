"""Truncation and torn-file handling of the SHDF codec.

A file cut mid-record must *never* decode as a shorter-but-valid file:
every prefix of the byte stream (other than a clean header-only file)
raises :class:`CodecError`.  A *journaled* file additionally promises a
commit footer, and decoding one without it raises
:class:`TornFileError` — the signal restart paths use to skip snapshots
torn by a crash.
"""

import numpy as np
import pytest

from repro.shdf.codec import (
    COMMIT_SIZE,
    JOURNAL_ATTR,
    CodecError,
    Dataset,
    TornFileError,
    decode_file,
    encode_commit_footer,
    encode_dataset,
    encode_header,
    scan_file,
)


def _sample_dataset():
    return Dataset(
        "Fluid/b0001/coords",
        np.arange(12, dtype=np.float64).reshape(4, 3),
        {"loc": "node", "step": 7},
    )


def _record_boundaries(dataset):
    """Byte offsets of every field boundary inside one encoded record.

    Mirrors the wire layout documented in :mod:`repro.shdf.codec`::

        magic | str16 name | attrs | str16 dtype | u8 ndim
              | u64*ndim dims | u64 nbytes | raw data
    """
    arr = dataset.data
    name_raw = dataset.name.encode()
    offsets = {}
    pos = 4
    offsets["after_magic"] = pos
    pos += 2 + len(name_raw)
    offsets["after_name"] = pos
    pos += 4  # u32 attr count
    offsets["after_attr_count"] = pos
    for attr_name, value in dataset.attrs.items():
        pos += 2 + len(attr_name.encode())
        pos += 1  # value tag byte
        pos += 4 + len(value.encode()) if isinstance(value, str) else 8
        offsets[f"after_attr_{attr_name}"] = pos
    pos += 2 + len(arr.dtype.str.encode())
    offsets["after_dtype"] = pos
    pos += 1
    offsets["after_ndim"] = pos
    pos += 8 * arr.ndim
    offsets["after_dims"] = pos
    pos += 8
    offsets["after_nbytes"] = pos
    pos += arr.nbytes // 2
    offsets["mid_data"] = pos
    return offsets


class TestTruncation:
    def test_boundaries_cover_the_whole_record(self):
        ds = _sample_dataset()
        record = encode_dataset(ds)
        offsets = _record_boundaries(ds)
        # The layout helper and the encoder must agree on where fields
        # end; "mid_data" sits exactly half a payload before the end.
        assert offsets["after_nbytes"] + ds.data.nbytes == len(record)

    @pytest.mark.parametrize("field", sorted(_record_boundaries(_sample_dataset())))
    def test_cut_at_field_boundary_raises(self, field):
        ds = _sample_dataset()
        header = encode_header({})
        record = encode_dataset(ds)
        cut = _record_boundaries(ds)[field]
        with pytest.raises(CodecError):
            decode_file(header + record[:cut])

    def test_cut_at_every_byte_offset_raises(self):
        """Exhaustive: any proper prefix of header+record is rejected."""
        ds = _sample_dataset()
        buf = encode_header({"run": 1}) + encode_dataset(ds)
        header_len = len(encode_header({"run": 1}))
        for cut in range(len(buf)):
            if cut == header_len:
                continue  # header-only file: valid and empty
            with pytest.raises(CodecError):
                decode_file(buf[:cut])

    def test_header_only_file_is_valid_and_empty(self):
        image = decode_file(encode_header({"run": 1}))
        assert len(image) == 0
        assert image.attrs["run"] == 1

    def test_garbage_between_records_raises(self):
        ds = _sample_dataset()
        buf = encode_header({}) + encode_dataset(ds) + b"JUNKJUNKJUNK"
        with pytest.raises(CodecError):
            decode_file(buf)


class TestJournaledFiles:
    def _journaled(self, ndatasets=1, footer=True, committed=None):
        ds = _sample_dataset()
        buf = bytearray(encode_header({JOURNAL_ATTR: True}))
        for _ in range(ndatasets):
            buf += encode_dataset(ds)
        if footer:
            buf += encode_commit_footer(
                ndatasets if committed is None else committed
            )
        return bytes(buf)

    def test_committed_journaled_file_decodes(self):
        image = decode_file(self._journaled())
        assert len(image) == 1

    def test_journaled_file_without_footer_is_torn(self):
        with pytest.raises(TornFileError):
            decode_file(self._journaled(footer=False))

    def test_journaled_file_with_wrong_commit_count_is_torn(self):
        with pytest.raises(TornFileError):
            decode_file(self._journaled(ndatasets=1, committed=2))

    def test_empty_file_is_torn(self):
        # A writer that crashed before its first landing — file created,
        # the header still staged with it — leaves zero bytes: no magic,
        # no journal flag.  The restart scan must be able to skip it like
        # any other torn file.
        for decode in (decode_file, scan_file):
            with pytest.raises(TornFileError):
                decode(b"")

    def test_footer_is_fixed_size(self):
        assert len(encode_commit_footer(7)) == COMMIT_SIZE

    def test_non_journaled_file_without_footer_still_decodes(self):
        buf = encode_header({}) + encode_dataset(_sample_dataset())
        assert len(decode_file(buf)) == 1

    def test_torn_is_a_codec_error(self):
        # Callers catching CodecError (the generic corruption signal)
        # also see torn files; only restart paths special-case them.
        assert issubclass(TornFileError, CodecError)
