"""Unit tests for the SHDF binary codec."""

import numpy as np
import pytest

from repro.shdf import (
    CodecError,
    Dataset,
    FileImage,
    decode_file,
    decode_header,
    encode_dataset,
    encode_file,
    encode_header,
)


def build_image():
    img = FileImage({"sim": "GENx", "time_step": 50, "dt": 1e-6})
    img.add(
        Dataset(
            "block_001/coords",
            np.random.default_rng(0).random((10, 3)),
            {"units": "m", "ghost_layers": 1},
        )
    )
    img.add(Dataset("block_001/pressure", np.arange(10, dtype=np.float32)))
    img.add(
        Dataset(
            "block_002/conn",
            np.arange(24, dtype=np.int64).reshape(6, 4),
            {"element_type": "tet"},
        )
    )
    return img


def test_roundtrip_full_file():
    img = build_image()
    assert decode_file(encode_file(img)) == img


def test_header_roundtrip():
    attrs = {"a": 1, "b": "text", "c": 2.5}
    buf = encode_header(attrs)
    decoded, pos, version = decode_header(buf)
    assert decoded == attrs
    assert pos == len(buf)
    assert version == 1


def test_bad_magic_rejected():
    with pytest.raises(CodecError):
        decode_file(b"NOPE" + b"\x00" * 20)


def test_truncated_file_rejected():
    buf = encode_file(build_image())
    with pytest.raises(CodecError):
        decode_file(buf[:-5])


def test_incremental_append_matches_batch_encode():
    img = build_image()
    incremental = encode_header(img.attrs)
    for ds in img:
        incremental += encode_dataset(ds)
    assert incremental == encode_file(img)


def test_empty_file_roundtrip():
    img = FileImage()
    assert decode_file(encode_file(img)) == img


def test_attr_types_roundtrip():
    attrs = {
        "none": None,
        "bool_t": True,
        "bool_f": False,
        "int": -(2**40),
        "float": 3.14159,
        "str": "héllo ωorld",
        "bytes": b"\x00\x01\xff",
        "array": np.array([[1.5, 2.5]], dtype=np.float32),
        "list": [1, 2.0, "three", None, [True]],
    }
    img = FileImage(attrs)
    decoded = decode_file(encode_file(img))
    got = decoded.attrs
    assert got["none"] is None
    assert got["bool_t"] is True and got["bool_f"] is False
    assert got["int"] == -(2**40)
    assert got["float"] == pytest.approx(3.14159)
    assert got["str"] == "héllo ωorld"
    assert got["bytes"] == b"\x00\x01\xff"
    np.testing.assert_array_equal(got["array"], attrs["array"])
    assert got["list"] == [1, 2.0, "three", None, [True]]


def test_huge_int_attr_rejected():
    img = FileImage({"too_big": 1 << 70})
    with pytest.raises(CodecError):
        encode_file(img)


@pytest.mark.parametrize(
    "dtype",
    ["f4", "f8", "i1", "i2", "i4", "i8", "u1", "u4", "u8", "c8", "c16", "?"],
)
def test_dtypes_roundtrip(dtype):
    data = np.ones(7, dtype=dtype)
    img = FileImage()
    img.add(Dataset("d", data))
    out = decode_file(encode_file(img)).get("d")
    assert out.data.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out.data, data)


def test_zero_dim_array_roundtrip():
    img = FileImage()
    img.add(Dataset("scalar", np.array(42.0)))
    out = decode_file(encode_file(img)).get("scalar")
    assert out.data.shape == ()
    assert float(out.data) == 42.0


def test_empty_array_roundtrip():
    img = FileImage()
    img.add(Dataset("empty", np.zeros((0, 3))))
    out = decode_file(encode_file(img)).get("empty")
    assert out.data.shape == (0, 3)


def test_large_dataset_roundtrip():
    data = np.random.default_rng(1).random(100_000)
    img = FileImage()
    img.add(Dataset("big", data))
    out = decode_file(encode_file(img)).get("big")
    np.testing.assert_array_equal(out.data, data)


@pytest.mark.parametrize("dtype", [">f8", ">i4", "<f8", "<i4"])
def test_non_native_endian_roundtrip_zero_copy(dtype):
    # The dtype string is stored verbatim, so a big-endian array decodes
    # as a big-endian view over the buffer — byte-identical, no swap.
    data = np.arange(9, dtype=np.float64).astype(dtype).reshape(3, 3)
    img = FileImage()
    img.add(Dataset("d", data))
    out = decode_file(encode_file(img)).get("d")
    assert out.data.dtype == np.dtype(dtype)
    assert not out.data.flags.writeable
    np.testing.assert_array_equal(out.data, data)


def test_empty_attrs_roundtrip_zero_copy():
    img = FileImage({})
    img.add(Dataset("d", np.arange(3), {}))
    out = decode_file(encode_file(img))
    assert out.attrs == {}
    assert out.get("d").attrs == {}


def test_dataset_attr_arrays_are_readonly_views_by_default():
    # Dataset-level attrs follow the copy flag (file-level header attrs
    # are always private copies — they are tiny and parsed up front).
    img = FileImage()
    img.add(Dataset("d", np.arange(3), {"grid": np.arange(6.0).reshape(2, 3)}))
    got = decode_file(encode_file(img)).get("d").attrs["grid"]
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, np.arange(6.0).reshape(2, 3))


def test_decoded_arrays_are_readonly_views_by_default():
    img = FileImage()
    img.add(Dataset("d", np.arange(5)))
    out = decode_file(encode_file(img)).get("d")
    assert not out.data.flags.writeable
    with pytest.raises(ValueError):
        out.data[0] = 99  # mutation must fail loudly, not corrupt the view


def test_decode_copy_yields_writable_private_arrays():
    img = FileImage()
    img.add(Dataset("d", np.arange(5)))
    buf = encode_file(img)
    out = decode_file(buf, copy=True).get("d")
    assert out.data.flags.writeable
    out.data[0] = 99
    assert out.data[0] == 99
    # The buffer itself is untouched: a fresh decode sees the original.
    assert decode_file(buf).get("d").data[0] == 0
