"""Binary container: exact round trips and typed rejection of damaged files."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from swwl.binio import header_numbers, read_container, record_ids, write_container
from swwl.errors import ParseError

MAGIC = "TEST-1"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
headers = st.dictionaries(st.text().filter(lambda k: k != "arrays"), json_values, max_size=4)
# finite payloads: a NaN or infinite entry is refused on reading
arrays = st.dictionaries(
    st.text(max_size=5),
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=3,
)
_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_settings
@given(header=headers, payload=arrays)
def test_round_trip_is_exact(tmp_path, header, payload):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, header, payload)
    back_header, back = read_container(path, MAGIC)
    assert back_header == header
    assert list(back) == list(payload)
    for name, arr in payload.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.astype("<f8").tobytes()


def test_any_layout_is_written_as_c_order_little_endian_doubles(tmp_path):
    base = np.arange(12.0).reshape(3, 4) - 5.5
    payload = {
        "fortran": np.asfortranarray(base),
        "strided": base[:, ::2],
        "transposed": base.T,
        "int": np.arange(6).reshape(2, 3),
        "big-endian": base.astype(">f8"),
    }
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {}, payload)
    raw = path.read_bytes()
    tail = b"".join(np.asarray(a, dtype="<f8").tobytes(order="C") for a in payload.values())
    assert raw.endswith(tail)
    _, back = read_container(path, MAGIC)
    for name, arr in payload.items():
        assert np.array_equal(back[name], arr)


@_settings
@given(header=headers, payload=arrays, cut=st.floats(0, 1, exclude_max=True))
def test_truncation_anywhere_is_parse_error(tmp_path, header, payload, cut):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, header, payload)
    raw = path.read_bytes()
    path.write_bytes(raw[: int(cut * len(raw))])
    with pytest.raises(ParseError):
        read_container(path, MAGIC)


@pytest.mark.parametrize("cut", [8, 12, 15])
def test_truncated_header_length_is_parse_error(tmp_path, cut):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {}, {})
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ParseError, match="truncated header length"):
        read_container(path, MAGIC)


@_settings
@given(header=headers, payload=arrays, tail=st.binary(min_size=1, max_size=16))
def test_trailing_bytes_are_parse_error(tmp_path, header, payload, tail):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, header, payload)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ParseError):
        read_container(path, MAGIC)


def _with_header(path, header: dict, payload_bytes: bytes = b""):
    blob = json.dumps(header).encode()
    magic = MAGIC.encode().ljust(8, b"\0")
    path.write_bytes(magic + np.uint64(len(blob)).tobytes() + blob + payload_bytes)


@pytest.mark.parametrize(
    "arrays_entry",
    [
        [{"name": "x", "shape": [0.5]}],
        [{"name": "x", "shape": "ab"}],
        [{"name": "x", "shape": [-1]}],
        [{"name": "x", "shape": [True]}],
        [{"name": "x"}],
        [{"shape": [1]}],
        [{"name": "x", "shape": [1]}, {"name": "x", "shape": [0]}],
        "x",
    ],
)
def test_malformed_array_entries_are_parse_errors(tmp_path, arrays_entry):
    path = tmp_path / "c.bin"
    _with_header(path, {"arrays": arrays_entry}, b"\0" * 8)
    with pytest.raises(ParseError):
        read_container(path, MAGIC)


def test_oversized_shape_is_refused_before_allocation(tmp_path):
    path = tmp_path / "c.bin"
    _with_header(path, {"arrays": [{"name": "x", "shape": [2**40, 2**40]}]})
    with pytest.raises(ParseError, match="payload bytes"):
        read_container(path, MAGIC)


@pytest.mark.parametrize("blob", [b"[1, 2]", b"{not json", b"\xff\xfe",
                                  b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"])
def test_header_must_be_a_json_object(tmp_path, blob):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC.encode().ljust(8, b"\0") + np.uint64(len(blob)).tobytes() + blob)
    with pytest.raises(ParseError):
        read_container(path, MAGIC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_is_parse_error_naming_the_array(tmp_path, bad):
    path = tmp_path / "c.bin"
    values = np.arange(6.0).reshape(2, 3)
    values[1, 2] = bad
    write_container(path, MAGIC, {}, {"ok": np.ones(2), "values": values})
    with pytest.raises(ParseError, match=re.escape(
            f"{path}: array 'values' holds a NaN or infinite entry at index (1, 2)")):
        read_container(path, MAGIC)


@pytest.mark.parametrize(
    "value, shape",
    [(1, ()), (0.5, ()), ([1, 2.5], (2,)), ([], (None,)), ([[1], [2.0]], (2, None))],
)
def test_header_numbers_reads_finite_json_numbers(value, shape):
    got = header_numbers("f", {"k": value}, "k", shape)
    assert got.dtype == float and np.array_equal(got, np.array(value, dtype=float))


@pytest.mark.parametrize(
    "value, shape",
    [(True, ()), ("1", ()), ([1.0], ()), (float("nan"), ()), (10**400, ()),
     (1.0, (1,)), ([1.0], (2,)), ([1.0, [2.0]], (2,)), ([[1.0], [1.0, 2.0]], (2, None)),
     ([[1.0], [float("inf")]], (2, None))],
)
def test_header_numbers_refuses_anything_else(value, shape):
    with pytest.raises(ParseError, match="f: 'k' must be a"):
        header_numbers("f", {"k": value}, "k", shape)


def test_absent_header_numbers_are_none_only_when_optional():
    assert header_numbers("f", {}, "k", (None,), optional=True) is None
    with pytest.raises(ParseError, match="'k' must be a finite number"):
        header_numbers("f", {}, "k", ())


def test_record_ids_are_distinct_strings():
    assert record_ids("f", {"ids": ["a", "b"]}, "ids", 2) == ("a", "b")
    assert record_ids("f", {"ids": []}, "ids") == ()
    for header, n in (({}, None), ({"ids": "ab"}, None), ({"ids": ["a", 1]}, None),
                      ({"ids": ["a"]}, 2)):
        with pytest.raises(ParseError, match="'ids' must be a list of"):
            record_ids("f", header, "ids", n)
    with pytest.raises(ParseError, match="'ids' repeats a record id"):
        record_ids("f", {"ids": ["a", "b", "a"]}, "ids")
