"""Binary container: exact round trips and typed rejection of damaged files."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from swwl.binio import read_container, write_container
from swwl.errors import ParseError

MAGIC = "TEST-1"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
headers = st.dictionaries(st.text().filter(lambda k: k != "arrays"), json_values, max_size=4)
arrays = st.dictionaries(
    st.text(max_size=5),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
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


@_settings
@given(header=headers, payload=arrays, cut=st.floats(0, 1, exclude_max=True))
def test_truncation_anywhere_is_parse_error(tmp_path, header, payload, cut):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, header, payload)
    raw = path.read_bytes()
    path.write_bytes(raw[: int(cut * len(raw))])
    with pytest.raises(ParseError):
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


@pytest.mark.parametrize("blob", [b"[1, 2]", b"{not json", b"\xff\xfe"])
def test_header_must_be_a_json_object(tmp_path, blob):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC.encode().ljust(8, b"\0") + np.uint64(len(blob)).tobytes() + blob)
    with pytest.raises(ParseError):
        read_container(path, MAGIC)
