"""Binary container used by all cache and model files.

Layout: an 8-byte magic tag, a little-endian uint64 header length, a UTF-8
JSON header, then the raw float64 payload arrays (little-endian, C order) in
the order announced by the header's ``arrays`` entry. The payload ends the
file: trailing bytes are an error. Every artifact reader takes header
numbers through :func:`header_numbers` and id lists through :func:`record_ids`,
and its payload through :func:`check_payload`. Each artifact's saver runs the
same functions, and its reader's rule, on what it is about to write, with no
path: a refusal is then a ValidationError, and no file is opened.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ParseError, refusal

_MAGIC_LEN = 8


def _pad_magic(magic: str) -> bytes:
    raw = magic.encode("ascii")
    if len(raw) >= _MAGIC_LEN:
        raise ValueError(f"magic tag too long: {magic!r}")
    return raw + b"\x00" * (_MAGIC_LEN - len(raw))


def write_container(path, magic: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a container file; ``arrays`` order is preserved in the header."""
    header = dict(header)
    header["arrays"] = [
        {"name": name, "shape": list(np.asarray(a).shape)} for name, a in arrays.items()
    ]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_pad_magic(magic))
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for arr in arrays.values():
            # the array's own buffer, not a bytes copy of it
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _array_entries(path, header) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each announced array; ParseError on a malformed entry."""
    entries = header.pop("arrays", [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'arrays' must be a list")
    out = []
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise ParseError(
                f"{path}: array entry {entry!r} needs a name and a list of "
                "non-negative integer dimensions"
            )
        if name in (n for n, _ in out):
            raise ParseError(f"{path}: array {name!r} announced twice")
        out.append((name, tuple(shape)))
    return out


def read_container(path, magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by :func:`write_container`.

    Raises ParseError when the magic tag does not match, the header is not a
    JSON object with well-formed array entries, the payload does not fill
    the rest of the file exactly, or an array holds a NaN or infinite entry.
    Sizes are checked before anything is allocated.
    """
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size
        tag = fh.read(_MAGIC_LEN)
        if tag != _pad_magic(magic):
            raise ParseError(f"{path}: expected magic {magic!r}, found {tag!r}")
        size_bytes = fh.read(8)
        if len(size_bytes) != 8:
            raise ParseError(f"{path}: truncated header length")
        size = int(np.frombuffer(size_bytes, dtype="<u8")[0])
        remaining -= _MAGIC_LEN + 8
        if size > remaining:
            raise ParseError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(size).decode("utf-8"))
        except (RecursionError, ValueError) as exc:  # RecursionError: nested too deep
            raise ParseError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise ParseError(f"{path}: header must be a JSON object")
        entries = _array_entries(path, header)
        payload = sum(8 * math.prod(shape) for _, shape in entries)
        if payload != remaining - size:
            raise ParseError(
                f"{path}: header announces {payload} payload bytes, "
                f"file holds {remaining - size}"
            )
        arrays = {}
        for name, shape in entries:
            data = bytearray(8 * math.prod(shape))
            fh.readinto(data)
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape)
    check_payload(path, arrays)
    return header, arrays


def check_payload(path, arrays: dict) -> None:
    """The refusal of ``path`` (:func:`~swwl.errors.refusal`) naming the first
    array that holds a NaN or infinite entry, and that entry's index."""
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            index = tuple(np.argwhere(~np.isfinite(array))[0].tolist())
            raise refusal(path, f"array {name!r} holds a NaN or infinite entry at index {index}")


def _numbers(value, depth: int) -> bool:
    """Whether ``value`` is a JSON number (not a boolean) nested in ``depth`` lists."""
    if depth == 0:
        return type(value) in (int, float)
    return isinstance(value, list) and all(_numbers(v, depth - 1) for v in value)


def header_numbers(path, header: dict, key: str, shape: tuple, optional: bool = False):
    """``header[key]`` as a float array of ``shape``: one finite JSON number
    for ``()``, a list of them for ``(k,)``, a list of equal-length lists for
    ``(k, m)``; a dimension given as None takes any length. An absent key is
    None when ``optional`` and refused otherwise, as is a value of any other
    form: the refusal of ``path`` (:func:`~swwl.errors.refusal`).
    """
    value = header.get(key)
    if value is None and optional:
        return None
    try:
        array = np.array(value, dtype=float) if _numbers(value, len(shape)) else None
    except (OverflowError, ValueError):  # an integer beyond the double range, ragged rows
        array = None
    if array is None or array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ) or not np.isfinite(array).all():
        dims = " x ".join("m" if d is None else str(d) for d in shape)
        what = f"a {dims} list of finite numbers" if shape else "a finite number"
        raise refusal(path, f"{key!r} must be {what}")
    return array


def record_ids(path, header: dict, key: str, n: int | None = None) -> tuple[str, ...]:
    """``header[key]``: a list of distinct record ids, all strings, and ``n``
    of them unless ``n`` is None; the refusal of ``path`` otherwise."""
    ids = header.get(key)
    strings = isinstance(ids, list) and all(isinstance(i, str) for i in ids)
    if not strings or n not in (None, len(ids)):
        count = "" if n is None else f"{n} "
        raise refusal(path, f"{key!r} must be a list of {count}record ids as strings")
    if len(set(ids)) != len(ids):
        raise refusal(path, f"{key!r} repeats a record id")
    return tuple(ids)
