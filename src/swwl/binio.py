"""Binary container used by all cache and model files.

Layout: an 8-byte magic tag, a little-endian uint64 header length, a UTF-8
JSON header, then the raw float64 payload arrays (little-endian, C order) in
the order announced by the header's ``arrays`` entry. The payload ends the
file: trailing bytes are an error.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ParseError

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
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
    JSON object with well-formed array entries, or the payload does not fill
    the rest of the file exactly. Sizes are checked before anything is
    allocated.
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
        except ValueError as exc:
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
    return header, arrays
