"""Attributed-graph containers, JSONL dataset ingestion and validation.

A graph is a set of nodes carrying d-dimensional real attributes plus a set
of weighted undirected edges stored once per unordered pair. Datasets are
ordered lists of graph records; record order is stable and is what ties Gram
rows back to inputs downstream.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binio import _numbers, header_numbers
from .errors import ParseError, SchemaError, ValidationError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected graph with continuous node attributes and edge weights.

    attributes: (n, d) float array, one row per node.
    edges: (E, 2) int array of unordered pairs, each stored once.
    weights: (E,) float array, defaults to all ones.

    The graph keeps read-only copies of the arrays it is given, so a later
    write to the caller's arrays cannot bypass the checks below.
    """

    attributes: np.ndarray
    edges: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        attrs = np.array(self.attributes, dtype=float)
        if attrs.ndim != 2 or attrs.shape[0] < 1 or attrs.shape[1] < 1:
            raise ValidationError(f"attributes must be (n, d) with n, d >= 1, got {attrs.shape}")
        if not np.all(np.isfinite(attrs)):
            raise ValidationError("attributes contain non-finite values")
        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        weights = self.weights
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.array(weights, dtype=float).reshape(-1)
        if len(weights) != len(edges):
            raise ValidationError("edge and weight counts differ")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("edge weights contain non-finite values")
        n = attrs.shape[0]
        if len(edges):
            bad = (edges < 0) | (edges >= n)
            if bad.any():
                offender = int(edges[bad][0])
                raise ValidationError(f"edge endpoint {offender} out of range for {n} nodes")
            loops = edges[:, 0] == edges[:, 1]
            if loops.any():
                raise ValidationError(f"self-loop at node {int(edges[loops][0, 0])}")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            keys = np.sort(lo * n + hi)
            if np.any(keys[1:] == keys[:-1]):
                raise ValidationError("duplicate undirected edge")
        degrees = np.bincount(edges.reshape(-1), minlength=n).astype(np.int64, copy=False)
        object.__setattr__(self, "attributes", _readonly(attrs))
        object.__setattr__(self, "edges", _readonly(edges))
        object.__setattr__(self, "weights", _readonly(weights))
        object.__setattr__(self, "_degrees", _readonly(degrees))

    @property
    def node_count(self) -> int:
        return self.attributes.shape[0]

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees


def disjoint_union(graphs) -> tuple[AttributedGraph, np.ndarray]:
    """One graph holding ``graphs`` side by side, and where each one starts.

    Graph i's nodes are rows ``offsets[i]:offsets[i + 1]`` of the union, in
    their own order, and its edges follow those of graphs 0..i-1, shifted by
    ``offsets[i]``. No edge joins two of the graphs.
    """
    graphs = list(graphs)
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.node_count for g in graphs], out=offsets[1:])
    union = AttributedGraph(
        np.concatenate([g.attributes for g in graphs]),
        np.concatenate([g.edges + off for g, off in zip(graphs, offsets)]),
        np.concatenate([g.weights for g in graphs]),
    )
    return union, offsets


@dataclass(frozen=True)
class GraphRecord:
    graph: AttributedGraph
    scalars: np.ndarray
    target: float | None
    id: str

    def __post_init__(self):
        if type(self.id) is not str:
            raise ValidationError(f"record id {self.id!r} is not a string")
        scalars = np.array(self.scalars, dtype=float).reshape(-1)
        if not np.all(np.isfinite(scalars)):
            raise ValidationError(f"record {self.id!r}: non-finite scalar covariate")
        if self.target is not None and not np.isfinite(self.target):
            raise ValidationError(f"record {self.id!r}: non-finite target")
        object.__setattr__(self, "scalars", _readonly(scalars))


@dataclass(frozen=True)
class Dataset:
    """Ordered list of records with distinct ids and one attribute and scalar dimension."""

    records: tuple[GraphRecord, ...]
    attr_dim: int = field(init=False)
    scalar_dim: int = field(init=False)

    def __post_init__(self):
        records = tuple(self.records)
        if not records:
            raise SchemaError("dataset has no records")
        d = records[0].graph.attr_dim
        m = records[0].scalars.shape[0]
        seen = set()
        for rec in records:
            if rec.id in seen:
                raise SchemaError(f"record id {rec.id!r} appears more than once")
            seen.add(rec.id)
            if rec.graph.attr_dim != d:
                raise SchemaError(
                    f"record {rec.id!r}: attribute dimension {rec.graph.attr_dim} != {d}"
                )
            if rec.scalars.shape[0] != m:
                raise SchemaError(
                    f"record {rec.id!r}: scalar count {rec.scalars.shape[0]} != {m}"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "attr_dim", d)
        object.__setattr__(self, "scalar_dim", m)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    @property
    def has_targets(self) -> bool:
        return all(rec.target is not None for rec in self.records)

    def targets(self) -> np.ndarray:
        missing = [rec.id for rec in self.records if rec.target is None]
        if missing:
            raise SchemaError(f"records without targets: {missing[:5]}")
        return np.array([rec.target for rec in self.records], dtype=float)

    def scalar_matrix(self) -> np.ndarray:
        return np.array([rec.scalars for rec in self.records], dtype=float)

    def node_counts(self) -> np.ndarray:
        return np.array([rec.graph.node_count for rec in self.records], dtype=np.int64)


_EDGE_SHAPE = "edge entry {!r} must be [u, v] or [u, v, w]"
_EDGE_ENDPOINTS = "edge endpoints must be integers, got {!r}"
_EDGE_WEIGHT = "edge weight must be a number, got {!r}"


def _integral(values: np.ndarray) -> np.ndarray:
    """Elementwise: an integer below 2**53 in magnitude, so exact as a double."""
    return (np.trunc(values) == values) & (np.abs(values) < 2.0**53)


def _edge_error(entry) -> str | None:
    """Why one edge entry is refused, or None if it is well formed."""
    if type(entry) is not list or len(entry) not in (2, 3):
        return _EDGE_SHAPE.format(entry)
    uv = entry[:2]
    if not all(isinstance(x, (int, float)) for x in uv) or not all(
        _integral(np.array(uv, dtype=float))
    ):
        return _EDGE_ENDPOINTS.format(entry)
    if len(entry) == 3 and not isinstance(entry[2], (int, float)):
        return _EDGE_WEIGHT.format(entry)
    return None


def _edge_arrays(edges_raw, line: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, 2) int64 endpoints and (E,) weights of a record's JSON edge list.

    Each entry is [u, v] (weight 1) or [u, v, w] of JSON numbers, with
    integral endpoints below 2**53 in magnitude. The list becomes one table
    through one ``np.array`` call; only a list mixing [u, v] with [u, v, w],
    or one holding a malformed entry, is checked entry by entry. An error
    names the first offending entry in list order.
    """
    if type(edges_raw) is not list:
        raise ParseError(f"'edges' must be a list, got {type(edges_raw).__name__}", line=line)
    try:
        table = np.array(edges_raw) if edges_raw else np.zeros((0, 2))
    except ValueError:  # entries of different lengths
        table = None
    if table is None or table.ndim != 2 or table.shape[1] not in (2, 3) or (
        table.dtype.kind not in "biuf"
    ):
        for entry in edges_raw:
            message = _edge_error(entry)
            if message:
                raise ParseError(message, line=line)
        table = np.array([e if len(e) == 3 else [*e, 1.0] for e in edges_raw], dtype=float)
    endpoints = table[:, :2].astype(float)
    bad = np.flatnonzero(~_integral(endpoints).all(axis=1))
    if bad.size:
        raise ParseError(_EDGE_ENDPOINTS.format(edges_raw[bad[0]]), line=line)
    weights = table[:, 2].astype(float) if table.shape[1] == 3 else np.ones(len(table))
    return endpoints.astype(np.int64), weights


def _record_from_obj(obj: dict, line: int) -> GraphRecord:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line=line)
    try:
        nodes = obj["nodes"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", line=line) from exc
    edges_raw = obj.get("edges", [])
    rec_id = obj.get("id", f"record-{line}")
    if type(rec_id) is not str:
        if type(rec_id) not in (int, float):  # null, a boolean, an array or an object
            raise ParseError(f"record id {json.dumps(rec_id)[:40]} is not a string "
                             "or a number", line=line)
        rec_id = str(rec_id)
    try:
        attrs = np.array(nodes)
    except ValueError:  # ragged rows
        attrs = None
    if attrs is not None and attrs.dtype.kind == "O" and _numbers(nodes, attrs.ndim):
        attrs = np.array(nodes, dtype=float)  # an integer beyond the int64 range
    if attrs is None or attrs.dtype.kind not in "iuf":  # text, booleans, null, objects
        raise ParseError("malformed node attributes: 'nodes' must be a list of JSON "
                         "numbers or of equal-length lists of them", line=line)
    if attrs.ndim == 1:
        attrs = attrs.reshape(-1, 1)
    edges, weights = _edge_arrays(edges_raw, line)
    try:
        graph = AttributedGraph(attrs, edges, weights)
    except ValidationError as exc:
        raise ValidationError(f"record {rec_id!r} (line {line}): {exc}") from exc
    scalars, target = obj.get("scalars", []), obj.get("target")
    if not _numbers(scalars, 1):
        raise ParseError("'scalars' must be a list of JSON numbers", line=line)
    if target is not None and not _numbers(target, 0):
        raise ParseError("'target' must be a JSON number or null", line=line)
    return GraphRecord(
        graph=graph,
        scalars=np.array(scalars, dtype=float),
        target=None if target is None else float(target),
        id=rec_id,
    )


class _GcPaused:
    """Hold off the cyclic garbage collector, then restore the caller's setting.

    Decoding or encoding JSONL allocates a few short-lived lists per node and
    per edge, and that churn sets off hundreds of collector passes per file
    (several of them over the whole heap) which find nothing: JSON values and
    the records built from them hold no reference cycles. Reference counting
    still frees everything as usual while the collector is off. What the
    block allocates still counts towards the young generation, so the first
    allocation after it may start one young-generation pass; this is a class
    rather than a generator so that its exit allocates nothing. Of calls
    overlapping in several threads, the first to exit that found the
    collector on turns it back on while the others may still be working;
    that costs them time, never a different result.
    """

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._was_enabled:
            gc.enable()


def load_dataset(source) -> Dataset:
    """Load a dataset; one JSON object per line per the documented schema.

    ``source`` is a path, or the bytes of such a file already read, so that
    a caller can hash exactly the bytes that are parsed. Record ids must be
    unique within the file (an explicit ``id`` or the ``record-<line>``
    default); a repeated one is a ParseError naming both lines.
    """
    records = []
    first_line = {}  # record id -> line it first appeared on
    if isinstance(source, bytes):
        fh = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8")
    else:
        fh = open(source, "r", encoding="utf-8")
    try:
        with _GcPaused(), fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                # also an integer literal of over 4300 digits; RecursionError: nested too deep
                except (RecursionError, ValueError) as exc:
                    raise ParseError(str(exc), line=lineno) from exc
                try:
                    rec = _record_from_obj(obj, lineno)
                except OverflowError as exc:  # a JSON integer beyond the double range
                    raise ParseError(f"number out of range: {exc}", line=lineno) from exc
                seen = first_line.setdefault(rec.id, lineno)
                if seen != lineno:
                    raise ParseError(
                        f"record id {rec.id!r} repeats the id of line {seen}", line=lineno
                    )
                records.append(rec)
            return Dataset(records=tuple(records))
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from exc


def _not_utf8(source, exc: UnicodeDecodeError) -> ParseError:
    """``exc`` as a ParseError naming the line of the first byte of ``source``
    (a path or bytes) that is not UTF-8. The decoder reads ahead, so the
    offset in ``exc`` is one within a chunk, not within the file."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    return ParseError(f"not UTF-8 text: {exc.reason}", line=data.count(b"\n", 0, exc.start) + 1)


def save_dataset(dataset: Dataset, path) -> None:
    """Write JSONL that reloads bit-exactly (shortest round-trip floats)."""
    with _GcPaused(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in dataset:
            g = rec.graph
            # tolist() gives Python ints and floats already
            edges = [[u, v, w] for (u, v), w in zip(g.edges.tolist(), g.weights.tolist())]
            obj = {
                "id": rec.id,
                "nodes": g.attributes.tolist(),
                "edges": edges,
                "scalars": rec.scalars.tolist(),
            }
            if rec.target is not None:
                obj["target"] = rec.target
            fh.write(json.dumps(obj) + "\n")


@dataclass(frozen=True)
class StandardizationStats:
    """Per-dimension attribute mean/scale estimated on a training set.

    The constructor takes both as float arrays and holds the rule of
    ``standardization.json``: ``mean`` and ``std`` are equal-length vectors
    of finite numbers and every ``std`` is positive; ValidationError
    otherwise.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{name!r} must be a vector of numbers: {exc}") from exc
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise ValidationError(f"{self.mean.size} means but {self.std.size} scales")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValidationError("'mean' and 'std' must be finite")
        if not np.all(self.std > 0):
            raise ValidationError("'std' must be positive")

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    def sha256(self) -> str:
        """Hex sha256 of :meth:`to_dict` as JSON with sorted keys."""
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    @classmethod
    def from_dict(cls, obj: dict, source="standardization") -> "StandardizationStats":
        """Inverse of :meth:`to_dict`; ParseError naming ``source`` unless
        ``obj`` is a dict whose ``mean`` and ``std`` are lists of JSON numbers
        that the constructor accepts.
        """
        if not isinstance(obj, dict):
            raise ParseError(f"{source}: standardization statistics must be a JSON object, "
                             f"got {type(obj).__name__}")
        mean, std = (header_numbers(source, obj, k, (None,)) for k in ("mean", "std"))
        try:
            return cls(mean=mean, std=std)
        except ValidationError as exc:
            raise ParseError(f"{source}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "StandardizationStats":
        """:meth:`from_dict` of the JSON file ``path`` (``standardization.json``
        as ``embed --standardize`` writes it); ParseError naming ``path`` if
        it is not UTF-8 JSON, or nests past the recursion limit."""
        try:
            obj = json.loads(Path(path).read_bytes().decode("utf-8"))
        # UnicodeDecodeError and JSONDecodeError; RecursionError: nested too deep
        except (RecursionError, ValueError) as exc:
            raise ParseError(f"{path}: not UTF-8 JSON: {exc}") from exc
        return cls.from_dict(obj, source=path)


def compute_standardization(dataset: Dataset) -> StandardizationStats:
    """Mean and standard deviation over all nodes of all graphs.

    Dimensions with zero spread keep scale 1 so they are centered only.
    """
    stacked = np.vstack([rec.graph.attributes for rec in dataset])
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return StandardizationStats(mean=mean, std=std)

