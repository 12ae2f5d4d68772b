"""Projected quantile embeddings and sliced Wasserstein estimates.

A measure (here: the uniform distribution over a graph's WL embedding rows)
is summarized by the quantiles of its projections onto P shared random unit
directions, evaluated on a fixed grid of Q levels and scaled by
(P*Q)**(-1/r). The r-norm between two such embeddings is exactly the
P-direction, Q-level estimate of the r-sliced Wasserstein distance, which
turns the estimate into a Hilbertian pseudo-distance and the substitution
kernel built on it into a positive definite kernel.

Quantiles are extracted with the step empirical inverse CDF
(``inf {x : F(x) >= t}``, with level 0 mapped to the minimum). For two
empirical measures with equal support size n this makes the Q-level estimate
converge to the exact one-dimensional Wasserstein distance as Q grows, and
reproduce it exactly at Q = 50*n. Linear interpolation between order
statistics is deliberately not used: its limit as Q grows differs from the
exact transport distance by an O(1/n) bias.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .binio import check_payload, header_numbers, read_container, record_ids, write_container
from .errors import (
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyInputError,
    ValidationError,
    integer,
    refusal,
)
from .graphs import StandardizationStats

GENERATOR_NAME = "philox-normal-v1"
PQ_STORE_MAGIC = "SWWL-S1"
PQ_STORE_NAME = "embeddings.pq"

# the largest key of numpy's Philox generator, which is 128 bits wide
PHILOX_SEED_MAX = 2**128 - 1
_MIN_DIRECTION_NORM = 1e-300
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class QuantileGrid:
    """Q equally spaced levels t_1 = 0 < ... < t_Q = 1, Q an integer >= 2."""

    q: int

    def __post_init__(self):
        object.__setattr__(self, "q", integer("q", self.q, least=2))

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.q) / (self.q - 1)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted point cloud in R^s."""

    support: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        if support.ndim != 2 or support.shape[0] < 1:
            raise EmptyInputError(f"support must be (n, s) with n >= 1, got {support.shape}")
        if not np.all(np.isfinite(support)):
            raise ValidationError("support contains non-finite values")
        object.__setattr__(self, "support", support)

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True)
class ProjectionSet:
    """P unit directions shared by every measure entering one Gram matrix."""

    directions: np.ndarray
    seed: int
    block: int | None = None

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def _unit_rows(draw, n_rows: int, dim: int) -> np.ndarray:
    """Normalize Gaussian rows, redrawing the vanishing ones."""
    out = draw(n_rows)
    norms = np.linalg.norm(out, axis=1)
    for _ in range(_MAX_REDRAWS):
        bad = norms < _MIN_DIRECTION_NORM
        if not bad.any():
            return out / norms[:, None]
        out[bad] = draw(int(bad.sum()))
        norms[bad] = np.linalg.norm(out[bad], axis=1)
    raise DegenerateDrawError(
        f"failed to draw a usable direction in {_MAX_REDRAWS} attempts"
    )


def sample_projections(seed: int, n_projections: int, dim: int) -> ProjectionSet:
    """Directions i.i.d. uniform on the unit sphere, reproducible from the seed:
    block 0 of :func:`sample_projection_blocks`, without a block label."""
    return replace(sample_projection_blocks(seed, n_projections, dim, 1)[0], block=None)


def sample_projection_blocks(
    seed: int, n_projections: int, dim: int, n_blocks: int
) -> list[ProjectionSet]:
    """Independent direction sets for per-iteration measures, one seed stream.

    The stream is a Philox counter-based generator consumed block by block in
    order, so block h is bit-identical for the same (seed, n_projections,
    dim, h). The seed is an integer from 0 to ``PHILOX_SEED_MAX``, the
    counts integers >= 1; ValidationError naming the first that is not.
    """
    seed = integer("seed", seed, most=PHILOX_SEED_MAX)
    n_projections = integer("n_projections", n_projections, least=1)
    dim, n_blocks = integer("dim", dim, least=1), integer("n_blocks", n_blocks, least=1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    blocks = []
    for h in range(n_blocks):
        dirs = _unit_rows(lambda k: rng.standard_normal((k, dim)), n_projections, dim)
        blocks.append(ProjectionSet(directions=dirs, seed=seed, block=h))
    return blocks


def _step_indices(n: int, levels: np.ndarray) -> np.ndarray:
    """Sorted-array positions of the step inverse CDF at the given levels."""
    idx = np.maximum(np.ceil(np.asarray(levels) * n).astype(np.int64), 1) - 1
    return np.minimum(idx, n - 1)


@dataclass(frozen=True)
class PqFingerprint:
    """Everything two embeddings must share before they may be compared.

    ``standardization_sha256`` is the sha256 of the sorted JSON of the
    attribute standardization statistics, None without standardization and
    in stores written before it was recorded.
    """

    seed: int
    n_projections: int
    n_quantiles: int
    r: float
    dim: int
    block: int | None = None
    iterations: tuple[int, ...] | None = None
    standardized: bool = False
    standardization_sha256: str | None = None
    generator: str = GENERATOR_NAME

    def to_dict(self) -> dict:
        # no key without a digest, so unstandardized stores keep their bytes
        digest = self.standardization_sha256
        return {
            "seed": self.seed,
            "projections": self.n_projections,
            "quantiles": self.n_quantiles,
            "r": self.r,
            "s": self.dim,
            "block": self.block,
            "iterations": None if self.iterations is None else list(self.iterations),
            "standardized": self.standardized,
            "generator": self.generator,
            **({} if digest is None else {"standardization_sha256": digest}),
        }

    @classmethod
    def from_dict(cls, obj: dict, path=None) -> "PqFingerprint":
        """Inverse of :meth:`to_dict`; a missing, unknown or ill-typed key is
        the refusal of ``path`` (:func:`~swwl.errors.refusal`), the file the
        fingerprint was read from, or None as a writer checks it. Each value
        keeps its JSON type: the seed, P, Q, dimension, block and iterations
        are integers, so ``true`` or ``5.0`` is refused, ``standardized`` is
        a boolean, and ``r`` any number."""
        try:
            block, iterations = obj.get("block"), obj.get("iterations")
            digest = obj.get("standardization_sha256")
            fp = cls(
                seed=int(obj["seed"]),
                n_projections=int(obj["projections"]),
                n_quantiles=int(obj["quantiles"]),
                r=float(obj["r"]),
                dim=int(obj["s"]),
                block=None if block is None else int(block),
                iterations=None if iterations is None else tuple(int(h) for h in iterations),
                standardized=bool(obj.get("standardized", False)),
                standardization_sha256=None if digest is None else str(digest),
                generator=str(obj.get("generator", GENERATOR_NAME)),
            )
            # conversion must be lossless and keep the type: "5", 1.5, 5.0,
            # true for 1, 1 for true, [0, "a"] or an unknown key are refused
            canonical = fp.to_dict()
            if repr({**canonical, "r": obj["r"]}) != repr({**canonical, **obj}) or (
                    type(obj["r"]) not in (int, float)):
                raise ValueError("ill-typed value")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise refusal(path, f"malformed embedding fingerprint {obj!r}: {exc!r}") from exc
        return fp


@dataclass(frozen=True)
class PqEmbedding:
    """Projected quantile embedding: P*Q values, laid out level-major.

    Component p + P*(q-1) (1-based) holds the level-q quantile of projection
    p, scaled by (P*Q)**(-1/r).
    """

    values: np.ndarray
    fingerprint: PqFingerprint
    graph_id: str = ""


def pq_fingerprint(
    projections: ProjectionSet,
    grid: QuantileGrid,
    r: float,
    iterations: tuple[int, ...] | None = None,
    standardization: StandardizationStats | None = None,
) -> PqFingerprint:
    """The fingerprint of every embedding made with these directions and
    levels, from attributes standardized by ``standardization`` if given."""
    return PqFingerprint(
        seed=projections.seed,
        n_projections=projections.count,
        n_quantiles=grid.q,
        r=float(r),
        dim=projections.dim,
        block=projections.block,
        iterations=iterations,
        standardized=standardization is not None,
        standardization_sha256=None if standardization is None else standardization.sha256(),
    )


def pq_embed(
    measure: EmpiricalMeasure,
    projections: ProjectionSet,
    grid: QuantileGrid,
    r: float = 2.0,
    graph_id: str = "",
) -> PqEmbedding:
    """Embed a measure as the scaled quantiles of its P projections."""
    if r < 1:
        raise ValidationError(f"distance order r must be >= 1, got {r}")
    if projections.dim != measure.dim:
        raise DimensionMismatchError(
            f"projections live in R^{projections.dim}, support in R^{measure.dim}"
        )
    # (P, n) layout keeps each projection contiguous for the sort
    projected = projections.directions @ measure.support.T
    projected.sort(axis=1)
    quants = projected[:, _step_indices(measure.size, grid.levels)].T  # (Q, P)
    scale = (projections.count * grid.q) ** (-1.0 / r)
    return PqEmbedding(
        values=scale * quants.reshape(-1),
        fingerprint=pq_fingerprint(projections, grid, r),
        graph_id=graph_id,
    )


@dataclass(frozen=True)
class PqStore:
    """The embeddings of one dataset as matrices, rows in dataset order.

    ``blocks[0]`` is the (N, P*Q) feature matrix; for the anisotropic variant
    ``blocks[1 + h]`` embeds kept iteration h alone. ``fingerprints[k]``
    describes ``blocks[k]``. ``embed_dataset`` returns one, and
    :func:`save_pq_store` and :func:`load_pq_store` write and read it as is.

    The records' ``targets`` (N,) are kept only when every record has one,
    and their ``scalars`` are (N, m), m >= 0; both are None in a store that
    did not record them. ``source_sha256`` is the hex sha256 of the input
    file the records were parsed from, when known.

    The Gram assembly reads the blocks as they are. ``store[i]`` is row i of
    ``blocks[0]`` as a :class:`PqEmbedding` (a view, not a copy), and
    ``len(store)`` is the record count.
    """

    ids: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]
    fingerprints: tuple[PqFingerprint, ...]
    targets: np.ndarray | None = None
    scalars: np.ndarray | None = None
    source_sha256: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> PqEmbedding:
        return PqEmbedding(
            values=self.blocks[0][i], fingerprint=self.fingerprints[0], graph_id=self.ids[i]
        )

    @property
    def embeddings(self) -> "PqStore":
        """The store itself, which indexes as a sequence of ``blocks[0]`` rows."""
        return self


def save_pq_store(directory, store: PqStore) -> None:
    """Write ``store`` as one container in ``directory``, created if need be.

    The payload and :func:`store_from_container` check what would be
    written first: ValidationError, and no file or directory, if
    :func:`load_pq_store` would refuse it.
    """
    header = {
        "ids": list(store.ids),
        "fingerprints": [fp.to_dict() for fp in store.fingerprints],
    }
    # header entries, not arrays, so that readers which predate them skip them
    if store.targets is not None:
        header["targets"] = store.targets.tolist()
    if store.scalars is not None:
        header["scalars"] = store.scalars.tolist()
    if store.source_sha256 is not None:
        header["source_sha256"] = store.source_sha256
    arrays = {f"block{k}": block for k, block in enumerate(store.blocks)}
    check_payload(None, arrays)
    store_from_container(None, header, arrays)
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_container(Path(directory) / PQ_STORE_NAME, PQ_STORE_MAGIC, header, arrays)


def load_pq_store(directory) -> PqStore:
    """Read the store written by :func:`save_pq_store`; ParseError if malformed."""
    path = Path(directory) / PQ_STORE_NAME
    return store_from_container(path, *read_container(path, PQ_STORE_MAGIC))


def store_from_container(path, header: dict, arrays: dict) -> PqStore:
    """The store a container's header and arrays hold, or the refusal of
    ``path`` (:func:`~swwl.errors.refusal`): the rule of every store file,
    which :func:`load_pq_store` runs on what it read and :func:`save_pq_store`
    on what it would write.

    The ids are distinct strings, at least one; every fingerprint is well
    formed with ``r = 2``, and describes one array ``block{k}`` of one row
    per id and P*Q columns; the targets and scalars, when present, are N
    and N x m finite numbers; a ``source_sha256`` is 64 lowercase hex digits
    and comes with the scalars.
    """
    ids, fps = record_ids(path, header, "ids"), header.get("fingerprints")
    if not ids:
        raise refusal(path, "'ids' lists no record")
    if not isinstance(fps, list) or not fps:
        raise refusal(path, "'fingerprints' must be a non-empty list")
    fingerprints = tuple(PqFingerprint.from_dict(fp, path) for fp in fps)
    for fp in fingerprints:
        # the Gram and the GP take squared Euclidean distances between rows,
        # which estimate the sliced Wasserstein distance only at r = 2
        if fp.r != 2.0:
            raise refusal(path, f"embeddings of distance order r={fp.r:g}, not 2")
    if list(arrays) != [f"block{k}" for k in range(len(fingerprints))]:
        raise refusal(path, f"arrays {list(arrays)} do not match the fingerprints")
    for fp, block in zip(fingerprints, arrays.values()):
        width = fp.n_projections * fp.n_quantiles
        if block.shape != (len(ids), width):
            raise refusal(path, f"block of shape {block.shape}, "
                                f"expected {len(ids)} ids x P*Q={width}")
    targets = header_numbers(path, header, "targets", (len(ids),), optional=True)
    scalars = header_numbers(path, header, "scalars", (len(ids), None), optional=True)
    digest = header.get("source_sha256")
    if digest is not None and not (
        isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)
    ):
        raise refusal(path, "'source_sha256' must be 64 lowercase hex digits")
    if digest is not None and scalars is None:
        raise refusal(path, "'source_sha256' is set but the scalars are not recorded")
    return PqStore(ids=ids, blocks=tuple(arrays.values()), fingerprints=fingerprints,
                   targets=targets, scalars=scalars, source_sha256=digest)
