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
reproduce it exactly at Q = 50*n. A linear-interpolation variant is provided
as a standalone utility but is deliberately not used by the embedding: its
limit as Q grows differs from the exact transport distance by an O(1/n)
bias.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .binio import read_container, write_container
from .errors import (
    ConfigMismatchError,
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyInputError,
    ParseError,
    SizeMismatchError,
    TooLargeError,
    ValidationError,
)

GENERATOR_NAME = "philox-normal-v1"
PQ_STORE_MAGIC = "SWWL-S1"
PQ_STORE_NAME = "embeddings.pq"

_MIN_DIRECTION_NORM = 1e-300
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class QuantileGrid:
    """Q equally spaced levels t_1 = 0 < ... < t_Q = 1."""

    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValidationError(f"need at least 2 quantile levels, got {self.q}")

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
    """Directions i.i.d. uniform on the unit sphere, reproducible from the seed.

    The underlying stream is a Philox counter-based generator, so the same
    (seed, n_projections, dim) triple yields bit-identical directions.
    """
    if n_projections < 1 or dim < 1:
        raise ValidationError("need n_projections >= 1 and dim >= 1")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    dirs = _unit_rows(lambda k: rng.standard_normal((k, dim)), n_projections, dim)
    return ProjectionSet(directions=dirs, seed=int(seed))


def sample_projection_blocks(
    seed: int, n_projections: int, dim: int, n_blocks: int
) -> list[ProjectionSet]:
    """Independent direction sets for per-iteration measures, one seed stream.

    Block h is reproducible from (seed, n_projections, dim, h): the stream is
    consumed block by block in order.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    blocks = []
    for h in range(n_blocks):
        dirs = _unit_rows(lambda k: rng.standard_normal((k, dim)), n_projections, dim)
        blocks.append(ProjectionSet(directions=dirs, seed=int(seed), block=h))
    return blocks


def _step_indices(n: int, levels: np.ndarray) -> np.ndarray:
    """Sorted-array positions of the step inverse CDF at the given levels."""
    idx = np.maximum(np.ceil(np.asarray(levels) * n).astype(np.int64), 1) - 1
    return np.minimum(idx, n - 1)


def step_quantiles(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Empirical inverse CDF inf{x : F(x) >= t}; level 0 gives the minimum.

    ``values`` may be (n,) or (n, k); quantiles are taken along axis 0.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] == 0:
        raise EmptyInputError("cannot take quantiles of an empty sample")
    srt = np.sort(values, axis=0)
    return srt[_step_indices(values.shape[0], levels)]


def interp_quantiles(values: np.ndarray, grid: QuantileGrid) -> np.ndarray:
    """Quantiles by linear interpolation at fractional rank t*(n-1).

    Levels 0 and 1 map to the minimum and maximum. This is the conventional
    plotting-position estimator; see the module docstring for why the
    embedding pipeline uses :func:`step_quantiles` instead.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise EmptyInputError("cannot take quantiles of an empty sample")
    return np.quantile(values, grid.levels, method="linear")


@dataclass(frozen=True)
class PqFingerprint:
    """Everything two embeddings must share before they may be compared."""

    seed: int
    n_projections: int
    n_quantiles: int
    r: float
    dim: int
    block: int | None = None
    iterations: tuple[int, ...] | None = None
    standardized: bool = False
    generator: str = GENERATOR_NAME

    def to_dict(self) -> dict:
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
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PqFingerprint":
        """Inverse of :meth:`to_dict`; a missing or ill-typed key is a ParseError."""
        try:
            block, iterations = obj.get("block"), obj.get("iterations")
            fp = cls(
                seed=int(obj["seed"]),
                n_projections=int(obj["projections"]),
                n_quantiles=int(obj["quantiles"]),
                r=float(obj["r"]),
                dim=int(obj["s"]),
                block=None if block is None else int(block),
                iterations=None if iterations is None else tuple(int(h) for h in iterations),
                standardized=bool(obj.get("standardized", False)),
                generator=str(obj.get("generator", GENERATOR_NAME)),
            )
            # conversion must be lossless: "5", 1.5 or [0, "a"] are refused
            canonical = fp.to_dict()
            if canonical != {**canonical, **obj}:
                raise ValueError("ill-typed value")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed embedding fingerprint {obj!r}: {exc!r}") from exc
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

    def with_provenance(self, **kwargs) -> "PqEmbedding":
        return PqEmbedding(
            values=self.values,
            fingerprint=replace(self.fingerprint, **kwargs),
            graph_id=self.graph_id,
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
    fingerprint = PqFingerprint(
        seed=projections.seed,
        n_projections=projections.count,
        n_quantiles=grid.q,
        r=float(r),
        dim=projections.dim,
        block=projections.block,
    )
    return PqEmbedding(
        values=scale * quants.reshape(-1), fingerprint=fingerprint, graph_id=graph_id
    )


def check_compatible(a: PqEmbedding, b: PqEmbedding) -> None:
    if a.fingerprint != b.fingerprint:
        raise ConfigMismatchError(
            f"embeddings built under different configurations: "
            f"{a.fingerprint} vs {b.fingerprint}"
        )


def features_matrix(embeddings: list[PqEmbedding]) -> np.ndarray:
    """Stack embeddings into an (N, P*Q) matrix after a compatibility check."""
    if not embeddings:
        raise ValidationError("no embeddings given")
    for emb in embeddings[1:]:
        check_compatible(embeddings[0], emb)
    return np.vstack([e.values for e in embeddings])


def sw_estimate(a: PqEmbedding, b: PqEmbedding) -> float:
    """Estimated sliced Wasserstein distance: r-norm of the embedding gap."""
    check_compatible(a, b)
    diff = a.values - b.values
    r = a.fingerprint.r
    if r == 2.0:
        return float(np.sqrt(np.dot(diff, diff)))
    return float(np.sum(np.abs(diff) ** r) ** (1.0 / r))


def sw_exact_1d(x: np.ndarray, y: np.ndarray, r: float = 2.0) -> float:
    """Exact Wasserstein distance between two 1-d uniform empirical measures.

    Integrates |Fx^-1 - Fy^-1|^r over [0, 1] on the common refinement of the
    two step quantile functions; breakpoints are handled in integer
    arithmetic so no grid or tolerance is involved.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size == 0 or y.size == 0:
        raise EmptyInputError("empirical measures need at least one point")
    n, m = x.size, y.size
    xs, ys = np.sort(x), np.sort(y)
    # breakpoints of the two inverse CDFs over the common denominator n*m
    cuts = np.union1d(np.arange(1, n + 1) * m, np.arange(1, m + 1) * n)
    widths = np.diff(np.concatenate([[0], cuts])) / (n * m)
    ix = -(-cuts // m) - 1  # ceil(c/m) - 1
    iy = -(-cuts // n) - 1
    total = float(np.sum(widths * np.abs(xs[ix] - ys[iy]) ** r))
    return total ** (1.0 / r)


def w_exact_tiny(a: EmpiricalMeasure, b: EmpiricalMeasure, r: float = 2.0) -> float:
    """Exact Wasserstein distance by brute force over all assignments.

    Restricted to equal support sizes n = m <= 8, where the optimal coupling
    of uniform measures is a permutation.
    """
    if a.size != b.size:
        raise SizeMismatchError(f"support sizes differ: {a.size} vs {b.size}")
    if a.size > 8:
        raise TooLargeError(f"brute force limited to 8 points, got {a.size}")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    n = a.size
    cost = np.linalg.norm(a.support[:, None, :] - b.support[None, :, :], axis=2) ** r
    best = min(
        sum(cost[i, p] for i, p in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return (best / n) ** (1.0 / r)


@dataclass(frozen=True)
class PqStore:
    """The embeddings of one dataset as matrices, rows in dataset order.

    ``blocks[0]`` is the (N, P*Q) feature matrix; for the anisotropic variant
    ``blocks[1 + h]`` embeds kept iteration h alone. ``fingerprints[k]``
    describes ``blocks[k]``.
    """

    ids: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]
    fingerprints: tuple[PqFingerprint, ...]

    def embeddings(self, k: int) -> list[PqEmbedding]:
        return [
            PqEmbedding(values=row, fingerprint=self.fingerprints[k], graph_id=i)
            for row, i in zip(self.blocks[k], self.ids)
        ]


def save_pq_store(directory, embeddings, per_iteration) -> None:
    """Write one embed run (``EmbedResult`` fields) as one container in ``directory``."""
    blocks = [embeddings, *(per_iteration or [])]
    ids = [e.graph_id for e in embeddings]
    if any([e.graph_id for e in block] != ids for block in blocks[1:]):
        raise ConfigMismatchError("iteration blocks cover different records")
    arrays = {f"block{k}": features_matrix(block) for k, block in enumerate(blocks)}
    header = {"ids": ids, "fingerprints": [b[0].fingerprint.to_dict() for b in blocks]}
    write_container(Path(directory) / PQ_STORE_NAME, PQ_STORE_MAGIC, header, arrays)


def load_pq_store(directory) -> PqStore:
    """Read the store written by :func:`save_pq_store`; ParseError if malformed."""
    path = Path(directory) / PQ_STORE_NAME
    header, arrays = read_container(path, PQ_STORE_MAGIC)
    ids, fps = header.get("ids"), header.get("fingerprints")
    if not isinstance(ids, list) or not ids or not all(isinstance(i, str) for i in ids):
        raise ParseError(f"{path}: 'ids' must be a non-empty list of strings")
    if not isinstance(fps, list) or not fps:
        raise ParseError(f"{path}: 'fingerprints' must be a non-empty list")
    fingerprints = tuple(PqFingerprint.from_dict(fp) for fp in fps)
    if list(arrays) != [f"block{k}" for k in range(len(fingerprints))]:
        raise ParseError(f"{path}: arrays {list(arrays)} do not match the fingerprints")
    for fp, block in zip(fingerprints, arrays.values()):
        width = fp.n_projections * fp.n_quantiles
        if block.shape != (len(ids), width):
            raise ParseError(
                f"{path}: block of shape {block.shape}, expected {len(ids)} ids x P*Q={width}"
            )
    return PqStore(ids=tuple(ids), blocks=tuple(arrays.values()), fingerprints=fingerprints)
