"""Kernel evaluations and Gram matrix assembly.

The graph factor is exp(-gamma * d^2) with d the estimated sliced
Wasserstein distance between projected quantile embeddings; scalar
covariates contribute Matern-5/2 factors; the anisotropic variant multiplies
one exponential factor per WL iteration. Assembly works on the pairwise
distance matrices of the cached embeddings, so its cost depends on the
number of graphs and the embedding width only, never on graph node counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .binio import read_container, write_container
from .errors import (
    ConfigMismatchError,
    LengthMismatchError,
    NonSymmetricError,
    ParseError,
    ValidationError,
)
from .sliced import PqEmbedding, check_compatible, features_matrix, sw_estimate

GRAM_MAGIC = "SWWL-G1"


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of the tensorized kernel.

    gamma: precision of the graph factor exp(-gamma * d^2).
    gammas_aniso: optional per-iteration precisions for the anisotropic kernel.
    matern_lengthscales: one lengthscale per scalar covariate.
    variance: multiplicative variance sigma^2.
    nugget: nonnegative diagonal addition.
    """

    gamma: float = 1.0
    gammas_aniso: tuple[float, ...] | None = None
    matern_lengthscales: tuple[float, ...] = ()
    variance: float = 1.0
    nugget: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if self.variance <= 0:
            raise ValidationError(f"variance must be positive, got {self.variance}")
        if self.nugget < 0:
            raise ValidationError(f"nugget must be nonnegative, got {self.nugget}")
        if self.gammas_aniso is not None:
            gam = tuple(float(g) for g in self.gammas_aniso)
            if any(g <= 0 for g in gam):
                raise ValidationError("anisotropic precisions must be positive")
            object.__setattr__(self, "gammas_aniso", gam)
        ls = tuple(float(v) for v in self.matern_lengthscales)
        if any(v <= 0 for v in ls):
            raise ValidationError("Matern lengthscales must be positive")
        object.__setattr__(self, "matern_lengthscales", ls)


@dataclass(frozen=True)
class GramMatrix:
    values: np.ndarray
    row_ids: tuple[str, ...]
    fingerprint: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got {values.shape}")
        if len(self.row_ids) != values.shape[0]:
            raise ValidationError("row id count does not match matrix size")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def swwl_kernel(a: PqEmbedding, b: PqEmbedding, gamma: float) -> float:
    """Graph kernel value exp(-gamma * d^2) in (0, 1]."""
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    d = sw_estimate(a, b)
    return float(np.exp(-gamma * d * d))


def aswwl_kernel(
    per_iter_a: list[PqEmbedding],
    per_iter_b: list[PqEmbedding],
    gammas: np.ndarray,
) -> float:
    """Product over iterations of per-iteration graph kernels."""
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if len(per_iter_a) != len(per_iter_b):
        raise LengthMismatchError(
            f"iteration counts differ: {len(per_iter_a)} vs {len(per_iter_b)}"
        )
    if len(gammas) != len(per_iter_a):
        raise LengthMismatchError(
            f"{len(gammas)} precisions for {len(per_iter_a)} iterations"
        )
    value = 1.0
    for a, b, g in zip(per_iter_a, per_iter_b, gammas):
        value *= swwl_kernel(a, b, g)
    return float(value)


def matern52(distance, lengthscale: float):
    """Matern-5/2 correlation (1 + sqrt5 h + 5 h^2 / 3) exp(-sqrt5 h)."""
    if lengthscale <= 0:
        raise ValidationError(f"lengthscale must be positive, got {lengthscale}")
    h = np.asarray(distance, dtype=float) / lengthscale
    root5h = np.sqrt(5.0) * h
    out = (1.0 + root5h + root5h * root5h / 3.0) * np.exp(-root5h)
    return float(out) if out.ndim == 0 else out


def tensorized_kernel(
    rec_a: tuple[PqEmbedding, np.ndarray],
    rec_b: tuple[PqEmbedding, np.ndarray],
    cfg: KernelConfig,
) -> float:
    """Variance times the graph factor times one Matern factor per scalar."""
    emb_a, scalars_a = rec_a
    emb_b, scalars_b = rec_b
    scalars_a = np.asarray(scalars_a, dtype=float).reshape(-1)
    scalars_b = np.asarray(scalars_b, dtype=float).reshape(-1)
    if scalars_a.shape != scalars_b.shape:
        raise LengthMismatchError(
            f"scalar counts differ: {scalars_a.shape[0]} vs {scalars_b.shape[0]}"
        )
    if scalars_a.shape[0] != len(cfg.matern_lengthscales):
        raise LengthMismatchError(
            f"{scalars_a.shape[0]} scalars but {len(cfg.matern_lengthscales)} lengthscales"
        )
    value = cfg.variance * swwl_kernel(emb_a, emb_b, cfg.gamma)
    for sa, sb, ls in zip(scalars_a, scalars_b, cfg.matern_lengthscales):
        value *= matern52(abs(sa - sb), ls)
    return float(value)


def sw_squared_distances(embeddings: list[PqEmbedding]) -> np.ndarray:
    """Symmetric matrix of squared estimated sliced Wasserstein distances."""
    feats = features_matrix(embeddings)
    return squareform(pdist(feats, "sqeuclidean"))


def cross_sw_squared_distances(
    rows: list[PqEmbedding], cols: list[PqEmbedding]
) -> np.ndarray:
    check_compatible(rows[0], cols[0])
    return cdist(features_matrix(rows), features_matrix(cols), "sqeuclidean")


def scalar_abs_distances(scalars: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Per-covariate |delta| tensors with shape (m, N, N') for cached reuse."""
    scalars = np.asarray(scalars, dtype=float)
    other = scalars if other is None else np.asarray(other, dtype=float)
    return np.abs(scalars.T[:, :, None] - other.T[:, None, :])


def correlation_from_distances(
    sw_sq: np.ndarray | None,
    scalar_abs: np.ndarray | None,
    gamma: float,
    lengthscales: np.ndarray,
) -> np.ndarray:
    """Correlation matrix: exp(-gamma * d^2) times Matern-5/2 scalar factors."""
    if sw_sq is not None:
        corr = np.exp(-gamma * sw_sq)
    else:
        if scalar_abs is None or len(scalar_abs) == 0:
            raise ValidationError("need at least one of graph or scalar distances")
        corr = np.ones(scalar_abs.shape[1:])
    if scalar_abs is not None:
        for dist, ls in zip(scalar_abs, np.asarray(lengthscales, dtype=float)):
            corr = corr * matern52(dist, ls)
    return corr


def assemble_gram(
    embeddings: list[PqEmbedding],
    scalars: np.ndarray | None,
    cfg: KernelConfig,
    nugget_on_diagonal: bool = False,
) -> GramMatrix:
    """Tensorized kernel matrix over all record pairs.

    The upper triangle is computed once per unordered pair (condensed
    distances) and mirrored, so the result is symmetric by construction.
    """
    n = len(embeddings)
    if scalars is None:
        scalars = np.zeros((n, 0))
    scalars = np.asarray(scalars, dtype=float)
    if scalars.shape[0] != n:
        raise LengthMismatchError(f"{scalars.shape[0]} scalar rows for {n} embeddings")
    if scalars.shape[1] != len(cfg.matern_lengthscales):
        raise LengthMismatchError(
            f"{scalars.shape[1]} scalars but {len(cfg.matern_lengthscales)} lengthscales"
        )
    sw_sq = sw_squared_distances(embeddings)
    scalar_abs = scalar_abs_distances(scalars) if scalars.shape[1] else None
    corr = correlation_from_distances(sw_sq, scalar_abs, cfg.gamma, cfg.matern_lengthscales)
    values = cfg.variance * corr
    if nugget_on_diagonal and cfg.nugget:
        values = values + cfg.nugget * np.eye(n)
    fp = embeddings[0].fingerprint.to_dict()
    fp.update(
        {
            "kind": "swwl",
            "gamma": cfg.gamma,
            "variance": cfg.variance,
            "nugget": cfg.nugget if nugget_on_diagonal else 0.0,
            "matern_lengthscales": list(cfg.matern_lengthscales),
        }
    )
    return GramMatrix(
        values=values, row_ids=tuple(e.graph_id for e in embeddings), fingerprint=fp
    )


def assemble_gram_aniso(
    per_iter_embeddings: list[list[PqEmbedding]],
    gammas: np.ndarray,
    variance: float = 1.0,
    nugget: float = 0.0,
) -> GramMatrix:
    """Anisotropic Gram: product over iterations of exponential factors.

    ``per_iter_embeddings[h]`` holds the embeddings of iteration h for all
    graphs, each built from that iteration's d-dimensional values alone.
    """
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    if len(per_iter_embeddings) != len(gammas):
        raise LengthMismatchError(
            f"{len(gammas)} precisions for {len(per_iter_embeddings)} iterations"
        )
    n = len(per_iter_embeddings[0])
    log_corr = np.zeros((n, n))
    for embs, g in zip(per_iter_embeddings, gammas):
        if len(embs) != n:
            raise LengthMismatchError("iteration blocks cover different graph counts")
        log_corr -= g * sw_squared_distances(embs)
    values = variance * np.exp(log_corr)
    if nugget:
        values = values + nugget * np.eye(n)
    fp = per_iter_embeddings[0][0].fingerprint.to_dict()
    fp.update({"kind": "aswwl", "gammas": gammas.tolist(), "variance": variance, "nugget": nugget})
    return GramMatrix(
        values=values,
        row_ids=tuple(e.graph_id for e in per_iter_embeddings[0]),
        fingerprint=fp,
    )


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    is_psd: bool
    tol: float
    trace: float


def check_psd(gram: GramMatrix | np.ndarray, tol: float = 1e-8) -> PsdReport:
    """Smallest eigenvalue check: PSD iff min_eig >= -tol * max(1, trace)."""
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, float)
    asym = np.max(np.abs(values - values.T)) if values.size else 0.0
    scale = max(1.0, float(np.max(np.abs(values)))) if values.size else 1.0
    if asym > 1e-12 * scale:
        raise NonSymmetricError(f"matrix asymmetry {asym:g} exceeds tolerance")
    min_eig = float(np.linalg.eigvalsh(values)[0])
    trace = float(np.trace(values))
    return PsdReport(
        min_eigenvalue=min_eig,
        is_psd=min_eig >= -tol * max(1.0, trace),
        tol=tol,
        trace=trace,
    )


def _fingerprint_line(n: int, fp: dict) -> str:
    seed = fp.get("seed", 0)
    p = fp.get("projections", 0)
    q = fp.get("quantiles", 0)
    gamma = fp.get("gamma", 0.0)
    extras = []
    for key in sorted(fp):
        if key in ("seed", "projections", "quantiles", "gamma"):
            continue
        val = fp[key]
        if isinstance(val, (list, tuple)):
            val = ",".join(str(v) for v in val)
        extras.append(f"{key}={val}")
    head = f"{n} {seed} {p} {q} {gamma:.17g}"
    return " ".join([head] + extras)


def save_gram_text(gram: GramMatrix, path) -> None:
    """Plain-text export: fingerprint line, then rows of %.17g doubles."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fingerprint_line(gram.size, gram.fingerprint) + "\n")
        for row in gram.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_gram_text(path) -> GramMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) < 5:
            raise ParseError(f"{path}: malformed fingerprint line")
        n = int(header[0])
        fp = {
            "seed": int(header[1]),
            "projections": int(header[2]),
            "quantiles": int(header[3]),
            "gamma": float(header[4]),
        }
        for token in header[5:]:
            key, _, val = token.partition("=")
            fp[key] = val
        rows = [np.array(fh.readline().split(), dtype=float) for _ in range(n)]
    values = np.vstack(rows)
    if values.shape != (n, n):
        raise ParseError(f"{path}: expected {n}x{n} matrix, got {values.shape}")
    ids = tuple(str(i) for i in range(n))
    return GramMatrix(values=values, row_ids=ids, fingerprint=fp)


def save_gram_binary(gram: GramMatrix, path) -> None:
    header = {"fingerprint": gram.fingerprint, "row_ids": list(gram.row_ids)}
    write_container(path, GRAM_MAGIC, header, {"values": gram.values})


def load_gram_binary(path) -> GramMatrix:
    header, arrays = read_container(path, GRAM_MAGIC)
    return GramMatrix(
        values=arrays["values"],
        row_ids=tuple(header["row_ids"]),
        fingerprint=header["fingerprint"],
    )


def require_same_fingerprint(a: dict, b: dict, context: str = "") -> None:
    if a != b:
        raise ConfigMismatchError(f"fingerprints differ{': ' + context if context else ''}")
