"""Kernel evaluations and Gram matrix assembly.

The graph factor is exp(-gamma * d^2) with d the estimated sliced
Wasserstein distance between projected quantile embeddings; scalar
covariates contribute Matern-5/2 factors; the anisotropic variant multiplies
one exponential factor per WL iteration. Assembly works on the pairwise
distance matrices of a ``PqStore``'s feature blocks, so its cost depends on
the number of graphs and the embedding width only, never on graph node
counts.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.spatial.distance
# the tiles of sq_distances(x) call these module names; sq_distances(x, y)
# calls cdist through scipy's module instead
from scipy.spatial.distance import cdist, pdist, squareform

from .binio import check_payload, read_container, record_ids, write_container
from .errors import LengthMismatchError, NonSymmetricError, ValidationError, refusal
from .sliced import PqStore

GRAM_MAGIC = "SWWL-G1"


def check_parameters(**values) -> None:
    """ValidationError naming the first parameter that breaks the kernel's
    rules: ``nugget`` and ``tol`` must be finite and nonnegative, every other
    one (a precision, range or lengthscale) finite and positive. A value is
    one number or a sequence of them."""
    for name, value in values.items():
        array = np.asarray(value, dtype=float)
        nonnegative = name in ("nugget", "tol")
        if not (np.isfinite(array) & (array >= 0 if nonnegative else array > 0)).all():
            rule = "nonnegative" if nonnegative else "positive"
            raise ValidationError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of the tensorized kernel.

    gamma: precision of the graph factor exp(-gamma * d^2).
    matern_lengthscales: one lengthscale per scalar covariate.
    """

    gamma: float = 1.0
    matern_lengthscales: tuple[float, ...] = ()

    def __post_init__(self):
        ls = tuple(float(v) for v in self.matern_lengthscales)
        check_parameters(gamma=self.gamma, matern_lengthscales=ls)
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


def matern52(distance, lengthscale: float):
    """Matern-5/2 correlation (1 + sqrt5 h + 5 h^2 / 3) exp(-sqrt5 h)."""
    check_parameters(lengthscale=lengthscale)
    h = np.asarray(distance, dtype=float) / lengthscale
    root5h = np.sqrt(5.0) * h
    out = (1.0 + root5h + root5h * root5h / 3.0) * np.exp(-root5h)
    return float(out) if out.ndim == 0 else out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, the machine's CPU count elsewhere."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_calls(calls: list) -> list:
    """The results of the argument-free ``calls``, in order, computed on
    min(len(calls), usable_cpus()) threads; inline when that is one."""
    threads = min(len(calls), usable_cpus())
    if threads <= 1:
        return [call() for call in calls]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda call: call(), calls))


def sq_distances(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of x and those of y; without y, of
    x with itself, each pair once, mirrored (symmetric, zero diagonal).

    Without y the n rows are cut into min(usable_cpus(), n) contiguous
    blocks (one if n is 0), and each upper-triangle tile is one
    ``run_calls`` call: ``pdist`` on a diagonal block, ``cdist`` on an
    off-diagonal pair. Each pair is computed by scipy's own kernel, so the
    matrix equals squareform(pdist(x)) bit for bit whatever the thread count.
    """
    if y is not None:
        return scipy.spatial.distance.cdist(x, y, "sqeuclidean")
    x = np.asarray(x)
    n = len(x)
    k = max(1, min(usable_cpus(), n))
    bounds = [n * i // k for i in range(k + 1)]
    out = np.zeros((n, n))

    def diagonal(i):
        rows = slice(bounds[i], bounds[i + 1])
        out[rows, rows] = squareform(pdist(x[rows], "sqeuclidean"))

    def off_diagonal(i, j):
        rows, cols = slice(bounds[i], bounds[i + 1]), slice(bounds[j], bounds[j + 1])
        tile = cdist(x[rows], x[cols], "sqeuclidean")
        out[rows, cols] = tile
        out[cols, rows] = tile.T

    # the off-diagonal tiles hold twice the pairs of a diagonal one; handing
    # them out first evens the threads' loads
    run_calls(
        [functools.partial(off_diagonal, i, j) for i in range(k) for j in range(i + 1, k)]
        + [functools.partial(diagonal, i) for i in range(k)]
    )
    return out


def scalar_matrix(scalars: np.ndarray | None, n: int) -> np.ndarray:
    """The scalar covariates of n inputs as an (n, m) matrix; None is m = 0."""
    if scalars is None:
        return np.zeros((n, 0))
    scalars = np.asarray(scalars, dtype=float)
    if scalars.ndim != 2 or scalars.shape[0] != n:
        raise LengthMismatchError(f"scalars of shape {scalars.shape} for {n} inputs")
    return scalars


def scalar_abs_distances(scalars: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Per-covariate |delta| tensors with shape (m, N, N') for cached reuse."""
    scalars = np.asarray(scalars, dtype=float)
    other = scalars if other is None else np.asarray(other, dtype=float)
    return np.abs(scalars.T[:, :, None] - other.T[:, None, :])


def correlation_from_distances(
    sw_sq: np.ndarray,
    scalar_abs: np.ndarray,
    gamma: float,
    lengthscales: np.ndarray,
    nugget: float = 0.0,
) -> np.ndarray:
    """exp(-gamma * d^2) times one Matern-5/2 factor per (N, N') slice of
    the (m, N, N') ``scalar_abs``, m >= 0, then ``nugget`` added to the
    entries (i, i): every Gram and GP correlation matrix. The caller checks
    the nugget."""
    if len(scalar_abs) != len(lengthscales):
        raise LengthMismatchError(f"{len(scalar_abs)} scalars but {len(lengthscales)} lengthscales")
    corr = np.exp(-gamma * sw_sq)
    for dist, ls in zip(scalar_abs, np.asarray(lengthscales, dtype=float)):
        corr = corr * matern52(dist, ls)
    if nugget:
        corr.flat[:: corr.shape[1] + 1] += nugget
    return corr


def store_gram(store: PqStore, block: int, values: np.ndarray, **labels) -> GramMatrix:
    """``values`` as a Gram over the store's ids, fingerprinted by its
    ``block``-th fingerprint updated with ``labels``."""
    fp = store.fingerprints[block].to_dict()
    fp.update(labels)
    return GramMatrix(values=values, row_ids=store.ids, fingerprint=fp)


def assemble_gram(
    store: PqStore,
    scalars: np.ndarray | None,
    cfg: KernelConfig,
) -> GramMatrix:
    """Tensorized kernel matrix over all record pairs of ``store.blocks[0]``.

    The distances are computed once per unordered pair (``sq_distances``)
    and mirrored, so the result is symmetric by construction.
    """
    values = correlation_from_distances(
        sq_distances(store.blocks[0]), scalar_abs_distances(scalar_matrix(scalars, len(store.ids))),
        cfg.gamma, cfg.matern_lengthscales,
    )
    return store_gram(store, 0, values, kind="swwl", gamma=cfg.gamma,
                      matern_lengthscales=list(cfg.matern_lengthscales))


def assemble_gram_aniso(store: PqStore, gammas: np.ndarray) -> GramMatrix:
    """Anisotropic Gram: product over iterations of exponential factors.

    ``store.blocks[1 + h]`` embeds kept iteration h of every graph, built
    from that iteration's d-dimensional values alone, and ``gammas[h]`` is
    its precision. The product is evaluated as exp(-1 * sum_h gamma_h d_h^2).
    The Gram carries the fingerprint of ``blocks[1]``.
    """
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
    check_parameters(gamma=gammas)
    iteration_blocks = store.blocks[1:]
    if not iteration_blocks:
        raise ValidationError("the store has no per-iteration blocks (embed --aniso)")
    if len(iteration_blocks) != len(gammas):
        raise LengthMismatchError(
            f"{len(gammas)} precisions for {len(iteration_blocks)} iterations"
        )
    n = len(store.ids)
    weighted_sq = np.zeros((n, n))
    for features, g in zip(iteration_blocks, gammas):
        weighted_sq += g * sq_distances(features)
    values = correlation_from_distances(weighted_sq, (), 1.0, ())
    return store_gram(store, 1, values, kind="aswwl", gammas=gammas.tolist())


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    is_psd: bool
    tol: float
    trace: float


def check_psd(gram: GramMatrix | np.ndarray, tol: float = 1e-8) -> PsdReport:
    """Smallest eigenvalue check: PSD iff min_eig >= -tol * max(1, trace).
    ValidationError on an empty or non-square matrix, NonSymmetricError on
    an asymmetric one."""
    check_parameters(tol=tol)
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, float)
    if values.size == 0:
        raise ValidationError("cannot check an empty matrix")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"cannot check a matrix of shape {values.shape}: it is not square")
    # the asymmetry 64 rows at a time: an N x N temporary would stay in the
    # malloc arena of the thread that ran the check (cli gram runs it on a
    # pool thread, beside the export)
    asym = np.max([
        np.max(np.abs(values[i:i + 64] - values[:, i:i + 64].T))
        for i in range(0, len(values), 64)
    ])
    scale = max(1.0, float(np.max(values)), -float(np.min(values)))
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


def _gram_header(gram: GramMatrix) -> dict:
    """The header of both Gram formats, ``fingerprint`` and ``row_ids``;
    ValidationError if :func:`gram_from_container` refuses what would be
    written. The savers call it before they open any file."""
    header = {"fingerprint": gram.fingerprint, "row_ids": list(gram.row_ids)}
    check_payload(None, {"values": gram.values})
    gram_from_container(None, header, {"values": gram.values})
    return header


def save_gram_text(gram: GramMatrix, path) -> None:
    """Plain-text export: ``# `` and the binary Gram's JSON header, then rows
    of %.17g doubles, which ``numpy.loadtxt(path)`` reads as they are."""
    header = json.dumps(_gram_header(gram), sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, gram.values, fmt="%.17g", header=header)


def load_gram_text(path) -> GramMatrix:
    """Read a Gram written by :func:`save_gram_text`; ParseError naming the
    file if its first line is not ``# `` and a JSON object (a text Gram of
    an earlier format), a row is not numbers of one width, or the Gram
    breaks the rule of :func:`gram_from_container`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
            if not line.startswith("# {"):
                raise refusal(path, "the first line is not '# ' and a JSON header, as in a "
                                    "text Gram of an earlier format; rerun `swwl gram`")
            try:
                header = json.loads(line[2:])
            except (RecursionError, ValueError) as exc:  # RecursionError: nested too deep
                raise refusal(path, f"header is not JSON: {exc}") from exc
            with warnings.catch_warnings():
                # a 0 x 0 Gram has no rows, which loadtxt warns of and reads as 0 x 1
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, ndmin=2, comments=None)
    except UnicodeDecodeError as exc:
        raise refusal(path, f"not UTF-8 text ({exc.reason}); a binary Gram?") from exc
    except ValueError as exc:  # a row of another width, a value that is not a number
        raise refusal(path, _first_bad_row(path) or str(exc)) from exc
    values = values.reshape(0, 0) if values.size == 0 else values
    check_payload(path, {"values": values})
    return gram_from_container(path, header, {"values": values})


def _first_bad_row(path) -> str | None:
    """The first row of the text Gram ``path`` that holds a token which is
    not a number, or another count of them than the first row, named by its
    line in the file (``numpy.loadtxt`` counts rows from 0 or from 1 and
    without the header); None if every row reads."""
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)  # the header
        first = None  # the line of the first row, and its width
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            for token in tokens:
                try:
                    float(token.replace("_", " "))  # numpy, unlike float(), refuses "1_0"
                except ValueError:
                    return f"line {lineno}: {token!r} is not a number"
            if tokens and first is None:
                first = lineno, len(tokens)
            elif tokens and len(tokens) != first[1]:
                return f"line {lineno} holds {len(tokens)} values, line {first[0]} holds {first[1]}"
    return None


def save_gram_binary(gram: GramMatrix, path) -> None:
    """Binary export; ValidationError, and no file, if
    :func:`gram_from_container` refuses what would be written."""
    write_container(path, GRAM_MAGIC, _gram_header(gram), {"values": gram.values})


def load_gram(path) -> GramMatrix:
    """Read a binary Gram, told by its magic, or a text one; ParseError if malformed."""
    with open(path, "rb") as fh:
        binary = fh.read(len(GRAM_MAGIC)) == GRAM_MAGIC.encode("ascii")
    return load_gram_binary(path) if binary else load_gram_text(path)


def load_gram_binary(path) -> GramMatrix:
    """Read a Gram written by :func:`save_gram_binary`; ParseError if malformed."""
    return gram_from_container(path, *read_container(path, GRAM_MAGIC))


def gram_from_container(path, header: dict, arrays: dict) -> GramMatrix:
    """The Gram a container's header and arrays hold, or the refusal of
    ``path`` (:func:`~swwl.errors.refusal`): the rule of every Gram, text or
    binary, run by its reader on what it read and by its saver on what it
    would write. The fingerprint is a dict that JSON carries unchanged, and
    ``values`` a square matrix of one row per id, the ids distinct strings;
    :func:`~swwl.binio.check_payload` checks the values."""
    ids, fp = record_ids(path, header, "row_ids"), header.get("fingerprint")
    try:
        as_written = isinstance(fp, dict) and json.loads(json.dumps(fp, allow_nan=False)) == fp
    except (TypeError, ValueError):  # a value JSON has no type for, NaN or infinity
        as_written = False
    if not as_written:
        raise refusal(path, f"'fingerprint' must be a JSON object that reads back as written, "
                            f"got {fp!r}")
    try:
        return GramMatrix(values=arrays.get("values"), row_ids=ids, fingerprint=fp)
    except ValidationError as exc:
        raise refusal(path, str(exc)) from exc
