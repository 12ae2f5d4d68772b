"""Kernel evaluations and Gram matrix assembly.

The graph factor is exp(-gamma * d^2) with d the estimated sliced
Wasserstein distance between projected quantile embeddings; scalar
covariates contribute Matern-5/2 factors; the anisotropic variant multiplies
one exponential factor per WL iteration. Assembly works on the pairwise
distance matrices of a ``PqStore``'s feature blocks, so its cost depends on
the number of graphs and the embedding width only, never on graph node
counts. One routine, :func:`sq_distances`, computes every squared distance
of the package: centred, column-blocked BLAS, a SYRK per block for a set
with itself (:func:`pdist`) and a GEMM per block between two sets
(:func:`cdist`). Each call is cut into two fixed halves, which one
runner, :func:`_halves`, hands to :func:`run_calls`: on two threads, or
in turn on one CPU, each half's BLAS calls on one BLAS thread
(:func:`blas_threads`) and without the GIL. :func:`pdist` halves its
column blocks, :func:`cdist` its output rows. Each half centres its own
blocks, so both halves of :func:`cdist` centre every block of its second
set, also on one CPU, where :func:`cdist` takes about a tenth longer
than in earlier releases, which centred each block once there (0.233 ->
0.256 s at 400 x 25,000, x86_64). Where the BLAS is OpenBLAS, the
distance bytes therefore depend neither on the CPU count nor on the BLAS
thread count, and the distances use at most two cores; the Cholesky
factors, the solves and ``eigvalsh`` still follow the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import threading
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.cython_blas

from .binio import check_payload, read_container, record_ids, write_container
from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NonSymmetricError,
    ValidationError,
    refusal,
)
from .sliced import PqStore

GRAM_MAGIC = "SWWL-G1"
# feature columns per BLAS call of sq_distances: fixed, so the blocks are
# summed in one order on every machine; small, so the centred copy of a block
# and BLAS's packed copy of it stay small (0.8 MB each at 800 rows; at 512
# columns the distances of 800 rows peaked 5.6 MB higher, at no gain in speed)
DISTANCE_BLOCK_COLUMNS = 128


def check_parameters(**values) -> None:
    """ValidationError naming the first parameter that breaks the kernel's
    rules: ``nugget`` and ``tol`` must be finite and nonnegative, every other
    one (a precision, range or lengthscale) finite and positive. A value is
    one number or a sequence of them, never text or a boolean."""
    for name, value in values.items():
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged sequence
            array = np.array(None)
        nonnegative = name in ("nugget", "tol")
        if array.dtype.kind not in "iuf" or array.ndim > 1 or not (
                np.isfinite(array) & (array >= 0 if nonnegative else array > 0)).all():
            rule = "nonnegative" if nonnegative else "positive"
            raise ValidationError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of the tensorized kernel.

    gamma: precision of the graph factor exp(-gamma * d^2), one number.
    matern_lengthscales: one lengthscale per scalar covariate.
    Both are kept as floats.
    """

    gamma: float = 1.0
    matern_lengthscales: tuple[float, ...] = ()

    def __post_init__(self):
        check_parameters(gamma=self.gamma, matern_lengthscales=self.matern_lengthscales)
        if np.ndim(self.gamma) or np.ndim(self.matern_lengthscales) != 1:
            raise ValidationError(f"gamma must be one number and matern_lengthscales a sequence "
                                  f"of them, got {self.gamma} and {self.matern_lengthscales}")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "matern_lengthscales", tuple(map(float, self.matern_lengthscales)))


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


@dataclass(frozen=True)
class OpenBlasCopy:
    """One OpenBLAS library loaded into this process: its file name, and its
    functions that read and set its thread count."""

    library: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


# (read, set) names of the thread count in OpenBLAS builds: the scipy-openblas
# ones numpy (64-bit integers) and scipy ship, then plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


@functools.cache
def openblas_copies() -> tuple[OpenBlasCopy, ...]:
    """Every OpenBLAS library this process has loaded, in path order: the
    files it maps (``/proc/self/maps``) whose name holds ``openblas`` and
    that export a pair of :data:`_OPENBLAS_THREAD_SYMBOLS`. None where the
    platform lists no mapped files, or no OpenBLAS is loaded (MKL,
    Accelerate). numpy and scipy, imported with this module, have loaded
    theirs, so the answer is kept."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return ()
    copies = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # the loaded copy, never a new one
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                copies.append(OpenBlasCopy(os.path.basename(path), get, set_))
                break
    return tuple(copies)


# the number of blas_threads entries open, and the counts the copies had
# before the first of them
_BLAS_LOCK = threading.Lock()
_BLAS_OPEN = 0
_BLAS_BEFORE: list[int] = []


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the ``with`` body with every copy of :func:`openblas_copies` on
    ``n`` threads. The count is the process's: BLAS calls that other threads
    make meanwhile run on it too, and entries that overlap, on this thread
    or another, leave the count of the latest. When the last open entry
    exits, also by an exception, each copy takes back the count it had
    before the first. Without OpenBLAS it does nothing."""
    global _BLAS_OPEN
    copies = openblas_copies()
    with _BLAS_LOCK:
        if not _BLAS_OPEN:
            _BLAS_BEFORE[:] = [copy.get_threads() for copy in copies]
        _BLAS_OPEN += 1
        for copy in copies:
            copy.set_threads(n)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _BLAS_OPEN -= 1
            if not _BLAS_OPEN:
                for copy, count in zip(copies, _BLAS_BEFORE):
                    copy.set_threads(count)


def _cython_blas(name: str):
    """The Fortran BLAS routine ``name`` that scipy exports to Cython
    (``scipy.linalg.cython_blas``, on whichever BLAS scipy was built
    against), as a ctypes function of pointers: ctypes releases the GIL for
    each call, which the wrappers of ``scipy.linalg.blas`` hold."""
    capsule = scipy.linalg.cython_blas.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = capsule_name(capsule)
    # the signature, the capsule's name, lists one pointer per argument
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))(
        capsule_pointer(capsule, signature))


_DGEMM, _DSYRK = _cython_blas("dgemm"), _cython_blas("dsyrk")


def _blas(routine, *args) -> None:
    """Call a Fortran BLAS ``routine`` with each argument by reference:
    bytes as a character, an int as a C int, a float as a double, and a
    C-ordered float64 array as its data, which the caller keeps alive."""
    refs = []
    for arg in args:
        if isinstance(arg, np.ndarray):
            if arg.dtype != np.float64 or not arg.flags.c_contiguous:
                raise ValueError(f"BLAS takes C-ordered float64 arrays, got {arg.dtype} "
                                 f"with C order {arg.flags.c_contiguous}")
            refs.append(arg.ctypes.data)
        elif isinstance(arg, bytes):
            refs.append(arg)
        else:
            refs.append(ctypes.byref(ctypes.c_int(arg) if isinstance(arg, int)
                                     else ctypes.c_double(arg)))
    routine(*refs)


def _gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """c += -2 a b' in place, for a (m, k), b (n, k) and c (m, n): BLAS
    computes on c's Fortran-ordered view c', of (n, m), ``c' += -2 b a'``."""
    (m, k), n = a.shape, len(b)
    _blas(_DGEMM, b"T", b"N", n, m, k, -2.0, b, k, a, k, 1.0, c, n)


def _syrk_update(c: np.ndarray, x: np.ndarray, upper: bool) -> None:
    """One triangle of c += -2 x x', the upper or the lower one, diagonal
    included, in place, for x (n, k) and c (n, n): c's upper triangle is the
    lower one of its Fortran-ordered view c', on which BLAS computes."""
    n, k = x.shape
    _blas(_DSYRK, b"L" if upper else b"U", b"T", n, k, -2.0, x, k, 1.0, c, n)


def sq_distances(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of x and those of y: ``cdist(x,
    y)``; without y (or with y the array x itself), ``pdist(x)``, of x with
    itself, symmetric with a zero diagonal.

    ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b on the rows centred on one
    vector, the column mean of y (of x without y): without the centring, a
    large offset shared by every feature would cancel most of the digits.
    The columns are taken ``DISTANCE_BLOCK_COLUMNS`` at a time, each block
    one BLAS call summed in place into the output, in block order, for each
    of two fixed halves of the call. The result is clamped at 0. The error
    is of the order of machine epsilon times the centred squared row norms.
    DimensionMismatchError, before any thread starts, unless x and y are
    2-D and of one width.
    """
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(f"squared distances need two (N, W) matrices of one "
                                     f"width W, got shapes {x.shape} and {y.shape}")
    return pdist(x) if y is x else cdist(x, y)


# pdist and cdist keep the names and argument names of the scipy functions
# they replaced: perfbench/spans.py times and counts each call under them


def pdist(X: np.ndarray) -> np.ndarray:
    """``sq_distances(X)``: one BLAS SYRK per column block, into the upper
    triangle of the output for the first half of the blocks (the larger
    one by a block when their count is odd) and into the lower one for the
    second half. The lower triangle is then added onto the upper one, which
    is mirrored; the diagonal, which both halves write, is set to 0."""
    X = np.ascontiguousarray(X, dtype=float)
    out = np.zeros((len(X), len(X)))
    if out.size:
        starts = range(0, X.shape[1], DISTANCE_BLOCK_COLUMNS)
        middle = (len(starts) + 1) // 2
        (upper,), (lower,) = _halves(X.mean(axis=0), [
            (starts[:middle], (X,), (), lambda xc: _syrk_update(out, xc, True)),
            (starts[middle:], (X,), (), lambda xc: _syrk_update(out, xc, False)),
        ])
        norms = upper + lower
        _fold_lower(out)
        _add_norms(out, norms, norms)
        _mirror_upper(out)
    return out


def cdist(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """``sq_distances(XA, XB)``: one BLAS GEMM per column block, for each
    half of the output's rows (the first the larger by a row when their
    count is odd) into those rows of the output. Each half centres every
    block of XB, also on one CPU, where the halves run in turn and so take
    about a tenth longer than one pass that centres each block once (0.233
    -> 0.256 s at 400 x 25,000, x86_64); the first half sums XB's norms."""
    XA, XB = np.ascontiguousarray(XA, dtype=float), np.ascontiguousarray(XB, dtype=float)
    out = np.zeros((len(XA), len(XB)))
    if out.size:
        starts = range(0, XB.shape[1], DISTANCE_BLOCK_COLUMNS)
        middle = (len(XA) + 1) // 2
        (top_norms, b_norms), (bottom_norms,) = _halves(XB.mean(axis=0), [
            (starts, (XA[:middle], XB), (), lambda ac, bc: _gemm_update(out[:middle], ac, bc)),
            (starts, (XA[middle:],), (XB,), lambda ac, bc: _gemm_update(out[middle:], ac, bc)),
        ])
        _add_norms(out, np.concatenate([top_norms, bottom_norms]), b_norms)
    return out


def _halves(centre: np.ndarray, parts: list) -> list:
    """The squared row norms of each part of a distance call, one vector per
    array of its ``normed``, from running the ``parts`` through
    :func:`run_calls` with BLAS on one thread. A part is ``(starts, normed,
    others, update)``: at each of ``starts``, in order, the
    ``DISTANCE_BLOCK_COLUMNS``-wide column block of every array of ``normed
    + others`` is copied once, C-ordered and centred on that block of
    ``centre``, the norms of the ``normed`` blocks are summed, and
    ``update(*blocks)`` is called."""

    def run(starts, normed, others, update):
        norms = [np.zeros(len(a)) for a in normed]
        for start in starts:
            cols = slice(start, start + DISTANCE_BLOCK_COLUMNS)
            blocks = [a[:, cols] - centre[cols] for a in normed + others]
            for total, block in zip(norms, blocks):
                total += np.einsum("ij,ij->i", block, block)
            update(*blocks)
        return norms

    with blas_threads(1):
        return run_calls([functools.partial(run, *part) for part in parts])


def _add_norms(out: np.ndarray, row_norms: np.ndarray, col_norms: np.ndarray) -> None:
    """out += row_norms[:, None] + col_norms, clamped at 0, in place."""
    out += row_norms[:, None]
    out += col_norms
    np.maximum(out, 0.0, out=out)


def _fold_lower(square: np.ndarray) -> None:
    """Add the strict lower triangle of ``square`` onto the strict upper
    one, entry (i, j) onto (j, i), in place, 64 rows at a time."""
    for start in range(0, len(square), 64):
        rows = slice(start, start + 64)
        square[:start, rows] += square[rows, :start].T
        block = square[rows, rows]
        block += np.tril(block, -1).T


def _mirror_upper(square: np.ndarray) -> None:
    """Copy the strict upper triangle of ``square`` onto the lower one and
    zero the diagonal, in place, 64 rows at a time."""
    for start in range(0, len(square), 64):
        rows = slice(start, start + 64)
        square[rows, :start] = square[:start, rows].T
        upper = np.triu(square[rows, rows], 1)
        square[rows, rows] = upper + upper.T


def scalar_matrix(scalars: np.ndarray | None, n: int) -> np.ndarray:
    """The scalar covariates of n inputs as an (n, m) matrix; None is m = 0.
    ValidationError naming an entry that is NaN or infinite."""
    if scalars is None:
        return np.zeros((n, 0))
    scalars = np.asarray(scalars, dtype=float)
    if scalars.ndim != 2 or scalars.shape[0] != n:
        raise LengthMismatchError(f"scalars of shape {scalars.shape} for {n} inputs")
    check_payload(None, {"scalars": scalars})
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
    corr = np.multiply(sw_sq, -gamma)
    np.exp(corr, out=corr)
    for dist, ls in zip(scalar_abs, np.asarray(lengthscales, dtype=float)):
        corr *= matern52(dist, ls)
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
    check_parameters(gamma=gammas)
    gammas = np.asarray(gammas, dtype=float).reshape(-1)
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
    ValidationError on an empty or non-square matrix or one holding a NaN
    or infinite entry, NonSymmetricError on an asymmetric one."""
    check_parameters(tol=tol)
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, float)
    if values.size == 0:
        raise ValidationError("cannot check an empty matrix")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"cannot check a matrix of shape {values.shape}: it is not square")
    check_payload(None, {"gram": values})
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
