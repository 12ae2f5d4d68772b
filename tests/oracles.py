"""Independent reference implementations used as test oracles.

These deliberately avoid the package's vectorized code paths: quantiles are
found by scanning the sorted sample, the sliced distance is a literal
double loop over directions and levels, the kernels are evaluated one
pair of records at a time, as reference values for the Gram assembly, edge
lists are parsed one entry at a time and Gram text is written one value at
a time.
"""

import numpy as np

from swwl import matern52, sw_estimate
from swwl.errors import LengthMismatchError, ParseError, ValidationError
from swwl.kernels import _fingerprint_line


def naive_quantile(values, level):
    """Smallest x with empirical CDF F(x) >= level; level 0 gives the minimum."""
    srt = sorted(values)
    n = len(srt)
    for i, x in enumerate(srt, start=1):
        if i / n >= level:
            return x
    return srt[-1]


def naive_sw(support_a, support_b, directions, levels, r):
    """Per-direction quantile distance, power-averaged over directions."""
    total = 0.0
    for theta in directions:
        qa = [naive_quantile(support_a @ theta, t) for t in levels]
        qb = [naive_quantile(support_b @ theta, t) for t in levels]
        w_pow = np.mean([abs(a - b) ** r for a, b in zip(qa, qb)])
        total += w_pow
    return (total / len(directions)) ** (1.0 / r)


def swwl_kernel(a, b, gamma):
    """Graph kernel value exp(-gamma * d^2) in (0, 1]."""
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    d = sw_estimate(a, b)
    return float(np.exp(-gamma * d * d))


def aswwl_kernel(per_iter_a, per_iter_b, gammas):
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


def tensorized_kernel(rec_a, rec_b, cfg):
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


def _is_number(x):
    return isinstance(x, (int, float))


def _is_endpoint(x):
    return _is_number(x) and float(x).is_integer() and abs(float(x)) < 2.0**53


def loop_edge_arrays(edges_raw, line):
    """Edge list parsed entry by entry, as the dataset reader once did.

    The reader's former loop, with its value checks made explicit: the edge
    list and each entry must be lists, endpoints integral JSON numbers below
    2**53 in magnitude, weights JSON numbers. (The loop itself iterated any
    iterable, raised a bare TypeError on a numeric or null entry, and
    accepted string endpoints such as "0".)
    """
    if type(edges_raw) is not list:
        raise ParseError(f"'edges' must be a list, got {type(edges_raw).__name__}", line=line)
    pairs = []
    weights = []
    for e in edges_raw:
        if type(e) is not list or len(e) not in (2, 3):
            raise ParseError(f"edge entry {e!r} must be [u, v] or [u, v, w]", line=line)
        u, v = e[0], e[1]
        if not (_is_endpoint(u) and _is_endpoint(v)):
            raise ParseError(f"edge endpoints must be integers, got {e!r}", line=line)
        if len(e) == 3 and not _is_number(e[2]):
            raise ParseError(f"edge weight must be a number, got {e!r}", line=line)
        pairs.append((int(u), int(v)))
        weights.append(float(e[2]) if len(e) == 3 else 1.0)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2), np.asarray(weights, dtype=float)


def value_by_value_gram_text(gram, path):
    """Gram text export formatting every value with its own f-string."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fingerprint_line(gram.size, gram.fingerprint) + "\n")
        for row in gram.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
