"""Independent reference implementations used as test oracles.

These deliberately avoid the package's vectorized code paths: quantiles are
found by scanning the sorted sample, the sliced distance is a literal
double loop over directions and levels, and the kernels are evaluated one
pair of records at a time, as reference values for the Gram assembly.
"""

import numpy as np

from swwl import matern52, sw_estimate
from swwl.errors import LengthMismatchError, ValidationError


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
