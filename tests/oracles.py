"""Independent reference implementations used as test oracles.

These deliberately avoid the package's vectorized code paths: quantiles are
found by scanning the sorted sample, the sliced distance is a literal
double loop over directions and levels, the kernels are evaluated one
pair of records at a time, as reference values for the Gram assembly, edge
lists are parsed one entry at a time and Gram text is written one value at
a time. Five-start Nelder-Mead on the log marginal posterior gives the
reference optimum for ``gp.fit``'s grid-then-local range search; the same
search with its record kept in a closure, and prediction from scipy's
``cdist`` and a correlation built term by term, give the references that
``fit`` and ``predict`` must equal bit for bit.

The exact transport distances, the quantile conventions, the sliced
estimate between two embeddings, one WL step and node degrees are here too:
only the tests use them. So are the graph validation that deduplicated
edges with ``np.unique`` and counted degrees with ``np.add.at``, the
standardization that rebuilt every record, the dataset embedding that ran
WL on one graph at a time, and the stacking of embedding rows into a store.
So is the one-graph generator whose sizes the complexity acceptance test
sweeps.
"""

import itertools
import json

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.spatial.distance

from swwl import (
    AttributedGraph,
    Dataset,
    EmpiricalMeasure,
    GraphRecord,
    PqStore,
    QuantileGrid,
    WlConfig,
    marginal_posterior,
    matern52,
    posterior_parts,
    pq_embed,
    sample_projection_blocks,
    sample_projections,
)
from swwl.errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    ParseError,
    ValidationError,
)
from swwl.kernels import _gram_header, correlation_from_distances, scalar_abs_distances
from swwl.sliced import _step_indices, pq_fingerprint
from swwl.synthetic import _attribute_cloud, geometric_graph
from swwl.wl import _iterate, _neighbor_operator, _warn_nonpositive_weights, embed as wl_embed


def step_quantiles(values, levels):
    """Empirical inverse CDF inf{x : F(x) >= t}; level 0 gives the minimum.

    ``values`` may be (n,) or (n, k); quantiles are taken along axis 0. The
    positions are the embedding's own (``swwl.sliced._step_indices``).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] == 0:
        raise EmptyInputError("cannot take quantiles of an empty sample")
    srt = np.sort(values, axis=0)
    return srt[_step_indices(values.shape[0], levels)]


def interp_quantiles(values, grid):
    """Quantiles by linear interpolation at fractional rank t*(n-1).

    Levels 0 and 1 map to the minimum and maximum. This is the conventional
    plotting-position estimator; the embedding uses the step convention
    instead, whose large-Q limit is the exact transport distance.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise EmptyInputError("cannot take quantiles of an empty sample")
    return np.quantile(values, grid.levels, method="linear")


def sw_estimate(a, b):
    """Estimated sliced Wasserstein distance: r-norm of the embedding gap."""
    if a.fingerprint != b.fingerprint:
        raise ConfigMismatchError(
            f"embeddings built under different configurations: "
            f"{a.fingerprint} vs {b.fingerprint}"
        )
    diff = a.values - b.values
    r = a.fingerprint.r
    if r == 2.0:
        return float(np.sqrt(np.dot(diff, diff)))
    return float(np.sum(np.abs(diff) ** r) ** (1.0 / r))


def sw_exact_1d(x, y, r=2.0):
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


def w_exact_tiny(a, b, r=2.0):
    """Exact Wasserstein distance by brute force over all assignments.

    Restricted to equal support sizes n = m <= 8, where the optimal coupling
    of uniform measures is a permutation; other sizes raise ValueError.
    """
    if a.size != b.size:
        raise ValueError(f"support sizes differ: {a.size} vs {b.size}")
    if a.size > 8:
        raise ValueError(f"brute force limited to 8 points, got {a.size}")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    n = a.size
    cost = np.linalg.norm(a.support[:, None, :] - b.support[None, :, :], axis=2) ** r
    best = min(
        sum(cost[i, p] for i, p in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return (best / n) ** (1.0 / r)


def wl_iterate(graph, current):
    """One neighborhood-averaging step of ``swwl.wl.embed`` on ``current``.

    A ``current`` that is not a finite (node_count, d) matrix raises ValueError.
    """
    current = np.asarray(current, dtype=float)
    if current.ndim != 2 or current.shape[0] != graph.node_count:
        raise ValueError(f"expected ({graph.node_count}, d) matrix, got {current.shape}")
    if not np.all(np.isfinite(current)):
        raise ValueError("current iterate contains non-finite values")
    _warn_nonpositive_weights(graph)
    adj, inv_deg = _neighbor_operator(graph)
    return _iterate(current, adj, inv_deg)


def degree(graph, u):
    """Number of distinct neighbors of node ``u``."""
    if not 0 <= u < graph.node_count:
        raise IndexError(f"node {u} out of range for {graph.node_count} nodes")
    return int(graph.degrees[u])


def unique_checked_degrees(attributes, edges, weights=None):
    """Degrees of the graph ``AttributedGraph`` accepts, or its refusal.

    The constructor's checks as they were, in their order and with their
    messages: duplicates found by ``np.unique`` on the ``lo * n + hi`` keys,
    degrees counted by two ``np.add.at`` calls.
    """
    attrs = np.asarray(attributes, dtype=float)
    if attrs.ndim != 2 or attrs.shape[0] < 1 or attrs.shape[1] < 1:
        raise ValidationError(f"attributes must be (n, d) with n, d >= 1, got {attrs.shape}")
    if not np.all(np.isfinite(attrs)):
        raise ValidationError("attributes contain non-finite values")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.ones(len(edges)) if weights is None else weights
    weights = np.asarray(weights, dtype=float).reshape(-1)
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
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            raise ValidationError("duplicate undirected edge")
    degrees = np.zeros(n, dtype=np.int64)
    if len(edges):
        np.add.at(degrees, edges[:, 0], 1)
        np.add.at(degrees, edges[:, 1], 1)
    return degrees


def apply_standardization(dataset, stats):
    """``dataset`` with every record's attributes standardized by ``stats``,
    each record and the dataset rebuilt and validated anew."""
    if stats.mean.shape != (dataset.attr_dim,) or stats.std.shape != (dataset.attr_dim,):
        raise ValidationError(
            f"standardization statistics for {stats.mean.size} attribute dimensions, "
            f"dataset has {dataset.attr_dim}"
        )
    records = []
    for rec in dataset:
        g = rec.graph
        scaled = (g.attributes - stats.mean) / stats.std
        records.append(
            GraphRecord(
                graph=AttributedGraph(scaled, g.edges, g.weights),
                scalars=rec.scalars,
                target=rec.target,
                id=rec.id,
            )
        )
    return Dataset(records=tuple(records))


def store_of(*row_lists):
    """A ``PqStore`` whose block k stacks the embeddings ``row_lists[k]``.

    The ids are the ``graph_id`` of ``row_lists[0]``; every list must have
    as many rows, and the rows of one list one fingerprint.
    """
    for rows in row_lists:
        if len(rows) != len(row_lists[0]):
            raise LengthMismatchError("row lists of different lengths")
        if any(e.fingerprint != rows[0].fingerprint for e in rows):
            raise ConfigMismatchError("rows built under different configurations")
    return PqStore(
        ids=tuple(e.graph_id for e in row_lists[0]),
        blocks=tuple(np.vstack([e.values for e in rows]) for rows in row_lists),
        fingerprints=tuple(rows[0].fingerprint for rows in row_lists),
    )


def embed_dataset_per_graph(
    dataset, wl_config, *, seed, n_projections, n_quantiles,
    standardization=None, per_iteration=False,
):
    """``swwl.embed_dataset`` with one WL run per graph, one graph after another.

    The same projection sets, levels, fingerprints and record fields; row i
    of each block is filled from record i's own WL embedding.
    """
    if standardization is not None:
        dataset = apply_standardization(dataset, standardization)
    k = wl_config.block_count
    projection_sets = [sample_projections(seed, n_projections, k * dataset.attr_dim)]
    if per_iteration:
        projection_sets += sample_projection_blocks(
            seed, n_projections, dataset.attr_dim, k
        )
    grid = QuantileGrid(n_quantiles)
    blocks = tuple(
        np.empty((len(dataset), n_projections * n_quantiles)) for _ in projection_sets
    )
    for i, rec in enumerate(dataset):
        # a WL run of its own for each kept iteration's block
        supports = [wl_embed(rec.graph, wl_config)] + [
            wl_embed(rec.graph, WlConfig(iterations=(h,)))
            for h in wl_config.iterations[: len(blocks) - 1]
        ]
        for block, projections, support in zip(blocks, projection_sets, supports):
            block[i] = pq_embed(EmpiricalMeasure(support), projections, grid).values
    fingerprints = tuple(
        pq_fingerprint(
            projections, grid, 2.0,
            iterations=wl_config.iterations,
            standardization=standardization,
        )
        for projections in projection_sets
    )
    return PqStore(
        ids=tuple(dataset.ids),
        blocks=blocks,
        fingerprints=fingerprints,
        targets=dataset.targets() if dataset.has_targets else None,
        scalars=dataset.scalar_matrix(),
    )


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
    """The graph factor times one Matern factor per scalar."""
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
    value = swwl_kernel(emb_a, emb_b, cfg.gamma)
    for sa, sb, ls in zip(scalars_a, scalars_b, cfg.matern_lengthscales):
        value *= matern52(abs(sa - sb), ls)
    return float(value)


def two_step_kernel_matrix(sw_sq, scalar_abs, gamma, lengthscales, nugget):
    """The kernel matrix in two steps, the reference for
    ``kernels.correlation_from_distances``: the correlation, then the nugget
    added in place to the diagonal."""
    corr = np.exp(-gamma * sw_sq)
    for dist, ls in zip(scalar_abs, lengthscales):
        corr = corr * matern52(dist, ls)
    if nugget:
        corr.flat[:: len(corr) + 1] += nugget
    return corr


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
        fh.write("# " + json.dumps(_gram_header(gram), sort_keys=True) + "\n")
        for row in gram.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def multistart_nelder_mead(distances, targets, nugget):
    """Best (log posterior, log-ranges) of Nelder-Mead from five starts.

    The first start is the log of the prior scales; each further one adds a
    U(-2, 2) offset per coordinate drawn from ``Philox(0)``. Each run may
    call the objective 400 times, and every call is scored afresh.
    """
    scales = distances.prior_scales
    center = np.log(np.where(scales > 0, scales, 1.0))
    rng = np.random.Generator(np.random.Philox(key=0))

    def objective(log_ranges):
        value = marginal_posterior(log_ranges, distances, targets, nugget)
        return -value if np.isfinite(value) else 1e300

    best_value, best_log_ranges = -np.inf, None
    for k in range(5):
        x0 = center if k == 0 else center + rng.uniform(-2.0, 2.0, len(scales))
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-7, "maxfev": 400},
        )
        if res.fun < 1e300 and -res.fun > best_value:
            best_value, best_log_ranges = -res.fun, res.x
    return best_value, best_log_ranges


def grid_then_local_search(distances, targets, nugget, multistarts=1, seed=0):
    """``gp.fit``'s range search with its record kept in a closure.

    The 9-point log-range grid, then one local search from the best grid
    point and one from each of ``multistarts - 1`` starts drawn from
    ``Philox(seed)``. With several ranges each is Nelder-Mead (400 calls),
    the first with a simplex half a step wide. With one, each is scipy's
    Brent (xtol 1e-5): the first on the best grid point and its neighbours
    when both score worse, else after a downhill bracket search from a
    neighbour and the best point; the others after one from (x0, x0 + 0.5).
    Brent's proposals beyond those points are rounded to 20 significant
    bits. Each point is scored once. Returns the best log-ranges, their
    ``PosteriorParts``, the number of points scored, the number of repeated
    calls, and per start its best log posterior and the points it scored.
    """
    scales = distances.prior_scales
    center = np.log(np.where(scales > 0, scales, 1.0))
    rng = np.random.Generator(np.random.Philox(key=seed))
    scores, record = {}, {"best": None, "hits": 0, "start_best": np.inf}

    def objective(log_ranges):
        key = log_ranges.tobytes()
        if key in scores:
            record["hits"] += 1
        else:
            parts = posterior_parts(log_ranges, distances, targets, nugget)
            best = record["best"]
            if np.isfinite(parts.value) and (best is None or parts.value > best[1].value):
                record["best"] = (log_ranges, parts)
            scores[key] = -parts.value if np.isfinite(parts.value) else 1e300
        record["start_best"] = min(record["start_best"], scores[key])
        return scores[key]

    grid = [center + t for t in np.arange(-4.0, 5.0)]
    grid_scores = [objective(x) for x in grid]
    i = grid_scores.index(min(grid_scores))
    starts = []
    for k in range(multistarts):
        x0 = grid[i] if k == 0 else center + rng.uniform(-2.0, 2.0, len(scales))
        record["start_best"], scored = np.inf, len(scores)
        if len(scales) > 1:
            scipy.optimize.minimize(
                objective, x0, method="Nelder-Mead",
                options={"xatol": 1e-4, "fatol": 1e-7, "maxfev": 400,
                         "initial_simplex": np.vstack([x0, x0 + 0.5 * np.eye(len(x0))])
                         if k == 0 else None},
            )
        else:
            if k > 0:
                bracket = (x0[0], x0[0] + 0.5)
            elif 0 < i < 8 and grid_scores[i - 1] > grid_scores[i] < grid_scores[i + 1]:
                bracket = (grid[i - 1][0], grid[i][0], grid[i + 1][0])
            else:
                bracket = (grid[i + 1 if i == 0 else i - 1][0], grid[i][0])

            def on_line(t, bracket=bracket):
                if t not in bracket:
                    mantissa, exponent = np.frexp(t)
                    t = np.ldexp(np.round(mantissa * 2.0**20), exponent - 20)
                return objective(np.array([t], dtype=float))

            scipy.optimize.minimize_scalar(
                on_line, bracket=bracket, method="brent", options={"xtol": 1e-5}
            )
        start_best = record["start_best"]
        starts.append((-start_best if start_best < 1e300 else None, len(scores) - scored))
    log_ranges, parts = record["best"]
    return log_ranges, parts, len(scores), record["hits"], starts


def floor_psd_matrix(matrix):
    """Symmetrize and clip negative eigenvalues at zero, the floor that
    ``gp.predict`` applied to the full test scale matrix when it formed one.
    Returns the floored matrix and the number of eigenvalues clipped."""
    if matrix.size == 0:
        return matrix, 0
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    clipped = int(np.count_nonzero(eigvals < 0))
    if not clipped:
        return sym, 0
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T, clipped


def predict_mean_and_scale(model, features, scalars):
    """``gp.predict``'s mean and the joint N* x N* scale matrix of the test
    inputs, floored by :func:`floor_psd_matrix`, with each distance matrix
    from scipy's ``cdist`` and no nugget on the correlations. Returns the
    mean, the scale matrix and the number of eigenvalues the floor clipped."""
    gamma = 1.0 / (model.ranges[0] * model.ranges[0])

    def correlation(a, b, scalars_a, scalars_b):
        sw_sq = scipy.spatial.distance.cdist(a, b, "sqeuclidean")
        scalar_abs = scalar_abs_distances(scalars_a, scalars_b)
        return correlation_from_distances(sw_sq, scalar_abs, gamma, model.ranges[1:])

    cross = correlation(features, model.train_features, scalars, model.train_scalars)
    mean = model.theta_hat + cross @ model.rinv_centered_y
    rinv_cross_t = scipy.linalg.cho_solve((model.chol.T, False), cross.T, check_finite=False)
    cbar = correlation(features, features, scalars, scalars) - cross @ rinv_cross_t
    trend_gap = 1.0 - cross @ model.rinv_h
    cbar = cbar + np.outer(trend_gap, trend_gap) / model.h_rinv_h
    floored, clipped = floor_psd_matrix(cbar)
    return mean, model.sigma2_hat * floored, clipped


def generate_timing_graph(seed: int, n_nodes: int) -> AttributedGraph:
    """One random geometric graph with smooth 2-d attributes, for benchmarks."""
    rng = np.random.default_rng(seed)
    positions, pairs = geometric_graph(rng, n_nodes)
    return AttributedGraph(_attribute_cloud(rng, positions), pairs)
