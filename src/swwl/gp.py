"""Robust Gaussian process regression on the tensorized graph kernel.

The correlation between two inputs is the product of a graph factor
exp(-(d/range_0)^2), with d the estimated sliced Wasserstein distance
between cached embeddings, and one Matern-5/2 factor per scalar covariate.
Range parameters are estimated by maximizing the marginal posterior: the
constant mean and the variance are integrated out under the reference prior
(giving the profile likelihood in |R|, h'R^-1h and the projected residual
S^2), and the ranges carry a jointly-robust prior that pushes the fit away
from both the identity and the all-ones correlation matrix. Predictions
follow a Student-t distribution with N-1 degrees of freedom.

All determinants and solves go through a single Cholesky factorization; a
candidate whose factorization fails is scored as -inf rather than aborting
the search.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.stats

from .binio import check_payload, header_numbers, read_container, record_ids, write_container
from .errors import (
    ConfigMismatchError,
    ConstantTargetError,
    DimensionMismatchError,
    LengthMismatchError,
    OptimizationError,
    SwwlError,
    ValidationError,
    integer,
    refusal,
)
from .kernels import (
    check_parameters,
    correlation_from_distances,
    scalar_abs_distances,
    scalar_matrix,
    sq_distances,
)
from .sliced import PHILOX_SEED_MAX, PqFingerprint

MODEL_MAGIC = "SWWL-M1"

JR_PRIOR_A = 0.2
DEFAULT_NUGGET = 1e-8

# Range search: every log-range shifted by -4, -3, ..., 4 from the prior-scale
# centre; then, with one range, Brent's method on the best grid point and its
# neighbours, and with several, Nelder-Mead around the best grid point.
GRID_SHIFTS = np.arange(-4.0, 5.0)
# half a grid step: the width of the Nelder-Mead simplex, and the first step
# of the downhill bracket search of a one-range start the grid does not bracket
SIMPLEX_STEP = 0.5
# objective calls each start may make (a default one-range fit scores 18-22
# points, grid included)
MAX_EVALS = 400
# test rows per variance solve of predict; fixed, so the solves and what
# they compute do not depend on the machine
PREDICT_CHUNK_ROWS = 64


def jr_prior_rate(n: int, n_ranges: int) -> float:
    """Exponential rate b = N**(-1/L) * (a + L) of the jointly-robust prior,
    a = ``JR_PRIOR_A``."""
    return n ** (-1.0 / n_ranges) * (JR_PRIOR_A + n_ranges)


@dataclass(frozen=True)
class TrainDistances:
    """Cached pairwise distances: the (N, N') squared graph distances and an
    (m, N, N') stack of per-covariate |delta|, m >= 0 (None: m = 0)."""

    sw_sq: np.ndarray
    scalar_abs: np.ndarray | None = None

    def __post_init__(self):
        if self.scalar_abs is None:
            object.__setattr__(self, "scalar_abs", np.zeros((0, *self.sw_sq.shape)))

    @property
    def n_ranges(self) -> int:
        return 1 + self.scalar_abs.shape[0]

    @property
    def size(self) -> int:
        return self.sw_sq.shape[0]

    def mean_scales(self) -> np.ndarray:
        """Mean off-diagonal distance per coordinate (prior scales C_l)."""
        off = ~np.eye(self.size, dtype=bool)
        graph = self.sw_sq[off]  # a copy, which maximum and sqrt overwrite
        np.sqrt(np.maximum(graph, 0.0, out=graph), out=graph)
        return np.array([graph.mean()] + [dist[off].mean() for dist in self.scalar_abs])

    @functools.cached_property
    def prior_scales(self) -> np.ndarray:
        """:meth:`mean_scales`, computed once per instance."""
        return self.mean_scales()


def _feature_matrix(features: np.ndarray) -> np.ndarray:
    """The (N, W) graph feature matrix as floats; ValidationError without one."""
    if features is None:
        raise ValidationError("graph features are required: an (N, W) matrix")
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValidationError(f"graph features must be an (N, W) matrix, got {features.shape}")
    return features


def build_train_distances(features: np.ndarray, scalars: np.ndarray | None) -> TrainDistances:
    feats = _feature_matrix(features)
    return TrainDistances(
        sq_distances(feats), scalar_abs_distances(scalar_matrix(scalars, len(feats)))
    )


def _correlation(sw_sq, scalar_abs, ranges: np.ndarray, nugget: float = 0.0) -> np.ndarray:
    """R + nugget * I at the given ranges: the graph factor's precision is
    gamma = 1 / range_0^2, the other ranges are the Matern lengthscales."""
    gamma = 1.0 / (ranges[0] * ranges[0])
    return correlation_from_distances(sw_sq, scalar_abs, gamma, ranges[1:], nugget=nugget)


@dataclass(frozen=True)
class PosteriorParts:
    """Pieces of one marginal-posterior evaluation: :func:`fit` takes the
    model's factor and log posterior from them, audits and tests the rest.

    ``chol`` is the lower Cholesky factor of R + nugget*I, None when the
    factorization failed.
    """

    value: float
    s2: float = np.nan
    log_det: float = np.nan
    h_rinv_h: float = np.nan
    theta_hat: float = np.nan
    flag: str | None = None
    chol: np.ndarray | None = field(default=None, repr=False, compare=False)


def _profile_parts(chol: np.ndarray, y: np.ndarray):
    """Profile statistics from a lower Cholesky factor of R.

    The solves skip scipy's finiteness scan of the N x N factor (the
    targets and nugget are checked before it is built, and ``fit`` checks
    the features and scalars once) and its copy into Fortran order: the
    transposed view of the C-ordered lower factor is a Fortran-ordered
    upper one.
    """
    n = len(y)
    h = np.ones(n)
    upper = (chol.T, False)  # Fortran-ordered, so LAPACK reads it without a copy
    rinv_y = scipy.linalg.cho_solve(upper, y, check_finite=False)
    rinv_h = scipy.linalg.cho_solve(upper, h, check_finite=False)
    h_rinv_h = float(h @ rinv_h)
    h_rinv_y = float(h @ rinv_y)
    y_rinv_y = float(y @ rinv_y)
    s2 = y_rinv_y - h_rinv_y * h_rinv_y / h_rinv_h
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    theta_hat = h_rinv_y / h_rinv_h
    return s2, log_det, h_rinv_h, theta_hat, rinv_y, rinv_h


def posterior_parts(
    log_ranges: np.ndarray,
    distances: TrainDistances,
    targets: np.ndarray,
    nugget: float = DEFAULT_NUGGET,
) -> PosteriorParts:
    """Log marginal posterior of the ranges, up to a range-free constant."""
    y = np.asarray(targets, dtype=float).reshape(-1)
    n = len(y)
    if n < 2:
        raise ValidationError(f"need at least 2 targets, got {n}")
    check_payload(None, {"targets": y})
    check_parameters(nugget=nugget)
    ranges = np.exp(np.asarray(log_ranges, dtype=float).reshape(-1))
    if len(ranges) != distances.n_ranges:
        raise LengthMismatchError(
            f"{len(ranges)} ranges for {distances.n_ranges} coordinates"
        )
    corr = _correlation(distances.sw_sq, distances.scalar_abs, ranges, nugget)
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        return PosteriorParts(value=-np.inf, flag="CholeskyFailure")
    s2, log_det, h_rinv_h, theta_hat, _, _ = _profile_parts(chol, y)
    if not np.isfinite(s2) or s2 <= 0:
        return PosteriorParts(value=-np.inf, flag="ConstantTarget", chol=chol)
    log_lik = -0.5 * log_det - 0.5 * np.log(h_rinv_h) - 0.5 * (n - 1) * np.log(s2)
    scales = distances.prior_scales
    rate_sum = float(np.sum(scales / ranges))
    if rate_sum > 0:
        b = jr_prior_rate(n, distances.n_ranges)
        log_prior = JR_PRIOR_A * np.log(rate_sum) - b * rate_sum
    else:
        log_prior = 0.0  # degenerate geometry: all distances vanish
    return PosteriorParts(
        value=float(log_lik + log_prior),
        s2=float(s2),
        log_det=float(log_det),
        h_rinv_h=float(h_rinv_h),
        theta_hat=float(theta_hat),
        chol=chol,
    )


def marginal_posterior(
    log_ranges: np.ndarray,
    distances: TrainDistances,
    targets: np.ndarray,
    nugget: float = DEFAULT_NUGGET,
) -> float:
    """The value of :func:`posterior_parts`."""
    return posterior_parts(log_ranges, distances, targets, nugget).value


@dataclass(frozen=True)
class StartDiagnostics:
    """One optimizer start of a :func:`fit`.

    log_posterior: the best log marginal posterior the start reached; None
    when every point it called scored -inf.
    posterior_evaluations: points the start scored that no earlier step had.
    """

    log_posterior: float | None
    posterior_evaluations: int


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer bookkeeping of one :func:`fit`.

    posterior_evaluations: distinct log-range points scored (one Cholesky
    each; the best point's is computed once more, for the model).
    repeated_points: objective calls answered from the score memo instead.
    failed_points: distinct points scored -inf (Cholesky failure or S^2 <= 0).
    log_posterior: log marginal posterior at the returned ranges.
    starts: one record per optimizer start, in order; the grid's points are
    counted in none of them.
    """

    posterior_evaluations: int
    repeated_points: int
    failed_points: int
    log_posterior: float
    starts: tuple[StartDiagnostics, ...]


class _Search:
    """The range search's objective, minus the log marginal posterior, as a
    score memo: each point is scored once (one N x N Cholesky), keyed by its
    exact bytes, as the optimizers revisit points; -inf costs ``PENALTY``, a
    finite stand-in that keeps the simplex and Brent's comparisons well
    defined. No factor is kept: the best point is the first key with the
    lowest score, and :func:`fit` factorizes it once more.
    """

    PENALTY = 1e300

    def __init__(self, distances: TrainDistances, targets: np.ndarray, nugget: float):
        self.distances, self.targets, self.nugget = distances, targets, nugget
        self.scores = {}
        self.hits = 0

    def __call__(self, log_ranges: np.ndarray) -> float:
        key = log_ranges.tobytes()
        value = self.scores.get(key)
        if value is None:
            value = self.scores[key] = self.score(log_ranges)
        else:
            self.hits += 1
        return value

    def score(self, log_ranges: np.ndarray) -> float:
        value = marginal_posterior(log_ranges, self.distances, self.targets, self.nugget)
        return -value if np.isfinite(value) else self.PENALTY


class _BudgetSpent(Exception):
    """A :func:`_brent` start made its ``maxfev`` objective calls."""


def _brent(fun, x0, args=(), *, bracket, maxfev, **_):
    """Brent's method on one log-range, as a ``scipy.optimize.minimize`` method.

    ``bracket`` is either (a, b, c) with f(b) below f(a) and f(c), which
    Brent narrows at once, or two points from which scipy's downhill search
    looks for such a triple first.
    The start ends when Brent's bracket is within 1e-5 (relative) of its
    best point, when no bracket is found, or after ``maxfev`` calls of
    ``fun``; it returns the best point called.

    Each point the search proposes beyond the bracket is rounded to 20
    significant bits, which moves it by less than a tenth of the smallest
    step that tolerance lets Brent take. The proposals are computed from
    posterior values, so without the rounding, targets that only shift or
    rescale others, whose posteriors differ by rounding alone, would end at
    ranges some 1e-10 apart.
    """
    best = scipy.optimize.OptimizeResult(x=x0, fun=np.inf, nfev=0)

    def objective(t):
        if best.nfev == maxfev:
            raise _BudgetSpent
        best.nfev += 1
        if t not in bracket:
            mantissa, exponent = math.frexp(t)
            t = math.ldexp(round(mantissa * 2**20), exponent - 20)
        x = np.array([t], dtype=float)
        value = fun(x, *args)
        if value < best.fun:
            best.x, best.fun = x, value
        return value

    try:
        scipy.optimize.minimize_scalar(
            objective, bracket=bracket, method="brent", options={"xtol": 1e-5}
        )
    except _BudgetSpent:
        pass
    return best


def _grid_bracket(grid: list[np.ndarray], scores: list[float]) -> tuple[float, ...]:
    """:func:`_brent`'s bracket from the scored one-range grid: the best point
    and its neighbours when both score worse; otherwise, at the grid's edge
    or on a tie, a neighbour and the best point, to search downhill from."""
    i = int(np.argmin(scores))
    if 0 < i < len(grid) - 1 and scores[i - 1] > scores[i] < scores[i + 1]:
        return grid[i - 1][0], grid[i][0], grid[i + 1][0]
    return grid[i - 1 if i else 1][0], grid[i][0]


@dataclass(frozen=True)
class GpModel:
    """Trained state: fitted ranges, the lower Cholesky factor of R + nugget*I
    and the targets, from which the constructor derives the solve caches.

    The training features (N, W) and scalars (N, m), m >= 0, are kept so that
    prediction only needs the new inputs' embeddings.
    """

    ranges: np.ndarray
    nugget: float
    chol: np.ndarray
    targets: np.ndarray
    train_features: np.ndarray
    train_scalars: np.ndarray
    train_ids: tuple[str, ...]
    fingerprint: PqFingerprint | None
    diagnostics: FitDiagnostics | None = None  # set by fit, not saved
    theta_hat: float = field(init=False)
    sigma2_hat: float = field(init=False)
    rinv_centered_y: np.ndarray = field(init=False)
    rinv_h: np.ndarray = field(init=False)

    def __post_init__(self):
        s2, _, _, theta_hat, rinv_y, rinv_h = _profile_parts(self.chol, self.targets)
        if s2 <= 0:
            raise ConstantTargetError("projected residual variance is zero")
        object.__setattr__(self, "theta_hat", float(theta_hat))
        object.__setattr__(self, "sigma2_hat", float(s2 / self.dof))
        object.__setattr__(self, "rinv_centered_y", rinv_y - theta_hat * rinv_h)
        object.__setattr__(self, "rinv_h", rinv_h)

    @property
    def size(self) -> int:
        return len(self.targets)

    @property
    def dof(self) -> int:
        return self.size - 1

    @property
    def h_rinv_h(self) -> float:
        return float(np.sum(self.rinv_h))


@dataclass(frozen=True)
class GpSettings:
    """The nugget, one number, finite and >= 0, kept as a float; the
    optimizer starts, an integer >= 1; and the seed of the random starts,
    an integer from 0 to ``PHILOX_SEED_MAX``. ValidationError naming the
    first that is not."""

    nugget: float = DEFAULT_NUGGET
    multistarts: int = 1
    seed: int = 0

    def __post_init__(self):
        check_parameters(nugget=self.nugget)
        if np.ndim(self.nugget):
            raise ValidationError(f"nugget must be one number, got {self.nugget}")
        object.__setattr__(self, "nugget", float(self.nugget))
        object.__setattr__(self, "multistarts", integer("multistarts", self.multistarts, least=1))
        object.__setattr__(self, "seed", integer("seed", self.seed, most=PHILOX_SEED_MAX))


@dataclass(frozen=True)
class PredictiveDistribution:
    """Student-t predictive law of each test input on its own: the mean
    vector, the (N*,) vector of per-point scales (predictive variances of
    the latent function, nugget excluded) and the dof.

    ``floored`` counts the variances that rounded below 0 and were clamped
    at 0. The joint scale matrix is not formed.
    """

    mean: np.ndarray
    scale: np.ndarray
    dof: int
    floored: int = 0

    def scale_diagonal(self) -> np.ndarray:
        return self.scale

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(self.scale)

    def interval(self, level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
        if not 0.0 < level < 1.0:
            raise ValidationError(f"an interval's level must lie in (0, 1), got {level}")
        half = scipy.stats.t.ppf(0.5 + level / 2.0, self.dof) * self.standard_errors()
        return self.mean - half, self.mean + half


def _floor_psd(variances: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-point variances clamped at 0, and how many were below it; a
    nonnegative diagonal is a PSD diagonal covariance."""
    below = variances < 0.0
    return np.where(below, 0.0, variances), int(np.count_nonzero(below))


def _training_set(features, scalars, targets, ids):
    """(features, scalars, targets, ids) checked as :func:`fit` needs them; SwwlError if not."""
    y = np.asarray(targets, dtype=float).reshape(-1)
    n = len(y)
    if n < 3:
        raise ValidationError(f"need at least 3 training records, got {n}")
    features = _feature_matrix(features)
    if len(features) != n:
        raise LengthMismatchError(f"{len(features)} inputs for {n} targets")
    scalars = scalar_matrix(scalars, n)
    check_payload(None, {"targets": y, "features": features})
    if np.ptp(y) == 0.0:
        raise ConstantTargetError("all training targets are identical")
    ids = tuple(str(i) for i in range(n)) if ids is None else tuple(ids)
    if len(ids) != n:
        raise LengthMismatchError(f"{len(ids)} ids for {n} training records")
    if not all(isinstance(i, str) for i in ids) or len(set(ids)) != n:
        raise ValidationError("training record ids must be distinct strings")
    return features, scalars, y, ids


def fit(
    features: np.ndarray,
    scalars: np.ndarray | None,
    targets: np.ndarray,
    *,
    ids: tuple[str, ...] | None = None,
    fingerprint: PqFingerprint | None = None,
    settings: GpSettings = GpSettings(),
) -> GpModel:
    """Estimate ranges by maximizing the log marginal posterior.

    ``features`` is the (N, W) feature matrix, which is required, and
    ``scalars`` the (N, m) scalar covariates, None for m = 0; the model has
    1 + m ranges.

    All log-ranges are shifted together over a 9-point grid, one log unit
    apart, around the log of the mean pairwise distance of each coordinate.
    The first start begins at the best grid point. With one range it runs
    Brent's method on the bracket that point and its two neighbours form,
    scores the grid has already paid for; at the grid's edge, or when a
    neighbour ties it, scipy's downhill bracket search runs first. With
    several ranges it runs Nelder-Mead with a simplex half a grid step wide.
    Each further start (``settings.multistarts - 1`` of them) begins at the
    grid centre plus a U(-2, 2) offset per coordinate drawn from
    ``Philox(settings.seed)``, and runs the same method, Brent after a
    downhill bracket search from its start with one range. Every start goes
    through ``scipy.optimize.minimize``, and ``MAX_EVALS`` bounds its
    objective calls; the grid is scored on top of it. The model takes the
    best point scored, the first of those that tie, and factorizes it once
    more: the search keeps scores, not factors. Candidates whose
    correlation matrix cannot be factorized score -inf and simply lose the
    comparison.
    """
    features, scalars, y, ids = _training_set(features, scalars, targets, ids)
    distances = build_train_distances(features, scalars)
    scales = distances.prior_scales
    start_center = np.log(np.where(scales > 0, scales, 1.0))
    rng = np.random.Generator(np.random.Philox(key=settings.seed))
    search = _Search(distances, y, settings.nugget)
    grid = [start_center + t for t in GRID_SHIFTS]
    scores = [search(x) for x in grid]
    starts = []
    for k in range(settings.multistarts):
        if k == 0:
            x0 = grid[int(np.argmin(scores))]
        else:
            x0 = start_center + rng.uniform(-2.0, 2.0, len(scales))
        if distances.n_ranges == 1:
            method = _brent
            bracket = _grid_bracket(grid, scores) if k == 0 else (x0[0], x0[0] + SIMPLEX_STEP)
            options = {"bracket": bracket}
        else:
            method = "Nelder-Mead"
            # the first simplex is half a grid step wide, the others scipy's default
            simplex = np.vstack([x0, x0 + SIMPLEX_STEP * np.eye(len(x0))]) if k == 0 else None
            options = {"xatol": 1e-4, "fatol": 1e-7, "initial_simplex": simplex}
        scored = len(search.scores)
        result = scipy.optimize.minimize(
            search, x0, method=method, options={**options, "maxfev": MAX_EVALS}
        )
        starts.append(StartDiagnostics(
            log_posterior=-float(result.fun) if result.fun < search.PENALTY else None,
            posterior_evaluations=len(search.scores) - scored,
        ))
    best = min(search.scores, key=search.scores.get)  # the first of the lowest
    if search.scores[best] >= search.PENALTY:
        raise OptimizationError(
            "every optimizer start failed: the correlation matrix could not be "
            "factorized for any candidate ranges; duplicated inputs or a zero "
            "nugget are the usual cause (try raising the nugget)"
        )
    log_ranges = np.frombuffer(best)
    parts = posterior_parts(log_ranges, distances, y, settings.nugget)
    return GpModel(
        ranges=np.exp(log_ranges),
        nugget=settings.nugget,
        chol=parts.chol,
        targets=y,
        train_features=features,
        train_scalars=scalars,
        train_ids=ids,
        fingerprint=fingerprint,
        diagnostics=FitDiagnostics(
            posterior_evaluations=len(search.scores),
            repeated_points=search.hits,
            failed_points=sum(v >= search.PENALTY for v in search.scores.values()),
            log_posterior=parts.value,
            starts=tuple(starts),
        ),
    )


def predict(
    model: GpModel,
    features: np.ndarray,
    scalars: np.ndarray | None = None,
    fingerprint: PqFingerprint | None = None,
) -> PredictiveDistribution:
    """Student-t predictive distribution at new inputs, each on its own: the
    mean and, per input, sigma2_hat * (1 - r' R^-1 r + (1 - r' R^-1 h)^2 / h' R^-1 h),
    with r its correlations to the training inputs (Rasmussen & Williams
    2006, Alg. 2.1, plus the term of the estimated constant trend). Time and
    memory are linear in the number of new inputs.

    Refuses embeddings whose fingerprint differs from the training one; the
    projection directions define the feature space and must be shared.
    Features of another width than the training ones are refused with
    DimensionMismatchError even when no fingerprints are given.
    """
    if model.fingerprint is not None and fingerprint is not None:
        if model.fingerprint != fingerprint:
            raise ConfigMismatchError(
                "test embeddings were built under a different configuration "
                f"({fingerprint}) than the model ({model.fingerprint})"
            )
    features = _feature_matrix(features)
    if features.shape[1] != model.train_features.shape[1]:
        raise DimensionMismatchError(
            f"graph features: {features.shape[1]} wide, "
            f"the model was trained on {model.train_features.shape[1]}-wide features"
        )
    scalars = scalar_matrix(scalars, len(features))
    check_payload(None, {"features": features})
    if scalars.shape[1] != model.train_scalars.shape[1]:
        raise LengthMismatchError(
            f"scalar covariates: {scalars.shape[1]} given, "
            f"the model was trained with {model.train_scalars.shape[1]}"
        )
    cross = _correlation(sq_distances(features, model.train_features),
                         scalar_abs_distances(scalars, model.train_scalars), model.ranges)
    mean = model.theta_hat + cross @ model.rinv_centered_y
    # r*_i' R^-1 r*_i = ||L^-1 r*_i||^2, one triangular solve per chunk; the
    # factor is finite (fit and load_model check it), and its transposed
    # view is the Fortran-ordered upper factor LAPACK reads as is
    explained = np.empty(len(features))
    for start in range(0, len(features), PREDICT_CHUNK_ROWS):
        rows = slice(start, start + PREDICT_CHUNK_ROWS)
        half = scipy.linalg.solve_triangular(model.chol.T, cross[rows].T, trans="T",
                                             check_finite=False)
        explained[rows] = np.einsum("ij,ij->j", half, half)
    trend_gap = 1.0 - cross @ model.rinv_h  # h* - R* R^-1 h
    variances, floored = _floor_psd(1.0 - explained + trend_gap * trend_gap / model.h_rinv_h)
    return PredictiveDistribution(mean=mean, scale=model.sigma2_hat * variances,
                                  dof=model.dof, floored=floored)


def _paired(predicted, truth) -> tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=float).reshape(-1)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if predicted.shape != truth.shape:
        raise LengthMismatchError(f"{predicted.shape[0]} predictions for {truth.shape[0]} truths")
    if predicted.size == 0:
        raise LengthMismatchError("need at least one value")
    return predicted, truth


def rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    predicted, truth = _paired(predicted, truth)
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))


def q2(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Coefficient of predictivity 1 - SSE/SST; 1 is perfect, 0 matches the mean."""
    predicted, truth = _paired(predicted, truth)
    sse = float(np.sum((predicted - truth) ** 2))
    sst = float(np.sum((truth - truth.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if sse == 0.0 else -np.inf
    return 1.0 - sse / sst


def save_model(model: GpModel, path) -> None:
    """Write what a model cannot derive; the solve caches are recomputed on load.
    ValidationError, and no file, if :func:`model_from_container` refuses
    what would be written."""
    header = {
        "n": model.size,
        # a Python float, so that a numpy nugget passes the JSON number rule
        "nugget": float(model.nugget),
        "train_ids": list(model.train_ids),
        "fingerprint": None if model.fingerprint is None else model.fingerprint.to_dict(),
        "swwl_precision_mapping": "gamma = 1 / range[0]**2",
    }
    arrays = {"ranges": model.ranges, "chol": model.chol, "targets": model.targets,
              "train_features": model.train_features}
    if model.train_scalars.shape[1]:
        arrays["train_scalars"] = model.train_scalars
    check_payload(None, arrays)
    model_from_container(None, header, arrays)
    write_container(path, MODEL_MAGIC, header, arrays)


def load_model(path) -> GpModel:
    """Read a model written by :func:`save_model`; ParseError if malformed.

    Header keys and arrays that :func:`save_model` does not write, such as
    stored solve caches, are ignored: the model derives them.
    """
    return GpModel(**model_from_container(path, *read_container(path, MODEL_MAGIC)))


def model_from_container(path, header: dict, arrays: dict) -> dict:
    """The :class:`GpModel` fields a container's header and arrays hold, or
    the refusal of ``path`` (:func:`~swwl.errors.refusal`): the rule of every
    model file, run by :func:`load_model` on what it read and by
    :func:`save_model` on what it would write.

    The training set passes :func:`fit`'s own check; ``ranges`` holds one
    positive range per coordinate and the nugget is nonnegative; ``chol`` is
    N x N, lower triangular with a positive diagonal, and its rows at 8
    evenly spaced records match R(ranges) + nugget * I rebuilt from the
    training inputs.
    """
    n = header.get("n")
    if type(n) is not int:
        raise refusal(path, f"'n' must be an integer, got {n!r}")
    ids = record_ids(path, header, "train_ids", n)
    nugget = float(header_numbers(path, header, "nugget", ()))
    if "train_features" not in arrays:
        raise refusal(path, "no 'train_features' (a scalar-only model from an earlier release?)")
    try:
        feats, scal, targets, _ = _training_set(
            arrays["train_features"], arrays.get("train_scalars"), arrays.get("targets", ()), ids)
        for name, shape in {"ranges": (1 + scal.shape[1],), "chol": (n, n)}.items():
            if name not in arrays or arrays[name].shape != shape:
                raise ValidationError(f"array {name!r} must have shape {shape}")
        ranges, chol = arrays["ranges"], arrays["chol"]
        check_parameters(ranges=ranges, nugget=nugget)
    except SwwlError as exc:
        raise refusal(path, str(exc)) from exc
    if not np.all(np.diag(chol) > 0):
        raise refusal(path, "'chol' must have a positive diagonal")
    if np.triu(chol, 1).any():
        raise refusal(path, "'chol' must be lower triangular")
    # 8 evenly spaced rows of chol chol^T against R rebuilt from the inputs,
    # plus the nugget where row i meets its own record's column rows[i]
    rows = np.linspace(0, n - 1, min(n, 8)).round().astype(int)
    stored = chol[rows] @ chol.T
    rebuilt = _correlation(sq_distances(feats[rows], feats),
                           scalar_abs_distances(scal[rows], scal), ranges)
    rebuilt[np.arange(len(rows)), rows] += nugget
    if np.max(np.abs(stored - rebuilt)) > 1e-8 * np.max(np.abs(stored)):
        raise refusal(path, "'chol' does not factor R + nugget * I at the stored 'ranges'")
    fp = header.get("fingerprint")
    return dict(ranges=ranges, nugget=nugget, chol=chol, targets=targets, train_features=feats,
                train_scalars=scal, train_ids=ids,
                fingerprint=None if fp is None else PqFingerprint.from_dict(fp, path))


def write_predictions_csv(path, ids: list[str], dist: PredictiveDistribution) -> None:
    """Prediction table with mean, Student-t scale and 95% interval bounds."""
    lo, hi = dist.interval()
    sd = dist.standard_errors()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "mean", "scale", "lo95", "hi95"])
        for i, rec_id in enumerate(ids):
            writer.writerow(
                [
                    rec_id,
                    f"{dist.mean[i]:.17g}",
                    f"{sd[i]:.17g}",
                    f"{lo[i]:.17g}",
                    f"{hi[i]:.17g}",
                ]
            )
