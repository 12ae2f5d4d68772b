"""Robust GP: profile statistics, fitting, prediction, equivariances."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import HealthCheck, example, given, settings, strategies as st

from swwl import (
    GpSettings,
    TrainDistances,
    fit,
    load_model,
    marginal_posterior,
    matern52,
    posterior_parts,
    predict,
    q2,
    rmse,
    save_model,
)
from swwl.errors import (
    ConfigMismatchError,
    ConstantTargetError,
    DimensionMismatchError,
    LengthMismatchError,
    OptimizationError,
    ParseError,
    SwwlError,
    ValidationError,
)
from oracles import (
    grid_then_local_search,
    multistart_nelder_mead,
    predict_mean_and_scale,
    two_step_kernel_matrix,
)
import swwl.kernels
from swwl import build_train_distances, gp
from swwl.binio import read_container, write_container
from swwl.gp import DEFAULT_NUGGET, MODEL_MAGIC, jr_prior_rate
from swwl.sliced import PqFingerprint


def identity_distances(n):
    """Graph distances so large that the correlation matrix is the identity."""
    sw_sq = np.full((n, n), 1e8)
    np.fill_diagonal(sw_sq, 0.0)
    return TrainDistances(sw_sq=sw_sq, scalar_abs=None)


class TestPosterior:
    def test_hand_s2_for_identity_correlation(self):
        # R = I, y = (1, 3): S^2 = sum of squared deviations from the mean = 2
        parts = posterior_parts(
            np.log([1.0]), identity_distances(2), np.array([1.0, 3.0]), nugget=0.0
        )
        assert parts.s2 == pytest.approx(2.0, abs=1e-12)
        assert parts.theta_hat == pytest.approx(2.0, abs=1e-12)
        assert parts.log_det == pytest.approx(0.0, abs=1e-12)
        assert parts.h_rinv_h == pytest.approx(2.0, abs=1e-12)

    def test_jr_prior_rate_value(self):
        assert jr_prior_rate(100, 1) == pytest.approx(0.012)

    def test_constant_target_flag(self):
        parts = posterior_parts(
            np.log([1.0]), identity_distances(3), np.array([2.0, 2.0, 2.0]), nugget=0.0
        )
        assert parts.value == -np.inf
        assert parts.flag == "ConstantTarget"

    def test_non_finite_target_refused(self):
        with pytest.raises(ValidationError, match="array 'targets' holds a NaN or infinite"):
            posterior_parts(np.log([1.0]), identity_distances(3), np.array([2.0, np.nan, 1.0]))

    def test_cholesky_failure_scores_minus_infinity(self):
        # duplicated inputs, zero nugget: R is singular
        sw_sq = np.zeros((3, 3))
        distances = TrainDistances(sw_sq=sw_sq, scalar_abs=None)
        value = marginal_posterior(
            np.log([1.0]), distances, np.array([0.0, 1.0, 2.0]), nugget=0.0
        )
        assert value == -np.inf

    def test_prior_decays_at_both_extremes(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (12, 1))
        y = np.sin(3 * x[:, 0])
        distances = build_train_distances(x, None)
        mid = marginal_posterior(np.log([0.3]), distances, y)
        tiny = marginal_posterior(np.log([1e-8]), distances, y)
        huge = marginal_posterior(np.log([1e8]), distances, y)
        assert mid > tiny
        assert mid > huge


def scalar_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, n))[:, None]
    y = np.exp(-np.abs(x[:, 0]))
    return x, y


class TestFit:
    def test_scalar_only_leave_one_out(self):
        # the covariate enters as a Matern factor only: a constant feature
        # column makes every graph distance 0 and the graph factor 1
        x, y = scalar_inputs(30)
        zero = np.zeros((len(y), 1))
        keep_rmse = []
        for i in range(len(y)):
            mask = np.arange(len(y)) != i
            model = fit(
                zero[mask], x[mask], y[mask], settings=GpSettings(multistarts=3, nugget=1e-8)
            )
            dist = predict(model, zero[i : i + 1], x[i : i + 1])
            keep_rmse.append(float(dist.mean[0] - y[i]))
        loo = float(np.sqrt(np.mean(np.square(keep_rmse))))
        assert loo < 0.1 * float(np.std(y))

    def test_duplicate_inputs_zero_nugget_surfaces_cholesky_hint(self):
        x = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 2.0])
        with pytest.raises(OptimizationError, match="nugget"):
            fit(x, None, y, settings=GpSettings(nugget=0.0, multistarts=2))

    def test_constant_targets_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ConstantTargetError):
            fit(x, None, np.ones(3))

    def test_sigma2_matches_quadratic_form(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((12, 6))
        y = rng.standard_normal(12)
        model = fit(feats, None, y, settings=GpSettings(multistarts=2))
        assert model.sigma2_hat >= 0.0
        corr = np.exp(
            -(
                ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(-1)
                / model.ranges[0] ** 2
            )
        ) + model.nugget * np.eye(12)
        rinv = np.linalg.inv(corr)
        h = np.ones(12)
        theta = (h @ rinv @ y) / (h @ rinv @ h)
        resid = y - theta * h
        want = (resid @ rinv @ resid) / (len(y) - 1)
        assert model.sigma2_hat == pytest.approx(want, rel=1e-8)
        assert model.theta_hat == pytest.approx(theta, rel=1e-8)

    def test_local_optimality_of_reported_ranges(self):
        x, y = scalar_inputs(20, seed=2)
        model = fit(x, None, y, settings=GpSettings(multistarts=3))
        distances = build_train_distances(x, None)
        best = marginal_posterior(np.log(model.ranges), distances, y, model.nugget)
        for bump in (0.8, 1.2):
            perturbed = marginal_posterior(
                np.log(model.ranges * bump), distances, y, model.nugget
            )
            assert perturbed <= best + 1e-5


class TestPredict:
    def test_interpolates_training_points_without_nugget(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((15, 4))
        y = np.cos(feats @ np.array([0.5, -0.2, 0.1, 0.3])) + 2.0
        model = fit(feats, None, y, settings=GpSettings(nugget=0.0, multistarts=3))
        dist = predict(model, feats, None)
        assert np.max(np.abs(dist.mean - y)) < 1e-6 * np.max(np.abs(y))
        assert np.max(dist.scale_diagonal()) < 1e-8

    def test_far_point_reverts_to_trend(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((10, 3))
        y = feats @ np.array([1.0, 0.5, -0.5]) + 3.0
        model = fit(feats, None, y, settings=GpSettings(multistarts=2))
        far = feats + 1e6
        dist = predict(model, far, None)
        np.testing.assert_allclose(dist.mean, model.theta_hat, rtol=1e-10)
        want_scale = model.sigma2_hat * (1.0 + 1.0 / model.h_rinv_h)
        np.testing.assert_allclose(dist.scale_diagonal(), want_scale, rtol=1e-8)

    def test_empty_test_set(self):
        x, y = scalar_inputs(8, seed=5)
        model = fit(x, None, y, settings=GpSettings(multistarts=1))
        dist = predict(model, np.zeros((0, 1)), None)
        assert dist.mean.shape == (0,)
        assert dist.scale.shape == (0,)
        assert dist.scale_diagonal().shape == (0,)
        assert all(bound.shape == (0,) for bound in dist.interval())

    @pytest.mark.parametrize("level", [1.5, -0.2, 0.0, 1.0, float("nan")])
    def test_an_interval_level_outside_zero_one_is_refused(self, level):
        # 1.5 gave NaN bounds and -0.2 bounds with lo > hi
        x, y = scalar_inputs(8, seed=5)
        dist = predict(fit(x, None, y, settings=GpSettings(multistarts=1)), x[:3], None)
        with pytest.raises(ValidationError, match=re.escape(f"got {level}")):
            dist.interval(level)

    def test_target_shift_equivariance(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((14, 3))
        y = np.sin(feats.sum(axis=1))
        test = rng.standard_normal((5, 3))
        settings = GpSettings(multistarts=3, seed=11)
        base_model = fit(feats, None, y, settings=settings)
        base = predict(base_model, test, None)
        shift_model = fit(feats, None, y + 7.5, settings=settings)
        shifted = predict(shift_model, test, None)
        np.testing.assert_allclose(shift_model.ranges, base_model.ranges, rtol=1e-10)
        np.testing.assert_allclose(shifted.mean, base.mean + 7.5, atol=1e-10)
        np.testing.assert_allclose(shift_model.sigma2_hat, base_model.sigma2_hat, rtol=1e-10)
        np.testing.assert_allclose(shifted.scale, base.scale, atol=1e-10)

    def test_target_scale_equivariance(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((14, 3))
        y = np.sin(feats.sum(axis=1))
        test = rng.standard_normal((5, 3))
        settings = GpSettings(multistarts=3, seed=11)
        base_model = fit(feats, None, y, settings=settings)
        base = predict(base_model, test, None)
        lam = -2.5
        scaled_model = fit(feats, None, lam * y, settings=settings)
        scaled = predict(scaled_model, test, None)
        np.testing.assert_allclose(scaled_model.ranges, base_model.ranges, rtol=1e-10)
        np.testing.assert_allclose(scaled.mean, lam * base.mean, atol=1e-10)
        np.testing.assert_allclose(
            scaled_model.sigma2_hat, lam**2 * base_model.sigma2_hat, rtol=1e-10
        )

    def test_fingerprint_mismatch_refused(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        fp_train = PqFingerprint(seed=0, n_projections=2, n_quantiles=2, r=2.0, dim=4)
        fp_test = PqFingerprint(seed=1, n_projections=2, n_quantiles=2, r=2.0, dim=4)
        model = fit(feats, None, y, fingerprint=fp_train, settings=GpSettings(multistarts=1))
        with pytest.raises(ConfigMismatchError):
            predict(model, feats, None, fingerprint=fp_test)
        # matching fingerprint passes
        predict(model, feats, None, fingerprint=fp_train)

    def test_coverage_on_smooth_synthetic(self):
        hits = 0
        total = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x = rng.uniform(-2, 2, (25, 1))
            y = np.sin(2.0 * x[:, 0]) + 0.05 * rng.standard_normal(25)
            xt = rng.uniform(-2, 2, (15, 1))
            truth = np.sin(2.0 * xt[:, 0])
            model = fit(x, None, y, settings=GpSettings(multistarts=2, nugget=1e-6, seed=seed))
            lo, hi = predict(model, xt, None).interval(0.95)
            hits += int(np.sum((truth >= lo) & (truth <= hi)))
            total += len(truth)
        assert hits / total >= 0.85


class TestMetricsAndIO:
    def test_rmse_q2_identities(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert rmse(truth, truth) == 0.0
        assert q2(truth, truth) == 1.0
        assert q2(np.full(3, truth.mean()), truth) == pytest.approx(0.0)
        assert rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))
        # constant truth has no spread to explain: only an exact match scores
        assert q2([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert q2([2.0, 2.5], [2.0, 2.0]) == -np.inf

    def test_metric_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatchError):
            q2([1.0], [1.0, 2.0])

    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((12, 5))
        scalars = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        fp = PqFingerprint(seed=5, n_projections=1, n_quantiles=5, r=2.0, dim=5)
        model = fit(
            feats, scalars, y, ids=tuple(f"r{i}" for i in range(12)),
            fingerprint=fp, settings=GpSettings(multistarts=2),
        )
        path = tmp_path / "model.bin"
        save_model(model, path)
        header, arrays = read_container(path, MODEL_MAGIC)
        assert set(header) - {"arrays"} == {
            "n", "nugget", "train_ids", "fingerprint", "swwl_precision_mapping",
        }
        assert set(arrays) == {"ranges", "chol", "targets", "train_features", "train_scalars"}
        back = load_model(path)
        assert back.train_ids == model.train_ids
        assert back.fingerprint == model.fingerprint
        test_feats = rng.standard_normal((4, 5))
        test_scalars = rng.standard_normal((4, 2))
        a = predict(model, test_feats, test_scalars)
        b = predict(back, test_feats, test_scalars)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.scale, b.scale)
        assert a.dof == b.dof
        assert back.theta_hat == model.theta_hat
        assert back.sigma2_hat == model.sigma2_hat
        assert np.array_equal(back.rinv_h, model.rinv_h)
        assert np.array_equal(back.rinv_centered_y, model.rinv_centered_y)

    def test_model_file_with_stored_solve_caches_loads(self, tmp_path):
        # files that also store the derived values (header theta_hat,
        # sigma2_hat, dof, n_ranges; arrays prior_scales, rinv_centered_y,
        # rinv_h) load, and the stored copies are not what predict uses
        features, scalars, y = _fit_inputs()
        model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        header, arrays = read_container(path, MODEL_MAGIC)
        header.update(theta_hat=model.theta_hat + 1.0, sigma2_hat=model.sigma2_hat,
                      dof=model.dof, n_ranges=len(model.ranges))
        arrays.update(prior_scales=np.ones(len(model.ranges)),
                      rinv_centered_y=model.rinv_centered_y, rinv_h=model.rinv_h)
        write_container(path, MODEL_MAGIC, header, arrays)
        back = load_model(path)
        assert back.theta_hat == model.theta_hat
        a = predict(model, features[:4], scalars[:4])
        b = predict(back, features[:4], scalars[:4])
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.scale, b.scale)


    def test_model_without_scalars_stores_no_scalar_array(self, tmp_path):
        features, _, y = _fit_inputs()
        model = fit(features, None, y, settings=GpSettings(multistarts=1))
        assert model.train_scalars.shape == (25, 0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        _, arrays = read_container(path, MODEL_MAGIC)
        assert set(arrays) == {"ranges", "chol", "targets", "train_features"}
        back = load_model(path)
        assert back.train_scalars.shape == (25, 0)
        assert np.array_equal(predict(back, features[:4]).mean, predict(model, features[:4]).mean)

    def test_scalar_only_model_file_is_refused(self, tmp_path):
        # a model on scalar covariates alone, as earlier releases wrote them:
        # one range per covariate and no training features
        features, scalars, y = _fit_inputs()
        model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        header, arrays = read_container(path, MODEL_MAGIC)
        del arrays["train_features"]
        arrays["ranges"] = arrays["ranges"][1:]
        write_container(path, MODEL_MAGIC, header, arrays)
        with pytest.raises(ParseError, match="no 'train_features'"):
            load_model(path)


def _set(mapping, key, value):
    mapping[key] = value


def _other_nugget_factor(chol, extra):
    """The factor of chol chol^T + extra * I."""
    return np.linalg.cholesky(chol @ chol.T + extra * np.eye(len(chol)))


def _first_records(header, arrays, k):
    """Keep the first k training records, a model consistent in every shape."""
    header["n"], header["train_ids"] = k, header["train_ids"][:k]
    for name in ("targets", "train_features", "train_scalars"):
        arrays[name] = arrays[name][:k]
    arrays["chol"] = arrays["chol"][:k, :k]


@pytest.mark.parametrize(
    "damage",
    [
        lambda h, a: h.pop("nugget"),
        lambda h, a: _set(h, "nugget", "1e-8"),
        lambda h, a: h.pop("train_ids"),
        lambda h, a: _set(h, "train_ids", ["r0"]),
        lambda h, a: _set(h, "n", "12"),
        lambda h, a: a.pop("ranges"),
        lambda h, a: _set(a, "ranges", np.ones(2)),
        lambda h, a: _set(a, "chol", np.eye(11)),
        lambda h, a: _set(a, "targets", np.ones(13)),
        lambda h, a: _set(a, "train_scalars", np.ones((11, 2))),
        lambda h, a: _set(a, "train_features", np.ones(60)),
        lambda h, a: (a.pop("train_features"), a.pop("train_scalars")),
        lambda h, a: _set(h, "nugget", float("nan")),
        lambda h, a: _set(a, "rinv_h", np.full(12, np.inf)),
        lambda h, a: _set(a, "chol", np.where(np.eye(12) > 0, np.nan, a["chol"])),
        lambda h, a: _set(a, "train_features", np.full((12, 5), -np.inf)),
        lambda h, a: _set(a, "ranges", np.array([np.nan, 1.0, 1.0])),
        lambda h, a: a["chol"].__setitem__((4, 4), 0.0),
        lambda h, a: a["chol"].__setitem__((4, 4), -a["chol"][4, 4]),
        lambda h, a: _set(a, "targets", np.full(12, 0.5)),
        lambda h, a: _set(h, "train_ids", [1, {"a": 2}, None, [3]] + h["train_ids"][4:]),
        lambda h, a: _first_records(h, a, 0),
        lambda h, a: _first_records(h, a, 1),
        lambda h, a: _first_records(h, a, 2),
        lambda h, a: a.pop("train_features"),
        lambda h, a: h["train_ids"].__setitem__(5, h["train_ids"][0]),
        lambda h, a: _set(h, "nugget", 10**400),
        lambda h, a: _set(h, "nugget", -5.0),
        lambda h, a: a["ranges"].__setitem__(1, 0.0),
        lambda h, a: a["ranges"].__setitem__(0, -a["ranges"][0]),
        lambda h, a: a["chol"].__setitem__((3, 7), 1e-3),
        # a factor of R at other ranges, and of R + 1e-3 * I
        lambda h, a: a["ranges"].__imul__(10.0),
        lambda h, a: _set(a, "chol", _other_nugget_factor(a["chol"], 1e-3)),
    ],
    ids=["no-nugget", "nugget-str", "no-ids", "ids-vs-n", "n-str",
         "no-ranges", "ranges-count", "chol-shape", "targets-length",
         "scalar-rows", "features-1d", "no-inputs", "nugget-nan",
         "rinv-h-inf", "chol-nan", "features-inf", "ranges-nan",
         "chol-zero-diagonal", "chol-negative-diagonal", "constant-targets",
         "ids-not-str", "n-0", "n-1", "n-2", "no-features", "ids-repeated", "nugget-huge-int",
         "nugget-negative", "range-zero", "range-negative", "chol-not-lower",
         "ranges-times-10", "chol-other-nugget"],
)
def test_malformed_model_is_parse_error(tmp_path, damage):
    rng = np.random.default_rng(10)
    model = fit(
        rng.standard_normal((12, 5)), rng.standard_normal((12, 2)),
        rng.standard_normal(12), settings=GpSettings(multistarts=1),
    )
    path = tmp_path / "model.bin"
    save_model(model, path)
    header, arrays = read_container(path, MODEL_MAGIC)
    damage(header, arrays)
    write_container(path, MODEL_MAGIC, header, arrays)
    with pytest.raises(ParseError):
        load_model(path)


@st.composite
def _training_sets(draw):
    """1-6 records of 1-3 wide features, 0-2 scalars, small integer targets
    (often all equal), ids None or drawn from a few strings and integers,
    and at times one NaN in the features, scalars or targets."""
    n, width, m = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    cells = st.integers(-2, 2).map(float)
    features = np.array(draw(st.lists(cells, min_size=n * width, max_size=n * width)))
    scalars = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)))
    targets = np.array(draw(st.lists(st.integers(0, 2).map(float), min_size=n, max_size=n)))
    arrays = {"features": features.reshape(n, width), "scalars": scalars.reshape(n, m),
              "targets": targets}
    nan_in = draw(st.sampled_from([None, "features", "scalars", "targets"]))
    if nan_in is not None and arrays[nan_in].size:
        arrays[nan_in].flat[draw(st.integers(0, arrays[nan_in].size - 1))] = np.nan
    ids = draw(st.none() | st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", 0, 1]),
                                    min_size=n, max_size=n))
    return arrays["features"], arrays["scalars"] if m else None, arrays["targets"], ids


class _Scored(Exception):
    """fit reached its first posterior evaluation."""


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_training_sets())
# the smallest set each side of the 3-record rule
@example((np.array([[0.0], [1.0]]), None, np.array([0.0, 1.0]), None))
@example((np.array([[0.0], [1.0], [2.0]]), None, np.array([0.0, 1.0, 0.0]), None))
def test_load_model_refuses_exactly_the_sets_fit_refuses(tmp_path, drawn):
    features, scalars, targets, ids = drawn
    nugget = 0.1  # a factor exists even for repeated rows
    try:
        with mock.patch.object(gp._Search, "score", side_effect=_Scored):
            fit(features, scalars, targets, ids=ids, settings=GpSettings(nugget=nugget))
    except _Scored:
        fit_refused = False
    except SwwlError:
        fit_refused = True
    # the same set as save_model writes it, with the factor of R + nugget * I
    # at unit ranges (built from finite stand-ins where the set holds a NaN)
    m = 0 if scalars is None else scalars.shape[1]
    finite_scalars = np.zeros((len(targets), 0)) if scalars is None else np.nan_to_num(scalars)
    corr = swwl.kernels.correlation_from_distances(
        scipy.spatial.distance.cdist(*[np.nan_to_num(features)] * 2, "sqeuclidean"),
        swwl.kernels.scalar_abs_distances(finite_scalars), 1.0, np.ones(m), nugget=nugget,
    )
    header = {"n": len(targets), "nugget": nugget, "fingerprint": None,
              "train_ids": [str(i) for i in range(len(targets))] if ids is None else ids}
    arrays = {"ranges": np.ones(1 + m), "chol": np.linalg.cholesky(corr), "targets": targets,
              "train_features": features}
    if m:
        arrays["train_scalars"] = scalars
    path = tmp_path / "drawn.bin"
    write_container(path, MODEL_MAGIC, header, arrays)
    try:
        load_model(path)
        load_refused = False
    except ParseError:
        load_refused = True
    assert fit_refused == load_refused


def test_prior_scales_computed_once_per_fit(monkeypatch):
    calls = []
    original = TrainDistances.mean_scales

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(TrainDistances, "mean_scales", counting)
    rng = np.random.default_rng(11)
    fit(rng.standard_normal((10, 3)), None, rng.standard_normal(10),
        settings=GpSettings(multistarts=2))
    assert len(calls) == 1


def _fit_inputs():
    rng = np.random.default_rng(12)
    return rng.standard_normal((25, 4)), rng.standard_normal((25, 1)), rng.standard_normal(25)


@pytest.mark.parametrize("nugget", [-1e-3, np.nan, np.inf, True, np.bool_(False)])
def test_posterior_parts_refuses_the_nuggets_gp_settings_refuses(nugget):
    with pytest.raises(ValidationError, match="nugget must be finite and nonnegative"):
        GpSettings(nugget=nugget)
    with pytest.raises(ValidationError, match="nugget must be finite and nonnegative"):
        posterior_parts(np.zeros(1), identity_distances(5), np.arange(5.0), nugget)


def test_posterior_parts_refuses_one_target_and_a_wrong_range_count():
    with pytest.raises(ValidationError, match="need at least 2 targets, got 1"):
        posterior_parts(np.zeros(1), identity_distances(1), np.ones(1))
    with pytest.raises(LengthMismatchError, match="2 ranges for 1 coordinates"):
        posterior_parts(np.zeros(2), identity_distances(3), np.arange(3.0))


@pytest.mark.parametrize("with_scalars", [False, True])
def test_fit_factors_the_two_step_correlation_matrix(with_scalars):
    # the model's factor is the Cholesky factor of R + nugget * I at the
    # optimum, R computed bit for bit as the reference arithmetic does it
    features, scalars, y = _fit_inputs()
    scalars = scalars if with_scalars else None
    model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
    distances = build_train_distances(features, scalars)
    r = model.ranges
    want = two_step_kernel_matrix(
        distances.sw_sq, distances.scalar_abs, 1.0 / (r[0] * r[0]), r[1:], DEFAULT_NUGGET
    )
    got = gp._correlation(distances.sw_sq, distances.scalar_abs, r, DEFAULT_NUGGET)
    assert np.array_equal(got, want)
    assert np.array_equal(np.linalg.cholesky(want), model.chol)


def test_model_with_ranges_times_10_is_refused(tmp_path):
    # the stored factor no longer factors R at the stored ranges; loading it
    # would predict far from the training targets at the training inputs
    features, scalars, y = _fit_inputs()
    path = tmp_path / "model.bin"
    save_model(fit(features, scalars, y, settings=GpSettings(multistarts=1)), path)
    header, arrays = read_container(path, MODEL_MAGIC)
    arrays["ranges"] = 10.0 * arrays["ranges"]
    write_container(path, MODEL_MAGIC, header, arrays)
    with pytest.raises(ParseError, match="'chol' does not factor R \\+ nugget \\* I"):
        load_model(path)


def test_fit_scores_each_point_once(monkeypatch):
    # one range: Brent's first bracket is three grid points already scored
    features, _, y = _fit_inputs()
    settings = GpSettings(multistarts=3)
    calls = []
    original = gp.marginal_posterior

    def recording(log_ranges, *args):
        calls.append(np.asarray(log_ranges).tobytes())
        return original(log_ranges, *args)

    monkeypatch.setattr(gp, "marginal_posterior", recording)
    model = fit(features, None, y, settings=settings)
    assert len(calls) == len(set(calls)) == model.diagnostics.posterior_evaluations
    assert model.diagnostics.repeated_points > 0

    # every call scored afresh; each point's first score is still recorded,
    # as fit reads the best point from the record
    calls.clear()
    monkeypatch.setattr(gp._Search, "__call__",
                        lambda self, x: self.scores.setdefault(x.tobytes(), self.score(x)))
    bypassed = fit(features, None, y, settings=settings)
    assert len(calls) == len(set(calls)) + model.diagnostics.repeated_points
    assert np.array_equal(model.ranges, bypassed.ranges)
    assert model.theta_hat == bypassed.theta_hat
    assert model.sigma2_hat == bypassed.sigma2_hat


@pytest.mark.parametrize("n_scalars", [0, 1])
def test_fit_and_predict_equal_the_reference_formulas(n_scalars):
    features, scalars, y = _fit_inputs()
    scalars = scalars[:, :n_scalars]
    settings = GpSettings(multistarts=2, seed=5)
    model = fit(features[:20], scalars[:20], y[:20], settings=settings)
    distances = build_train_distances(features[:20], scalars[:20])
    log_ranges, parts, scored, repeats, starts = grid_then_local_search(
        distances, y[:20], settings.nugget, settings.multistarts, settings.seed
    )
    assert np.array_equal(model.ranges, np.exp(log_ranges))
    assert np.array_equal(model.chol, parts.chol)
    assert model.diagnostics == gp.FitDiagnostics(
        scored, repeats, 0, parts.value, tuple(gp.StartDiagnostics(*s) for s in starts)
    )
    # R + nugget * I with the nugget added as a scaled identity
    corr = np.exp(-(1.0 / (model.ranges[0] * model.ranges[0])) * distances.sw_sq)
    for dist, ls in zip(distances.scalar_abs, model.ranges[1:]):
        corr = corr * matern52(dist, ls)
    assert np.array_equal(model.chol, np.linalg.cholesky(corr + settings.nugget * np.eye(20)))
    dist = predict(model, features[20:], scalars[20:])
    mean, scale, _ = predict_mean_and_scale(model, features[20:], scalars[20:])
    assert np.array_equal(dist.mean, mean)
    np.testing.assert_allclose(dist.scale, np.diag(scale), rtol=0, atol=1e-12 * model.sigma2_hat)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_range_optimum_matches_five_start_reference(seed):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((40, 6))
    y = np.sin(features @ rng.standard_normal(6)) + 0.05 * rng.standard_normal(40)
    model = fit(features, None, y)
    want, _ = multistart_nelder_mead(build_train_distances(features, None), y, model.nugget)
    assert model.diagnostics.log_posterior >= want - 1e-6


@pytest.mark.parametrize("n_scalars", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_several_ranges_optimum_matches_five_start_reference(n_scalars, seed):
    # targets vary along every covariate, so each range has an interior optimum
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(-2.0, 2.0, (40, n_scalars))
    y = np.sin(2.0 * x[:, 0]) + np.cos(3.0 * x[:, 1]) + x[:, 2:].sum(axis=1)
    y = y + 0.01 * rng.standard_normal(40)
    # the first covariate as the graph features, the others as scalars
    model = fit(x[:, :1], x[:, 1:], y)
    want, _ = multistart_nelder_mead(
        build_train_distances(x[:, :1], x[:, 1:]), y, model.nugget
    )
    assert model.diagnostics.log_posterior >= want - 1e-6 * abs(want)


def test_default_one_range_fit_scores_at_most_20_points(monkeypatch):
    rng = np.random.default_rng(13)
    features = rng.standard_normal((60, 8))
    y = np.cos(features[:, :3].sum(axis=1))
    calls = set()
    original = gp.marginal_posterior

    def recording(log_ranges, *args):
        calls.add(np.asarray(log_ranges).tobytes())
        return original(log_ranges, *args)

    monkeypatch.setattr(gp, "marginal_posterior", recording)
    model = fit(features, None, y)
    # 9 grid points and 10 from Brent on this data
    assert len(calls) == model.diagnostics.posterior_evaluations <= 20


@pytest.mark.parametrize("n", [18, 20, 22])
def test_one_range_optimum_beyond_the_grid_matches_five_start_reference(n):
    # inputs spaced geometrically, targets linear in their log: the many small
    # gaps set the mean distance, the targets vary on the scale of the widest
    x = 1.5 ** np.arange(float(n))[:, None]
    y = np.log(x[:, 0])
    distances = build_train_distances(x, None)
    model = fit(x, None, y)
    last = np.log(distances.prior_scales[0]) + gp.GRID_SHIFTS[-1]
    assert np.log(model.ranges[0]) > last
    want, _ = multistart_nelder_mead(distances, y, model.nugget)
    assert model.diagnostics.log_posterior >= want - 1e-6


def test_diagnostics_record_each_start():
    features, _, y = _fit_inputs()
    model = fit(features, None, y, settings=GpSettings(multistarts=3, seed=2))
    diag = model.diagnostics
    assert len(diag.starts) == 3
    # the grid's 9 points are counted in no start
    assert sum(s.posterior_evaluations for s in diag.starts) + 9 == diag.posterior_evaluations
    assert max(s.log_posterior for s in diag.starts) == diag.log_posterior
    assert all(0 < s.posterior_evaluations <= gp.MAX_EVALS for s in diag.starts)


@pytest.mark.parametrize("nugget", [0.0, 1e-8])
def test_unbracketed_and_cut_short_one_range_starts_finish(monkeypatch, nugget):
    # the extra starts search downhill for a bracket first; with zero nugget the
    # widest ranges make R singular and score -inf; two calls cut every start short
    rng = np.random.default_rng(3)
    features = rng.standard_normal((30, 2))
    y = np.cos(features.sum(axis=1)) + 2.0
    settings = GpSettings(nugget=nugget, multistarts=4, seed=1)
    full = fit(features, None, y, settings=settings)
    assert (full.diagnostics.failed_points > 0) == (nugget == 0.0)
    assert [s.log_posterior is not None for s in full.diagnostics.starts] == [True] * 4
    monkeypatch.setattr(gp, "MAX_EVALS", 2)
    short = fit(features, None, y, settings=settings)
    assert all(s.posterior_evaluations <= 2 for s in short.diagnostics.starts)
    assert short.diagnostics.log_posterior <= full.diagnostics.log_posterior


def test_extra_starts_follow_the_seed(monkeypatch):
    features, _, y = _fit_inputs()
    starts = []
    original = gp.scipy.optimize.minimize

    def recording(fun, x0, **kwargs):
        starts.append(np.array(x0))
        return original(fun, x0, **kwargs)

    monkeypatch.setattr(gp.scipy.optimize, "minimize", recording)
    runs = {}
    for seed in (3, 4):
        starts.clear()
        fit(features, None, y, settings=GpSettings(multistarts=3, seed=seed))
        runs[seed] = list(starts)
    center = np.log(build_train_distances(features, None).prior_scales)
    for seed, x0s in runs.items():
        assert len(x0s) == 3
        rng = np.random.Generator(np.random.Philox(key=seed))
        for x0 in x0s[1:]:
            np.testing.assert_array_equal(x0, center + rng.uniform(-2.0, 2.0, 1))
    assert not np.array_equal(runs[3][1], runs[4][1])
    np.testing.assert_array_equal(runs[3][0], runs[4][0])  # the best grid point


def test_diagnostics_count_failures_and_report_the_optimum(monkeypatch):
    # zero nugget: the widest ranges tried make R singular and score -inf
    rng = np.random.default_rng(3)
    features = rng.standard_normal((30, 2))
    y = np.cos(features.sum(axis=1)) + 2.0
    values = {}
    original = gp.marginal_posterior

    def recording(log_ranges, *args):
        values[np.asarray(log_ranges).tobytes()] = value = original(log_ranges, *args)
        return value

    monkeypatch.setattr(gp, "marginal_posterior", recording)
    model = fit(features, None, y, settings=GpSettings(nugget=0.0, multistarts=2))
    scored = np.array(list(values.values()))
    assert model.diagnostics.failed_points == np.sum(scored == -np.inf) > 0
    assert model.diagnostics.log_posterior == scored.max()


@pytest.mark.parametrize("where", ["targets", "features", "scalars", "nugget"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_refuses_non_finite_inputs(where, bad):
    inputs = dict(zip(("features", "scalars", "targets"), _fit_inputs()))
    nugget = bad if where == "nugget" else 1e-8
    if where != "nugget":
        inputs[where] = inputs[where].copy()
        inputs[where].flat[3] = bad
    match = "nugget must be finite" if where == "nugget" else f"array '{where}' holds a NaN"
    with pytest.raises(ValidationError, match=match):
        fit(inputs["features"], inputs["scalars"], inputs["targets"],
            settings=GpSettings(nugget=nugget, multistarts=1))


@pytest.mark.parametrize("where", ["features", "scalars"])
def test_predict_refuses_non_finite_inputs(where):
    features, scalars, y = _fit_inputs()
    model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
    test = {"features": features[:4].copy(), "scalars": scalars[:4].copy()}
    test[where][1, 0] = np.nan
    with pytest.raises(ValidationError, match=f"array '{where}' holds a NaN or infinite"):
        predict(model, test["features"], test["scalars"])


@pytest.mark.parametrize(
    "settings",
    [{"nugget": -0.5}, {"multistarts": 0}],
    ids=["nugget-negative", "multistarts-0"],
)
def test_settings_refuse_out_of_range_values(settings):
    with pytest.raises(ValidationError):
        GpSettings(**settings)


@pytest.mark.parametrize("nugget", [0, np.float32(0.5), np.int64(2), np.array(1e-6)])
def test_settings_keep_the_nugget_as_a_float(nugget):
    kept = GpSettings(nugget=nugget).nugget
    assert type(kept) is float and kept == float(nugget)


@pytest.mark.parametrize(
    "ids, error",
    [(("a",), LengthMismatchError), (tuple(map(str, range(26))), LengthMismatchError),
     (tuple(range(25)), ValidationError), (("0",) + tuple(map(str, range(24))), ValidationError)],
    ids=["one-id", "one-too-many", "not-strings", "repeated"],
)
def test_fit_refuses_ids_that_do_not_name_each_record(monkeypatch, ids, error):
    # refused before the search starts, rather than saved as a model load_model refuses
    features, _, y = _fit_inputs()
    monkeypatch.setattr(gp, "build_train_distances", None)
    with pytest.raises(error, match="ids"):
        fit(features, None, y, ids=ids)


def test_predict_refuses_scalars_the_model_was_not_trained_with():
    features, scalars, y = _fit_inputs()
    model = fit(features, None, y, settings=GpSettings(multistarts=1))
    with pytest.raises(LengthMismatchError, match="1 given, the model was trained with 0"):
        predict(model, features[:4], scalars[:4])
    no_scalars = predict(model, features[:4], None)
    empty = predict(model, features[:4], np.zeros((4, 0)))
    assert np.array_equal(no_scalars.mean, empty.mean)
    # and the converse: a model with a covariate, test inputs without one
    model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
    for missing in (None, np.zeros((4, 0))):
        with pytest.raises(LengthMismatchError, match="0 given, the model was trained with 1"):
            predict(model, features[:4], missing)


def test_fit_and_predict_refuse_a_missing_feature_matrix():
    features, scalars, y = _fit_inputs()
    with pytest.raises(ValidationError, match="graph features are required"):
        fit(None, scalars, y)
    model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
    with pytest.raises(ValidationError, match="graph features are required"):
        predict(model, None, scalars[:3])
    with pytest.raises(ValidationError, match=r"must be an \(N, W\) matrix"):
        predict(model, features[0], scalars[:1])


def test_predict_refuses_features_of_another_width(monkeypatch):
    features, _, y = _fit_inputs()
    model = fit(features, None, y, settings=GpSettings(multistarts=1))
    rng = np.random.default_rng(5)

    def no_distances(*args, **kwargs):
        raise AssertionError("distances computed before the width check")

    # no fingerprints to compare: the width alone tells the feature spaces apart
    monkeypatch.setattr(gp, "sq_distances", no_distances)
    for width in (3, 5):
        with pytest.raises(
            DimensionMismatchError, match=f"{width} wide, the model was trained on 4-wide"
        ) as info:
            predict(model, rng.standard_normal((2, width)))
        assert info.value.exit_code == 2


def test_fit_keeps_the_factor_of_the_best_point_scored(monkeypatch):
    features, scalars, y = _fit_inputs()
    calls = []
    original = np.linalg.cholesky

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    model = fit(features, scalars, y, settings=GpSettings(multistarts=2))
    # one factorization per scored point, and one more at the optimum: the
    # search keeps scores, not factors
    assert len(calls) == model.diagnostics.posterior_evaluations + 1
    monkeypatch.undo()
    distances = build_train_distances(features, scalars)
    parts = posterior_parts(np.log(model.ranges), distances, y, model.nugget)
    assert np.array_equal(model.chol, parts.chol)
    assert model.diagnostics.log_posterior == parts.value


@pytest.mark.parametrize("n_scalars", [0, 2])
def test_fit_calls_each_probed_name_once_per_scored_point(monkeypatch, n_scalars):
    """perfbench/spans.py times the search through these names: one
    marginal_posterior call per scored point, one mean_scales call, and one
    Cholesky factorization per scored point plus the winner's."""
    features, scalars, y = _fit_inputs()
    scalars = np.hstack([scalars, np.cos(scalars)])[:, :n_scalars]
    calls = {"marginal_posterior": 0, "mean_scales": 0, "cholesky": 0}
    for owner, name in ((gp, "marginal_posterior"), (TrainDistances, "mean_scales"),
                        (np.linalg, "cholesky")):
        def counting(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    scored = fit(features, scalars, y, settings=GpSettings(multistarts=2)).diagnostics
    assert calls == {"marginal_posterior": scored.posterior_evaluations, "mean_scales": 1,
                     "cholesky": scored.posterior_evaluations + 1}


def test_fit_holds_three_training_matrices_at_its_peak():
    """The distances, one candidate's correlation matrix and its factor:
    the search keeps no factor beside them (4 matrices when it kept the
    best one's)."""
    n = 400
    rng = np.random.default_rng(15)
    features = rng.standard_normal((n, 50))
    y = np.sin(features[:, :5].sum(axis=1))
    fit(features[:40], None, y[:40])  # first calls allocate lasting caches
    tracemalloc.start()
    try:
        fit(features, None, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("n_scalars", [0, 2])
def test_predictions_of_a_row_do_not_depend_on_its_solve_chunk(n_scalars):
    """With one test row, one full variance-solve chunk and one row more:
    each row's mean and scale agree with those it gets among 65 test rows
    within rounding, and a rerun repeats them bit for bit."""
    chunk = gp.PREDICT_CHUNK_ROWS
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((30 + chunk + 1, 300)) + 3.0
    scalars = rng.standard_normal((len(feats), n_scalars)) if n_scalars else None
    y = np.sin(feats[:, :5].sum(axis=1))
    model = fit(feats[:30], None if scalars is None else scalars[:30], y[:30],
                settings=GpSettings(multistarts=1))

    def run(n_test):
        test = slice(30, 30 + n_test)
        return predict(model, feats[test], None if scalars is None else scalars[test])

    full = run(chunk + 1)
    for n_test in (1, chunk, chunk + 1):
        first, again = run(n_test), run(n_test)
        assert np.array_equal(first.mean, again.mean)
        assert np.array_equal(first.scale, again.scale)
        # a row's distances and mean come out of a BLAS call of another
        # shape (5.9e-14 apart here); its variance is 1 minus terms near 1,
        # so its scale keeps fewer digits
        np.testing.assert_allclose(first.mean, full.mean[:n_test], rtol=1e-12, atol=0)
        np.testing.assert_allclose(first.scale, full.scale[:n_test], rtol=1e-10, atol=0)


def test_predict_makes_one_cross_distance_call(monkeypatch):
    """The whole N* x N cross matrix in one call, and no test x test call."""
    chunk = gp.PREDICT_CHUNK_ROWS
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((30 + 2 * chunk + 1, 20))
    model = fit(feats[:30], None, np.sin(feats[:, 0])[:30], settings=GpSettings(multistarts=1))
    test = feats[30:]
    calls = []

    def recording(x, y=None):
        calls.append((x, y))
        return swwl.kernels.sq_distances(x, y)

    monkeypatch.setattr(gp, "sq_distances", recording)
    mean = predict(model, test).mean
    assert len(calls) == 1
    x, y = calls[0]
    assert np.array_equal(x, test) and y is model.train_features
    monkeypatch.undo()
    assert np.array_equal(mean, predict(model, test).mean)


def test_fit_and_predict_reach_the_distances_through_pdist_and_cdist(monkeypatch):
    """perfbench/spans.py times the distance layer by wrapping the module
    names ``kernels.pdist`` and ``kernels.cdist``: fit's training matrix is
    one pdist call and predict's cross matrix one cdist call."""
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((40, 20))
    calls = []
    for name in ("pdist", "cdist"):
        def recording(*arrays, _name=name, _original=getattr(swwl.kernels, name)):
            calls.append((_name, [a.shape for a in arrays]))
            return _original(*arrays)

        monkeypatch.setattr(swwl.kernels, name, recording)
    model = fit(feats[:30], None, np.sin(feats[:30, 0]), settings=GpSettings(multistarts=1))
    assert calls == [("pdist", [(30, 20)])]
    predict(model, feats[30:])
    assert calls[1:] == [("cdist", [(10, 20), (30, 20)])]


@pytest.mark.parametrize("case", ["training inputs, zero nugget", "repeated test rows"])
def test_variances_match_the_old_floor_where_it_clipped(case):
    """Where the test scale matrix is singular, rounding gives it negative
    eigenvalues that the old full-matrix floor clipped; the per-point
    variances still equal its diagonal."""
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((15, 4))
    y = np.cos(feats @ np.array([0.5, -0.2, 0.1, 0.3])) + 2.0
    if case == "training inputs, zero nugget":
        model = fit(feats, None, y, settings=GpSettings(nugget=0.0))
        test = feats
    else:
        model = fit(feats, None, y)
        test = np.repeat(feats[:3] + 0.1, 4, axis=0)
    dist = predict(model, test)
    mean, scale, clipped = predict_mean_and_scale(model, test, np.zeros((len(test), 0)))
    assert clipped > 0
    assert np.array_equal(dist.mean, mean)
    np.testing.assert_allclose(dist.scale, np.diag(scale), rtol=0, atol=1e-12 * model.sigma2_hat)


def test_variances_below_zero_are_clamped_and_counted():
    """Inputs so far apart that R = I, and a model built by hand on the
    factor of (1 - eps) * I, which no fit returns: a training input's
    variance is 1 - 1/(1 - eps) + eps^2 / ((1 - eps) N), below 0, and a far
    input's is 1 + (1 - eps)/N."""
    n, eps = 6, 1e-3
    feats = 1e4 * np.arange(n, dtype=float)[:, None]

    def model(chol):
        return gp.GpModel(ranges=np.ones(1), nugget=0.0, chol=chol, targets=np.arange(n) % 3.0,
                          train_features=feats, train_scalars=np.zeros((n, 0)),
                          train_ids=tuple(map(str, range(n))), fingerprint=None)

    shrunk = model(np.sqrt(1.0 - eps) * np.eye(n))
    assert -eps / (1.0 - eps) + eps * eps / ((1.0 - eps) * n) < 0
    test = np.vstack([feats, feats[-1:] + 1e4])
    dist = predict(shrunk, test)
    assert dist.floored == n
    assert np.array_equal(dist.scale[:n], np.zeros(n))
    np.testing.assert_allclose(dist.scale[n], shrunk.sigma2_hat * (1.0 + (1.0 - eps) / n),
                               rtol=1e-12)
    assert predict(model(np.eye(n)), test).floored == 0


def test_predict_memory_is_linear_in_test_rows():
    """The peak traced allocation of predict grows with N*, not N*^2."""
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((40, 8))
    model = fit(feats, None, np.sin(feats[:, 0]), settings=GpSettings(multistarts=1))
    test = rng.standard_normal((4000, 8))
    peaks = {}
    for n_test in (1000, 4000):
        tracemalloc.start()
        predict(model, test[:n_test])
        peaks[n_test] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[4000] < 4.5 * peaks[1000], peaks
