"""Values of the wrong type or holding a NaN are refused at the library's
entry points with a ValidationError naming the argument, never with a
numpy or LAPACK error, nor with a NaN result."""

import re

import numpy as np
import pytest

from swwl import AttributedGraph, Dataset, GraphRecord, WlConfig
from swwl.errors import ValidationError
from swwl.gp import GpSettings, TrainDistances, fit, posterior_parts, predict
from swwl.kernels import KernelConfig, assemble_gram, check_psd
from swwl.pipeline import embed_dataset


def _dataset(n=3):
    rng = np.random.default_rng(0)
    return Dataset(records=tuple(
        GraphRecord(graph=AttributedGraph(rng.standard_normal((3, 2)), [[0, 1]]),
                    scalars=np.zeros(0), target=float(i), id=f"g{i}")
        for i in range(n)
    ))


def _embed(**kwargs):
    kwargs = {"seed": 9, "n_projections": 3, "n_quantiles": 4, **kwargs}
    return embed_dataset(_dataset(), WlConfig(iterations=(0, 1)), **kwargs)


def _gram_with_nan_scalar():
    scalars = np.array([[0.0], [np.nan], [1.0]])
    assemble_gram(_embed(), scalars, KernelConfig(matern_lengthscales=(1.0,)))


def _fit_inputs():
    rng = np.random.default_rng(12)
    return rng.standard_normal((6, 4)), rng.standard_normal((6, 1)), rng.standard_normal(6)


def _fit_with_nan_target():
    features, scalars, y = _fit_inputs()
    y[3] = np.nan
    fit(features, scalars, y, settings=GpSettings(multistarts=1))


def _posterior_with_nan_target():
    sw_sq = np.full((3, 3), 1e8)
    np.fill_diagonal(sw_sq, 0.0)
    posterior_parts(np.zeros(1), TrainDistances(sw_sq, None), np.array([1.0, np.nan, 2.0]))


def _predict_with_infinite_feature():
    features, scalars, y = _fit_inputs()
    model = fit(features, scalars, y, settings=GpSettings(multistarts=1))
    test = features[:2].copy()
    test[1, 2] = np.inf
    predict(model, test, scalars[:2])


SITES = {
    "embed_dataset-seed-array": (lambda: _embed(seed=np.array([3])), "seed must be an integer"),
    "GpSettings-multistarts-array": (
        lambda: GpSettings(multistarts=np.array([2])), "multistarts must be an integer"),
    "KernelConfig-gamma-text": (
        lambda: KernelConfig(gamma="x"), "gamma must be finite and positive"),
    "KernelConfig-matern_lengthscales-text": (
        lambda: KernelConfig(matern_lengthscales=("a",)),
        "matern_lengthscales must be finite and positive"),
    "KernelConfig-matern_lengthscales-nested": (
        lambda: KernelConfig(matern_lengthscales=((1.0, 2.0),)),
        "matern_lengthscales must be finite and positive"),
    "KernelConfig-matern_lengthscales-number": (
        lambda: KernelConfig(matern_lengthscales=2.0),
        "gamma must be one number and matern_lengthscales a sequence of them"),
    "GpSettings-nugget-text": (
        lambda: GpSettings(nugget="a"), "nugget must be finite and nonnegative"),
    "GpSettings-nugget-sequence": (
        lambda: GpSettings(nugget=[1e-8]), "nugget must be one number"),
    "KernelConfig-matern_lengthscales-booleans": (
        lambda: KernelConfig(matern_lengthscales=(True, False)),
        "matern_lengthscales must be finite and positive"),
    "KernelConfig-gamma-array": (
        lambda: KernelConfig(gamma=np.array([0.5, 1.0, 2.0])), "gamma must be one number"),
    "KernelConfig-gamma-list": (lambda: KernelConfig(gamma=[1, 2]), "gamma must be one number"),
    "check_psd-nan-diagonal": (
        lambda: check_psd(np.array([[1.0, 0.0], [0.0, np.nan]])),
        "array 'gram' holds a NaN or infinite entry at index (1, 1)"),
    "check_psd-nan-off-diagonal": (
        lambda: check_psd(np.array([[1.0, np.nan], [0.0, 1.0]])),
        "array 'gram' holds a NaN or infinite entry at index (0, 1)"),
    "assemble_gram-nan-scalar": (
        _gram_with_nan_scalar, "array 'scalars' holds a NaN or infinite entry at index (1, 0)"),
    "fit-nan-target": (
        _fit_with_nan_target, "array 'targets' holds a NaN or infinite entry at index (3,)"),
    "posterior_parts-nan-target": (
        _posterior_with_nan_target, "array 'targets' holds a NaN or infinite entry at index (1,)"),
    "predict-infinite-feature": (
        _predict_with_infinite_feature,
        "array 'features' holds a NaN or infinite entry at index (1, 2)"),
}


@pytest.mark.parametrize("call, message", SITES.values(), ids=SITES)
def test_a_value_of_the_wrong_kind_is_a_validation_error_naming_it(call, message):
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is ValidationError
    assert re.match(re.escape(message), str(caught.value))
