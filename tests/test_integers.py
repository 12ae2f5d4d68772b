"""One integer rule, ``errors.integer``, at every seed, count and level.

Each site refuses a boolean, a float, a string, a one-entry array and a
value out of its range with a ValidationError naming the argument, and a
numpy integer gives the artifact bytes of the equal Python int.
"""

import re
from dataclasses import dataclass

import numpy as np
import pytest

import swwl.cli
from swwl import AttributedGraph, Dataset, GraphRecord, WlConfig
from swwl.errors import ValidationError, integer
from swwl.gp import GpSettings, fit, save_model
from swwl.graphs import save_dataset
from swwl.pipeline import embed_dataset
from swwl.sliced import (
    PHILOX_SEED_MAX,
    EmpiricalMeasure,
    PqStore,
    QuantileGrid,
    pq_embed,
    sample_projection_blocks,
    sample_projections,
    save_pq_store,
)
from swwl.synthetic import generate_regression_dataset


def _dataset():
    rng = np.random.default_rng(0)
    return Dataset(records=tuple(
        GraphRecord(graph=AttributedGraph(rng.standard_normal((n, 2)), [[0, 1]]),
                    scalars=np.zeros(0), target=float(i), id=f"g{i}")
        for i, n in enumerate([3, 4, 2])
    ))


def _store_bytes(tmp_path, store):
    save_pq_store(tmp_path, store)
    return (tmp_path / "embeddings.pq").read_bytes()


def _embed(tmp_path, **kwargs):
    config = WlConfig(iterations=kwargs.pop("iterations", (0, 1)))
    kwargs = {"seed": 9, "n_projections": 3, "n_quantiles": 4, **kwargs}
    return _store_bytes(tmp_path, embed_dataset(_dataset(), config, **kwargs))


def _embed_one(tmp_path, projection_sets, grid):
    """A one-record store of a fixed measure, one block per projection set."""
    measure = EmpiricalMeasure(np.arange(10.0).reshape(5, 2) ** 1.5)
    embeddings = [pq_embed(measure, projections, grid) for projections in projection_sets]
    return _store_bytes(tmp_path, PqStore(
        ids=("m",), blocks=tuple(e.values[None, :] for e in embeddings),
        fingerprints=tuple(e.fingerprint for e in embeddings)))


def _blocks(tmp_path, **kwargs):
    kwargs = {"seed": 42, "n_projections": 3, "dim": 2, "n_blocks": 2, **kwargs}
    return _embed_one(tmp_path, sample_projection_blocks(**kwargs), QuantileGrid(3))


def _model(tmp_path, **kwargs):
    rng = np.random.default_rng(1)
    model = fit(rng.standard_normal((8, 3)), None, rng.standard_normal(8),
                settings=GpSettings(**{"multistarts": 2, "seed": 3, **kwargs}))
    save_model(model, tmp_path / "model.bin")
    return (tmp_path / "model.bin").read_bytes()


def _generated(tmp_path, **kwargs):
    kwargs = {"seed": 4, "n_graphs": 3, "mean_nodes": 6, **kwargs}
    save_dataset(generate_regression_dataset(**kwargs), tmp_path / "ds.jsonl")
    return (tmp_path / "ds.jsonl").read_bytes()


def _cli_generate(tmp_path, flag, value):
    args = swwl.cli.build_parser().parse_args([
        "generate", "--out-train", str(tmp_path / "train.jsonl"),
        "--out-test", str(tmp_path / "test.jsonl"), "--n-train", "3", "--n-test", "2",
        "--nodes", "5"])
    setattr(args, flag, value)
    swwl.cli.cmd_generate(args)
    return (tmp_path / "train.jsonl").read_bytes() + (tmp_path / "test.jsonl").read_bytes()


def _cli_bench_rows(tmp_path, value):
    args = swwl.cli.build_parser().parse_args([
        "bench", "--out", str(tmp_path / "b.csv"), "--nodes", "6", "--graphs", "3",
        "--projections", "2", "--quantiles", "3"])
    args.repeats = value
    # every column but the timing
    return repr([row[:5] + row[6:] for row in swwl.cli._bench_rows(args)]).encode()


@dataclass(frozen=True)
class Site:
    name: str  # the argument the refusal names
    bytes_of: object  # (tmp_path, value) -> the bytes of the artifact made with value
    good: int
    out_of_range: tuple


SITES = {
    "embed_dataset-seed": Site("seed", lambda t, v: _embed(t, seed=v), 9, (-1,)),
    "embed_dataset-n_projections": Site(
        "n_projections", lambda t, v: _embed(t, n_projections=v), 3, (0,)),
    "embed_dataset-n_quantiles": Site(
        "n_quantiles", lambda t, v: _embed(t, n_quantiles=v), 4, (1,)),
    "embed_dataset-jobs": Site("jobs", lambda t, v: _embed(t, jobs=v), 2, (0,)),
    "GpSettings-multistarts": Site(
        "multistarts", lambda t, v: _model(t, multistarts=v), 2, (0,)),
    "GpSettings-seed": Site("seed", lambda t, v: _model(t, seed=v), 3, (-1, PHILOX_SEED_MAX + 1)),
    "generate_regression_dataset-seed": Site("seed", lambda t, v: _generated(t, seed=v), 4, (-1,)),
    "generate_regression_dataset-n_graphs": Site(
        "n_graphs", lambda t, v: _generated(t, n_graphs=v), 3, (0,)),
    "generate_regression_dataset-mean_nodes": Site(
        "mean_nodes", lambda t, v: _generated(t, mean_nodes=v), 6, (1,)),
    "generate_regression_dataset-scalar_dim": Site(
        "scalar_dim", lambda t, v: _generated(t, scalar_dim=v), 1, (-1,)),
    "QuantileGrid-q": Site(
        "q", lambda t, v: _embed_one(t, [sample_projections(1, 3, 2)], QuantileGrid(v)), 5, (1,)),
    "sample_projection_blocks-seed": Site(
        "seed", lambda t, v: _blocks(t, seed=v), 42, (-1, PHILOX_SEED_MAX + 1)),
    "sample_projection_blocks-n_projections": Site(
        "n_projections", lambda t, v: _blocks(t, n_projections=v), 3, (0,)),
    "sample_projection_blocks-dim": Site("dim", lambda t, v: _blocks(t, dim=v), 2, (0,)),
    "sample_projection_blocks-n_blocks": Site(
        "n_blocks", lambda t, v: _blocks(t, n_blocks=v), 2, (0,)),
    "WlConfig-iterations": Site(
        "iterations[1]", lambda t, v: _embed(t, iterations=(0, v)), 2, (-1,)),
    "cli-generate-n_train": Site(
        "--n-train", lambda t, v: _cli_generate(t, "n_train", v), 3, (0,)),
    "cli-generate-n_test": Site("--n-test", lambda t, v: _cli_generate(t, "n_test", v), 2, (0,)),
    "cli-bench-repeats": Site("--repeats", _cli_bench_rows, 2, (0,)),
}


def _bad_values(site):
    """(kind, value) pairs the site must refuse."""
    return [("bool", True), ("float", float(site.good)), ("str", str(site.good)),
            ("array", np.array([site.good]))] + [
        (f"out-of-range-{i}", value) for i, value in enumerate(site.out_of_range)]


@pytest.mark.parametrize("site, kind, value", [
    pytest.param(site, kind, value, id=f"{key}-{kind}")
    for key, site in SITES.items() for kind, value in _bad_values(site)
])
def test_a_bad_integer_is_a_validation_error_naming_the_argument(tmp_path, site, kind, value):
    if kind.startswith("out-of-range"):
        message = rf"{re.escape(site.name)} must be at (least|most) -?\d+, got {value}"
    else:
        message = rf"{re.escape(site.name)} must be an integer, got {re.escape(repr(value))}"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        site.bytes_of(tmp_path, value)


@pytest.mark.parametrize("site", SITES.values(), ids=SITES)
def test_a_numpy_integer_gives_the_bytes_of_the_python_int(tmp_path, site):
    (tmp_path / "py").mkdir()
    (tmp_path / "np").mkdir()
    want = site.bytes_of(tmp_path / "py", site.good)
    assert site.bytes_of(tmp_path / "np", np.int64(site.good)) == want


def test_integer_returns_a_python_int_within_both_bounds():
    assert type(integer("k", np.uint8(7), least=7, most=7)) is int
    assert integer("k", PHILOX_SEED_MAX, most=PHILOX_SEED_MAX) == 2**128 - 1
    for value in (np.True_, np.float64(2.0), None, [1]):
        with pytest.raises(ValidationError, match="^k must be an integer, got "):
            integer("k", value)
