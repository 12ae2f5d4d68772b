"""Batched dataset embedding against the per-graph reference."""

import threading
from pathlib import Path

import numpy as np
import pytest

import swwl.kernels

from swwl import AttributedGraph, Dataset, GraphRecord, WlConfig, compute_standardization
from swwl import pipeline
from swwl.errors import ValidationError
from swwl.graphs import disjoint_union
from swwl.pipeline import _batches, embed_dataset
from swwl.sliced import load_pq_store, save_pq_store

from oracles import embed_dataset_per_graph
from test_sliced import _assert_same_store

CONFIG = WlConfig(iterations=(0, 1, 3))
KWARGS = dict(seed=9, n_projections=5, n_quantiles=7)


def _graph(rng, n, edge_share, d=2):
    """n nodes; each pair is an edge with probability ``edge_share``."""
    pairs = np.array([[u, v] for u in range(n) for v in range(u + 1, n)]).reshape(-1, 2)
    edges = pairs[rng.random(len(pairs)) < edge_share]
    weights = rng.uniform(0.2, 2.0, len(edges))
    return AttributedGraph(rng.standard_normal((n, d)), edges, weights)


def _dataset(graphs, rng=None):
    rng = rng or np.random.default_rng(0)
    return Dataset(records=tuple(
        GraphRecord(graph=g, scalars=rng.standard_normal(2), target=float(i), id=f"g{i}")
        for i, g in enumerate(graphs)
    ))


def _random_dataset(seed, node_counts, edge_share=0.3):
    rng = np.random.default_rng(seed)
    return _dataset([_graph(rng, n, edge_share) for n in node_counts], rng)


def _assert_matches_per_graph(dataset, jobs=1, **kwargs):
    kwargs = {**KWARGS, **kwargs}
    batched = embed_dataset(dataset, CONFIG, jobs=jobs, **kwargs)
    _assert_same_store(batched, embed_dataset_per_graph(dataset, CONFIG, **kwargs))


def test_disjoint_union_shifts_each_graph():
    rng = np.random.default_rng(1)
    graphs = [_graph(rng, n, 0.5) for n in (3, 1, 4)]
    union, offsets = disjoint_union(graphs)
    assert offsets.tolist() == [0, 3, 4, 8]
    assert np.array_equal(union.attributes, np.vstack([g.attributes for g in graphs]))
    assert np.array_equal(
        union.edges, np.vstack([g.edges + off for g, off in zip(graphs, offsets)])
    )
    assert np.array_equal(union.weights, np.concatenate([g.weights for g in graphs]))
    assert np.array_equal(union.degrees, np.concatenate([g.degrees for g in graphs]))


@pytest.mark.parametrize(
    "counts, budget, expected",
    [
        ([10, 20, 30, 5, 25], 30, [(0, 2), (2, 3), (3, 5)]),  # splits exactly at the budget
        ([10, 21, 9], 30, [(0, 1), (1, 3)]),
        ([5, 50, 5, 5], 30, [(0, 1), (1, 2), (2, 4)]),  # a larger graph alone
        ([50], 30, [(0, 1)]),
        ([1] * 4, 30, [(0, 4)]),
    ],
)
def test_batches_are_consecutive_and_within_the_budget(monkeypatch, counts, budget, expected):
    monkeypatch.setattr(pipeline, "_BATCH_NODES", budget)
    assert _batches(np.array(counts)) == expected


def test_graphs_without_edges_and_isolated_nodes(monkeypatch):
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 12)
    rng = np.random.default_rng(2)
    graphs = [
        _graph(rng, 1, 0.0),  # a single node
        _graph(rng, 5, 0.0),  # no edges
        AttributedGraph(rng.standard_normal((6, 2)), [[0, 1], [1, 2]]),  # 3 isolated
        _graph(rng, 7, 0.4),
        _graph(rng, 4, 0.0),
        AttributedGraph(rng.standard_normal((3, 2)), [[2, 0]]),
    ]
    dataset = _dataset(graphs, rng)
    assert len(_batches(dataset.node_counts())) > 1
    _assert_matches_per_graph(dataset)


def test_graph_larger_than_the_budget():
    rng = np.random.default_rng(3)
    n = pipeline._BATCH_NODES + 100
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    big = AttributedGraph(rng.standard_normal((n, 2)), ring, rng.uniform(0.5, 1.5, n))
    dataset = _dataset([_graph(rng, 30, 0.3), big, _graph(rng, 20, 0.3)], rng)
    assert _batches(dataset.node_counts()) == [(0, 1), (1, 2), (2, 3)]
    _assert_matches_per_graph(dataset)


def test_batches_split_exactly_at_the_budget(monkeypatch):
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 30)
    dataset = _random_dataset(4, [10, 20, 30, 5, 25, 12, 18])
    assert _batches(dataset.node_counts()) == [(0, 2), (2, 3), (3, 5), (5, 7)]
    _assert_matches_per_graph(dataset, jobs=2)


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("per_iteration", [False, True])
def test_per_iteration_and_standardization(monkeypatch, per_iteration, standardize):
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 40)
    dataset = _random_dataset(5, [12, 9, 15, 11, 8, 14, 10])
    stats = compute_standardization(dataset) if standardize else None
    _assert_matches_per_graph(dataset, per_iteration=per_iteration, standardization=stats)


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_every_jobs_count_gives_the_same_store(monkeypatch, jobs):
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 25)
    dataset = _random_dataset(6, np.random.default_rng(6).integers(1, 20, 30))
    assert len(_batches(dataset.node_counts())) > 8
    _assert_matches_per_graph(dataset, jobs=jobs, per_iteration=True)


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_jobs_share_the_usable_cpus_threads(monkeypatch, jobs):
    # on 2 usable CPUs no jobs count starts more than 2 threads, and one job
    # runs inline
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 25)
    dataset = _random_dataset(6, np.random.default_rng(6).integers(1, 20, 30))
    want = embed_dataset(dataset, CONFIG, per_iteration=True, **KWARGS)
    monkeypatch.setattr(swwl.kernels, "usable_cpus", lambda: 2)
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    got = embed_dataset(dataset, CONFIG, per_iteration=True, jobs=jobs, **KWARGS)
    monkeypatch.undo()
    assert len(started) <= 2
    assert (len(started) == 0) == (jobs == 1)
    assert len(got.blocks) == len(want.blocks) == 4
    for a, b in zip(got.blocks, want.blocks):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_is_refused(jobs):
    with pytest.raises(ValidationError, match="jobs must be at least 1"):
        embed_dataset(_random_dataset(7, [4, 5]), CONFIG, jobs=jobs, **KWARGS)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", "9"), ("n_projections", 5.0), ("n_projections", True),
    ("n_quantiles", 7.0), ("n_quantiles", np.True_),
])
def test_a_seed_or_count_that_is_not_an_integer_is_refused(name, value):
    # seed=1.5 was fingerprinted as seed 1; the others raised a bare TypeError
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
        embed_dataset(_random_dataset(7, [4, 5]), CONFIG, **{**KWARGS, name: value})


def test_numpy_integers_give_the_store_of_python_ints(tmp_path):
    dataset = _random_dataset(7, [4, 5])
    want = embed_dataset(dataset, CONFIG, **KWARGS)
    got = embed_dataset(dataset, CONFIG, seed=np.int64(9), n_projections=np.int32(5),
                        n_quantiles=np.uint8(7))
    _assert_same_store(got, want)
    # the store saves: its fingerprint holds JSON integers
    save_pq_store(tmp_path, got)
    assert load_pq_store(tmp_path).fingerprints == want.fingerprints


def test_nonpositive_weight_warning_is_emitted():
    graphs = [AttributedGraph(np.ones((3, 1)), [[0, 1]]),
              AttributedGraph(np.zeros((2, 1)), [[0, 1]], [-1.0])]
    with pytest.warns(UserWarning, match="non-positive"):
        embed_dataset(_dataset(graphs), CONFIG, **KWARGS)


def test_library_dataset_ids_round_trip_through_a_saved_store(tmp_path):
    dataset = _random_dataset(2, [3, 5, 4])
    save_pq_store(tmp_path, embed_dataset(dataset, CONFIG, **KWARGS))
    assert list(load_pq_store(tmp_path).ids) == dataset.ids == ["g0", "g1", "g2"]


def test_the_readme_library_example_runs_as_written():
    # README's first python block, executed as a reader would paste it
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    lo, hi = namespace["lo"], namespace["hi"]
    assert lo.shape == hi.shape == (30,) and np.all(lo < hi)
