"""Projections, quantiles, embeddings and transport-distance oracles."""

import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from swwl import (
    EmpiricalMeasure,
    ProjectionSet,
    QuantileGrid,
    WlConfig,
    embed_dataset,
    pq_embed,
    sample_projection_blocks,
    sample_projections,
)
from swwl import compute_standardization, pipeline
from swwl.errors import (
    ConfigMismatchError,
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyInputError,
    ParseError,
    ValidationError,
)
from swwl.graphs import StandardizationStats
from swwl.sliced import PQ_STORE_NAME, _unit_rows, load_pq_store, save_pq_store
from swwl.synthetic import generate_regression_dataset
from swwl.wl import embed as wl_embed

from oracles import (
    interp_quantiles,
    naive_quantile,
    naive_sw,
    step_quantiles,
    store_of,
    sw_estimate,
    sw_exact_1d,
    w_exact_tiny,
)


class TestProjections:
    def test_rows_are_unit_norm(self):
        ps = sample_projections(0, 3, 4)
        np.testing.assert_allclose(np.linalg.norm(ps.directions, axis=1), 1.0, atol=1e-12)

    def test_dimension_one_gives_signs(self):
        ps = sample_projections(7, 50, 1)
        assert set(np.unique(ps.directions)) <= {-1.0, 1.0}

    def test_mean_direction_near_zero(self):
        ps = sample_projections(11, 10_000, 3)
        mean = ps.directions.mean(axis=0)
        assert np.all(np.abs(mean) < 0.05)

    def test_bitwise_reproducible(self):
        a = sample_projections(42, 20, 5)
        b = sample_projections(42, 20, 5)
        assert np.array_equal(a.directions, b.directions)
        c = sample_projections(43, 20, 5)
        assert not np.array_equal(a.directions, c.directions)

    def test_blocks_follow_one_stream(self):
        blocks = sample_projection_blocks(3, 4, 2, 3)
        assert [b.block for b in blocks] == [0, 1, 2]
        again = sample_projection_blocks(3, 4, 2, 3)
        for x, y in zip(blocks, again):
            assert np.array_equal(x.directions, y.directions)
        # blocks differ from each other
        assert not np.array_equal(blocks[0].directions, blocks[1].directions)

    def test_degenerate_draw_error(self):
        with pytest.raises(DegenerateDrawError):
            _unit_rows(lambda k: np.zeros((k, 3)), 2, 3)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            sample_projections(0, 0, 3)
        # the block sampler shares the check: no empty direction sets, and no
        # redraws of zero-length directions until DegenerateDrawError
        for n_projections, dim, n_blocks in [(0, 3, 2), (2, 0, 1)]:
            with pytest.raises(ValidationError, match="(n_projections|dim) must be at least 1"):
                sample_projection_blocks(0, n_projections, dim, n_blocks)

    def test_single_set_is_the_first_block_of_the_philox_stream(self):
        ps = sample_projections(42, 20, 5)
        assert ps.block is None and ps.seed == 42
        assert np.array_equal(ps.directions, sample_projection_blocks(42, 20, 5, 3)[0].directions)
        draw = np.random.Generator(np.random.Philox(key=42)).standard_normal((20, 5))
        assert np.array_equal(ps.directions, draw / np.linalg.norm(draw, axis=1)[:, None])


class TestQuantiles:
    def test_grid_levels_exact(self):
        grid = QuantileGrid(5)
        assert np.array_equal(grid.levels, np.arange(5) / 4)
        assert grid.levels[0] == 0.0 and grid.levels[-1] == 1.0
        with pytest.raises(ValidationError):
            QuantileGrid(1)

    def test_interp_example(self):
        # sorted [0,1,2,3]; level 0.5 interpolates rank 1.5
        out = interp_quantiles(np.array([3.0, 0.0, 2.0, 1.0]), QuantileGrid(3))
        np.testing.assert_allclose(out, [0.0, 1.5, 3.0])

    def test_interp_single_point(self):
        out = interp_quantiles(np.array([4.2]), QuantileGrid(4))
        np.testing.assert_array_equal(out, [4.2] * 4)

    def test_interp_endpoints(self):
        out = interp_quantiles(np.array([0.0, 1.0]), QuantileGrid(2))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            interp_quantiles(np.zeros(0), QuantileGrid(3))
        with pytest.raises(EmptyInputError):
            step_quantiles(np.zeros((0,)), np.array([0.5]))

    def test_step_matches_naive_inverse_cdf(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.standard_normal(int(rng.integers(1, 12)))
            levels = np.sort(rng.uniform(0, 1, 7))
            got = step_quantiles(values, levels)
            want = [naive_quantile(values, t) for t in levels]
            np.testing.assert_array_equal(got, want)

    def test_step_level_zero_is_min_one_is_max(self):
        values = np.array([3.0, -1.0, 2.0])
        out = step_quantiles(values, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [-1.0, 3.0])

    def test_step_exact_at_breakpoints(self):
        values = np.array([10.0, 20.0, 30.0, 40.0])
        out = step_quantiles(values, np.array([0.25, 0.5, 0.75, 1.0]))
        np.testing.assert_array_equal(out, values)

    def test_step_columnwise(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((9, 4))
        levels = np.array([0.0, 0.3, 1.0])
        out = step_quantiles(mat, levels)
        assert out.shape == (3, 4)
        for j in range(4):
            np.testing.assert_array_equal(out[:, j], step_quantiles(mat[:, j], levels))


class TestPqEmbedding:
    def test_point_mass_rows_constant(self):
        x = np.array([[0.3, -1.2, 0.5]])
        ps = sample_projections(5, 4, 3)
        grid = QuantileGrid(6)
        emb = pq_embed(EmpiricalMeasure(x), ps, grid, r=2.0)
        quantile_table = emb.values.reshape(6, 4) * (4 * 6) ** 0.5
        expected = ps.directions @ x[0]
        for q in range(6):
            np.testing.assert_allclose(quantile_table[q], expected, atol=1e-12)

    def test_zero_support_gives_zero_vector(self):
        emb = pq_embed(
            EmpiricalMeasure(np.zeros((4, 2))), sample_projections(0, 3, 2), QuantileGrid(4)
        )
        np.testing.assert_array_equal(emb.values, np.zeros(12))

    def test_hand_value_two_points(self):
        ps = ProjectionSet(directions=np.array([[1.0]]), seed=0)
        emb = pq_embed(EmpiricalMeasure(np.array([[0.0], [1.0]])), ps, QuantileGrid(2), r=2.0)
        np.testing.assert_allclose(emb.values, np.array([0.0, 1.0]) / np.sqrt(2.0))

    def test_layout_is_level_major(self):
        # component p + P(q-1): all projections for level 1, then level 2, ...
        ps = ProjectionSet(directions=np.array([[1.0], [-1.0]]), seed=0)
        emb = pq_embed(EmpiricalMeasure(np.array([[0.0], [1.0]])), ps, QuantileGrid(2), r=1.0)
        scale = 1.0 / 4.0
        # level 0: min of (x), min of (-x); level 1: max of both
        np.testing.assert_allclose(emb.values / scale, [0.0, -1.0, 1.0, 0.0])

    def test_quantile_monotonicity_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            support = rng.standard_normal((int(rng.integers(1, 20)), 3))
            emb = pq_embed(
                EmpiricalMeasure(support), sample_projections(1, 6, 3), QuantileGrid(9)
            )
            table = emb.values.reshape(9, 6)
            assert np.all(np.diff(table, axis=0) >= -1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pq_embed(
                EmpiricalMeasure(np.zeros((2, 3))), sample_projections(0, 2, 4), QuantileGrid(2)
            )

    def test_empty_or_non_finite_measure_and_order_below_one_are_refused(self):
        with pytest.raises(EmptyInputError, match="n >= 1"):
            EmpiricalMeasure(np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="non-finite"):
            EmpiricalMeasure(np.array([[0.0, np.inf]]))
        with pytest.raises(ValidationError, match="r must be >= 1, got 0.5"):
            pq_embed(
                EmpiricalMeasure(np.zeros((2, 2))), sample_projections(0, 2, 2), QuantileGrid(2),
                r=0.5,
            )


class TestSwEstimate:
    def test_identical_embeddings_give_zero(self):
        emb = pq_embed(
            EmpiricalMeasure(np.random.default_rng(0).standard_normal((5, 2))),
            sample_projections(1, 3, 2),
            QuantileGrid(4),
        )
        assert sw_estimate(emb, emb) == 0.0

    def test_unit_diracs_distance_one(self):
        for p, q in [(1, 2), (4, 3), (9, 7)]:
            ps = sample_projections(5, p, 1)
            grid = QuantileGrid(q)
            a = pq_embed(EmpiricalMeasure(np.array([[0.0]])), ps, grid)
            b = pq_embed(EmpiricalMeasure(np.array([[1.0]])), ps, grid)
            assert sw_estimate(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = int(rng.integers(1, 5))
            r = float(rng.choice([1.0, 2.0, 3.0]))
            na, nb = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            xa, xb = rng.standard_normal((na, s)), rng.standard_normal((nb, s))
            ps = sample_projections(int(rng.integers(100)), int(rng.integers(1, 8)), s)
            grid = QuantileGrid(int(rng.integers(2, 10)))
            a = pq_embed(EmpiricalMeasure(xa), ps, grid, r=r)
            b = pq_embed(EmpiricalMeasure(xb), ps, grid, r=r)
            want = naive_sw(xa, xb, ps.directions, grid.levels, r)
            assert sw_estimate(a, b) == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_config_mismatch_rejected(self):
        x = np.zeros((2, 2))
        a = pq_embed(EmpiricalMeasure(x), sample_projections(0, 3, 2), QuantileGrid(4))
        b = pq_embed(EmpiricalMeasure(x), sample_projections(1, 3, 2), QuantileGrid(4))
        with pytest.raises(ConfigMismatchError):
            sw_estimate(a, b)
        c = pq_embed(EmpiricalMeasure(x), sample_projections(0, 3, 2), QuantileGrid(5))
        with pytest.raises(ConfigMismatchError):
            sw_estimate(a, c)
        d = pq_embed(EmpiricalMeasure(x), sample_projections(0, 3, 2), QuantileGrid(4), r=1.0)
        with pytest.raises(ConfigMismatchError):
            sw_estimate(a, d)

    def test_pseudo_metric_axioms(self):
        rng = np.random.default_rng(4)
        ps = sample_projections(2, 5, 3)
        grid = QuantileGrid(6)
        embs = [
            pq_embed(EmpiricalMeasure(rng.standard_normal((6, 3))), ps, grid)
            for _ in range(3)
        ]
        d01 = sw_estimate(embs[0], embs[1])
        assert d01 == sw_estimate(embs[1], embs[0])
        assert d01 >= 0
        d02 = sw_estimate(embs[0], embs[2])
        d12 = sw_estimate(embs[1], embs[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        ps = sample_projections(6, 4, 2)
        grid = QuantileGrid(5)
        xa, xb = rng.standard_normal((7, 2)), rng.standard_normal((4, 2))
        base = sw_estimate(
            pq_embed(EmpiricalMeasure(xa), ps, grid), pq_embed(EmpiricalMeasure(xb), ps, grid)
        )
        lam = 3.7
        scaled = sw_estimate(
            pq_embed(EmpiricalMeasure(lam * xa), ps, grid),
            pq_embed(EmpiricalMeasure(lam * xb), ps, grid),
        )
        assert scaled == pytest.approx(lam * base, rel=1e-12)

    def test_monte_carlo_variance_shrinks_with_projections(self):
        rng = np.random.default_rng(6)
        xa, xb = rng.standard_normal((30, 3)), rng.standard_normal((30, 3)) + 0.5
        grid = QuantileGrid(20)

        def estimates(n_proj):
            vals = []
            for seed in range(100):
                ps = sample_projections(seed, n_proj, 3)
                vals.append(
                    sw_estimate(
                        pq_embed(EmpiricalMeasure(xa), ps, grid),
                        pq_embed(EmpiricalMeasure(xb), ps, grid),
                    )
                )
            return np.var(vals)

        assert estimates(10) / estimates(1000) > 5.0

    def test_equal_size_estimate_converges_to_exact(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 16):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            ps = sample_projections(0, 3, 1)
            grid = QuantileGrid(50 * n)
            est = sw_estimate(
                pq_embed(EmpiricalMeasure(x[:, None]), ps, grid),
                pq_embed(EmpiricalMeasure(y[:, None]), ps, grid),
            )
            assert est == pytest.approx(sw_exact_1d(x, y), rel=1e-12, abs=1e-12)


class TestExactOracles:
    def test_exact_1d_identical(self):
        x = np.array([0.4, -2.0, 1.0])
        assert sw_exact_1d(x, x) == 0.0

    def test_exact_1d_unit_diracs(self):
        for r in (1.0, 2.0, 3.5):
            assert sw_exact_1d([0.0], [1.0], r) == pytest.approx(1.0)

    def test_exact_1d_half_mass_moves(self):
        # brute force over the two assignments gives 0.5 for r=1
        costs = [abs(0 - 0) + abs(1 - 0), abs(0 - 0) + abs(1 - 0)]
        assert min(costs) / 2 == 0.5
        assert sw_exact_1d([0.0, 1.0], [0.0, 0.0], 1.0) == pytest.approx(0.5)

    def test_exact_1d_matches_brute_force_equal_sizes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            r = float(rng.choice([1.0, 2.0, 3.0]))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            want = w_exact_tiny(
                EmpiricalMeasure(x[:, None]), EmpiricalMeasure(y[:, None]), r
            )
            assert sw_exact_1d(x, y, r) == pytest.approx(want, rel=1e-12)

    def test_exact_1d_unequal_sizes_against_dense_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            r = float(rng.choice([1.0, 2.0]))
            x, y = rng.standard_normal(n), rng.standard_normal(m)
            # midpoint Riemann sum of the step integrand on a fine grid
            k = 200_001
            t = (np.arange(k) + 0.5) / k
            qx = np.sort(x)[np.minimum((np.ceil(t * n) - 1).astype(int), n - 1)]
            qy = np.sort(y)[np.minimum((np.ceil(t * m) - 1).astype(int), m - 1)]
            approx = float(np.mean(np.abs(qx - qy) ** r)) ** (1.0 / r)
            assert sw_exact_1d(x, y, r) == pytest.approx(approx, rel=1e-3, abs=1e-4)

    def test_tiny_identical(self):
        pts = EmpiricalMeasure(np.array([[0.0, 1.0], [2.0, 2.0]]))
        assert w_exact_tiny(pts, pts) == 0.0

    def test_tiny_vertical_shift(self):
        a = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
        b = EmpiricalMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert w_exact_tiny(a, b, 2.0) == pytest.approx(1.0)

    def test_tiny_single_points(self):
        a = EmpiricalMeasure(np.array([[0.0, 0.0, 0.0]]))
        b = EmpiricalMeasure(np.array([[1.0, 2.0, 2.0]]))
        assert w_exact_tiny(a, b, 2.0) == pytest.approx(3.0)

    def test_tiny_guards(self):
        with pytest.raises(ValueError, match="sizes differ"):
            w_exact_tiny(
                EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.zeros((3, 1)))
            )
        with pytest.raises(ValueError, match="limited to 8"):
            w_exact_tiny(
                EmpiricalMeasure(np.zeros((9, 1))), EmpiricalMeasure(np.zeros((9, 1)))
            )

    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            sw_exact_1d([], [1.0])


def _embeddings(ids, seed=123):
    rng = np.random.default_rng(10)
    projections = sample_projections(seed, 4, 3)
    return [
        pq_embed(EmpiricalMeasure(rng.standard_normal((8, 3))), projections,
                 QuantileGrid(6), graph_id=i)
        for i in ids
    ]


def _store(ids, seeds=(123,)):
    """A store with one block per seed, its rows embedded from random clouds."""
    return store_of(*(_embeddings(ids, seed=s) for s in seeds))


def _assert_same_store(a, b):
    assert a.ids == b.ids
    assert a.fingerprints == b.fingerprints
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x, y)
    for x, y in ((a.targets, b.targets), (a.scalars, b.scalars)):
        assert (x is None and y is None) or (
            x.dtype == y.dtype and np.array_equal(x, y)
        )
    assert a.source_sha256 == b.source_sha256


def test_cache_round_trip(tmp_path):
    store = _store(["graph-8", "graph-9"], seeds=(123, 1, 2))
    save_pq_store(tmp_path, store)
    back = load_pq_store(tmp_path)
    _assert_same_store(back, store)
    # indexing a store gives the rows of blocks[0], as views with their ids
    assert back.embeddings is back and len(back) == 2
    assert [e.graph_id for e in back] == ["graph-8", "graph-9"]
    assert back[1].fingerprint == store.fingerprints[0]
    assert np.shares_memory(back[1].values, back.blocks[0])
    assert sw_estimate(store[1], back[1]) == 0.0


def test_store_records_round_trip_exactly(tmp_path):
    store = replace(
        _store(["a", "b"]),
        targets=np.array([0.1, -0.0]),
        scalars=np.array([[1e-300, 2.0 / 3.0, 5.0], [np.pi, -1.5, 7e300]]),
        source_sha256="0123456789abcdef" * 4,
    )
    save_pq_store(tmp_path, store)
    _assert_same_store(load_pq_store(tmp_path), store)
    # no targets, no scalar covariates: none stored, and (N, 0) scalars
    store = replace(store, targets=None, scalars=np.zeros((2, 0)))
    save_pq_store(tmp_path, store)
    back = load_pq_store(tmp_path)
    _assert_same_store(back, store)
    assert back.scalars.shape == (2, 0)


def test_store_keeps_written_order_of_ids(tmp_path):
    ids = ["9", "10", "100000"]
    save_pq_store(tmp_path, _store(ids))
    back = load_pq_store(tmp_path)
    assert back.ids == tuple(ids)
    assert len(back.blocks) == 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("per_iteration", [False, True])
def test_embed_dataset_store_round_trips(tmp_path, per_iteration, jobs):
    dataset = generate_regression_dataset(seed=3, n_graphs=6, mean_nodes=12)
    store = embed_dataset(
        dataset, WlConfig(iterations=(0, 2)), seed=5, n_projections=4, n_quantiles=6,
        per_iteration=per_iteration, jobs=jobs,
    )
    assert store.ids == tuple(dataset.ids)
    assert [fp.block for fp in store.fingerprints] == (
        [None, 0, 1] if per_iteration else [None]
    )
    assert all(fp.iterations == (0, 2) for fp in store.fingerprints)
    assert all(block.shape == (6, 24) for block in store.blocks)
    assert np.array_equal(store.targets, dataset.targets())
    assert np.array_equal(store.scalars, dataset.scalar_matrix())
    assert store.source_sha256 is None
    save_pq_store(tmp_path, store)
    _assert_same_store(load_pq_store(tmp_path), store)


def test_embed_dataset_threads_fill_every_row(monkeypatch):
    # more workers than cores and frequent thread switches: each worker must
    # write its own batches' rows of the shared blocks, and every row must be
    # written; a budget of 25 nodes splits the 24 graphs into over 8 batches
    monkeypatch.setattr(pipeline, "_BATCH_NODES", 25)
    dataset = generate_regression_dataset(seed=6, n_graphs=24, mean_nodes=10)
    assert len(pipeline._batches(dataset.node_counts())) > 8
    config = WlConfig(iterations=(0, 1))
    kwargs = dict(seed=2, n_projections=3, n_quantiles=4, per_iteration=True)
    serial = embed_dataset(dataset, config, **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = embed_dataset(dataset, config, jobs=8, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_store(threaded, serial)


def test_embed_dataset_rows_are_per_graph_embeddings():
    dataset = generate_regression_dataset(seed=4, n_graphs=3, mean_nodes=10)
    store = embed_dataset(
        dataset, WlConfig(iterations=(0, 1)), seed=7, n_projections=3, n_quantiles=5
    )
    projections = sample_projections(7, 3, 2 * dataset.attr_dim)
    for row, rec in zip(store.blocks[0], dataset):
        wl = wl_embed(rec.graph, WlConfig(iterations=(0, 1)))
        emb = pq_embed(EmpiricalMeasure(wl), projections, QuantileGrid(5))
        assert np.array_equal(row, emb.values)


def _rewrite_header(path, edit):
    """Re-encode a store with its JSON header changed by ``edit``."""
    raw = path.read_bytes()
    size = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16 : 16 + size])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + size :])


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.pop("ids"),
        lambda h: h.update(ids=["a", 7]),
        lambda h: h.update(ids=["a"]),  # rows != len(ids)
        lambda h: h.pop("fingerprints"),
        lambda h: h["fingerprints"][0].pop("seed"),
        lambda h: h["fingerprints"][0].update(seed="5"),
        lambda h: h["fingerprints"][0].update(projections=1.5),
        lambda h: h["fingerprints"][0].update(iterations=[0, "a"]),
        lambda h: h["fingerprints"][0].update(quantiles=5),  # width != P*Q
        lambda h: h["fingerprints"].append(h["fingerprints"][0]),  # no second block
        lambda h: h.update(targets=[1.0]),  # one target for two ids
        lambda h: h.update(targets=[1.0, "2"]),
        lambda h: h.update(targets=[1.0, True]),
        lambda h: h.update(targets=[1.0, float("nan")]),
        lambda h: h.update(targets=[1.0, 10**400]),
        lambda h: h.update(targets={"a": 1.0}),
        lambda h: h.update(scalars=[1.0, 2.0]),  # rows must be lists
        lambda h: h.update(scalars=[[1.0]]),  # one row for two ids
        lambda h: h.update(scalars=[[1.0], [1.0, 2.0]]),  # ragged
        lambda h: h.update(scalars=[[1.0], [float("inf")]]),
        lambda h: h.update(scalars=[[1.0], [None]]),
        lambda h: h.update(source_sha256="ab" * 31),
        lambda h: h.update(source_sha256="AB" * 32),
        lambda h: h.update(source_sha256=7),
        lambda h: h.pop("scalars"),  # a hash vouches for recorded scalars
        lambda h: h["fingerprints"][0].update(r=1.0),  # distances are squared Euclidean
        lambda h: h.update(ids=[]),  # a store of no record
        lambda h: h["fingerprints"][0].update(standardization_sha256=7),
        # JSON types: each value equals a valid one, so only its type is wrong
        lambda h: h["fingerprints"][0].update(projections=True, quantiles=24),  # P = 1
        lambda h: h["fingerprints"][0].update(block=False),
        lambda h: h["fingerprints"][0].update(iterations=[0, True]),
        lambda h: h["fingerprints"][0].update(standardized=1),
        lambda h: h["fingerprints"][0].update(quantiles=6.0),
    ],
)
def test_malformed_store_header_is_parse_error(tmp_path, edit):
    save_pq_store(tmp_path, replace(
        _store(["a", "b"]), targets=np.array([1.0, 2.0]), scalars=np.zeros((2, 1)),
        source_sha256="ab" * 32,
    ))
    load_pq_store(tmp_path)  # well formed before the edit
    _rewrite_header(tmp_path / PQ_STORE_NAME, edit)
    with pytest.raises(ParseError, match=f"^{re.escape(str(tmp_path / PQ_STORE_NAME))}: "):
        load_pq_store(tmp_path)


def test_fingerprint_records_which_statistics_standardized_the_attributes(tmp_path):
    dataset = generate_regression_dataset(seed=4, n_graphs=3, mean_nodes=10)
    stats = compute_standardization(dataset)
    # the statistics as embed writes them and --standardize-stats reads them back
    reread = StandardizationStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    other = StandardizationStats(mean=stats.mean + 1.0, std=stats.std)
    plain, own, same, shifted = (
        embed_dataset(dataset, WlConfig(iterations=(0, 1)), seed=1, n_projections=2,
                      n_quantiles=3, standardization=s)
        for s in (None, stats, reread, other)
    )
    assert "standardization_sha256" not in plain.fingerprints[0].to_dict()
    assert own.fingerprints[0].standardization_sha256 == stats.sha256()
    assert own.fingerprints == same.fingerprints
    assert own.fingerprints[0] != shifted.fingerprints[0]
    # a standardized store written before the digest was recorded still loads
    save_pq_store(tmp_path, own)
    _rewrite_header(tmp_path / PQ_STORE_NAME,
                    lambda h: h["fingerprints"][0].pop("standardization_sha256"))
    fp = load_pq_store(tmp_path).fingerprints[0]
    assert fp.standardized and fp.standardization_sha256 is None


def test_store_with_a_repeated_id_is_parse_error(tmp_path):
    # a store is written from a Dataset, whose ids are distinct; a file that
    # repeats one would give predictions two rows of one id
    save_pq_store(tmp_path, _store(["a", "b"]))
    _rewrite_header(tmp_path / PQ_STORE_NAME, lambda h: h.update(ids=["a", "a"]))
    with pytest.raises(ParseError, match="'ids' repeats a record id"):
        load_pq_store(tmp_path)
