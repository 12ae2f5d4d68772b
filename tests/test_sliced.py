"""Projections, quantiles, embeddings and transport-distance oracles."""

import json

import numpy as np
import pytest

from swwl import (
    EmpiricalMeasure,
    ProjectionSet,
    QuantileGrid,
    interp_quantiles,
    pq_embed,
    sample_projection_blocks,
    sample_projections,
    step_quantiles,
    sw_estimate,
    sw_exact_1d,
    w_exact_tiny,
)
from swwl.errors import (
    ConfigMismatchError,
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyInputError,
    ParseError,
    SizeMismatchError,
    TooLargeError,
    ValidationError,
)
from swwl.sliced import PQ_STORE_NAME, _unit_rows, load_pq_store, save_pq_store

from oracles import naive_quantile, naive_sw


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
        with pytest.raises(SizeMismatchError):
            w_exact_tiny(
                EmpiricalMeasure(np.zeros((2, 1))), EmpiricalMeasure(np.zeros((3, 1)))
            )
        with pytest.raises(TooLargeError):
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


def test_cache_round_trip(tmp_path):
    embs = _embeddings(["graph-8", "graph-9"])
    blocks = [_embeddings(["graph-8", "graph-9"], seed=s) for s in (1, 2)]
    save_pq_store(tmp_path, embs, blocks)
    back = load_pq_store(tmp_path)
    assert back.ids == ("graph-8", "graph-9")
    assert back.fingerprints == tuple(b[0].fingerprint for b in [embs, *blocks])
    for k, block in enumerate([embs, *blocks]):
        assert np.array_equal(back.blocks[k], np.vstack([e.values for e in block]))
    restored = back.embeddings(0)
    assert [e.graph_id for e in restored] == ["graph-8", "graph-9"]
    assert sw_estimate(embs[1], restored[1]) == 0.0


def test_store_keeps_written_order_of_ids(tmp_path):
    ids = ["9", "10", "100000"]
    embs = _embeddings(ids)
    save_pq_store(tmp_path, embs, None)
    back = load_pq_store(tmp_path)
    assert back.ids == tuple(ids)
    assert np.array_equal(back.blocks[0], np.vstack([e.values for e in embs]))


def test_store_refuses_mixed_fingerprints(tmp_path):
    mixed = _embeddings(["a"]) + _embeddings(["b"], seed=124)
    with pytest.raises(ConfigMismatchError):
        save_pq_store(tmp_path, mixed, None)
    with pytest.raises(ConfigMismatchError):
        save_pq_store(tmp_path, _embeddings(["a", "b"]), [_embeddings(["b", "a"])])
    assert not (tmp_path / PQ_STORE_NAME).exists()


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
    ],
)
def test_malformed_store_header_is_parse_error(tmp_path, edit):
    save_pq_store(tmp_path, _embeddings(["a", "b"]), None)
    _rewrite_header(tmp_path / PQ_STORE_NAME, edit)
    with pytest.raises(ParseError):
        load_pq_store(tmp_path)
