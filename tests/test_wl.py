"""Continuous WL iterations: hand values, invariants, brute-force oracle."""

import numpy as np
import pytest

from swwl import AttributedGraph, WlConfig, embed, sqrt_skip_iterations
from swwl.errors import ValidationError

from oracles import wl_iterate


def two_node_graph():
    return AttributedGraph(np.array([[0.0], [2.0]]), np.array([[0, 1]]))


def naive_iterate(graph, current):
    """Double-loop reference implementation of one update."""
    n = graph.node_count
    out = np.array(current, dtype=float, copy=True)
    neighbors = {u: [] for u in range(n)}
    for (u, v), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        neighbors[u].append((v, w))
        neighbors[v].append((u, w))
    for u in range(n):
        if not neighbors[u]:
            continue
        acc = np.zeros(current.shape[1])
        for v, w in neighbors[u]:
            acc += w * np.asarray(current[v], dtype=float)
        out[u] = 0.5 * (np.asarray(current[u], dtype=float) + acc / len(neighbors[u]))
    return out


def test_two_node_hand_value():
    # 0.5*(0+2) = 1 on both endpoints
    out = wl_iterate(two_node_graph(), np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(out, [[1.0], [1.0]])


def test_zero_attributes_fixed():
    rng = np.random.default_rng(0)
    g = AttributedGraph(rng.standard_normal((5, 2)), np.array([[0, 1], [1, 2], [3, 4]]))
    out = wl_iterate(g, np.zeros((5, 2)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_isolated_node_identity():
    g = AttributedGraph(np.array([[5.0]]), np.zeros((0, 2)))
    out = wl_iterate(g, np.array([[5.0]]))
    np.testing.assert_array_equal(out, [[5.0]])
    # several nodes and no edge: every iterate is the attributes, bit for bit
    attrs = np.random.default_rng(1).standard_normal((6, 3))
    edgeless = AttributedGraph(attrs, np.zeros((0, 2)))
    np.testing.assert_array_equal(wl_iterate(edgeless, attrs), attrs)
    emb = embed(edgeless, WlConfig(iterations=(0, 1, 4)))
    np.testing.assert_array_equal(emb, np.hstack([attrs] * 3))


def test_isolated_nodes_beside_connected_ones():
    # nodes 1 and 4 are isolated; 0-2-3 is a path, so each connected node
    # sums at most two neighbour terms and the hand formula is exact
    attrs = np.random.default_rng(2).standard_normal((5, 2))
    g = AttributedGraph(attrs, np.array([[0, 2], [2, 3]]), np.array([0.5, 2.0]))
    out = wl_iterate(g, attrs)
    want = attrs.copy()
    want[0] = 0.5 * (attrs[0] + (0.5 * attrs[2]) / 1)
    want[2] = 0.5 * (attrs[2] + (0.5 * attrs[0] + 2.0 * attrs[3]) / 2)
    want[3] = 0.5 * (attrs[3] + (2.0 * attrs[2]) / 1)
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(out[[1, 4]], attrs[[1, 4]])


def test_embed_iteration_zero_is_raw_attributes():
    g = two_node_graph()
    emb = embed(g, WlConfig(iterations=(0,)))
    np.testing.assert_array_equal(emb, g.attributes)


def test_embed_concatenates_hand_values():
    emb = embed(two_node_graph(), WlConfig(iterations=(0, 1)))
    np.testing.assert_allclose(emb, [[0.0, 1.0], [2.0, 1.0]])


def test_complete_graph_constant_attributes_fixed_point():
    c = np.array([0.7, -1.3])
    attrs = np.tile(c, (3, 1))
    g = AttributedGraph(attrs, np.array([[0, 1], [0, 2], [1, 2]]))
    emb = embed(g, WlConfig(iterations=(0, 1, 2)))
    for pos in range(3):
        np.testing.assert_allclose(emb[:, 2 * pos : 2 * pos + 2], attrs)


def test_componentwise_constant_fixed_point():
    # two components with different constants, unit weights
    attrs = np.array([[1.0], [1.0], [4.0], [4.0], [4.0]])
    edges = np.array([[0, 1], [2, 3], [3, 4], [2, 4]])
    g = AttributedGraph(attrs, edges)
    np.testing.assert_allclose(wl_iterate(g, attrs), attrs)


def random_graph(rng, n, d):
    pairs = np.array([[u, v] for u in range(n) for v in range(u + 1, n)])
    keep = rng.random(len(pairs)) < 0.4
    edges = pairs[keep] if keep.any() else pairs[:1]
    return AttributedGraph(rng.standard_normal((n, d)), edges)


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, d = 8, 3
        g = random_graph(rng, n, d)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted = AttributedGraph(g.attributes[perm], inv[g.edges], g.weights)
        a = embed(g, WlConfig(iterations=(0, 1, 2)))
        b = embed(permuted, WlConfig(iterations=(0, 1, 2)))
        np.testing.assert_allclose(b, a[perm], atol=1e-12)


def test_update_stays_in_neighborhood_interval():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, 1)
        current = rng.standard_normal((n, 1))
        out = wl_iterate(g, current)
        for u in range(n):
            closed = [current[u, 0]]
            for (a, b) in g.edges.tolist():
                if a == u:
                    closed.append(current[b, 0])
                if b == u:
                    closed.append(current[a, 0])
            assert min(closed) - 1e-12 <= out[u, 0] <= max(closed) + 1e-12


def test_matches_naive_double_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n, 2)
        weights = rng.uniform(0.2, 2.0, g.edge_count)
        g = AttributedGraph(g.attributes, g.edges, weights)
        current = rng.standard_normal((n, 2))
        np.testing.assert_allclose(
            wl_iterate(g, current), naive_iterate(g, current), atol=1e-12
        )


def test_negative_weight_warning():
    g = AttributedGraph(np.zeros((2, 1)), np.array([[0, 1]]), np.array([-1.0]))
    with pytest.warns(UserWarning, match="non-positive"):
        wl_iterate(g, np.array([[0.0], [1.0]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        wl_iterate(two_node_graph(), np.zeros((3, 1)))


def test_config_validation():
    with pytest.raises(ValidationError):
        WlConfig(iterations=())
    with pytest.raises(ValidationError):
        WlConfig(iterations=(0, 0))
    with pytest.raises(ValidationError):
        WlConfig(iterations=(2, 1))
    with pytest.raises(ValidationError, match=r"^iterations\[0\] must be at least 0, got -1$"):
        WlConfig(iterations=(-1, 2))
    # first kept iteration may exceed zero
    cfg = WlConfig(iterations=(2, 5))
    assert cfg.block_count == 2


def test_sqrt_skip_schedule():
    assert sqrt_skip_iterations(900) == (0, 30, 60, 90)
    assert sqrt_skip_iterations(1) == (0, 1, 2, 3)


def test_skip_schedule_skips_storage_not_computation():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 6, 2)
    full = embed(g, WlConfig(iterations=(0, 1, 2, 3, 4)))
    skipped = embed(g, WlConfig(iterations=(0, 2, 4)))
    # columns 2k:2k+2 hold the k-th kept iterate
    np.testing.assert_array_equal(skipped[:, 0:2], full[:, 0:2])
    np.testing.assert_array_equal(skipped[:, 2:4], full[:, 4:6])
    np.testing.assert_array_equal(skipped[:, 4:6], full[:, 8:10])
