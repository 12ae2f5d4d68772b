"""Synthetic dataset generators for tests, benchmarks and demos.

Graphs are random geometric graphs in the unit square. Node attributes are
affine transforms (one global dilation, two independent axis scalings) of a
fixed smooth base field evaluated at the node positions, so the attribute
distribution of each graph is governed by a three-dimensional latent vector.
The regression target is the mass a fixed Gaussian bump captures from the
attribute cloud: a smooth functional of the attribute distribution that the
kernel pipeline should recover from moderate numbers of projections and
quantiles, while a single projection with two quantiles cannot resolve the
latent space.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError, integer
from .graphs import AttributedGraph, Dataset, GraphRecord

TARGET_CENTER = (0.5, 0.5)
TARGET_WIDTH = 0.14
GLOBAL_SCALE_AMPLITUDE = 0.35
AXIS_SCALE_AMPLITUDE = 0.12
MEAN_DEGREE = 8.0


def geometric_graph(rng: np.random.Generator, n_nodes: int, mean_degree: float = MEAN_DEGREE):
    """Positions uniform in the unit square, edges within the degree-tuned radius."""
    positions = rng.uniform(0.0, 1.0, (n_nodes, 2))
    radius = np.sqrt(mean_degree / (np.pi * n_nodes))
    pairs = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    return positions, pairs


def _base_field(positions: np.ndarray) -> np.ndarray:
    x1, x2 = positions[:, 0], positions[:, 1]
    return np.column_stack(
        [x1 + 0.3 * np.cos(2.0 * np.pi * x2), x2 + 0.3 * np.sin(2.0 * np.pi * x1)]
    )


def _attribute_cloud(rng: np.random.Generator, positions: np.ndarray) -> np.ndarray:
    base = _base_field(positions)
    center = base.mean(axis=0)
    latent = rng.uniform(-1.0, 1.0, 3)
    dilation = 1.0 + GLOBAL_SCALE_AMPLITUDE * latent[0]
    axis_scale = 1.0 + AXIS_SCALE_AMPLITUDE * latent[1:]
    return center + dilation * (base - center) * axis_scale


def bump_mass(attributes: np.ndarray) -> float:
    """Smooth functional of the attribute distribution used as the target."""
    sq = np.sum((attributes - np.asarray(TARGET_CENTER)) ** 2, axis=1)
    return float(np.mean(np.exp(-sq / TARGET_WIDTH)))


def generate_regression_dataset(
    seed: int,
    n_graphs: int,
    mean_nodes: int = 200,
    noise_fraction: float = 0.01,
    scalar_dim: int = 0,
    node_spread: float = 0.0,
) -> Dataset:
    """Random geometric graphs with smooth attribute fields and noisy targets.

    Targets are the bump-mass functional of each graph's attribute cloud plus
    centered Gaussian noise with standard deviation ``noise_fraction`` times
    the spread of the clean targets over the generated batch. All graphs share
    ``mean_nodes`` nodes unless ``node_spread`` widens the size range (as a
    fraction of ``mean_nodes``); fixed sizes mirror simulation datasets built
    on one meshing of a reference geometry. When ``scalar_dim`` > 0 each
    record also carries uniform scalar covariates and the target gains a
    smooth contribution from each. A value outside those ranges (a negative
    seed, fewer than 1 graph or 2 nodes, a negative or non-finite fraction,
    a negative ``scalar_dim``), or a seed or count that is not an integer,
    is a ValidationError naming it.
    """
    seed, n_graphs = integer("seed", seed), integer("n_graphs", n_graphs, least=1)
    mean_nodes = integer("mean_nodes", mean_nodes, least=2)
    scalar_dim = integer("scalar_dim", scalar_dim)
    for name, value in (("noise_fraction", noise_fraction), ("node_spread", node_spread)):
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
    rng = np.random.default_rng(seed)
    lo = max(2, int(round((1.0 - node_spread) * mean_nodes)))
    hi = max(lo, int(round((1.0 + node_spread) * mean_nodes)))
    graphs = []
    scalars = []
    clean = []
    for _ in range(n_graphs):
        n_nodes = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        positions, pairs = geometric_graph(rng, n_nodes)
        attributes = _attribute_cloud(rng, positions)
        graphs.append(AttributedGraph(attributes, pairs))
        s = rng.uniform(-1.0, 1.0, scalar_dim)
        scalars.append(s)
        value = bump_mass(attributes)
        if scalar_dim:
            value += 0.05 * float(np.sum(np.sin(np.pi * s)))
        clean.append(value)
    clean = np.asarray(clean)
    spread = float(np.std(clean))
    noise = rng.normal(0.0, noise_fraction * spread, n_graphs) if spread > 0 else 0.0
    targets = clean + noise
    records = tuple(
        GraphRecord(graph=g, scalars=s, target=float(t), id=f"g{i:04d}")
        for i, (g, s, t) in enumerate(zip(graphs, scalars, targets))
    )
    return Dataset(records=records)
