"""Continuous Weisfeiler-Lehman node embeddings.

One iteration replaces each node's attribute vector by the average of the
vector itself and the degree-normalized weighted sum of its neighbors'
vectors. Nodes without neighbors are left unchanged. The embedding of a
graph concatenates a chosen subset of iterates column-wise, iteration 0
being the raw attributes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, integer
from .graphs import AttributedGraph

@dataclass(frozen=True)
class WlConfig:
    """Which iterations to keep, e.g. (0, 1, 2, 3) or (0, T, 2T, 3T): integers
    >= 0, strictly increasing."""

    iterations: tuple[int, ...]

    def __post_init__(self):
        iters = tuple(integer(f"iterations[{i}]", h) for i, h in enumerate(self.iterations))
        if not iters:
            raise ValidationError("iterations list is empty")
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValidationError("iterations must be strictly increasing")
        object.__setattr__(self, "iterations", iters)

    @property
    def block_count(self) -> int:
        return len(self.iterations)


def sqrt_skip_iterations(mean_node_count: float) -> tuple[int, ...]:
    """Iteration schedule 0, T, 2T, 3T with T about sqrt(mean node count)."""
    step = max(1, round(float(mean_node_count) ** 0.5))
    return tuple(step * k for k in range(4))


def _neighbor_operator(graph: AttributedGraph):
    """Weighted adjacency (CSR, empty without edges) and inverse-degree column."""
    n = graph.node_count
    edges = graph.edges
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([graph.weights, graph.weights])
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    inv_deg = np.zeros((n, 1))
    nz = graph.degrees > 0
    inv_deg[nz, 0] = 1.0 / graph.degrees[nz]
    return adj, inv_deg


def _warn_nonpositive_weights(graph: AttributedGraph) -> None:
    if len(graph.weights) and np.any(graph.weights <= 0):
        warnings.warn(
            "graph has non-positive edge weights; the update formula accepts "
            "them but the result is no longer a neighborhood average",
            stacklevel=3,
        )


def _iterate(current: np.ndarray, adj, inv_deg: np.ndarray) -> np.ndarray:
    out = 0.5 * (current + inv_deg * (adj @ current))
    isolated = inv_deg[:, 0] == 0
    out[isolated] = current[isolated]
    return out


def embed(graph: AttributedGraph, config: WlConfig) -> np.ndarray:
    """Run the iteration up to max(kept) and concatenate the kept iterates.

    Returns an (n, K*d) matrix for K kept iterations: columns
    ``k*d:(k+1)*d`` hold the iterate at ``config.iterations[k]``.
    """
    _warn_nonpositive_weights(graph)
    adj, inv_deg = _neighbor_operator(graph)
    kept = set(config.iterations)
    last = max(config.iterations)
    blocks = []
    current = np.asarray(graph.attributes, dtype=float)
    for h in range(last + 1):
        if h in kept:
            blocks.append(current)
        if h < last:
            current = _iterate(current, adj, inv_deg)
    return np.hstack(blocks)
