"""Dataset-level drivers tying graphs, WL iterations and embeddings together.

One projection set is sampled per configuration and shared by every graph,
training and test alike; the per-record work (WL iterations, projections,
quantiles) is independent across graphs and can run on a thread pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .graphs import Dataset, StandardizationStats, apply_standardization
from .sliced import (
    EmpiricalMeasure,
    PqStore,
    QuantileGrid,
    pq_embed,
    pq_fingerprint,
    sample_projection_blocks,
    sample_projections,
)
from .wl import WlConfig, embed as wl_embed


def embed_dataset(
    dataset: Dataset,
    wl_config: WlConfig,
    *,
    seed: int,
    n_projections: int,
    n_quantiles: int,
    r: float = 2.0,
    standardization: StandardizationStats | None = None,
    per_iteration: bool = False,
    jobs: int = 1,
) -> PqStore:
    """Embed every record of a dataset under one shared projection set.

    Row i of each block embeds record i. ``blocks[0]`` embeds the whole WL
    embedding; with ``per_iteration``, ``blocks[1 + h]`` embeds kept
    iteration h alone under its own directions. The store also carries the
    records' targets (when every record has one) and scalar covariates.
    """
    if standardization is not None:
        dataset = apply_standardization(dataset, standardization)
    k = wl_config.block_count
    projection_sets = [sample_projections(seed, n_projections, k * dataset.attr_dim)]
    if per_iteration:
        projection_sets += sample_projection_blocks(
            seed, n_projections, dataset.attr_dim, k
        )
    grid = QuantileGrid(n_quantiles)
    blocks = tuple(
        np.empty((len(dataset), n_projections * n_quantiles)) for _ in projection_sets
    )

    def one(i):
        wl = wl_embed(dataset.records[i].graph, wl_config)
        supports = [wl.values] + [wl.block(pos) for pos in range(len(blocks) - 1)]
        for block, projections, support in zip(blocks, projection_sets, supports):
            block[i] = pq_embed(EmpiricalMeasure(support), projections, grid, r=r).values

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(one, range(len(dataset))))
    else:
        for i in range(len(dataset)):
            one(i)

    fingerprints = tuple(
        pq_fingerprint(
            projections, grid, r,
            iterations=wl_config.iterations,
            standardized=standardization is not None,
        )
        for projections in projection_sets
    )
    return PqStore(
        ids=tuple(dataset.ids),
        blocks=blocks,
        fingerprints=fingerprints,
        targets=dataset.targets() if dataset.has_targets else None,
        scalars=dataset.scalar_matrix(),
    )
