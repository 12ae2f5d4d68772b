"""Dataset-level drivers tying graphs, WL iterations and embeddings together.

One projection set is sampled per configuration and shared by every graph,
training and test alike. Consecutive records are embedded in batches of at
most ``_BATCH_NODES`` nodes (a larger graph is a batch of its own): the WL
iterations run once on the disjoint union of a batch's graphs, which they
never cross, and each graph's rows of the result are then projected and
sorted on their own. Batches are independent and can run on several
threads; the embeddings do not depend on the batching or on the threads.
Attribute standardization is applied to each batch's union before its WL
run.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from .errors import ValidationError, integer
from .graphs import Dataset, StandardizationStats, disjoint_union
from .kernels import run_calls
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

_BATCH_NODES = 8192


def _batches(node_counts) -> list[tuple[int, int]]:
    """Consecutive [start, stop) record ranges holding at most ``_BATCH_NODES``
    nodes each; a larger graph is a range of its own."""
    starts, total = [0], 0
    for i, n in enumerate(node_counts):
        if total and total + n > _BATCH_NODES:
            starts.append(i)
            total = 0
        total += n
    return list(zip(starts, starts[1:] + [len(node_counts)]))


def embed_dataset(
    dataset: Dataset,
    wl_config: WlConfig,
    *,
    seed: int,
    n_projections: int,
    n_quantiles: int,
    standardization: StandardizationStats | None = None,
    per_iteration: bool = False,
    jobs: int = 1,
) -> PqStore:
    """Embed every record of a dataset under one shared projection set.

    Row i of each block embeds record i. ``blocks[0]`` embeds the whole WL
    embedding; with ``per_iteration``, ``blocks[1 + h]`` embeds kept
    iteration h alone under its own directions. The store also carries the
    records' targets (when every record has one) and scalar covariates.
    ``kernels.run_calls`` embeds the batches on at most min(jobs, usable
    CPUs) threads; the store is the same for every ``jobs``. A seed below
    0, fewer than 1 projection or job or 2 quantiles, or a value that is
    not an integer is a ValidationError naming it (``errors.integer``).
    """
    jobs = integer("jobs", jobs, least=1)
    seed = integer("seed", seed)
    n_projections = integer("n_projections", n_projections, least=1)
    n_quantiles = integer("n_quantiles", n_quantiles, least=2)
    d, k = dataset.attr_dim, wl_config.block_count
    if standardization is not None and standardization.mean.shape != (d,):
        raise ValidationError(
            f"standardization statistics for {standardization.mean.size} attribute "
            f"dimensions, dataset has {d}"
        )
    projection_sets = [sample_projections(seed, n_projections, k * d)]
    if per_iteration:
        projection_sets += sample_projection_blocks(seed, n_projections, d, k)
    grid = QuantileGrid(n_quantiles)
    blocks = tuple(
        np.empty((len(dataset), n_projections * n_quantiles)) for _ in projection_sets
    )

    def embed_batches(batches):
        for start, stop in batches:
            union, offsets = disjoint_union(rec.graph for rec in dataset.records[start:stop])
            if standardization is not None:
                scaled = (union.attributes - standardization.mean) / standardization.std
                union = replace(union, attributes=scaled)
            wl = wl_embed(union, wl_config)
            # the full embedding, then kept iteration h's columns for blocks[1 + h]
            supports = [wl] + [wl[:, h * d : (h + 1) * d] for h in range(len(blocks) - 1)]
            for i, lo, hi in zip(range(start, stop), offsets, offsets[1:]):
                for block, projections, support in zip(blocks, projection_sets, supports):
                    measure = EmpiricalMeasure(support[lo:hi])
                    block[i] = pq_embed(measure, projections, grid).values

    # call j of k embeds every k-th batch from the j-th on
    batches = _batches(dataset.node_counts())
    k = min(jobs, len(batches))
    run_calls([functools.partial(embed_batches, batches[j::k]) for j in range(k)])

    fingerprints = tuple(
        pq_fingerprint(
            projections, grid, 2.0,
            iterations=wl_config.iterations,
            standardization=standardization,
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
