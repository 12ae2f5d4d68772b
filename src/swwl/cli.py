"""Command-line pipeline with persistent, cacheable intermediate artifacts.

Subcommands: generate, embed, gram, fit, predict, bench, check-psd. Every
command writes a JSON manifest with its parameters and per-stage wall-clock
timings next to its primary output. Numeric artifacts are pure functions of
(inputs, flags, seed); manifests additionally carry timings.

Exit codes: 0 success, 2 input validation, 3 configuration/fingerprint
mismatch, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CholeskyError,
    ConfigMismatchError,
    ConstantTargetError,
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    NonSymmetricError,
    OptimizationError,
    ParseError,
    SchemaError,
    ShapeError,
    SizeMismatchError,
    TooLargeError,
    ValidationError,
)
from .gp import (
    GpSettings,
    fit as gp_fit,
    load_model,
    predict as gp_predict,
    q2 as q2_metric,
    rmse as rmse_metric,
    save_model,
    write_predictions_csv,
)
from .graphs import (
    Dataset,
    StandardizationStats,
    compute_standardization,
    load_dataset,
    save_dataset,
)
from .kernels import (
    GramMatrix,
    KernelConfig,
    assemble_gram,
    assemble_gram_aniso,
    check_psd,
    load_gram_binary,
    load_gram_text,
    save_gram_binary,
    save_gram_text,
    sw_squared_distances,
)
from .pipeline import embed_dataset
from .sliced import load_pq_store, save_pq_store
from .synthetic import generate_regression_dataset, generate_timing_graph
from .wl import WlConfig, save_wl_embedding, sqrt_skip_iterations, embed as wl_embed

_VALIDATION_ERRORS = (
    ParseError,
    SchemaError,
    ValidationError,
    ShapeError,
    EmptyInputError,
    LengthMismatchError,
    SizeMismatchError,
    DimensionMismatchError,
    TooLargeError,
    FileNotFoundError,
    ValueError,
)
_NUMERICAL_ERRORS = (
    CholeskyError,
    OptimizationError,
    ConstantTargetError,
    NonSymmetricError,
    DegenerateDrawError,
    np.linalg.LinAlgError,
)


class _Stages:
    """Wall-clock stage timer; milliseconds, written into the manifest."""

    def __init__(self):
        self.timings = {}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def time(self, name):
        """Add the wall-clock time of the ``with`` body to stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = 1000.0 * (time.perf_counter() - start)
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def total_ms(self) -> float:
        return 1000.0 * (time.perf_counter() - self._t0)


def _write_manifest(path, command, parameters, stages, extra=None):
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "timings_ms": {k: round(v, 3) for k, v in stages.timings.items()},
        "total_ms": round(stages.total_ms(), 3),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_iterations(text: str, dataset: Dataset | None):
    if text == "sqrt-skip":
        if dataset is None:
            raise ValidationError("sqrt-skip needs a dataset to size the step")
        mean_nodes = float(dataset.node_counts().mean())
        return sqrt_skip_iterations(mean_nodes)
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse iteration list {text!r}") from exc


def _default_jobs() -> int:
    return int(os.environ.get("SWWL_JOBS", "1"))


def _load_store(directory, expect_ids):
    store = load_pq_store(directory)
    if list(store.ids) != list(expect_ids):
        raise ConfigMismatchError(
            f"embeddings in {directory} do not match the dataset records in order "
            f"({len(store.ids)} embeddings, {len(expect_ids)} records)"
        )
    return store


def cmd_generate(args) -> int:
    stages = _Stages()
    with stages.time("generate"):
        total = args.n_train + args.n_test
        dataset = generate_regression_dataset(
            seed=args.seed,
            n_graphs=total,
            mean_nodes=args.nodes,
            noise_fraction=args.noise,
            scalar_dim=args.scalars,
            node_spread=args.node_spread,
        )
        train = Dataset(records=dataset.records[: args.n_train])
        test = Dataset(records=dataset.records[args.n_train :])
    with stages.time("write"):
        save_dataset(train, args.out_train)
        save_dataset(test, args.out_test)
    _write_manifest(
        str(args.out_train) + ".manifest.json",
        "generate",
        {
            "seed": args.seed,
            "n_train": args.n_train,
            "n_test": args.n_test,
            "nodes": args.nodes,
            "noise": args.noise,
            "scalars": args.scalars,
            "node_spread": args.node_spread,
            "out_train": str(args.out_train),
            "out_test": str(args.out_test),
        },
        stages,
        extra={"counts": {"train": len(train), "test": len(test)}},
    )
    print(f"wrote {len(train)} train and {len(test)} test records")
    return 0


def cmd_embed(args) -> int:
    stages = _Stages()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with stages.time("load"):
        dataset = load_dataset(args.input)
    iterations = _parse_iterations(args.iterations, dataset)
    config = WlConfig(iterations=iterations)
    standardization = None
    if args.standardize_stats:
        standardization = StandardizationStats.from_dict(
            json.loads(Path(args.standardize_stats).read_text())
        )
    elif args.standardize:
        standardization = compute_standardization(dataset)
        (out_dir / "standardization.json").write_text(
            json.dumps(standardization.to_dict()) + "\n"
        )
    with stages.time("embed"):
        result = embed_dataset(
            dataset,
            config,
            seed=args.seed,
            n_projections=args.projections,
            n_quantiles=args.quantiles,
            r=args.r,
            standardization=standardization,
            per_iteration=args.aniso,
            jobs=args.jobs,
        )
    with stages.time("write"):
        save_pq_store(out_dir, result.embeddings, result.per_iteration)
        if args.wl_out:
            wl_dir = Path(args.wl_out)
            wl_dir.mkdir(parents=True, exist_ok=True)
            # zero-padded to the widest index, so names sort in dataset order
            width = len(str(len(dataset) - 1))
            for i, rec in enumerate(dataset.records):
                save_wl_embedding(
                    wl_embed(rec.graph, config, graph_id=rec.id),
                    wl_dir / f"{i:0{width}d}.wl",
                )
    _write_manifest(
        out_dir / "manifest.json",
        "embed",
        {
            "input": str(args.input),
            "out": str(out_dir),
            "iterations": list(iterations),
            "projections": args.projections,
            "quantiles": args.quantiles,
            "seed": args.seed,
            "r": args.r,
            "standardize": bool(standardization is not None),
            "aniso": args.aniso,
            "jobs": args.jobs,
        },
        stages,
        extra={
            "ids": dataset.ids,
            "counts": {
                "records": len(dataset),
                "nodes": int(dataset.node_counts().sum()),
            },
        },
    )
    print(f"embedded {len(dataset)} records into {out_dir}")
    return 0


def cmd_gram(args) -> int:
    stages = _Stages()
    with stages.time("load"):
        store = load_pq_store(args.embeddings)
    if args.distances_only:
        with stages.time("assemble"):
            values = sw_squared_distances(store.embeddings(0))
        fp = store.fingerprints[0].to_dict()
        fp.update({"kind": "sw-squared-distances", "gamma": 0.0})
        gram = GramMatrix(values=values, row_ids=store.ids, fingerprint=fp)
    elif args.aniso:
        if not args.gammas:
            raise ValidationError("--aniso requires --gammas")
        if len(store.blocks) == 1:
            raise ValidationError(f"{args.embeddings} has no per-iteration blocks (embed --aniso)")
        gammas = np.array([float(t) for t in args.gammas.split(",")])
        per_iter = [store.embeddings(k) for k in range(1, len(store.blocks))]
        with stages.time("assemble"):
            gram = assemble_gram_aniso(per_iter, gammas, nugget=args.nugget)
    else:
        if args.gamma is None:
            raise ValidationError("need --gamma, --distances-only or --aniso")
        cfg = KernelConfig(
            gamma=args.gamma, variance=args.variance, nugget=args.nugget
        )
        with stages.time("assemble"):
            gram = assemble_gram(
                store.embeddings(0), None, cfg, nugget_on_diagonal=args.nugget > 0
            )
    report = None
    if args.check_psd:
        with stages.time("check_psd"):
            report = check_psd(gram)
        print(
            f"min eigenvalue {report.min_eigenvalue:.6e} "
            f"({'PSD' if report.is_psd else 'NOT PSD'} at tol {report.tol:g})"
        )
    with stages.time("write"):
        save_gram_text(gram, args.out)
        if args.binary_out:
            save_gram_binary(gram, args.binary_out)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "gram",
        {
            "embeddings": str(args.embeddings),
            "out": str(args.out),
            "gamma": args.gamma,
            "gammas": args.gammas,
            "distances_only": args.distances_only,
            "aniso": args.aniso,
            "variance": args.variance,
            "nugget": args.nugget,
        },
        stages,
        extra={
            "counts": {"records": gram.size},
            "psd": None
            if report is None
            else {"min_eigenvalue": report.min_eigenvalue, "is_psd": report.is_psd},
        },
    )
    print(f"wrote {gram.size}x{gram.size} matrix to {args.out}")
    return 0


def cmd_fit(args) -> int:
    stages = _Stages()
    with stages.time("load"):
        dataset = load_dataset(args.input)
        store = _load_store(args.embeddings, dataset.ids)
        targets = dataset.targets()
    with stages.time("optimize"):
        scalars = dataset.scalar_matrix() if dataset.scalar_dim else None
        model = gp_fit(
            store.blocks[0],
            scalars,
            targets,
            ids=tuple(dataset.ids),
            fingerprint=store.fingerprints[0],
            settings=GpSettings(
                nugget=args.nugget,
                multistarts=args.multistarts,
                max_evals=args.max_evals,
                seed=args.opt_seed,
            ),
        )
    with stages.time("write"):
        save_model(model, args.out)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "fit",
        {
            "input": str(args.input),
            "embeddings": str(args.embeddings),
            "out": str(args.out),
            "nugget": args.nugget,
            "multistarts": args.multistarts,
            "max_evals": args.max_evals,
            "opt_seed": args.opt_seed,
        },
        stages,
        extra={
            "fitted": {
                "ranges": model.ranges.tolist(),
                "theta_hat": model.theta_hat,
                "sigma2_hat": model.sigma2_hat,
                "dof": model.dof,
            }
        },
    )
    print(
        f"fitted model on {model.size} records; ranges "
        + ", ".join(f"{v:.4g}" for v in model.ranges)
    )
    return 0


def cmd_predict(args) -> int:
    stages = _Stages()
    with stages.time("load"):
        model = load_model(args.model)
        dataset = load_dataset(args.input)
        store = _load_store(args.embeddings, dataset.ids)
    with stages.time("predict"):
        scalars = dataset.scalar_matrix() if dataset.scalar_dim else None
        dist = gp_predict(
            model, store.blocks[0], scalars, fingerprint=store.fingerprints[0]
        )
    metrics = {}
    if dataset.has_targets:
        truth = dataset.targets()
        metrics = {
            "rmse": rmse_metric(dist.mean, truth),
            "q2": q2_metric(dist.mean, truth),
        }
        print(f"rmse {metrics['rmse']:.6g}  q2 {metrics['q2']:.6g}")
    with stages.time("write"):
        write_predictions_csv(args.out, dataset.ids, dist)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "predict",
        {
            "model": str(args.model),
            "input": str(args.input),
            "embeddings": str(args.embeddings),
            "out": str(args.out),
        },
        stages,
        extra={"metrics": metrics, "counts": {"records": len(dataset)}},
    )
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _bench_timing_rows(args):
    from .sliced import EmpiricalMeasure, QuantileGrid, pq_embed, sample_projections

    rows = []
    nodes = [int(t) for t in args.nodes.split(",")]
    p_grid = [int(t) for t in args.projections.split(",")]
    q_grid = [int(t) for t in args.quantiles.split(",")]
    config = WlConfig(iterations=tuple(int(t) for t in args.iterations.split(",")))
    for n in nodes:
        graphs = [
            generate_timing_graph(args.seed + i, n) for i in range(args.graphs)
        ]
        for p in p_grid:
            for q in q_grid:
                t0 = time.perf_counter()
                projections = sample_projections(args.seed, p, config.block_count * 2)
                grid = QuantileGrid(q)
                embeddings = []
                for i, g in enumerate(graphs):
                    wl = wl_embed(g, config, graph_id=str(i))
                    embeddings.append(
                        pq_embed(EmpiricalMeasure(wl.values), projections, grid)
                    )
                embed_ms = 1000.0 * (time.perf_counter() - t0)
                t0 = time.perf_counter()
                assemble_gram(embeddings, None, KernelConfig(gamma=1.0))
                gram_ms = 1000.0 * (time.perf_counter() - t0)
                rows.append([n, args.graphs, p, q, "embed", f"{embed_ms:.3f}", ""])
                rows.append([n, args.graphs, p, q, "gram", f"{gram_ms:.3f}", ""])
    return rows


def _bench_rmse_rows(args):
    from .sliced import EmpiricalMeasure, QuantileGrid, pq_embed, sample_projections

    rows = []
    p_grid = [int(t) for t in args.projections.split(",")]
    q_grid = [int(t) for t in args.quantiles.split(",")]
    config = WlConfig(iterations=tuple(int(t) for t in args.iterations.split(",")))
    n_train = args.graphs
    n_test = max(1, args.graphs // 3)
    for rep in range(args.repeats):
        seed = args.seed + rep
        dataset = generate_regression_dataset(
            seed=seed, n_graphs=n_train + n_test, mean_nodes=int(args.nodes.split(",")[0])
        )
        wl_values = [wl_embed(rec.graph, config).values for rec in dataset]
        targets = dataset.targets()
        for p in p_grid:
            for q in q_grid:
                t0 = time.perf_counter()
                projections = sample_projections(seed, p, wl_values[0].shape[1])
                grid = QuantileGrid(q)
                embeddings = [
                    pq_embed(EmpiricalMeasure(v), projections, grid, graph_id=str(i))
                    for i, v in enumerate(wl_values)
                ]
                features = np.vstack([e.values for e in embeddings])
                model = gp_fit(
                    features[:n_train],
                    None,
                    targets[:n_train],
                    settings=GpSettings(seed=seed),
                )
                dist = gp_predict(model, features[n_train:], None)
                cell_rmse = rmse_metric(dist.mean, targets[n_train:])
                ms = 1000.0 * (time.perf_counter() - t0)
                rows.append(
                    [
                        int(args.nodes.split(",")[0]),
                        n_train,
                        p,
                        q,
                        "rmse",
                        f"{ms:.3f}",
                        f"{cell_rmse:.10g}",
                    ]
                )
    return rows


def cmd_bench(args) -> int:
    stages = _Stages()
    with stages.time("bench"):
        if args.mode == "timing":
            rows = _bench_timing_rows(args)
        else:
            rows = _bench_rmse_rows(args)
    with stages.time("write"):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "N", "P", "Q", "stage", "ms", "rmse"])
            writer.writerows(rows)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "bench",
        {
            "mode": args.mode,
            "nodes": args.nodes,
            "graphs": args.graphs,
            "projections": args.projections,
            "quantiles": args.quantiles,
            "iterations": args.iterations,
            "seed": args.seed,
            "repeats": args.repeats,
            "out": str(args.out),
        },
        stages,
        extra={"counts": {"rows": len(rows)}},
    )
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def cmd_check_psd(args) -> int:
    stages = _Stages()
    with stages.time("load"):
        gram = load_gram_binary(args.gram) if args.binary else load_gram_text(args.gram)
    with stages.time("check_psd"):
        report = check_psd(gram, tol=args.tol)
    print(
        f"min eigenvalue {report.min_eigenvalue:.6e} trace {report.trace:.6e} "
        f"verdict {'PSD' if report.is_psd else 'NOT PSD'} (tol {report.tol:g})"
    )
    _write_manifest(
        str(args.gram) + ".psd.manifest.json",
        "check-psd",
        {"gram": str(args.gram), "tol": args.tol, "binary": args.binary},
        stages,
        extra={
            "psd": {
                "min_eigenvalue": report.min_eigenvalue,
                "is_psd": report.is_psd,
                "trace": report.trace,
            }
        },
    )
    return 0 if report.is_psd else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swwl",
        description="Sliced-Wasserstein Weisfeiler-Lehman graph kernels and GP regression",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic regression dataset")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--n-train", type=int, default=120)
    p.add_argument("--n-test", type=int, default=40)
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--scalars", type=int, default=0)
    p.add_argument("--node-spread", type=float, default=0.0,
                   help="node count range as a fraction of --nodes (0 = fixed size)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="compute projected quantile embeddings")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output cache directory")
    p.add_argument("--iterations", default="0,1,2,3", help="comma list or 'sqrt-skip'")
    p.add_argument("--projections", type=int, default=50)
    p.add_argument("--quantiles", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--standardize-stats", help="reuse training statistics from file")
    p.add_argument("--aniso", action="store_true", help="also store one block per kept iteration")
    p.add_argument("--wl-out", help="optional directory for raw WL embedding caches")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gram", help="assemble a Gram or squared-distance matrix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary-out")
    p.add_argument("--gamma", type=float)
    p.add_argument("--gammas", help="comma list of per-iteration precisions (--aniso)")
    p.add_argument("--distances-only", action="store_true")
    p.add_argument("--aniso", action="store_true")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--nugget", type=float, default=0.0)
    p.add_argument("--check-psd", action="store_true")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("fit", help="fit the robust GP on cached embeddings")
    p.add_argument("--input", required=True, help="training dataset with targets")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nugget", type=float, default=1e-8)
    p.add_argument("--multistarts", type=int, default=5)
    p.add_argument("--max-evals", type=int, default=400)
    p.add_argument("--opt-seed", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="timing / accuracy sweeps on synthetic graphs")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["timing", "rmse"], default="timing")
    p.add_argument("--nodes", default="100,200")
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--projections", default="5,10,20,50,100")
    p.add_argument("--quantiles", default="10,100,500,1000")
    p.add_argument("--iterations", default="0,1,2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check-psd", help="report the smallest eigenvalue of a Gram file")
    p.add_argument("--gram", required=True)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_check_psd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
