"""Command-line pipeline with persistent, cacheable intermediate artifacts.

Subcommands: generate, embed, gram, fit, predict, bench, check-psd. Every
command times its stages with one ``_Stages``, which writes the JSON manifest
next to its primary output: the parsed flags, per-stage wall-clock timings,
the peak resident set size and the BLAS set-up. Numeric artifacts are pure
functions of (inputs, flags, seed); manifests additionally carry timings and
memory.

Exit codes: 0 success, 2 input validation (also any ``OSError``: a path that
cannot be opened, read or written), 3 configuration/fingerprint mismatch,
4 numerical failure; each error class in ``errors`` declares its code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import inspect
import json
import os
import resource
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigMismatchError, SchemaError, SwwlError, ValidationError, integer
from .gp import (
    DEFAULT_NUGGET,
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
    KernelConfig,
    assemble_gram,
    assemble_gram_aniso,
    check_psd,
    load_gram,
    openblas_copies,
    run_calls,
    save_gram_binary,
    save_gram_text,
    sq_distances,
    store_gram,
)
from .pipeline import embed_dataset
from .sliced import PqStore, load_pq_store, save_pq_store
from .synthetic import generate_regression_dataset
from .wl import WlConfig, sqrt_skip_iterations


class _Stages:
    """Wall-clock stage timer of one command run, given its parsed flags;
    :meth:`manifest` writes the run's record."""

    def __init__(self, args):
        self.args = args
        self.timings = {}
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._blas_threads = [copy.get_threads() for copy in openblas_copies()]

    @contextlib.contextmanager
    def time(self, name):
        """Add the wall-clock time of the ``with`` body to stage ``name``;
        stages timed on several threads at once may overlap."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = 1000.0 * (time.perf_counter() - start)
            with self._lock:
                self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def manifest(self, path, extra=None, **resolved):
        """Write to ``path`` every parsed flag, overridden by ``resolved``
        values, the timings in milliseconds, the peak resident set size and
        the BLAS set-up, then the ``extra`` entries."""
        parameters = {k: v for k, v in vars(self.args).items() if k not in ("command", "func")}
        parameters.update(resolved)
        manifest = {
            "command": self.args.command,
            "version": __version__,
            "parameters": parameters,
            "timings_ms": {k: round(v, 3) for k, v in self.timings.items()},
            "total_ms": round(1000.0 * (time.perf_counter() - self._t0), 3),
            # peak resident set of this process so far (ru_maxrss is in KiB on Linux)
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            "blas": _blas_setup(self._blas_threads),
        }
        if extra:
            manifest.update(extra)
        Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_setup(threads_before: list[int]) -> dict:
    """Name and version of the BLAS numpy was built with (None before numpy
    1.25, which cannot report them), the BLAS thread variables' values, and
    whether the library sets the thread count of an OpenBLAS copy
    (``managed``), and each copy's library file and count
    ``threads_before`` the command."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    copies = openblas_copies()
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "managed": bool(copies),
        "copies": [{"library": copy.library, "threads_before": before}
                   for copy, before in zip(copies, threads_before)],
    }


def _comma_list(text: str, flag: str, kind=int) -> list:
    """The comma list ``text`` given to ``flag`` as ``kind`` values;
    ValidationError naming the flag and the list if a token is not one."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError as exc:
        noun = flag.strip("-").rstrip("s")
        raise ValidationError(f"cannot parse {noun} list {text!r} given to {flag}") from exc


def _parse_iterations(text: str, dataset: Dataset):
    if text == "sqrt-skip":
        return sqrt_skip_iterations(float(dataset.node_counts().mean()))
    return tuple(_comma_list(text, "--iterations"))


def _load_records(input_path, directory) -> tuple[PqStore, str]:
    """The store in ``directory``, holding the ids, targets and scalars of the
    records in ``input_path``, and where those came from.

    "store": the sha256 of ``input_path`` is the one ``embed`` recorded, so
    the store's own records are used and the file is not parsed. "input":
    the file is parsed, its ids must be the store's in order, and its
    targets and scalars replace the store's.
    """
    store = load_pq_store(directory)
    data = Path(input_path).read_bytes()
    if store.source_sha256 == hashlib.sha256(data).hexdigest():
        return store, "store"
    dataset = load_dataset(data)
    if list(store.ids) != dataset.ids:
        raise ConfigMismatchError(
            f"embeddings in {directory} do not match the dataset records in order "
            f"({len(store.ids)} embeddings, {len(dataset)} records)"
        )
    records = replace(
        store,
        targets=dataset.targets() if dataset.has_targets else None,
        scalars=dataset.scalar_matrix(),
    )
    return records, "input"


_PSD_TOL = inspect.signature(check_psd).parameters["tol"].default


def _psd_verdict(stages, gram, tol=_PSD_TOL) -> dict:
    """Time ``check_psd`` on ``gram``, print its verdict and return the
    report as the manifest's ``psd`` object."""
    with stages.time("check_psd"):
        report = check_psd(gram, tol=tol)
    print(
        f"min eigenvalue {report.min_eigenvalue:.6e} trace {report.trace:.6e} "
        f"verdict {'PSD' if report.is_psd else 'NOT PSD'} (tol {report.tol:g})"
    )
    return asdict(report)


def cmd_generate(args) -> int:
    n_train = integer("--n-train", args.n_train, least=1)
    n_test = integer("--n-test", args.n_test, least=1)
    stages = _Stages(args)
    with stages.time("generate"):
        dataset = generate_regression_dataset(
            seed=args.seed,
            n_graphs=n_train + n_test,
            mean_nodes=args.nodes,
            noise_fraction=args.noise,
            scalar_dim=args.scalars,
            node_spread=args.node_spread,
        )
        train = Dataset(records=dataset.records[:n_train])
        test = Dataset(records=dataset.records[n_train:])
    with stages.time("write"):
        save_dataset(train, args.out_train)
        save_dataset(test, args.out_test)
    stages.manifest(str(args.out_train) + ".manifest.json", n_train=n_train, n_test=n_test,
                    extra={"counts": {"train": len(train), "test": len(test)}})
    print(f"wrote {len(train)} train and {len(test)} test records")
    return 0


def cmd_embed(args) -> int:
    stages = _Stages(args)
    with stages.time("load"):
        data = Path(args.input).read_bytes()
        dataset, digest = load_dataset(data), hashlib.sha256(data).hexdigest()
        del data  # not needed while embedding
    iterations = _parse_iterations(args.iterations, dataset)
    config = WlConfig(iterations=iterations)
    standardization = None
    if args.standardize_stats:
        standardization = StandardizationStats.load(args.standardize_stats)
    elif args.standardize:
        standardization = compute_standardization(dataset)
    with stages.time("embed"):
        store = embed_dataset(
            dataset,
            config,
            seed=args.seed,
            n_projections=args.projections,
            n_quantiles=args.quantiles,
            standardization=standardization,
            per_iteration=args.aniso,
            jobs=args.jobs,
        )
    store = replace(store, source_sha256=digest)
    out_dir = Path(args.out)
    with stages.time("write"):
        # creates the directory once the store passes its check, so a failed
        # load, embed or check leaves no directory behind
        save_pq_store(out_dir, store)
        if args.standardize:
            (out_dir / "standardization.json").write_text(
                json.dumps(standardization.to_dict()) + "\n"
            )
    stages.manifest(
        out_dir / "manifest.json",
        extra={
            "ids": dataset.ids,
            "counts": {
                "records": len(dataset),
                "nodes": int(dataset.node_counts().sum()),
            },
        },
        iterations=list(iterations),
        standardize=standardization is not None,
    )
    print(f"embedded {len(dataset)} records into {out_dir}")
    return 0


def cmd_gram(args) -> int:
    stages = _Stages(args)
    with stages.time("load"):
        store = load_pq_store(args.embeddings)
    if args.distances_only:
        with stages.time("assemble"):
            values = sq_distances(store.blocks[0])
        gram = store_gram(store, 0, values, kind="sw-squared-distances", gamma=0.0)
    elif args.gammas is not None:
        gammas = np.array(_comma_list(args.gammas, "--gammas", float))
        with stages.time("assemble"):
            gram = assemble_gram_aniso(store, gammas)
    else:
        cfg = KernelConfig(gamma=args.gamma)
        with stages.time("assemble"):
            gram = assemble_gram(store, None, cfg)

    def write():
        with stages.time("write"):
            save_gram_text(gram, args.out)
            if args.binary_out:
                save_gram_binary(gram, args.binary_out)

    if args.check_psd:
        # eigvalsh releases the GIL, so the check runs beside the export
        psd, _ = run_calls([functools.partial(_psd_verdict, stages, gram), write])
    else:
        psd = None
        write()
    stages.manifest(str(args.out) + ".manifest.json",
                    extra={"counts": {"records": gram.size}, "psd": psd})
    print(f"wrote {gram.size}x{gram.size} matrix to {args.out}")
    return 0


def cmd_fit(args) -> int:
    settings = GpSettings(nugget=args.nugget, multistarts=args.multistarts, seed=args.opt_seed)
    stages = _Stages(args)
    with stages.time("load"):
        store, records_from = _load_records(args.input, args.embeddings)
    if store.targets is None:
        raise SchemaError(f"{args.input} has records without targets")
    with stages.time("optimize"):
        model = gp_fit(
            store.blocks[0],
            store.scalars,
            store.targets,
            ids=store.ids,
            fingerprint=store.fingerprints[0],
            settings=settings,
        )
    with stages.time("write"):
        save_model(model, args.out)
    stages.manifest(
        str(args.out) + ".manifest.json",
        extra={
            "fitted": {
                "ranges": model.ranges.tolist(),
                "theta_hat": model.theta_hat,
                "sigma2_hat": model.sigma2_hat,
                "dof": model.dof,
            },
            "optimizer": asdict(model.diagnostics),
            "records_from": records_from,
        },
    )
    print(
        f"fitted model on {model.size} records; ranges "
        + ", ".join(f"{v:.4g}" for v in model.ranges)
    )
    return 0


def cmd_predict(args) -> int:
    stages = _Stages(args)
    with stages.time("load"):
        model = load_model(args.model)
        store, records_from = _load_records(args.input, args.embeddings)
    with stages.time("predict"):
        dist = gp_predict(
            model, store.blocks[0], store.scalars, fingerprint=store.fingerprints[0]
        )
    metrics = {}
    if store.targets is not None:
        lo, hi = dist.interval(0.95)
        metrics = {
            "rmse": rmse_metric(dist.mean, store.targets),
            "q2": q2_metric(dist.mean, store.targets),
            # share of the test targets inside their 95% interval
            "coverage95": float(np.mean((lo <= store.targets) & (store.targets <= hi))),
        }
        print(f"rmse {metrics['rmse']:.6g}  q2 {metrics['q2']:.6g}  "
              f"coverage95 {metrics['coverage95']:.6g}")
    with stages.time("write"):
        write_predictions_csv(args.out, store.ids, dist)
    stages.manifest(
        str(args.out) + ".manifest.json",
        extra={
            "metrics": metrics,
            # predictive variances that rounded below 0 and were clamped at 0
            "counts": {"records": len(store.ids), "variances_floored": dist.floored},
            "records_from": records_from,
        },
    )
    print(f"wrote {len(store.ids)} predictions to {args.out}")
    return 0


def _ms_since(start: float) -> str:
    return f"{1000.0 * (time.perf_counter() - start):.3f}"


def _bench_rows(args):
    """Sweep (node count, repeat, P, Q) on regression datasets of ``--graphs``
    training graphs, seeded ``--seed`` + repeat.

    Timing mode writes an embed and a gram row per cell. Rmse mode adds a
    third as many test graphs and writes one row per cell, timing embed, fit
    and predict, with the test RMSE.
    """
    repeats = integer("--repeats", args.repeats, least=1)
    nodes = _comma_list(args.nodes, "--nodes")
    projections = _comma_list(args.projections, "--projections")
    quantiles = _comma_list(args.quantiles, "--quantiles")
    n_train = integer("--graphs", args.graphs, least=1)
    n_test = max(1, n_train // 3) if args.mode == "rmse" else 0
    rows = []
    for n in nodes:
        for rep in range(repeats):
            seed = args.seed + rep
            dataset = generate_regression_dataset(
                seed=seed, n_graphs=n_train + n_test, mean_nodes=n
            )
            config = WlConfig(iterations=_parse_iterations(args.iterations, dataset))
            for p in projections:
                for q in quantiles:
                    start = time.perf_counter()
                    store = embed_dataset(
                        dataset, config, seed=seed, n_projections=p, n_quantiles=q
                    )
                    if args.mode == "timing":
                        rows.append([n, n_train, p, q, "embed", _ms_since(start), ""])
                        start = time.perf_counter()
                        assemble_gram(store, None, KernelConfig(gamma=1.0))
                        stage, cell_rmse = "gram", ""
                    else:
                        features, targets = store.blocks[0], store.targets
                        model = gp_fit(
                            features[:n_train],
                            None,
                            targets[:n_train],
                            settings=GpSettings(seed=seed),
                        )
                        dist = gp_predict(model, features[n_train:], None)
                        stage = "rmse"
                        cell_rmse = f"{rmse_metric(dist.mean, targets[n_train:]):.10g}"
                    rows.append([n, n_train, p, q, stage, _ms_since(start), cell_rmse])
    return rows


def cmd_bench(args) -> int:
    stages = _Stages(args)
    with stages.time("bench"):
        rows = _bench_rows(args)
    with stages.time("write"):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "N", "P", "Q", "stage", "ms", "rmse"])
            writer.writerows(rows)
    stages.manifest(str(args.out) + ".manifest.json", extra={"counts": {"rows": len(rows)}})
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def cmd_check_psd(args) -> int:
    stages = _Stages(args)
    with stages.time("load"):
        gram = load_gram(args.gram)
    psd = _psd_verdict(stages, gram, args.tol)
    stages.manifest(str(args.gram) + ".psd.manifest.json", extra={"psd": psd})
    return 0 if psd["is_psd"] else 4


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
    standardize = p.add_mutually_exclusive_group()
    standardize.add_argument("--standardize", action="store_true")
    standardize.add_argument("--standardize-stats", help="reuse training statistics from file")
    p.add_argument("--aniso", action="store_true", help="also store one block per kept iteration")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gram", help="assemble a Gram or squared-distance matrix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary-out")
    kernel = p.add_mutually_exclusive_group(required=True)
    kernel.add_argument("--gamma", type=float, help="precision of the isotropic kernel")
    kernel.add_argument("--gammas", help="comma list of per-iteration precisions of the "
                        "anisotropic kernel (a store written by embed --aniso)")
    kernel.add_argument("--distances-only", action="store_true",
                        help="write the squared sliced Wasserstein distances")
    p.add_argument("--check-psd", action="store_true")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("fit", help="fit the robust GP on cached embeddings")
    p.add_argument("--input", required=True, help="training dataset with targets")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nugget", type=float, default=DEFAULT_NUGGET)
    p.add_argument("--multistarts", type=int, default=1,
                   help="optimizer starts: the first from the best of a 9-point "
                   "log-range grid, the others from --opt-seed random starts; each "
                   "runs Brent's method with one range, Nelder-Mead with several")
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
    p.add_argument("--gram", required=True, help="a text or binary (SWWL-G1) Gram")
    p.add_argument("--tol", type=float, default=_PSD_TOL)
    p.set_defaults(func=cmd_check_psd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SwwlError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # LinAlgError subclasses ValueError, so it is told apart first
        if isinstance(exc, np.linalg.LinAlgError):
            return 4
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
