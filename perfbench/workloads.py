"""Benchmark workloads: seeded inputs, timed stages and output checks.

Each workload drives the pipeline through its public entry points and times
four stages: embed (train and test), gram (assembly plus PSD check), fit and
predict. The two workloads put the cost in different layers:

regress-wide        library API; 400 train + 400 test graphs of 200 nodes,
                    P=50, Q=500, so features are 25,000 wide. Pairwise
                    squared distances dominate gram, fit and predict.
regress-narrow-cli  ``swwl.cli.main`` on files; 800 train + 200 test graphs
                    of 200 nodes, P=20, Q=100. The GP posterior dominates
                    fit, and artifact I/O carries a large share of every stage.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist, pdist, squareform

import swwl
import swwl.cli
import swwl.kernels
from swwl.synthetic import generate_regression_dataset

JOBS = 2  # the embed thread pool; equals nproc on the reference 2-core machine
WL = swwl.WlConfig(iterations=(0, 1, 2, 3))
GAMMA = 1.0
DIST_RTOL = 1e-12  # accepted relative error of training squared distances
EXP_RTOL = 1e-15  # rounding slack of the two exp() evaluations being compared
SYMMETRY_RTOL = 1e-12
STAGES = ("embed", "gram", "fit", "predict")
WARM_UP_SIZE = 128  # first-call costs do not grow with the matrix
# Median time of each calibration kernel on the reference machine: a 2-core
# x86_64 VM with a 300 MiB shared L3, OpenBLAS 0.3.31 on one thread,
# Python 3.11, numpy 2.4.
CALIBRATION_REF_S = {"small": 0.025, "wide": 0.030}
# The calibration kernels each timing is scaled by, by the product of their
# factors. Work on regress-wide's 80 MB feature matrix (the set-up's
# reference distances, gram, fit, predict) is slowed both by the core, which
# the "small" kernel measures, and by the share of the shared cache this
# process gets, which the "wide" kernel measures: over 60 runs its time moved
# about twice as much, in logs, as either kernel alone, and the product cut
# the spread of pipeline_s over seeds from 0.12 to 0.10 and the shift between
# two batches run 20 minutes apart from 22% to 8%. Everything else is scaled
# by the "small" kernel alone.
SCALED_BY = {
    "regress-wide": {stage: ("small", "wide") for stage in ("setup", "gram", "fit", "predict")},
}


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_test: int
    nodes: int
    projections: int
    quantiles: int
    q2_floor: float
    coverage: tuple[float, float]  # accepted share of test targets inside the 95% interval
    min_reps: int  # repetitions a run makes at least, however short --seconds


SIZES = {
    "regress-wide": Sizes(400, 400, 200, 50, 500, 0.998, (0.85, 1.0), 4),
    "regress-narrow-cli": Sizes(800, 200, 200, 20, 100, 0.998, (0.85, 1.0), 3),
}

# Small enough for the self-test to run every workload in seconds.
TINY_SIZES = {
    "regress-wide": Sizes(30, 10, 40, 8, 20, 0.5, (0.5, 1.0), 3),
    "regress-narrow-cli": Sizes(30, 10, 40, 8, 20, 0.5, (0.5, 1.0), 3),
}


class StageFailed(RuntimeError):
    """A program call failed: an exception or a non-zero CLI exit."""


@dataclass
class Inputs:
    train: swwl.Dataset
    test: swwl.Dataset
    ref_sq: np.ndarray  # reference training squared distances (scipy pdist)
    work: Path | None = None


@dataclass
class Outputs:
    gram: np.ndarray
    is_psd: bool
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    digest: str


def make_datasets(seed: int, sizes: Sizes) -> tuple[swwl.Dataset, swwl.Dataset]:
    records = generate_regression_dataset(
        seed=seed, n_graphs=sizes.n_train + sizes.n_test, mean_nodes=sizes.nodes
    ).records
    return (
        swwl.Dataset(records=tuple(records[: sizes.n_train])),
        swwl.Dataset(records=tuple(records[sizes.n_train:])),
    )


def reference_sq(train: swwl.Dataset, seed: int, sizes: Sizes) -> np.ndarray:
    emb = swwl.embed_dataset(
        train, WL, seed=seed, n_projections=sizes.projections,
        n_quantiles=sizes.quantiles, jobs=JOBS,
    )
    return squareform(pdist(np.vstack([e.values for e in emb.embeddings]), "sqeuclidean"))


def warm_up(n: int) -> None:
    """Call each linear-algebra routine of the stages once, outside stage times."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    np.linalg.eigvalsh(spd)
    np.linalg.eigh(spd)
    chol = np.linalg.cholesky(spd)
    scipy.linalg.cho_solve((chol, True), np.ones(n))
    pdist(a, "sqeuclidean")
    cdist(a, a, "sqeuclidean")
    np.exp(-spd)


@functools.cache
def _calibration_inputs(rows: int, width: int):
    rng = np.random.default_rng(0)
    return (rng.standard_normal((40, 25000)), rng.standard_normal((40, 25000)),
            rng.standard_normal(200_000), rng.standard_normal((rows, width)))


def _small_kernel(a, b, values, _) -> None:
    """Interpreter loops, a sort and distances on 16 MB: the embed stages,
    the GP's Cholesky factorizations, file I/O."""
    total = 0
    for i in range(50_000):
        total += i * i
    np.sort(values)
    cdist(a, b, "sqeuclidean")


def _wide_kernel(a, _, __, wide) -> None:
    """Distances from four rows to every row of a training-sized feature
    matrix: the same working set as the wide stages, swept four times."""
    cdist(a[:4, : wide.shape[1]], wide, "sqeuclidean")


def slowdown(kind: str, sizes: Sizes) -> float:
    """How many times slower than the reference machine this one runs now.

    Times the ``kind`` calibration kernel ("small" or "wide") three times
    (about 0.1 s), runs no swwl code, and divides the median by its median
    on the reference machine.
    """
    kernel = {"small": _small_kernel, "wide": _wide_kernel}[kind]
    inputs = _calibration_inputs(sizes.n_train, sizes.projections * sizes.quantiles)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel(*inputs)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REF_S[kind]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class LibraryWorkload:
    """Pipeline through ``embed_dataset``/``assemble_gram``/``check_psd``/``fit``/``predict``."""

    def __init__(self, name: str, sizes: Sizes):
        self.name, self.sizes = name, sizes
        self.scaled_by = SCALED_BY.get(name, {})

    def setup(self, seed: int, work: Path) -> Inputs:
        train, test = make_datasets(seed, self.sizes)
        ref = reference_sq(train, seed, self.sizes)
        warm_up(WARM_UP_SIZE)
        return Inputs(train, test, ref)

    def _embed(self, dataset, seed):
        return swwl.embed_dataset(
            dataset, WL, seed=seed, n_projections=self.sizes.projections,
            n_quantiles=self.sizes.quantiles, jobs=JOBS,
        )

    def repetition(self, inputs: Inputs, seed: int, rep: int, stage) -> Outputs:
        def embed():
            return (self._embed(inputs.train, seed).embeddings,
                    self._embed(inputs.test, seed).embeddings)

        def gram():
            matrix = swwl.assemble_gram(train, None, swwl.KernelConfig(gamma=GAMMA))
            return matrix, swwl.check_psd(matrix)

        train, test = stage("embed", embed)
        matrix, psd = stage("gram", gram)
        model = stage("fit", lambda: swwl.fit(
            np.vstack([e.values for e in train]), None, inputs.train.targets(),
            ids=tuple(inputs.train.ids), fingerprint=train[0].fingerprint,
        ))
        dist = stage("predict", lambda: swwl.predict(
            model, np.vstack([e.values for e in test]), None, fingerprint=test[0].fingerprint,
        ))
        lo, hi = dist.interval(0.95)
        return Outputs(
            matrix.values, psd.is_psd, dist.mean, lo, hi,
            _digest(dist.mean, dist.scale_diagonal()),
        )


def cli(*argv) -> None:
    """Run ``swwl.cli.main`` in-process; a non-zero exit raises StageFailed."""
    args = [str(a) for a in argv]
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = swwl.cli.main(args)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    if code != 0:
        raise StageFailed(f"swwl {args[0]} exited with {code}: {err.getvalue().strip()}")


class CliWorkload:
    """``swwl generate`` in setup, then embed/gram/fit/predict on files."""

    def __init__(self, name: str, sizes: Sizes):
        self.name, self.sizes = name, sizes
        self.scaled_by = SCALED_BY.get(name, {})

    def setup(self, seed: int, work: Path) -> Inputs:
        work.mkdir(parents=True, exist_ok=True)
        s = self.sizes
        cli("generate", "--out-train", work / "train.jsonl", "--out-test", work / "test.jsonl",
            "--n-train", s.n_train, "--n-test", s.n_test, "--nodes", s.nodes, "--seed", seed)
        train = swwl.load_dataset(work / "train.jsonl")
        test = swwl.load_dataset(work / "test.jsonl")
        ref = reference_sq(train, seed, s)
        warm_up(WARM_UP_SIZE)
        return Inputs(train, test, ref, work)

    def repetition(self, inputs: Inputs, seed: int, rep: int, stage) -> Outputs:
        s, work = self.sizes, inputs.work
        out = work / f"rep{rep}"
        embed_flags = ("--projections", s.projections, "--quantiles", s.quantiles,
                       "--seed", seed, "--jobs", JOBS)
        try:
            stage("embed", lambda: (
                cli("embed", "--input", work / "train.jsonl", "--out", out / "emb-train",
                    *embed_flags),
                cli("embed", "--input", work / "test.jsonl", "--out", out / "emb-test",
                    *embed_flags),
            ))
            stage("gram", lambda: cli(
                "gram", "--embeddings", out / "emb-train", "--out", out / "gram.txt",
                "--gamma", GAMMA, "--check-psd", "--binary-out", out / "gram.bin",
            ))
            stage("fit", lambda: cli(
                "fit", "--input", work / "train.jsonl", "--embeddings", out / "emb-train",
                "--out", out / "model.bin",
            ))
            stage("predict", lambda: cli(
                "predict", "--model", out / "model.bin", "--input", work / "test.jsonl",
                "--embeddings", out / "emb-test", "--out", out / "pred.csv",
            ))
            gram = swwl.kernels.load_gram_binary(out / "gram.bin").values
            manifest = json.loads((out / "gram.txt.manifest.json").read_text())
            raw = (out / "pred.csv").read_bytes()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        column = lambda key: np.array([float(r[key]) for r in rows])  # noqa: E731
        return Outputs(
            gram, bool(manifest["psd"]["is_psd"]), column("mean"), column("lo95"),
            column("hi95"), hashlib.sha256(raw).hexdigest(),
        )


def check(outputs: Outputs, inputs: Inputs, sizes: Sizes, first_digest: str | None):
    """Output checks of one repetition: ({check name: passed}, q2)."""
    g = outputs.gram
    scale = max(1.0, float(np.max(np.abs(g)))) if g.size else 1.0
    ref = inputs.ref_sq
    passed = {
        "gram_symmetric": g.size > 0 and float(np.max(np.abs(g - g.T))) <= SYMMETRY_RTOL * scale,
        "gram_psd": bool(outputs.is_psd),
    }
    # exp(-gamma*d) moves by gamma*exp(-gamma*d)*|delta d|: a relative error
    # DIST_RTOL in d allows this much in the Gram entry.
    ref_g = np.exp(-GAMMA * ref)
    tol = ref_g * (DIST_RTOL * GAMMA * ref + EXP_RTOL)
    passed["train_distances"] = g.shape == ref.shape and bool(np.all(np.abs(g - ref_g) <= tol))
    truth = inputs.test.targets()
    q2 = float("nan")
    if outputs.mean.shape == truth.shape:
        q2 = 1.0 - float(np.sum((outputs.mean - truth) ** 2)) / float(
            np.sum((truth - truth.mean()) ** 2)
        )
    passed["q2_floor"] = q2 >= sizes.q2_floor
    covered = float(np.mean((truth >= outputs.lo) & (truth <= outputs.hi))) if (
        outputs.lo.shape == truth.shape) else float("nan")
    passed["interval_coverage"] = sizes.coverage[0] <= covered <= sizes.coverage[1]
    passed["predictions_identical"] = first_digest in (None, outputs.digest)
    return passed, q2


def make(name: str, tiny: bool = False):
    sizes = (TINY_SIZES if tiny else SIZES)[name]
    kind = CliWorkload if name == "regress-narrow-cli" else LibraryWorkload
    return kind(name, sizes)


NAMES = tuple(SIZES)
