#!/usr/bin/env python3
"""Benchmark of the swwl pipeline: end-to-end stage times, or per-layer spans.

    python3 perfbench/run.py --workload regress-wide --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` there, and the run exits with code 2 and no result if it is missing.
Set-up (inputs from the seed, the correctness reference, warm-up) runs three
times and is timed as ``setup_s``. Then repetitions of the pipeline run for
about ``--seconds``, and at least the workload's ``min_reps``, each followed
by the output checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with times scaled to the reference
machine's speed (see ``Scaler``). With
``--trace 1`` the run alternates untraced and traced repetitions and the
metrics are the per-layer ones, medians over the traced repetitions, plus
the tracing overhead. The line before it carries sample counts, worst values,
the environment and the check results; the same object, and in a traced run
the spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
STAGE_MIN_S = 1.0
STAGE_MAX_CALLS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better). The four stage times are per-layer metrics
# (``stage.*``, see spans.LAYER_METRICS): one stage alone spreads too much
# from run to run on a shared machine to be held to a bound, their sum less.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("q2", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def source_digest(src: Path) -> str:
    """Hash of the package sources; identifies the program when git is absent."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src" / "swwl"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "jobs": jobs,
        "seed": seed,
    }


class Scaler:
    """Scales wall times to the reference machine's speed while they were taken.

    The machine this benchmark was built on, a shared one, drifts between a
    fast state and one up to 50% slower over seconds to minutes, mostly with
    the share of the shared cache its neighbours leave. ``sample`` times each
    calibration kernel the workload uses (``workloads.slowdown``). A time is
    divided by the product, over the kernels ``workloads.SCALED_BY`` names
    for it, of the mean of the samples taken just before and just after it.
    """

    def __init__(self, workload, clock):
        self.workload, self.clock = workload, clock
        kinds = sorted({"small"}.union(*workload.scaled_by.values()))
        self.samples = {kind: [] for kind in kinds}
        self.sample()
        for samples in self.samples.values():
            samples.clear()  # the first calls of a kernel pay one-time costs
        self.sample()

    def sample(self) -> None:
        for kind, samples in self.samples.items():
            samples.append(self.clock(kind, self.workload.sizes))

    def scale(self, walls: list[float], stage: str = "setup") -> list[float]:
        """Take the "after" sample of ``walls`` and return them scaled."""
        self.sample()
        kinds = self.workload.scaled_by.get(stage, ("small",))
        factor = math.prod(0.5 * (self.samples[k][-2] + self.samples[k][-1]) for k in kinds)
        return [wall / factor for wall in walls]


def run_stage(tracer, traced: bool, scaler: Scaler, walls: dict, scaled: dict, name: str, fn):
    """Run one stage, store its call times under ``name`` and return its result.

    Untraced, a stage shorter than STAGE_MIN_S runs again, up to
    STAGE_MAX_CALLS calls, so that short stages are sampled more than once
    per repetition; each call is scaled on its own. Traced, it runs once,
    so that the spans count one pipeline; spans are recorded only inside
    stages.
    """
    walls[name], scaled[name] = [], []
    while True:
        release_free_memory()
        tracer.recording = traced
        start = time.perf_counter()
        try:
            with tracer.span("stage." + name):
                result = fn()
        finally:
            tracer.recording = False
        walls[name].append(time.perf_counter() - start)
        scaled[name] += scaler.scale(walls[name][-1:], name)
        if traced or sum(walls[name]) >= STAGE_MIN_S or len(walls[name]) == STAGE_MAX_CALLS:
            return result


def summary(values: list[float], better: str) -> dict:
    ordered = sorted(values, reverse=better == "higher")
    return {"median": statistics.median(values), "n": len(values),
            "best": ordered[0], "worst": ordered[-1]}


def bench(workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run set-up and repetitions; returns (result line, detail, tracer).

    Every time metric is scaled by ``Scaler`` and is the median over the
    run: of the set-ups for ``setup_s``, of the untraced repetitions for the
    stage times and ``pipeline_s``. A new repetition starts while fewer than
    ``sizes.min_reps`` have run, or while one as long as the last would
    still end within ``seconds``.
    """
    import spans
    import workloads

    stages = workloads.STAGES
    work = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    tracer = spans.Tracer(workload.name)
    scaler = Scaler(workload, workloads.slowdown)
    setups, setups_wall = [], []
    untraced, traced_reps = [], []
    layer_reps, q2s, failures = [], [], []
    attempted = failed = 0
    try:
        for _ in range(SETUP_REPEATS):
            inputs = None  # release the previous inputs before building new ones
            release_free_memory()
            start = time.perf_counter()
            inputs = workload.setup(seed, work)
            setups_wall.append(time.perf_counter() - start)
            setups += scaler.scale(setups_wall[-1:])
        if trace:
            tracer.install()
        try:
            first_digest = None
            start, rep, last = time.perf_counter(), 0, 0.0
            while rep < workload.sizes.min_reps or time.perf_counter() - start + last <= seconds:
                rep_start = time.perf_counter()
                traced = trace and rep % 2 == 1
                tracer.rep = rep
                first_span = len(tracer.spans)
                walls: dict[str, list[float]] = {}
                scaled: dict[str, list[float]] = {}
                stage = functools.partial(run_stage, tracer, traced, scaler, walls, scaled)
                rep += 1
                try:
                    outputs = workload.repetition(inputs, seed, rep - 1, stage)
                except Exception as exc:  # a failed stage counts, the run goes on
                    failing = next((s for s in stages if not walls.get(s)), "outputs")
                    attempted += sum(bool(walls.get(s)) for s in stages) + 1
                    failed += 1
                    failures.append(f"rep {rep - 1} stage {failing}: {exc!r}")
                    continue
                finally:
                    last = time.perf_counter() - rep_start
                attempted += len(stages)
                passed, q2 = workloads.check(outputs, inputs, workload.sizes, first_digest)
                first_digest = first_digest or outputs.digest
                attempted += len(passed)
                failed += sum(not ok for ok in passed.values())
                failures += [f"rep {rep - 1} check {name} failed"
                             for name, ok in passed.items() if not ok]
                q2s.append(q2)
                if traced:
                    traced_reps.append(walls)
                    layer_reps.append(spans.layer_metrics(tracer.spans[first_span:]))
                else:
                    untraced.append((walls, scaled))
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (trace and not layer_reps):
        raise RuntimeError("no repetition completed: " + "; ".join(failures))
    # per repetition: the median call of each stage, and their sum
    reps = [{s: statistics.median(scaled[s]) for s in stages} for _, scaled in untraced]
    for times in reps:
        times["pipeline"] = sum(times[s] for s in stages)
    samples = {
        "setup_s": setups,
        **{f"{s}_s": [t[s] for t in reps] for s in (*stages, "pipeline")},
        "q2": q2s,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "success_rate": [1.0 - failed / attempted],
    }
    better = {name: b for name, _, b in END_TO_END}
    summaries = {name: summary(v, better.get(name, "lower")) for name, v in samples.items()}
    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "env": environment(root, seed, workloads.JOBS),
        "samples": summaries,
        "slowdown": {kind: {"median": statistics.median(v), "n": len(v), "min": min(v),
                            "max": max(v)} for kind, v in scaler.samples.items()},
        "wall_s": {"setup": setups_wall,
                   **{s: [walls[s] for walls, _ in untraced] for s in stages}},
        "failures": failures,
    }
    if trace:
        # per-layer times are wall-clock, like the spans they come from
        layers = spans.median_metrics(layer_reps)
        traced_wall = {s: statistics.median(t[s][0] for t in traced_reps) for s in stages}
        traced_wall["pipeline"] = statistics.median(
            sum(t[s][0] for s in stages) for t in traced_reps)
        # like for like: the first call of each stage in the untraced repetitions
        untraced_first = statistics.median(
            sum(walls[s][0] for s in stages) for walls, _ in untraced)
        for s in stages:
            layers[f"stage.{s}_s"] = summaries[f"{s}_s"]["median"]
        layers["trace.pipeline_s"] = traced_wall["pipeline"]
        layers["trace.overhead_s"] = traced_wall["pipeline"] - untraced_first
        detail["traced_wall_s"] = traced_wall
        detail["purpose"] = purpose_shares(layers, traced_wall)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, *_ in spans.LAYER_METRICS}
    else:
        metrics = {name: {"value": summaries[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail, tracer


def purpose_shares(layers: dict, stage: dict) -> dict:
    """The layer shares that state each workload's purpose, from a traced run."""
    pipeline = stage["pipeline"]
    distances = (layers["kernels.sq_dist_s"] + layers["gp.train_dist_s"]
                 + layers["gp.cross_dist_s"] + layers["gp.test_dist_s"])
    io_time = (layers["graphs.load_s"] + layers["binio.read_s"] + layers["binio.write_s"]
               + layers["kernels.gram_write_s"])
    return {
        "distances_of_pipeline": distances / pipeline,
        "posterior_of_fit": layers["gp.posterior_s"] / stage["fit"],
        "io_of_pipeline": io_time / pipeline,
        "wl_sliced_of_embed":
            (layers["wl.embed_s"] + layers["sliced.pq_embed_s"]) / stage["embed"],
    }


@functools.cache
def _libc():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None


def release_free_memory() -> None:
    """Return the heap memory the allocator keeps after frees to the system.

    Called, untimed, before each set-up and each stage call, so that every
    one starts from the memory it would have in a fresh process. Otherwise
    freed blocks that glibc keeps, in the main heap or in an embed worker's
    arena, depending on the pool's timing, are reused or not by the next
    stage, and peak RSS of one seed differed by 150 MB between runs.
    """
    trim = _libc()
    if trim is not None:
        trim(0)


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "swwl" / "__init__.py").is_file():
        print(f"error: no swwl sources in {src}; run from a source checkout", file=sys.stderr)
        return 2
    # Pinned before numpy loads: the embed pool's workers are the only compute threads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.NAMES), file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, tiny=tiny)
    result, detail, tracer = bench(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        detail["spans_file"] = str(Path(OUT_DIR) / f"{stem}-spans.jsonl")
        tracer.write(ROOT / detail["spans_file"])
    (out / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
