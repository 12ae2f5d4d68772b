"""In-memory span tracer for the traced benchmark run.

A probe names one function of one layer by its home module and attribute.
Installing the tracer replaces that function, in its home module and in every
``swwl`` module that imported it by name, with a wrapper that records a span
(name, start, end, parent, workload, repetition) and the probe's counters.
The program itself is not changed. A probe whose target no longer exists
makes ``install`` raise ``MissingProbeTarget``: a layer that silently reads 0
would look like an improvement.

Spans opened on the embed thread pool have no open span of their own thread;
they take the innermost open span of the thread that installed the tracer
as their parent, which is the ``embed_dataset`` call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


class MissingProbeTarget(RuntimeError):
    """A probed function is gone; the tracer must be updated with the program."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    rep: int
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr``; ``attr`` may be ``Class.method``.

    ``span`` is the span name, or a function of the bound call arguments that
    returns it. ``counters`` maps (bound arguments, result) to counts that are
    stored on the span.
    """

    module: str
    attr: str
    span: str | Callable
    counters: Callable | None = None


def _pairs(bound) -> tuple[int, int]:
    """(computed pairs, feature width) of a pdist/cdist call."""
    args = bound.arguments
    if "XB" in args:
        a, b = args["XA"], args["XB"]
        return len(a) * len(b), a.shape[1]
    x = args["X"]
    return len(x) * (len(x) - 1) // 2, x.shape[1]


def _sq_dist_counters(bound, result):
    pairs, width = _pairs(bound)
    return {"pairs": pairs, "flop": 3 * width * pairs}


def _gp_cdist_span(bound):
    # predict computes test x test distances as cdist(features, features)
    return "gp.test_dist" if bound.arguments["XA"] is bound.arguments["XB"] else "gp.cross_dist"


def _gp_cdist_counters(bound, result):
    n = len(bound.arguments["XA"])
    if bound.arguments["XA"] is bound.arguments["XB"]:
        return {"test_pairs": n * n, "useful_pairs": n}
    return {}


# Order matters where two probes share an original: ``swwl.kernels.cdist`` is
# scipy's ``cdist``; probing the kernels name first keeps the gp probe off it.
PROBES = (
    Probe("swwl.graphs", "load_dataset", "graphs.load",
          lambda b, r: {"records": len(r)}),
    Probe("swwl.wl", "embed", "wl.embed",
          lambda b, r: {"node_iterations": b.arguments["graph"].node_count
                        * max(b.arguments["config"].iterations)}),
    Probe("swwl.sliced", "pq_embed", "sliced.pq_embed",
          lambda b, r: {"sorted_values": b.arguments["projections"].count
                        * b.arguments["measure"].size}),
    Probe("swwl.pipeline", "embed_dataset", "pipeline.embed_dataset"),
    Probe("swwl.kernels", "pdist", "kernels.sq_dist", _sq_dist_counters),
    Probe("swwl.kernels", "cdist", "kernels.sq_dist", _sq_dist_counters),
    Probe("swwl.kernels", "correlation_from_distances", "kernels.corr",
          lambda b, r: {"calls": 1}),
    Probe("swwl.kernels", "check_psd", "kernels.check_psd"),
    Probe("swwl.kernels", "save_gram_text", "kernels.gram_write",
          lambda b, r: {"bytes": os.path.getsize(b.arguments["path"])}),
    Probe("swwl.kernels", "save_gram_binary", "kernels.gram_write",
          lambda b, r: {"bytes": os.path.getsize(b.arguments["path"])}),
    Probe("swwl.gp", "build_train_distances", "gp.train_dist"),
    Probe("swwl.gp", "marginal_posterior", "gp.posterior",
          lambda b, r: {"evals": 1, "failed": int(not r > -float("inf"))}),
    Probe("swwl.gp", "TrainDistances.mean_scales", "gp.prior_scales"),
    Probe("swwl.gp", "_floor_psd", "gp.floor_psd"),
    Probe("numpy.linalg", "cholesky", "gp.cholesky"),
    Probe("scipy.linalg", "cho_solve", "gp.solve"),
    Probe("scipy.optimize", "minimize", "gp.start", lambda b, r: {"fun": float(r.fun)}),
    Probe("scipy.spatial.distance", "cdist", _gp_cdist_span, _gp_cdist_counters),
    Probe("swwl.binio", "read_container", "binio.read",
          lambda b, r: {"files": 1, "bytes": os.path.getsize(b.arguments["path"])}),
    Probe("swwl.binio", "write_container", "binio.write",
          lambda b, r: {"files": 1, "bytes": os.path.getsize(b.arguments["path"])}),
    Probe("swwl.cli", "main", "cli.main"),
)

# (name, unit, better, metric it should move, workload where it shows)
LAYER_METRICS = (
    # scaled stage times of the untraced repetitions, medians, as pipeline_s
    ("stage.embed_s", "s", "lower", "pipeline_s", "every workload"),
    ("stage.gram_s", "s", "lower", "pipeline_s", "every workload"),
    ("stage.fit_s", "s", "lower", "pipeline_s", "every workload"),
    ("stage.predict_s", "s", "lower", "pipeline_s", "every workload"),
    ("graphs.load_s", "s", "lower",
     "stage.embed_s stage.fit_s stage.predict_s", "regress-narrow-cli"),
    ("graphs.records_loaded", "count", "lower",
     "stage.embed_s stage.fit_s stage.predict_s", "regress-narrow-cli"),
    ("wl.embed_s", "s", "lower", "stage.embed_s", "regress-narrow-cli"),
    ("wl.node_iterations", "count", "lower", "stage.embed_s", "regress-narrow-cli"),
    ("sliced.pq_embed_s", "s", "lower", "stage.embed_s", "regress-narrow-cli"),
    ("sliced.sorted_values", "count", "lower", "stage.embed_s", "regress-narrow-cli"),
    ("pipeline.embed_dataset_s", "s", "lower", "stage.embed_s", "regress-wide regress-narrow-cli"),
    ("pipeline.self_s", "s", "lower", "stage.embed_s", "regress-wide regress-narrow-cli"),
    ("kernels.sq_dist_s", "s", "lower", "stage.gram_s", "regress-wide"),
    ("kernels.sq_dist_gflop", "GFLOP", "lower", "stage.gram_s", "regress-wide"),
    ("kernels.sq_dist_gflops_rate", "GFLOP/s", "higher", "stage.gram_s", "regress-wide"),
    ("kernels.corr_s", "s", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("kernels.corr_calls", "count", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("kernels.check_psd_s", "s", "lower", "stage.gram_s", "regress-narrow-cli"),
    ("kernels.gram_write_s", "s", "lower", "stage.gram_s", "regress-narrow-cli"),
    ("kernels.gram_bytes", "bytes", "lower", "stage.gram_s", "regress-narrow-cli"),
    ("gp.train_dist_s", "s", "lower", "stage.fit_s", "regress-wide"),
    ("gp.posterior_evals", "count", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.posterior_failed", "count", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.posterior_s", "s", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.posterior_ms_per_eval", "ms", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.cholesky_s", "s", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.solve_s", "s", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.prior_scales_s", "s", "lower", "stage.fit_s", "regress-narrow-cli"),
    ("gp.best_start_evals_ratio", "ratio", "higher", "stage.fit_s", "regress-narrow-cli"),
    ("gp.cross_dist_s", "s", "lower", "stage.predict_s", "regress-wide"),
    ("gp.test_dist_s", "s", "lower", "stage.predict_s peak_rss_mb", "regress-wide"),
    ("gp.test_dist_useful_ratio", "ratio", "higher",
     "stage.predict_s peak_rss_mb", "regress-wide"),
    ("gp.floor_psd_s", "s", "lower", "stage.predict_s", "regress-wide"),
    ("binio.read_s", "s", "lower",
     "stage.fit_s stage.predict_s stage.gram_s", "regress-narrow-cli"),
    ("binio.write_s", "s", "lower",
     "stage.embed_s stage.fit_s stage.gram_s", "regress-narrow-cli"),
    ("binio.files_read", "count", "lower",
     "stage.fit_s stage.predict_s stage.gram_s", "regress-narrow-cli"),
    ("binio.files_written", "count", "lower",
     "stage.embed_s stage.fit_s stage.gram_s", "regress-narrow-cli"),
    ("binio.bytes_read", "bytes", "lower",
     "stage.fit_s stage.predict_s stage.gram_s", "regress-narrow-cli"),
    ("binio.bytes_written", "bytes", "lower",
     "stage.embed_s stage.fit_s stage.gram_s", "regress-narrow-cli"),
    ("cli.self_s", "s", "lower", "every stage", "regress-narrow-cli"),
    ("trace.pipeline_s", "s", "lower", "pipeline_s", "every workload"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing itself", "every workload"),
)


def _resolve(probe: Probe):
    """(owner object, attribute name) of a probe target, or MissingProbeTarget."""
    where = f"{probe.module}.{probe.attr}"
    try:
        owner = importlib.import_module(probe.module)
    except ImportError as exc:
        raise MissingProbeTarget(f"probe target {where}: {exc}") from exc
    *path, leaf = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingProbeTarget(f"probe target {where} no longer exists")
    if not callable(getattr(owner, leaf, None)):
        raise MissingProbeTarget(f"probe target {where} no longer exists")
    return owner, leaf


class Tracer:
    """Records spans while ``recording`` is set; a no-op otherwise."""

    def __init__(self, workload: str, probes=PROBES):
        self.workload = workload
        self.probes = probes
        self.rep = -1
        self.recording = False
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installer_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields a dict for the span's counters."""
        counters: dict = {}
        if not self.recording:
            yield counters
            return
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._installer_stack[-1] if self._installer_stack else None
        )
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counters
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.workload, self.rep, counters)
                )

    def _wrap(self, probe: Probe, func):
        needs_args = probe.counters is not None or callable(probe.span)
        signature = inspect.signature(func) if needs_args else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs) if signature else None
            name = probe.span(bound) if callable(probe.span) else probe.span
            with self.span(name) as counters:
                result = func(*args, **kwargs)
                if probe.counters is not None:
                    counters.update(probe.counters(bound, result))
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every probe target; raises MissingProbeTarget before wrapping any."""
        targets = [_resolve(probe) for probe in self.probes]
        self._local.stack = self._installer_stack
        program = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "swwl" or n.startswith("swwl."))]
        for probe, (owner, leaf) in zip(self.probes, targets):
            original = getattr(owner, leaf)
            wrapper = self._wrap(probe, original)
            self._patch(owner, leaf, wrapper)
            for module in program:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(spans: list[Span], name: str) -> float:
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return sum(
        (s.end - s.start) - _covered(children.get(s.id, []))
        for s in spans if s.name == name
    )


def _best_start_ratio(spans: list[Span]) -> float:
    """Posterior evaluations in the winning optimizer start over all of them.

    The winner follows ``gp.fit``: the lowest finite objective, first start on
    ties, with 1e300 standing for a failed start.
    """
    starts = sorted((s for s in spans if s.name == "gp.start"), key=lambda s: s.start)
    evals = [s for s in spans if s.name == "gp.posterior"]
    if not starts or not evals:
        return 0.0
    best = None
    for s in starts:
        fun = s.counters["fun"]
        if fun < 1e300 and (best is None or fun < best.counters["fun"]):
            best = s
    if best is None:
        return 0.0
    return sum(1 for e in evals if e.parent == best.id) / len(evals)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one repetition."""
    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        for key, value in s.counters.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    evals = c("gp.posterior.evals")
    test_pairs = c("gp.test_dist.test_pairs")
    return {
        "graphs.load_s": b("graphs.load"),
        "graphs.records_loaded": c("graphs.load.records"),
        "wl.embed_s": b("wl.embed"),
        "wl.node_iterations": c("wl.embed.node_iterations"),
        "sliced.pq_embed_s": b("sliced.pq_embed"),
        "sliced.sorted_values": c("sliced.pq_embed.sorted_values"),
        "pipeline.embed_dataset_s": b("pipeline.embed_dataset"),
        "pipeline.self_s": _self_time(spans, "pipeline.embed_dataset"),
        "kernels.sq_dist_s": b("kernels.sq_dist"),
        "kernels.sq_dist_gflop": c("kernels.sq_dist.flop") / 1e9,
        "kernels.sq_dist_gflops_rate": (
            c("kernels.sq_dist.flop") / 1e9 / b("kernels.sq_dist") if b("kernels.sq_dist") else 0.0
        ),
        "kernels.corr_s": b("kernels.corr"),
        "kernels.corr_calls": c("kernels.corr.calls"),
        "kernels.check_psd_s": b("kernels.check_psd"),
        "kernels.gram_write_s": b("kernels.gram_write"),
        "kernels.gram_bytes": c("kernels.gram_write.bytes"),
        "gp.train_dist_s": b("gp.train_dist"),
        "gp.posterior_evals": evals,
        "gp.posterior_failed": c("gp.posterior.failed"),
        "gp.posterior_s": b("gp.posterior"),
        "gp.posterior_ms_per_eval": 1000.0 * b("gp.posterior") / evals if evals else 0.0,
        "gp.cholesky_s": b("gp.cholesky"),
        "gp.solve_s": b("gp.solve"),
        "gp.prior_scales_s": b("gp.prior_scales"),
        "gp.best_start_evals_ratio": _best_start_ratio(spans),
        "gp.cross_dist_s": b("gp.cross_dist"),
        "gp.test_dist_s": b("gp.test_dist"),
        "gp.test_dist_useful_ratio": (
            c("gp.test_dist.useful_pairs") / test_pairs if test_pairs else 1.0
        ),
        "gp.floor_psd_s": b("gp.floor_psd"),
        "binio.read_s": b("binio.read"),
        "binio.write_s": b("binio.write"),
        "binio.files_read": c("binio.read.files"),
        "binio.files_written": c("binio.write.files"),
        "binio.bytes_read": c("binio.read.bytes"),
        "binio.bytes_written": c("binio.write.bytes"),
        "cli.self_s": _self_time(spans, "cli.main"),
    }


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
