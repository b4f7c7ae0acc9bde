"""Traced mode: spans and counters around censdev's public entry points.

The tracer patches censdev from the outside, for the traced passes only,
and restores every attribute afterwards; ``src/`` is never edited.

* Spans (name, start, end, parent span, iteration id) are recorded at the
  coarse public boundaries of each module: the CLI command (opened by the
  benchmark around ``cli.main``), dataset loading and fingerprinting, the
  sampler run, summaries, density export and the selection report with its
  plug-in and p_opt parts.  A span's work counts are derived from its
  arguments or result (sweeps, rows, grid points, row pairs).
* At the fine per-row boundaries (``outcome_family``, ``log_prior``,
  ``Family`` construction and kernel entry points, ``exact_contribution``)
  only counts are kept, so the tracing overhead stays small.

The traced run alternates three kinds of pass: untraced, spans (coarse
spans and their argument-derived counts only, so the per-layer times carry
almost no tracing cost) and counts (everything, for the exact per-row
counts).  Spans stay in memory; ``layer_metrics`` combines the passes into
the per-layer metrics, and ``dump`` writes all spans out once.
A layer's self time is its span's duration minus the time its child spans
cover.  Entry points that a later version of censdev no longer has are
skipped, so their metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "cli.command": "cli.self_s",
    "datasets.ingest": "datasets.ingest_s",
    "datasets.fingerprint": "datasets.fingerprint_s",
    "mcmc.run.exact": "mcmc.run_s",
    "mcmc.run.dinterval": "mcmc.run_s",
    "mcmc.summarize": "mcmc.summarize_s",
    "mcmc.export_density": "mcmc.export_density_s",
    "selection.report": "selection.report_s",
    "selection.plugin": "selection.plugin_s",
    "selection.popt": "selection.popt_s",
}

COUNT_METRICS = (
    "cli.commands",
    "datasets.rows",
    "mcmc.run_calls",
    "mcmc.sweeps",
    "mcmc.updates",
    "mcmc.density_points",
    "models.outcome_family_calls",
    "models.log_prior_calls",
    "likelihood.exact_contribution_calls",
    "distributions.family_objects",
    "distributions.kernel_calls.Exponential",
    "distributions.kernel_calls.Binomial",
    "distributions.kernel_calls.Normal",
    "distributions.truncated_draws",
    "selection.rowpairs",
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    **{name: "s" for name in dict.fromkeys(SPAN_METRICS.values())},
    **{name: "count" for name in COUNT_METRICS},
    "mcmc.us_per_sweep.exact": "us",
    "mcmc.us_per_sweep.dinterval": "us",
    "selection.popt_us_per_rowpair": "us",
    "trace.overhead_s": "s",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.counts: Counter = Counter()
        self.iteration = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, work=None):
        """Wrap ``fn`` in a span; ``work(args, result, counts)`` adds its counts."""
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = name(bound.arguments) if callable(name) else name
            index = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if work is not None:
                work(bound.arguments, result, tracer.counts)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        """Wrap ``fn`` to count its calls under ``key``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; uninstall restores it, or deletes it if it was inherited."""
        own = vars(owner)
        self._undo.append((owner, attr, own[attr] if attr in own else None, attr in own))
        setattr(owner, attr, value)

    def _patch_function(self, module, name: str, make) -> None:
        """Replace ``module.name`` wherever censdev modules bound it by import."""
        original = getattr(module, name, None)
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "censdev" or mod_name.startswith("censdev."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _patch_methods(self, base, name: str, key) -> None:
        for cls in (base, *_subclasses(base)):
            if name in vars(cls):
                self._set(cls, name, self._counted(vars(cls)[name], key))

    def install(self, per_row_counts: bool) -> None:
        """Patch the coarse spans, plus the per-row counters when asked."""
        from censdev import datasets, distributions, likelihood, mcmc, models, selection

        def rows(args, result, counts):
            counts["datasets.rows"] += len(result)

        def sweeps(args, result, counts):
            config = args["config"]
            n = config.n_chains * config.total_iterations
            counts["mcmc.run_calls"] += 1
            counts["mcmc.sweeps"] += n
            counts[f"mcmc.sweeps.{args['mode'].value}"] += n
            counts["mcmc.updates"] += n * len(args["model"].params)

        def density_points(args, result, counts):
            counts["mcmc.density_points"] += args["grid_size"] * len(args["trace"])

        def rowpairs(args, result, counts):
            a, b = args["samples_a"], args["samples_b"]
            if args["method"] == "paired-kl":
                pairs = min(a.draws.shape[0], b.draws.shape[0])
                counts["selection.rowpairs"] += pairs * len(args["data"])

        def span(name, work=None):
            return lambda fn: self._spanned(fn, name, work)

        self._patch_function(datasets, "ingest", span("datasets.ingest", rows))
        self._patch_function(datasets, "aml_dataset", span("datasets.ingest", rows))
        self._patch_function(datasets, "dataset_fingerprint", span("datasets.fingerprint"))
        self._patch_function(
            mcmc, "run", span(lambda args: f"mcmc.run.{args['mode'].value}", sweeps)
        )
        self._patch_function(mcmc, "summarize", span("mcmc.summarize"))
        self._patch_function(
            mcmc, "export_density", span("mcmc.export_density", density_points)
        )
        self._patch_function(selection, "make_selection_report", span("selection.report"))
        self._patch_function(selection, "plugin_deviance", span("selection.plugin"))
        self._patch_function(selection, "compute_popt_ped", span("selection.popt", rowpairs))

        if not per_row_counts:
            return
        self._patch_function(
            likelihood, "exact_contribution",
            lambda fn: self._counted(fn, "likelihood.exact_contribution_calls"),
        )
        self._patch_methods(models.Model, "outcome_family", "models.outcome_family_calls")
        self._patch_methods(models.Model, "log_prior", "models.log_prior_calls")
        family = distributions.Family
        self._patch_methods(family, "__init__", "distributions.family_objects")
        self._patch_methods(family, "sample_truncated", "distributions.truncated_draws")
        # Kernel entry points, keyed by concrete family; originals are taken
        # before any patch so an inherited method is never counted twice.
        kernels = [(cls, name, getattr(cls, name)) for cls in _subclasses(family)
                   for name in ("log_pdf", "log_interval_prob")]
        for cls, name, method in kernels:
            key = f"distributions.kernel_calls.{cls.__name__}"
            self._set(cls, name, self._counted(method, key))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, own = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------------
    def self_times(self, iteration: int) -> dict[str, float]:
        """Per-span-name self time (duration minus child spans) in one iteration."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            if it == iteration and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, it) in enumerate(self.spans):
            if it == iteration:
                totals[name] += (end - start) - child_time[index]
        return totals

    def layer_times(self, iteration: int, counts: Counter) -> dict[str, float]:
        """Self-time metrics and per-unit rates of one spans pass."""
        times = self.self_times(iteration)
        metrics = {name: 0.0 for name in dict.fromkeys(SPAN_METRICS.values())}
        for span_name, metric in SPAN_METRICS.items():
            metrics[metric] += times.get(span_name, 0.0)
        for mode in ("exact", "dinterval"):
            n = counts.get(f"mcmc.sweeps.{mode}", 0)
            metrics[f"mcmc.us_per_sweep.{mode}"] = (
                1e6 * times.get(f"mcmc.run.{mode}", 0.0) / n if n else 0.0
            )
        pairs = counts.get("selection.rowpairs", 0)
        metrics["selection.popt_us_per_rowpair"] = (
            1e6 * times.get("selection.popt", 0.0) / pairs if pairs else 0.0
        )
        return metrics

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "iteration": it}
                for n, s, e, p, it in self.spans
            ],
        }) + "\n", encoding="utf-8")


def layer_metrics(times: list[dict[str, float]], counts: Counter,
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric: median times over spans passes, one pass's counts."""
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics["trace.overhead_s"] = overhead_s
    return {name: metrics[name] for name in LAYER_UNITS}
