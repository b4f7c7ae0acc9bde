"""Sampler cost per model-table entry and benchmark pairs, base against change.

Run from the root of a checkout (the change), naming a checkout of the
commit to compare against (the base, e.g. a ``git archive`` of it):

    python3 tools/bench_sampler.py --base ../base --base-rev 80b1be5 \\
        --out BENCH_sampler.json

It writes one JSON file with:

* ``us_per_chain_sweep``: for each table entry, the microseconds one chain
  spends per sweep when sampled at its benchmark workload's geometry (the
  inputs and chain settings ``perfbench/workloads.py`` writes for size
  "full", seed 1; both replicate runs as one ``ChainBatch``, as ``fit`` and
  ``compare`` sample them).  One more entry, ``D+E+F/exact``, samples the
  three link variants as ``compare`` does: their six replicate runs as
  one batch.  ``A/dinterval`` imputes the AE data's censored counts,
  regions of at most 5 counts, so it times the Binomial truncated draw
  where a narrower start cannot pay.  Both
  checkouts' ``censdev`` are loaded into one process and each repeat
  samples every entry once per checkout, alternating which goes first, so
  both sides meet the same host
  speed; the file keeps each side's median over 20 repeats and, under
  ``iqr``, its quartiles, which are also printed.  Each timed call is
  bracketed by two ``reference_slice`` calls of ``perfbench/hostspeed.py``
  (imported, not changed) and reported at reference host speed: divided by
  their slowdown, the mean slice time over ``REFERENCE_SLICE_S``;
* ``chain_scaling``: for survival exact, survival dinterval and D exact,
  the microseconds one chain spends per sweep in batches of 2, 8, 32 and
  128 chains (both replicate runs of a fit, half the chains each) at
  ``SCALING_SWEEPS`` burn-in and as many kept sweeps, on the same inputs
  as ``us_per_chain_sweep``, at reference host speed; each side's median
  and quartiles over ``SCALING_REPEATS`` repeats, the sides alternating
  which goes first.  It shows how far a sweep's cost is a fixed cost per
  block that extra chains share;
* ``ess``: for survival exact, survival dinterval and GLM exact, the
  rank-normalized bulk ESS of each parameter (Vehtari, Gelman, Simpson,
  Carpenter & Buerkner 2021: split chains, ranks through the normal
  quantile, Geyer's initial monotone sequence over the multi-chain
  autocorrelation) and the minimum over parameters per second (at
  reference host speed), each side's median over seeds 1-10.  Each entry
  samples its workload's inputs with both replicate runs as one batch and
  ``ESS_KEEP`` kept draws per chain, under two burn-ins: its workload's
  ("workload") and ``ChainConfig``'s defaults, 1000 sweeps in windows of
  50 ("long").  The sides alternate which goes first from seed to seed;
* ``export_density_ms``: the milliseconds one ``export-density`` command of
  the trace-export workload (size "full", seed 1) spends in each stage:
  ``reader``, the samples-CSV reader, and ``kde``, the density of one
  column (the mean over the workload's columns).  Measured in the same
  process as ``us_per_chain_sweep``, the sides back to back, alternating
  which goes first, over 30 repeats; the file keeps each side's median
  (this host's speed shifts between phases 1.5x apart, and a minimum
  picks whichever side once met a fast phase);
* ``perfbench``: ``perfbench/run.py --trace 0`` in both checkouts, one
  pair per workload and seed (every workload at seeds 1-10), the side that
  runs first alternating from pair to pair: ``wall_s``, ``setup_s``,
  ``peak_rss_mb``, ``fail_rate`` and the artifact digests;
* ``traced``: ``perfbench/run.py --trace 1`` at seed 1 in both checkouts,
  for each workload ``TRACED`` names: the per-layer metrics it lists
  (sampling time, sweeps and µs per sweep of ae-compare, survival-aml and
  tobit-large);
* ``host``: CPU, core count and Python/numpy/scipy versions.

The 86 perfbench runs take about 25 s each, about 36 minutes in all;
the chain-scaling section takes about a minute.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import hostspeed  # noqa: E402  (the benchmark's reference slice, used as it is)
import workloads  # noqa: E402
REPEATS = 20
EXPORT_REPEATS = 30
# Workload -> the seeds of its perfbench pairs.
PAIRS = {workload: range(1, 11)
         for workload in ("ae-compare", "survival-aml", "tobit-large", "trace-export")}
# Workload -> the per-layer metrics its traced runs record.
TRACED = {
    "ae-compare": ("mcmc.us_per_sweep.exact", "mcmc.run_calls", "mcmc.sweeps", "mcmc.run_s"),
    "survival-aml": ("mcmc.us_per_sweep.exact", "mcmc.us_per_sweep.dinterval", "mcmc.sweeps",
                     "mcmc.run_s"),
    "tobit-large": ("mcmc.us_per_sweep.exact", "mcmc.sweeps", "mcmc.run_s"),
}
# The config file each workload's set-up writes beside its inputs.
CONFIGS = {"survival-aml": "fit_exact.json", "ae-compare": "compare.json",
           "tobit-large": "fit.json"}
# Table entry (and mode) -> the benchmark workload whose inputs it samples.
ENTRIES = {
    "survival-exponential/exact": "survival-aml",
    "survival-exponential/dinterval": "survival-aml",
    **{f"{v}/exact": "ae-compare" for v in "ABCDEFG"},
    "D+E+F/exact": "ae-compare",
    "A/dinterval": "ae-compare",
    "censored-normal-glm/exact": "tobit-large",
}
SCALING_ENTRIES = ("survival-exponential/exact", "survival-exponential/dinterval", "D/exact")
SCALING_CHAINS = (2, 8, 32, 128)
SCALING_SWEEPS = 300
SCALING_REPEATS = 10
ESS_ENTRIES = ("survival-exponential/exact", "survival-exponential/dinterval",
               "censored-normal-glm/exact")
ESS_SEEDS = range(1, 11)
ESS_KEEP = 2000
# Burn-in geometry -> the chain settings it overrides.
ESS_GEOMETRIES = {"workload": {}, "long": {"burn_in": 1000, "adapt_window": 50}}


def _load(tree: Path):
    """``censdev`` imported afresh from ``tree``'s ``src/``.  The modules of a
    tree loaded before stay alive through the objects built from them."""
    for name in [n for n in sys.modules if n == "censdev" or n.startswith("censdev.")]:
        del sys.modules[name]
    sys.path.insert(0, str(tree / "src"))
    try:
        importlib.import_module("censdev.cli")
        return importlib.import_module("censdev")
    finally:
        sys.path.pop(0)


def _job(censdev, workdir: Path, entry: str, seed: int = 1, **chains):
    """(a call sampling ``entry`` on its workload's inputs, chain-sweeps per
    call): both replicate runs of a fit at ``seed`` as one batch (for
    ``D+E+F``, the six of ``compare``), with the workload's chain settings
    but those ``chains`` names."""
    datasets = censdev.datasets
    workload = ENTRIES[entry]
    config = json.loads((workdir / workload / CONFIGS[workload]).read_text(encoding="utf-8"))
    dataset = config["dataset"]
    data = (datasets.aml_dataset() if dataset == "bundled:aml"
            else datasets.ingest(workdir / workload / dataset))
    names, mode = entry.split("/")
    mode = censdev.LikelihoodMode(mode)
    models = [censdev.Model(censdev.MODELS[name], data) for name in names.split("+")]
    chains = {**{k: v for k, v in config["chains"].items() if k != "seed"}, **chains}
    runs = [(model, tuple(censdev.ChainConfig(**chains, seed=s) for s in seeds))
            for model, seeds in zip(models, censdev.cli._derive_run_seeds(seed, len(models)))]
    batch = censdev.ChainBatch(tuple(c for _, configs in runs for c in configs),
                               tuple(model for model, configs in runs for _ in configs))
    return (functools.partial(censdev.run, models[0], data, mode, batch),
            batch.n_chains * batch.total_iterations)


def _samplers(censdev, workdir: Path) -> dict:
    """Entry -> (a call sampling it at benchmark geometry, chain-sweeps per call)."""
    return {entry: _job(censdev, workdir, entry) for entry in ENTRIES}


def _at_reference_speed(call):
    """``call()``'s result and its wall seconds at reference host speed: divided
    by the slowdown of the ``reference_slice`` calls timed right before and
    after it."""
    start = time.perf_counter()
    hostspeed.reference_slice()
    begin = time.perf_counter()
    result = call()
    end = time.perf_counter()
    hostspeed.reference_slice()
    slices = (begin - start) + (time.perf_counter() - end)
    return result, (end - begin) / hostspeed.slowdown(slices, 2)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of ``x`` at every lag, over n (by FFT)."""
    n = x.shape[-1]
    f = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), n=2 * n)
    return np.fft.irfft(f * np.conj(f), n=2 * n)[..., :n] / n


def bulk_ess(chains: np.ndarray) -> float:
    """Rank-normalized bulk ESS of (chains, draws): the chains split in
    halves, all draws ranked together and mapped through the normal
    quantile, then Geyer's initial monotone sequence over the multi-chain
    autocorrelation (Vehtari et al. 2021)."""
    from scipy import special, stats

    n = chains.shape[1] // 2
    split = np.vstack([chains[:, :n], chains[:, -n:]])
    ranks = stats.rankdata(split, method="average").reshape(split.shape)
    z = special.ndtri((ranks - 0.375) / (split.size + 0.25))
    m = len(z)
    acov = _autocovariance(z)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    total, previous = 0.0, math.inf
    for pair in rho[: n - n % 2].reshape(-1, 2).sum(axis=1):
        if pair <= 0.0:
            break
        previous = min(pair, previous)
        total += previous
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return m * n / tau


def measure_ess(trees: dict[str, Path]) -> dict:
    """Geometry -> entry -> side: the median over ``ESS_SEEDS`` of each
    parameter's bulk ESS, of the minimum over parameters, and of that
    minimum per second at reference host speed, all in this process with
    the sides alternating which goes first."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in {ENTRIES[entry] for entry in ESS_ENTRIES}:
            workloads.prepare(workload, 1, "full", Path(tmp) / workload)
        modules = {side: _load(tree) for side, tree in trees.items()}
        for geometry, chains in ESS_GEOMETRIES.items():
            out[geometry] = {}
            for entry in ESS_ENTRIES:
                runs = {side: [] for side in trees}
                for seed in ESS_SEEDS:
                    order = list(trees) if seed % 2 else list(reversed(trees))
                    for side in order:
                        sample, _ = _job(modules[side], Path(tmp), entry, seed,
                                         n_keep=ESS_KEEP, **chains)
                        samples, seconds = _at_reference_speed(sample)
                        draws = np.concatenate([s.draws.reshape(s.n_chains, s.n_keep, -1)
                                                for s in samples])
                        ess = [bulk_ess(draws[:, :, j]) for j in range(draws.shape[2])]
                        runs[side].append((samples[0].param_names, ess, seconds))
                out[geometry][entry] = record = {}
                for side, results in runs.items():
                    names = results[0][0]
                    lowest = [min(ess) for _, ess, _ in results]
                    record[side] = {
                        "bulk_ess": {name: round(statistics.median(r[1][j] for r in results), 1)
                                     for j, name in enumerate(names)},
                        "min_ess": round(statistics.median(lowest), 1),
                        "min_ess_per_s": round(statistics.median(
                            low / seconds for low, (_, _, seconds) in zip(lowest, results)), 1),
                    }
                print(f"ESS {geometry:8s} {entry:32s}" + "".join(
                    f"  {side} min {r['min_ess']:7.1f} per s {r['min_ess_per_s']:8.1f}"
                    for side, r in record.items()), flush=True)
    return out


def _export_ms(censdev, trace: Path, grid_size: int, params) -> tuple[float, float]:
    """Milliseconds of one ``export-density`` command per stage: reading the
    samples file, and the density of one column (the mean over ``params``)."""
    start = time.perf_counter()
    names, matrix = censdev.cli._read_samples_csv(trace)
    read = time.perf_counter() - start
    start = time.perf_counter()
    for param in params:
        censdev.mcmc.export_density(matrix[:, names.index(param)], grid_size=grid_size)
    kde = (time.perf_counter() - start) / len(params)
    return 1e3 * read, 1e3 * kde


def _export_medians(exporters: dict) -> dict:
    """Stage -> side -> median ms of ``EXPORT_REPEATS`` runs of each side's
    ``_export_ms``, the sides back to back, alternating which goes first,
    and under ``iqr`` each side's quartiles."""
    runs = {side: [] for side in exporters}
    for side in exporters:  # warm-up
        exporters[side]()
    for repeat in range(EXPORT_REPEATS):
        for side in list(exporters) if repeat % 2 == 0 else list(reversed(exporters)):
            runs[side].append(exporters[side]())
    return {stage: _summary(f"export-density {stage} (ms)",
                            {side: [ms[i] for ms in runs[side]] for side in runs})
            for i, stage in enumerate(("reader", "kde"))}


def _summary(name: str, runs: dict) -> dict:
    """Side -> median of its ``runs``, and under ``iqr`` side -> quartiles;
    printed as one line."""
    out = {side: round(statistics.median(values), 2) for side, values in runs.items()}
    out["iqr"] = {}
    for side, values in runs.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr"][side] = [round(q1, 2), round(q3, 2)]
    print(f"{name:32s}" + "".join(f"  {side} {out[side]:8.2f} [{q1:.2f}-{q3:.2f}]"
                                  for side, (q1, q3) in out["iqr"].items()), flush=True)
    return out


def measure(trees: dict[str, Path]) -> tuple[dict, dict]:
    """µs per chain-sweep of every entry, and ms per export-density stage,
    under each tree's ``censdev``, all in this process: each repeat runs
    every job once per tree, alternating which tree goes first, so both
    sides see the same host; each side keeps its median and quartiles of
    µs per sweep and of ms per stage."""
    jobs, exporters = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in trees.items():
            censdev = _load(tree)
            if not jobs:  # the inputs, written once with the first tree's censdev
                for workload in set(ENTRIES.values()):
                    workloads.prepare(workload, 1, "full", Path(tmp) / workload)
                meta = workloads.prepare("trace-export", 1, "full", Path(tmp) / "trace-export")
                export_args = (Path(tmp) / "trace-export" / "trace.csv",
                               meta["grid_size"], workloads.TRACE_PARAMS)
            jobs[side] = _samplers(censdev, Path(tmp))
            exporters[side] = functools.partial(_export_ms, censdev, *export_args)
        export = _export_medians(exporters)
    runs = _timed_repeats(jobs, REPEATS)
    medians = {entry: _summary(f"{entry} (us)", sides) for entry, sides in runs.items()}
    return medians, export


def _timed_repeats(jobs: dict, repeats: int) -> dict:
    """Job -> side -> µs per chain-sweep of ``repeats`` runs of each side's
    job (``jobs``: side -> job -> (call, chain-sweeps per call)), after one
    warm-up run of every job; each repeat runs every job once per side,
    alternating which side goes first."""
    sides = list(jobs)
    runs = {key: {side: [] for side in sides} for key in jobs[sides[0]]}
    for side in sides:  # warm-up
        for sample, _ in jobs[side].values():
            sample()
    for repeat in range(repeats):
        order = sides if repeat % 2 == 0 else sides[::-1]
        for key in runs:
            for side in order:
                sample, sweeps = jobs[side][key]
                _, seconds = _at_reference_speed(sample)
                runs[key][side].append(1e6 * seconds / sweeps)
    return runs


def measure_scaling(trees: dict[str, Path]) -> dict:
    """Entry -> chain count -> side: median µs per chain-sweep (and under
    ``iqr`` the quartiles) of each ``SCALING_ENTRIES`` entry sampled with
    ``SCALING_CHAINS`` chains, all in this process, each repeat running
    every job once per tree, alternating which tree goes first."""
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in trees.items():
            censdev = _load(tree)
            if not jobs:  # the inputs, written once with the first tree's censdev
                for workload in {ENTRIES[entry] for entry in SCALING_ENTRIES}:
                    workloads.prepare(workload, 1, "full", Path(tmp) / workload)
            jobs[side] = {(entry, n): _job(censdev, Path(tmp), entry, n_chains=n // 2,
                                           burn_in=SCALING_SWEEPS, n_keep=SCALING_SWEEPS)
                          for entry in SCALING_ENTRIES for n in SCALING_CHAINS}
    runs = _timed_repeats(jobs, SCALING_REPEATS)
    return {entry: {str(n): _summary(f"{entry} x{n} (us)", runs[entry, n])
                    for n in SCALING_CHAINS} for entry in SCALING_ENTRIES}


def _perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metrics and digests."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "22", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = result.stdout.splitlines()
    final = json.loads(lines[-1])
    digests = next(line.split()[1:] for line in lines if line.startswith("artifacts_sha256"))
    record = {name: m["value"] for name, m in final["metrics"].items()}
    record["fail_rate"] = final["failed"] / max(final["attempted"], 1)
    record["artifacts_sha256"] = digests
    return record


def _host() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the commit to compare against")
    parser.add_argument("--base-rev", required=True,
                        help="the commit the base checkout holds, recorded in the output")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sampler.json")
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": ROOT}

    # The benchmark runs come first: a child process starts with the peak
    # resident size of this one (Linux carries ru_maxrss across fork and
    # exec), which would mask their peak_rss_mb once ``measure`` has
    # loaded both trees and sampled.
    pairs = {workload: [] for workload in PAIRS}
    for workload, seeds in PAIRS.items():
        for seed in seeds:
            order = list(trees) if len(pairs[workload]) % 2 == 0 else list(reversed(trees))
            pair = {side: _perfbench(trees[side], workload, seed, 0) for side in order}
            pairs[workload].append({"seed": seed, "first": order[0], **pair})
            print(f"{workload} seed {seed} wall_s" + "".join(
                f"  {side} {pair[side]['wall_s']:.3f}" for side in trees), flush=True)
    traced = {workload: {} for workload in TRACED}
    for workload, names in TRACED.items():
        for side, tree in trees.items():
            metrics = _perfbench(tree, workload, 1, 1)
            traced[workload][side] = {name: metrics.get(name) for name in names}
    sweeps, export = measure(trees)
    scaling = measure_scaling(trees)
    ess = measure_ess(trees)

    report = {
        "base": args.base_rev,
        "host": _host(),
        "us_per_chain_sweep": {
            "geometry": "each entry on its benchmark workload's inputs (size full, seed 1), "
                        "both replicate runs as one batch; both trees in one process, "
                        "alternating; median wall time over the repeats, at reference "
                        "host speed",
            "repeats": REPEATS,
            "entries": sweeps,
        },
        "chain_scaling": {
            "geometry": "each entry on its benchmark workload's inputs (size full, seed 1), "
                        "both replicate runs as one batch of the named chain count, "
                        f"{SCALING_SWEEPS} burn-in + {SCALING_SWEEPS} kept sweeps; both "
                        "trees in one process, alternating; median wall time over the "
                        "repeats, at reference host speed",
            "repeats": SCALING_REPEATS,
            "entries": scaling,
        },
        "ess": {
            "geometry": "each entry on its benchmark workload's inputs (size full, seed 1), "
                        "both replicate runs as one batch at each of the seeds, "
                        f"{ESS_KEEP} kept draws per chain; burn-in and adaptation window "
                        "per geometry: " + json.dumps(ESS_GEOMETRIES),
            "seeds": [ESS_SEEDS.start, ESS_SEEDS.stop - 1],
            **ess,
        },
        "export_density_ms": {
            "input": "the trace-export workload's trace.csv (size full, seed 1) and "
                     "grid size; both trees in one process, alternating; median over "
                     "the repeats",
            "repeats": EXPORT_REPEATS,
            **export,
        },
        "perfbench": pairs,
        "traced": {"seed": 1, **traced},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
