"""The four benchmark workloads: seeded inputs, CLI command sequences, checks.

Each workload is a closed loop with one client: the benchmark issues one
``censdev`` CLI command, waits for it, checks its outputs, then issues the
next.  Inputs are generated from the workload seed and written as files in
the documented dataset / config / samples-CSV formats, so the program sees
only those files.  Every path handed to the CLI is relative to the work
directory (the benchmark runs with it as the current directory), which keeps
the artifacts, and hence their digest, independent of where the checkout
lives.

Why these four: ``survival-aml`` is the paper's headline (tiny data, long
chains, per-sweep Python overhead, the only latent-imputation run);
``ae-compare`` is the model-variant layer (discrete Binomial kernels, sparse
per-parameter row sets, seven selection reports); ``tobit-large`` has rows
far outnumbering parameters, so every update touches every row and the
per-row kernel dominates; ``trace-export`` bypasses the sampler and the
selection layer entirely (samples-CSV reader, KDE, density writer), which is
where sampler and selection optimisations must show no change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("survival-aml", "ae-compare", "tobit-large", "trace-export")

# Closed-form exact-minus-monitored mean deviance gap on the bundled AML data
# (acceptance criterion 4): 2 * (16 * 11/255 + 247 * 7/423).
DERIVED_SURVIVAL_GAP = 9.5553330552079
# Prior-shrinkage bias allowance of criterion 4; Monte Carlo noise is added
# on top as GAP_MCSE_FACTOR combined batch-means standard errors.
GAP_BIAS_ALLOWANCE = 0.5
GAP_MCSE_FACTOR = 6.0

# Tobit generating model: intercept + two covariate coefficients, residual sd.
TOBIT_TRUTH = {"intercept": 1.0, "beta0": 0.8, "beta1": -0.5, "sigma": 1.2}
# A recovered coefficient may sit this many posterior sds from the truth.
TOBIT_RECOVERY_SDS = 5.0

# The program flags a model as overfitting when p_opt > OVERFIT_RATIO * pD.
OVERFIT_RATIO = 5.0

TRACE_PARAMS = ("alpha", "sigma", "p")
DENSITY_TOLERANCE = 1e-3

# Run geometry per size.  "full" is what the benchmark measures; "tiny" keeps
# every code path and check but finishes in about a second (smoke test).
SIZES = {
    "full": {
        "survival-aml": {"n_chains": 2, "burn_in": 400, "n_keep": 500},
        "ae-compare": {"n_chains": 1, "burn_in": 200, "n_keep": 200},
        "tobit-large": {"rows": 100, "n_chains": 1, "burn_in": 100, "n_keep": 150,
                        "adapt_window": 25},
        "trace-export": {"draws": 40000, "grid_size": 400},
    },
    "tiny": {
        "survival-aml": {"n_chains": 1, "burn_in": 100, "n_keep": 150},
        "ae-compare": {"n_chains": 1, "burn_in": 60, "n_keep": 60},
        "tobit-large": {"rows": 40, "n_chains": 1, "burn_in": 60, "n_keep": 60,
                        "adapt_window": 20},
        "trace-export": {"draws": 2000, "grid_size": 128},
    },
}


def _chains(geometry: dict, seed: int) -> dict:
    keys = ("n_chains", "burn_in", "n_keep", "adapt_window")
    return {**{k: geometry[k] for k in keys if k in geometry}, "seed": seed}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")


def _write_tobit_dataset(path: Path, rows: int, rng: np.random.Generator) -> None:
    """Censored normal regression rows with all four censor kinds.

    The lowest and highest fifths of the outcomes are left- and
    right-censored at the empirical quantile cutoffs; half of the middle rows
    are coarsened to half-unit intervals (coarsening at random), the rest are
    observed exactly.  The kind counts depend only on ``rows``.
    """
    x = rng.standard_normal((rows, 2))
    t = TOBIT_TRUTH
    y = (t["intercept"] + x @ np.array([t["beta0"], t["beta1"]])
         + t["sigma"] * rng.standard_normal(rows))
    lo_cut, hi_cut = (float(q) for q in np.quantile(y, [0.2, 0.8]))
    middle = np.flatnonzero((y >= lo_cut) & (y <= hi_cut))
    coarsened = set(rng.permutation(middle)[: len(middle) // 2].tolist())
    lines = ["outcome,censor,cut1,cut2,trials,x1,x2"]
    for i in range(rows):
        if y[i] < lo_cut:
            fixed = f",left,{lo_cut!r},"
        elif y[i] > hi_cut:
            fixed = f",right,{hi_cut!r},"
        elif i in coarsened:
            lo = math.floor(2.0 * y[i]) / 2.0
            fixed = f",interval,{lo!r},{lo + 0.5!r}"
        else:
            fixed = f"{float(y[i])!r},none,,"
        lines.append(f"{fixed},,{float(x[i, 0])!r},{float(x[i, 1])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_trace(path: Path, draws: int, rng: np.random.Generator) -> None:
    """A four-chain samples CSV in the layout ``fit`` writes."""
    chain = np.repeat(np.arange(4), draws // 4)
    n = chain.size
    cols = [
        chain,
        1.5 + 0.3 * rng.standard_normal(n),
        np.exp(0.2 + 0.25 * rng.standard_normal(n)),
        rng.beta(3.0, 7.0, n),
        100.0 + rng.chisquare(3.0, n),
    ]
    header = "chain," + ",".join(TRACE_PARAMS) + ",deviance"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="", fmt=["%d"] + ["%.17g"] * 4)


def prepare(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the workload's generated inputs into ``workdir``; return its meta."""
    geometry = SIZES[size][workload]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    meta = {"workload": workload, "seed": seed, "size": size}
    if workload == "survival-aml":
        for mode in ("exact", "dinterval"):
            _write_json(workdir / f"fit_{mode}.json", {
                "label": f"survival-{mode}",
                "dataset": "bundled:aml",
                "model": {"family": "survival-exponential"},
                "mode": mode,
                "chains": _chains(geometry, seed),
                "output_dir": f"out/{mode}",
            })
    elif workload == "ae-compare":
        from censdev.datasets import serialize, synthetic_ae_dataset

        (workdir / "ae.csv").write_text(
            serialize(synthetic_ae_dataset(seed=seed)), encoding="utf-8"
        )
        _write_json(workdir / "compare.json", {
            "dataset": "ae.csv",
            "variants": list("ABCDEFG"),
            "chains": _chains(geometry, seed),
            "output_dir": "out/compare",
        })
    elif workload == "tobit-large":
        _write_tobit_dataset(workdir / "tobit.csv", geometry["rows"], rng)
        _write_json(workdir / "fit.json", {
            "label": "tobit",
            "dataset": "tobit.csv",
            "model": {"family": "censored-normal-glm"},
            "mode": "exact",
            "chains": _chains(geometry, seed),
            "output_dir": "out/tobit",
        })
    elif workload == "trace-export":
        _write_trace(workdir / "trace.csv", geometry["draws"], rng)
        meta["grid_size"] = geometry["grid_size"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(workdir / "meta.json", meta)
    return meta


# ---------------------------------------------------------------------------
# Output checks.  Each raises CheckFailed with a one-line reason.
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load_json(path: Path) -> dict:
    _require(path.is_file(), f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    _require(path.is_file(), f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: matrix[:, j] for j, name in enumerate(names)}


def _batch_means_se(trace: np.ndarray) -> float:
    """Standard error of a trace's mean from sqrt(n)-sized batch means."""
    b = max(2, int(math.sqrt(trace.size)))
    m = trace.size // b
    means = trace[: m * b].reshape(m, b).mean(axis=1)
    return float(math.sqrt(means.var(ddof=1) / m))


def _pooled_deviance_se(paths: list[Path]) -> float:
    """Batch-means standard error of the pooled mean deviance over all chains."""
    variances, count = [], 0
    for path in paths:
        cols = _csv_columns(path)
        for c in np.unique(cols["chain"]):
            chain_dev = cols["deviance"][cols["chain"] == c]
            variances.append(_batch_means_se(chain_dev) ** 2)
            count += 1
    return math.sqrt(sum(variances)) / count


def _check_report_identities(report: dict) -> None:
    for key in ("Dbar", "pD", "DIC", "p_opt", "PED"):
        _require(math.isfinite(report.get(key, math.nan)), f"report {key} not finite")
    _require(report["DIC"] == report["Dbar"] + report["pD"], "DIC != Dbar + pD")
    _require(report["PED"] == report["Dbar"] + report["p_opt"], "PED != Dbar + p_opt")


def _check_density(path: Path, grid_size: int | None = None) -> None:
    cols = _csv_columns(path)
    grid, density = cols["grid"], cols["density"]
    if grid_size is not None:
        _require(grid.size == grid_size, f"{path.name}: {grid.size} grid points, "
                                         f"asked for {grid_size}")
    _require(bool(np.all(np.isfinite(density)) and np.all(density >= 0.0)),
             f"{path.name}: density not finite and non-negative")
    integral = float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(grid)))
    _require(abs(integral - 1.0) <= DENSITY_TOLERANCE,
             f"{path.name}: density integrates to {integral!r}")


def _check_survival_exact(workdir: Path, meta: dict) -> None:
    out = workdir / "out" / "exact"
    _check_report_identities(_load_json(out / "report.json"))
    for param in ("b0", "b1"):
        _check_density(out / f"density_exact_{param}.csv")
    _require((out / "manifest.json").is_file(), "missing manifest.json")


def _check_survival_gap(workdir: Path, meta: dict) -> None:
    """Criterion 4: exact Dbar - monitored mean deviance ~ the derived gap."""
    exact_dir, dint_dir = workdir / "out" / "exact", workdir / "out" / "dinterval"
    dbar = _load_json(exact_dir / "report.json")["Dbar"]
    monitored = _load_json(dint_dir / "report.json")["mean_monitored_deviance"]
    se = math.hypot(
        _pooled_deviance_se([exact_dir / "samples_a.csv", exact_dir / "samples_b.csv"]),
        _pooled_deviance_se([dint_dir / "samples_a.csv"]),
    )
    gap = dbar - monitored
    tolerance = GAP_BIAS_ALLOWANCE + GAP_MCSE_FACTOR * se
    _require(abs(gap - DERIVED_SURVIVAL_GAP) <= tolerance,
             f"deviance gap {gap:.4f}, derived {DERIVED_SURVIVAL_GAP:.4f} "
             f"+- {tolerance:.4f}")


def _check_ae_structure(workdir: Path, meta: dict) -> None:
    """Criterion 6: seven rows, exact identities, G's optimism blow-up, C-F ahead of G.

    G's p_opt/pD straddles the fixed overfit ratio of 5 from dataset to
    dataset (4.5 to 6.9 over ten seeds at these chain lengths, and D's ratio
    can exceed G's), so the overfit flag is checked for consistency with
    p_opt and pD, and the blow-up as G having the largest pD and p_opt.
    """
    out = workdir / "out" / "compare"
    ranked = _load_json(out / "comparison.json")["ranked"]
    rows = {r["model"]: r for r in ranked}
    _require(len(ranked) == 7 and set(rows) == set("ABCDEFG"), "not seven models A-G")
    for r in ranked:
        _check_report_identities(r)
        _require(r["overfit"] == (r["pD"] > 0 and r["p_opt"] > OVERFIT_RATIO * r["pD"]),
                 f"{r['model']}: overfit flag inconsistent with p_opt and pD")
    for key in ("pD", "p_opt"):
        top = max(rows, key=lambda m: rows[m][key])
        _require(top == "G", f"largest {key} is {top}'s, not G's")
    g = rows["G"]
    _require(all(rows[m]["PED"] < g["PED"] for m in "CDEF"), "C-F not ahead of G on PED")
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "model,Dbar,pD,DIC,p_opt,PED" and len(lines) == 8,
             "comparison.csv is not a header plus seven rows")


def _check_tobit_recovery(workdir: Path, meta: dict) -> None:
    out = workdir / "out" / "tobit"
    _check_report_identities(_load_json(out / "report.json"))
    lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    _require(lines[0].startswith("param,mean,sd,"), "unexpected summary.csv header")
    summary = {}
    for line in lines[1:]:
        cells = line.split(",")
        summary[cells[0]] = (float(cells[1]), float(cells[2]))
    _require(set(summary) == set(TOBIT_TRUTH), f"summary params {sorted(summary)}")
    for name, truth in TOBIT_TRUTH.items():
        mean, sd = summary[name]
        _require(abs(mean - truth) <= TOBIT_RECOVERY_SDS * sd,
                 f"{name}: posterior mean {mean:.4f} (sd {sd:.4f}), truth {truth}")


def operations(meta: dict) -> list[tuple[str, list[str], object]]:
    """The workload's command sequence: (name, CLI argv, output check)."""
    workload = meta["workload"]
    if workload == "survival-aml":
        return [
            ("fit-exact", ["fit", "--config", "fit_exact.json"], _check_survival_exact),
            ("fit-dinterval", ["fit", "--config", "fit_dinterval.json"],
             _check_survival_gap),
        ]
    if workload == "ae-compare":
        return [("compare", ["compare", "--config", "compare.json"], _check_ae_structure)]
    if workload == "tobit-large":
        return [("fit", ["fit", "--config", "fit.json"], _check_tobit_recovery)]
    grid = meta["grid_size"]

    def check_density(param):
        return lambda workdir, meta: _check_density(
            workdir / "out" / f"density_{param}.csv", grid
        )

    return [
        (f"export-{param}",
         ["export-density", "--trace", "trace.csv", "--param", param,
          "--grid-size", str(grid), "--out", f"out/density_{param}.csv"],
         check_density(param))
        for param in TRACE_PARAMS
    ]
