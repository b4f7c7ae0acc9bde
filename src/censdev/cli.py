"""Command-line workflows: fit, compare, export-density and demos.

Every run is keyed to the single seed in its config: chain seeds, the
replicate run used for optimism estimation, and synthetic data all derive
from it, so rerunning a command reproduces its output files byte for byte.
Output files carry no timestamps for the same reason; provenance lives in
``manifest.json`` (package version, seed, config hash, dataset fingerprint).

Exit codes: 0 success, 2 validation, 3 numeric failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    aml_dataset,
    dataset_fingerprint,
    ingest,
    read_utf8,
    serialize,
    synthetic_ae_dataset,
)
from .exceptions import NumericError, ValidationError
from .likelihood import CensoredDataset, LikelihoodMode
from .mcmc import ChainBatch, ChainConfig, PosteriorSamples, export_density, run, summarize
from .models import AE_VARIANTS, MODELS, Model
from .selection import SelectionReport, compare, make_selection_report

__all__ = ["main", "cmd_fit", "cmd_compare", "cmd_export_density", "cmd_demo"]

OUTPUT_ROOT_ENV = "CENSDEV_OUTPUT_ROOT"

REPORT_COLUMNS = ("model", "Dbar", "pD", "DIC", "p_opt", "PED")

DEMO_SEEDS = {"survival": 20260810, "ae-synthetic": 20260801}

# Characters of samples-CSV text parsed per block (a few thousand rows).
_CSV_BLOCK = 1 << 18


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _load_config(path: str | Path) -> dict:
    text = read_utf8(path)
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise ValidationError(f"config {path}: expected a JSON object")
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _resolve_output_dir(config_dir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(_string('"output_dir"', config_dir))
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(config: dict, base_dir: Path) -> tuple[CensoredDataset, str]:
    spec = config.get("dataset")
    if not isinstance(spec, str) or not spec:
        raise ValidationError(
            'config needs a "dataset": a file path or "bundled:aml"'
        )
    if spec == "bundled:aml":
        return aml_dataset(), spec
    path = Path(spec)
    if not path.is_absolute():
        path = base_dir / path
    return ingest(path), str(path)


def _chain_config(section: dict) -> ChainConfig:
    if not isinstance(section, dict):
        raise ValidationError('"chains" must be a JSON object')
    known = {"n_chains", "burn_in", "n_keep", "thin", "seed", "adapt_window"}
    unknown = set(section) - known
    if unknown:
        raise ValidationError(f"unknown chain settings: {sorted(unknown)}")
    for key, value in section.items():
        # bool is an int subclass; 10.0 is not an iteration count.
        if type(value) is not int:
            raise ValidationError(
                f"chain setting {key!r} must be an integer, got {value!r}"
            )
    return ChainConfig(**section)


def _positive_real(name: str, value) -> float:
    # bool is an int subclass; NaN fails both comparisons.
    if type(value) not in (int, float) or not 0.0 < value <= sys.float_info.max:
        raise ValidationError(
            f"hyperparameter {name!r} must be a finite positive number, got {value!r}"
        )
    return float(value)


def _hyperparameters(section: dict) -> dict:
    """The section's hyperparameters, their values validated, as model
    keyword arguments; :class:`Model` rejects the keys its entry lacks."""
    given = section.get("hyperparameters", {})
    if not isinstance(given, dict):
        raise ValidationError('"hyperparameters" must be a JSON object')
    hyper = {}
    for key, value in given.items():
        if key == "beta_shapes":
            if not isinstance(value, list) or len(value) != 2:
                raise ValidationError(
                    f"hyperparameter 'beta_shapes' must be a pair of numbers, got {value!r}"
                )
            hyper[key] = tuple(_positive_real(key, v) for v in value)
        else:
            hyper[key] = _positive_real(key, value)
    return hyper


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _section_keys(family: str) -> tuple[str, ...]:
    """The keys a section of ``family`` may hold beside family, label and
    hyperparameters: "variant" when the family has several table entries,
    and "<name>_column" to re-point each covariate its entries name."""
    specs = [spec for spec in MODELS.values() if spec.section == family]
    return (("variant",) if len(specs) > 1 else ()) + tuple(
        f"{name}_column" for name in specs[0].covariates or ()
    )


def _build_model(section: dict, data: CensoredDataset) -> Model:
    """Validate a model section against its entries of the model table, then
    build the model on ``data``."""
    if not isinstance(section, dict):
        raise ValidationError("a model section must be a JSON object")
    family = section.get("family")
    specs = {spec.name: spec for spec in MODELS.values() if spec.section == family}
    if not specs:
        raise ValidationError(f"unknown model family {family!r}")
    spec = next(iter(specs.values()))
    allowed = {"family", "label", "hyperparameters", *_section_keys(family)}
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(
            f"unknown keys in a {family} model section: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    if len(specs) > 1:
        variant = _string('"variant"', section.get("variant", spec.name)).upper()
        if variant not in specs:
            raise ValidationError(f"unknown variant {variant!r}, expected one of {tuple(specs)}")
        spec = specs[variant]
    named = spec.covariates or ()
    columns = tuple(_string(f'"{name}_column"', section.get(f"{name}_column", name))
                    for name in named)
    if columns != named:
        spec = dataclasses.replace(spec, covariates=columns)
    return Model(spec, data, **_hyperparameters(section))


def _derive_run_seeds(seed: int, n_pairs: int) -> list[tuple[int, int]]:
    """Deterministic (run A, run B) seed pairs flowing from the config seed."""
    states = np.random.SeedSequence(seed).generate_state(2 * n_pairs, dtype=np.uint64)
    return [(int(states[2 * i]), int(states[2 * i + 1])) for i in range(n_pairs)]


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_samples_csv(path: Path, samples: PosteriorSamples) -> None:
    header = ["chain", *samples.param_names, "deviance"]
    lines = [",".join(header)]
    for i in range(samples.draws.shape[0]):
        cells = [str(int(samples.chain_ids[i]))]
        cells += [_fmt(v) for v in samples.draws[i]]
        cells.append(_fmt(samples.deviance_trace[i]))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_samples_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and draws matrix of a samples file.

    The text is parsed in blocks of about ``_CSV_BLOCK`` characters, so the
    per-line and per-cell strings never outgrow one block.  A block ends just
    after a "\\n": every ``str.splitlines`` separator, "\\r\\n" included, then
    stays inside one block, and the blocks' lines are the file's lines.

    numpy's C reader parses a block's lines with the conversion ``float()``
    uses, bit for bit.  It gets the split lines, not the text, as it takes a
    "\\x0b" line break for whitespace, and ``comments=None``, as it would cut
    "1#x" to 1.  A block it refuses goes through ``float()`` per cell, which
    also takes "1_0" and non-ASCII digits.
    """
    text = read_utf8(path)
    if not text:
        raise ValidationError(f"{path}: empty samples file")
    names = None
    parts = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CSV_BLOCK) + 1 or len(text)
        lines = text[start:end].splitlines()
        start = end
        if names is None:
            names = _samples_csv_header(path, lines.pop(0))
        rows = list(filter(None, lines))
        if not rows:
            continue
        try:
            block = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:  # a cell it refuses, or rows of unequal length
            block = None
        if block is None or block.shape != (len(rows), len(names)):
            block = _parse_csv_block_per_cell(rows, len(names))
            if block is None:
                break
        parts.append(block)
    else:
        if parts:
            return names, np.concatenate(parts)
    # A fault, or no draws: name the file's first bad line.
    raise ValidationError(f"{path}: {_samples_csv_fault(names, text.splitlines())}")


def _parse_csv_block_per_cell(rows: list[str], width: int) -> np.ndarray | None:
    """The (rows, width) matrix of a block's non-empty lines, parsed with
    Python's ``float()`` on each cell, or None when a line is not ``width``
    numbers."""
    if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
        return None
    try:  # numpy parses each str cell with Python's float()
        cells = np.array(",".join(rows).split(","), dtype=float)
    except ValueError:  # a non-numeric cell
        return None
    return cells.reshape(len(rows), width)


def _samples_csv_header(path: Path, header: str) -> list[str]:
    names = header.split(",")
    seen = set()
    for position, name in enumerate(names, start=1):
        if not name:
            raise ValidationError(f"{path}: header: column {position} has no name")
        if name in seen:
            raise ValidationError(f"{path}: header: duplicate column name {name!r}")
        seen.add(name)
    return names


def _samples_csv_fault(names: list[str], lines: list[str]) -> str:
    """Where and why a samples file failed to parse into a draws matrix."""
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            return f"line {number}: expected {len(names)} fields, got {len(cells)}"
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"line {number}: expected a number, got {cell!r}"
    return "no draws"


def _write_summary_csv(path: Path, samples: PosteriorSamples) -> None:
    lines = ["param,mean,sd,q2.5,q50,q97.5,rhat,accept"]
    for s in summarize(samples):
        lines.append(
            ",".join(
                [s.name, _fmt(s.mean), _fmt(s.sd), _fmt(s.q025), _fmt(s.q500),
                 _fmt(s.q975), _fmt(s.rhat), _fmt(s.accept)]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_density_files(
    out_dir: Path, samples: PosteriorSamples, tag: str, grid_size: int = 512
) -> list[str]:
    names = []
    for param in samples.param_names:
        grid, density = export_density(samples.param(param), grid_size=grid_size)
        name = f"density_{tag}_{param}.csv"
        _write_density_csv(out_dir / name, grid, density)
        names.append(name)
    return names


def _write_density_csv(path: Path, grid: np.ndarray, density: np.ndarray) -> None:
    lines = ["grid,density"]
    lines += [f"{_fmt(g)},{_fmt(d)}" for g, d in zip(grid, density)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_row(report: SelectionReport) -> str:
    return ",".join(
        [report.label, _fmt(report.dbar), _fmt(report.pd), _fmt(report.dic),
         _fmt(report.p_opt), _fmt(report.ped)]
    )


def _report_json(report: SelectionReport) -> dict:
    return {
        "model": report.label,
        "Dbar": float(report.dbar),
        "pD": float(report.pd),
        "DIC": float(report.dic),
        "p_opt": float(report.p_opt),
        "PED": float(report.ped),
        "mode": report.mode.value,
        "dataset_id": report.dataset_id,
        "popt_method": report.popt_method,
        "overfit": bool(report.overfit),
        "warnings": list(report.warnings),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def _write_manifest(out_dir: Path, config: dict, dataset_src: str,
                    data: CensoredDataset, outputs: list[str]) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "package": "censdev",
            "version": __version__,
            "seed": config.get("chains", {}).get("seed"),
            "config_sha256": _config_hash(config),
            "dataset": dataset_src,
            "dataset_fingerprint": dataset_fingerprint(data),
            "outputs": sorted(outputs),
        },
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fit_one(
    model: Model,
    data: CensoredDataset,
    mode: LikelihoodMode,
    chains: ChainConfig,
    out_dir: Path,
    label: str,
    dataset_id: str,
) -> tuple[SelectionReport | float, list[str]]:
    """Run the sampler and write fit artifacts; returns the headline (the
    selection report in exact mode, else the mean monitored deviance) and
    the artifact names.

    Exact mode samples the two replicate runs as one batch.
    """
    (seed_a, seed_b) = _derive_run_seeds(chains.seed, 1)[0]
    seeds = (seed_a, seed_b) if mode is LikelihoodMode.EXACT else (seed_a,)
    batch = ChainBatch(tuple(dataclasses.replace(chains, seed=seed) for seed in seeds))
    samples_a, *replicate = run(model, data, mode, batch)
    outputs = []
    _write_samples_csv(out_dir / "samples_a.csv", samples_a)
    outputs.append("samples_a.csv")
    _write_summary_csv(out_dir / "summary.csv", samples_a)
    outputs.append("summary.csv")
    outputs += _write_density_files(out_dir, samples_a, mode.value)

    if mode is LikelihoodMode.EXACT:
        (samples_b,) = replicate
        _write_samples_csv(out_dir / "samples_b.csv", samples_b)
        outputs.append("samples_b.csv")
        report = make_selection_report(
            label, model, data, samples_a, samples_b, dataset_id=dataset_id
        )
        _write_json(out_dir / "report.json", _report_json(report))
        (out_dir / "report.csv").write_text(
            ",".join(REPORT_COLUMNS) + "\n" + _report_row(report) + "\n", "utf-8"
        )
        outputs += ["report.json", "report.csv"]
        return report, outputs

    mean_monitored = float(samples_a.deviance_trace.mean())
    _write_json(
        out_dir / "report.json",
        {
            "mode": mode.value,
            "model": label,
            "mean_monitored_deviance": mean_monitored,
            "note": (
                "latent-imputation monitor: censored rows contribute log(1)=0; "
                "not usable for DIC/PED model selection"
            ),
        },
    )
    outputs.append("report.json")
    return mean_monitored, outputs


def cmd_fit(config: dict, config_dir: Path) -> int:
    data, dataset_src = _load_dataset(config, config_dir)
    section = config.get("model", {})
    model = _build_model(section, data)
    modes = [m.value for m in LikelihoodMode]
    if config.get("mode", "exact") not in modes:
        raise ValidationError(f"mode must be one of {modes}, got {config['mode']!r}")
    mode = LikelihoodMode(config.get("mode", "exact"))
    chains = _chain_config(config.get("chains", {}))
    label = _string('"label"', section.get("label", config.get("label", model.label)))
    out_dir = _resolve_output_dir(config.get("output_dir", "censdev-out"))
    dataset_id = dataset_fingerprint(data)

    headline, outputs = _fit_one(model, data, mode, chains, out_dir, label, dataset_id)
    _write_manifest(out_dir, config, dataset_src, data, outputs + ["manifest.json"])
    if isinstance(headline, SelectionReport):
        print(f"[{label}] Dbar={headline.dbar:.3f} pD={headline.pd:.3f} "
              f"DIC={headline.dic:.3f} p_opt={headline.p_opt:.3f} PED={headline.ped:.3f}")
    else:
        print(f"[{label}] mean monitored deviance {headline:.3f} ({mode.value} mode)")
    print(f"artifacts in {out_dir}")
    return 0


def _model_sections(config: dict) -> list[dict]:
    """The compare config's model sections: "models", else one per variant."""
    sections = config.get("models", [])
    if not isinstance(sections, list) or not all(isinstance(s, dict) for s in sections):
        raise ValidationError('"models" must be a list of model objects')
    if not sections:
        variants = config.get("variants", list(AE_VARIANTS))
        if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
            raise ValidationError('"variants" must be a list of variant names')
        sections = [
            {"label": v, "family": "censored-binomial", "variant": v}
            for v in variants
        ]
    if len(sections) < 2:
        raise ValidationError("compare needs at least two models")
    return sections


def cmd_compare(config: dict, config_dir: Path) -> int:
    data, dataset_src = _load_dataset(config, config_dir)
    chains = _chain_config(config.get("chains", {}))
    models = []
    for section in _model_sections(config):
        model = _build_model(section, data)
        models.append((model, _string('"label"', section.get("label", model.label))))
    out_dir = _resolve_output_dir(config.get("output_dir", "censdev-out"))
    dataset_id = dataset_fingerprint(data)

    seed_pairs = _derive_run_seeds(chains.seed, len(models))
    reports = []
    outputs = []
    for (model, label), (seed_a, seed_b) in zip(models, seed_pairs):
        batch = ChainBatch(tuple(
            dataclasses.replace(chains, seed=seed) for seed in (seed_a, seed_b)
        ))
        samples_a, samples_b = run(model, data, LikelihoodMode.EXACT, batch)
        report = make_selection_report(
            label, model, data, samples_a, samples_b, dataset_id=dataset_id
        )
        reports.append(report)
        print(f"fitted {label}: DIC={report.dic:.2f} PED={report.ped:.2f}"
              + ("  [overfit]" if report.overfit else ""))

    ranked = compare(reports)
    table_lines = [",".join(REPORT_COLUMNS)] + [_report_row(r) for r in ranked]
    (out_dir / "comparison.csv").write_text("\n".join(table_lines) + "\n", "utf-8")
    _write_json(
        out_dir / "comparison.json", {"ranked": [_report_json(r) for r in ranked]}
    )
    outputs += ["comparison.csv", "comparison.json"]
    _write_manifest(out_dir, config, dataset_src, data, outputs + ["manifest.json"])

    print()
    print(_format_table(ranked))
    overfit = [r.label for r in ranked if r.overfit]
    if overfit:
        print(f"overfit flag (p_opt > 5*pD): {', '.join(overfit)}")
    print(f"artifacts in {out_dir}")
    return 0


def _format_table(reports: list[SelectionReport]) -> str:
    rows = [REPORT_COLUMNS] + [
        (r.label, f"{r.dbar:.2f}", f"{r.pd:.2f}", f"{r.dic:.2f}",
         f"{r.p_opt:.2f}", f"{r.ped:.2f}")
        for r in reports
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    )


def cmd_export_density(args) -> int:
    names, matrix = _read_samples_csv(Path(args.trace))
    if args.param not in names:
        raise ValidationError(
            f"trace has no column {args.param!r}; available: {names}"
        )
    trace = matrix[:, names.index(args.param)]
    bandwidth = args.bandwidth
    try:
        bandwidth = float(bandwidth)
    except ValueError:
        pass
    grid, density = export_density(trace, grid_size=args.grid_size,
                                   bandwidth_rule=bandwidth)
    out = Path(args.out) if args.out else Path(args.trace).with_name(
        f"density_{args.param}.csv"
    )
    _write_density_csv(out, grid, density)
    print(f"wrote {out}")
    return 0


def _demo_chains(quick: bool, seed: int, survival: bool) -> ChainConfig:
    if survival:
        if quick:
            return ChainConfig(n_chains=2, burn_in=500, n_keep=500, seed=seed)
        return ChainConfig(n_chains=3, burn_in=30000, n_keep=10000, seed=seed)
    if quick:
        return ChainConfig(n_chains=2, burn_in=400, n_keep=400, seed=seed)
    return ChainConfig(n_chains=2, burn_in=2000, n_keep=2000, seed=seed)


def cmd_demo(which: str, output_dir: str | None, quick: bool = False) -> int:
    seed = DEMO_SEEDS[which]
    out_root = _resolve_output_dir(output_dir or f"censdev-demo-{which}")
    if which == "survival":
        return _demo_survival(out_root, seed, quick)
    return _demo_ae(out_root, seed, quick)


def _demo_survival(out_root: Path, seed: int, quick: bool) -> int:
    data = aml_dataset()
    dataset_id = dataset_fingerprint(data)
    chains = _demo_chains(quick, seed, survival=True)
    headline = {}
    for mode in (LikelihoodMode.EXACT, LikelihoodMode.DINTERVAL):
        model = Model(MODELS["survival-exponential"], data)
        out_dir = out_root / f"survival-{mode.value}"
        out_dir.mkdir(parents=True, exist_ok=True)
        config = {
            "label": f"survival-{mode.value}",
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": mode.value,
            "chains": dataclasses.asdict(chains),
            "output_dir": str(out_dir),
        }
        result, outputs = _fit_one(
            model, data, mode, chains, out_dir, config["label"], dataset_id
        )
        _write_manifest(out_dir, config, "bundled:aml", data,
                        outputs + ["manifest.json"])
        headline[mode] = result.dbar if isinstance(result, SelectionReport) else result
    gap = headline[LikelihoodMode.EXACT] - headline[LikelihoodMode.DINTERVAL]
    print()
    print(f"exact-mode mean deviance:              {headline[LikelihoodMode.EXACT]:.3f}")
    print(f"latent-imputation monitored deviance:  {headline[LikelihoodMode.DINTERVAL]:.3f}")
    print(f"deviance understated by the default monitor: {gap:.3f}")
    print(f"artifacts in {out_root}")
    return 0


def _demo_ae(out_root: Path, seed: int, quick: bool) -> int:
    data = synthetic_ae_dataset(seed=seed)
    dataset_path = (out_root / "ae_synthetic.csv").resolve()
    dataset_path.write_text(serialize(data), encoding="utf-8")
    chains = _demo_chains(quick, seed, survival=False)
    config = {
        "dataset": str(dataset_path),
        "variants": list(AE_VARIANTS),
        "chains": dataclasses.asdict(chains),
        "output_dir": str(out_root.resolve()),
    }
    return cmd_compare(config, out_root)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censdev",
        description="Bayesian censored-data inference with exact deviance monitors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model from a JSON config")
    p_fit.add_argument("--config", required=True)

    p_cmp = sub.add_parser("compare", help="fit several models and rank by DIC/PED")
    p_cmp.add_argument("--config", required=True)

    p_den = sub.add_parser("export-density", help="kernel density from a trace file")
    p_den.add_argument("--trace", required=True)
    p_den.add_argument("--param", required=True)
    p_den.add_argument("--grid-size", type=int, default=512)
    p_den.add_argument("--bandwidth", default="scott")
    p_den.add_argument("--out", default=None)

    p_demo = sub.add_parser("demo", help="run a bundled end-to-end example")
    p_demo.add_argument("which", choices=["survival", "ae-synthetic"])
    p_demo.add_argument("--output-dir", default=None)
    p_demo.add_argument("--quick", action="store_true",
                        help="small chains for a fast smoke run")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            config_path = Path(args.config)
            return cmd_fit(_load_config(config_path), config_path.parent)
        if args.command == "compare":
            config_path = Path(args.config)
            return cmd_compare(_load_config(config_path), config_path.parent)
        if args.command == "export-density":
            return cmd_export_density(args)
        return cmd_demo(args.which, args.output_dir, args.quick)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
