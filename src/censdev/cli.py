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
from .selection import OVERFIT_RATIO, SelectionReport, compare, make_selection_report

__all__ = ["main", "cmd_fit", "cmd_compare", "cmd_export_density", "cmd_demo"]

OUTPUT_ROOT_ENV = "CENSDEV_OUTPUT_ROOT"

REPORT_COLUMNS = ("model", "Dbar", "pD", "DIC", "p_opt", "PED")

SUMMARY_COLUMNS = ("param", "mean", "sd", "q2.5", "q50", "q97.5", "rhat", "accept")

# Each demo's chains: the full run, then the --quick one.
DEMO_CHAINS = {
    "survival": (ChainConfig(3, 30000, 10000, seed=20260810),
                 ChainConfig(2, 500, 500, seed=20260810)),
    "ae-synthetic": (ChainConfig(2, 2000, 2000, seed=20260801),
                     ChainConfig(2, 400, 400, seed=20260801)),
}

# Characters of samples-CSV text parsed per block (a few thousand rows).
_CSV_BLOCK = 1 << 18

# The keys a config of each command may hold.
FIT_KEYS = ("dataset", "model", "mode", "chains", "label", "output_dir")
COMPARE_KEYS = ("dataset", "models", "variants", "chains", "output_dir")


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


def _output_dir(value) -> Path:
    """The output directory ``value`` names, under $CENSDEV_OUTPUT_ROOT when
    relative."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(_string('"output_dir"', value))
    if "\0" in value:  # no file name holds one
        raise ValidationError(f'"output_dir" cannot name a directory: {value!r} holds a NUL')
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_dataset(config: dict, base_dir: Path) -> tuple[CensoredDataset, str]:
    spec = config.get("dataset")
    if not isinstance(spec, str) or not spec or "\0" in spec:
        raise ValidationError(
            'config needs a "dataset": a file path, which holds no NUL, or "bundled:aml"'
        )
    if spec == "bundled:aml":
        return aml_dataset(), spec
    path = Path(spec)
    if not path.is_absolute():
        path = base_dir / path
    return ingest(path), str(path)


def _check_keys(where: str, obj: dict, allowed) -> None:
    """Raise ValidationError naming the keys of ``obj`` outside ``allowed``."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(
            f"unknown keys in {where}: {sorted(unknown)}; allowed: {sorted(allowed)}")


def _chain_config(section: dict) -> ChainConfig:
    if not isinstance(section, dict):
        raise ValidationError('"chains" must be a JSON object')
    _check_keys('"chains"', section, [field.name for field in dataclasses.fields(ChainConfig)])
    return ChainConfig(**section)


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
    build the model on ``data``; :class:`Model` checks the hyperparameters."""
    if not isinstance(section, dict):
        raise ValidationError("a model section must be a JSON object")
    family = section.get("family")
    specs = {spec.name: spec for spec in MODELS.values() if spec.section == family}
    if not specs:
        raise ValidationError(f"unknown model family {family!r}")
    spec = next(iter(specs.values()))
    _check_keys(f"a {family} model section", section,
                {"family", "label", "hyperparameters", *_section_keys(family)})
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
    hyperparameters = section.get("hyperparameters", {})
    if not isinstance(hyperparameters, dict):
        raise ValidationError('"hyperparameters" must be a JSON object')
    return Model(spec, data, **hyperparameters)


def _derive_run_seeds(seed: int, n_pairs: int) -> list[tuple[int, int]]:
    """Deterministic (run A, run B) seed pairs flowing from the config seed."""
    states = np.random.SeedSequence(seed).generate_state(2 * n_pairs, dtype=np.uint64)
    return [(int(states[2 * i]), int(states[2 * i + 1])) for i in range(n_pairs)]


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------


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
    also takes "1_0" and non-ASCII digits, and names the file's first bad
    line.
    """
    text = read_utf8(path)
    if not text:
        raise ValidationError(f"{path}: empty samples file")
    names, parts, start, first = None, [], 0, 2  # first: the file line of lines[0]
    while start < len(text):
        end = text.find("\n", start + _CSV_BLOCK) + 1 or len(text)
        lines = text[start:end].splitlines()
        start = end
        if names is None:
            names = _samples_csv_header(path, lines.pop(0))
        rows = list(filter(None, lines))
        if rows:
            try:
                block = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
            except ValueError:  # a cell it refuses, or rows of unequal length
                block = None
            if block is None or block.shape != (len(rows), len(names)):
                block = _parse_csv_lines(path, lines, len(names), first)
            parts.append(block)
        first += len(lines)
    if not parts:
        raise ValidationError(f"{path}: no draws")
    return names, np.concatenate(parts)


def _parse_csv_lines(path: Path, lines: list[str], width: int, first: int) -> np.ndarray:
    """The (rows, width) matrix of the non-empty ``lines``, the first of them
    line ``first`` of the file, parsed with Python's ``float()`` on each
    cell; raises ValidationError naming the first line that is not ``width``
    numbers."""
    values = []
    for number, line in enumerate(lines, start=first):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(
                f"{path}: line {number}: expected {width} fields, got {len(cells)}")
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: line {number}: expected a number, got {cell!r}") from None
    return np.array(values).reshape(-1, width)


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


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows, each a sequence of string cells."""
    lines = [",".join(header), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_artifacts(out_dir: Path, files: dict, config: dict, seed: int, dataset_src: str,
                     dataset_id: str) -> None:
    """Write ``files`` into ``out_dir`` (name -> a JSON payload, or a CSV
    header and rows), then the manifest that lists them with ``seed``, the
    config seed of the runs, and remove the files the directory's previous
    manifest lists and this one does not."""
    try:
        listed = json.loads((out_dir / "manifest.json").read_text("utf-8"))["outputs"]
    except (OSError, ValueError, LookupError, TypeError):  # missing or unreadable
        listed = []
    manifest = {
        "package": "censdev",
        "version": __version__,
        "seed": seed,
        "config_sha256": _config_hash(config),
        "dataset": dataset_src,
        "dataset_fingerprint": dataset_id,
        "outputs": sorted([*files, "manifest.json"]),
    }
    for name, content in {**files, "manifest.json": manifest}.items():
        if isinstance(content, dict):
            text = json.dumps(content, indent=2, sort_keys=True) + "\n"
            (out_dir / name).write_text(text, encoding="utf-8")
        else:
            _write_csv(out_dir / name, *content)
    for name in listed if isinstance(listed, list) else ():
        stale = out_dir / str(name)
        if name not in manifest["outputs"] and stale.name == name and stale.is_file():
            stale.unlink()


def _samples_file(samples: PosteriorSamples) -> tuple:
    """Header and rows of a samples CSV; the rows are formatted as written,
    from Python floats and ints (``repr`` of the same doubles)."""
    rows = (
        [str(chain), *map(repr, draw), repr(dev)] for chain, draw, dev in zip(
            samples.chain_ids.tolist(), samples.draws.tolist(), samples.deviance_trace.tolist())
    )
    return ("chain", *samples.param_names, "deviance"), rows


def _density_file(grid: np.ndarray, density: np.ndarray) -> tuple:
    return ("grid", "density"), zip(map(repr, grid.tolist()), map(repr, density.tolist()))


def _report_row(report: SelectionReport, fmt=_fmt) -> list:
    """A report's REPORT_COLUMNS cells, its numbers passed through ``fmt``."""
    values = (report.dbar, report.pd, report.dic, report.p_opt, report.ped)
    return [report.label, *map(fmt, values)]


def _report_json(report: SelectionReport) -> dict:
    return {
        **dict(zip(REPORT_COLUMNS, _report_row(report, float))),
        "mode": "exact",
        "dataset_id": report.dataset_id,
        "popt_method": "paired-kl",
        "overfit": bool(report.overfit),
        "warnings": list(report.warnings),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _paired_runs(group: list, data: CensoredDataset, chains: ChainConfig, dataset_id: str):
    """Exact-mode runs A and B of each ``(model, label, seeds)`` of ``group``,
    models that share a ``layout_key``, all sampled as one batch; returns
    each one's (runs A and B, selection report), in order."""
    batch = ChainBatch(
        tuple(dataclasses.replace(chains, seed=seed) for _, _, seeds in group for seed in seeds),
        tuple(model for model, _, seeds in group for _ in seeds),
    )
    samples = run(group[0][0], data, LikelihoodMode.EXACT, batch)
    return [(samples[2 * k:2 * k + 2],
             make_selection_report(label, model, data, *samples[2 * k:2 * k + 2],
                                   dataset_id=dataset_id))
            for k, (model, label, _) in enumerate(group)]


def _fit(config: dict, config_dir: Path) -> tuple[dict, Path]:
    """Fit the config's model and write its artifacts into the config's
    "output_dir" (see :func:`_output_dir`); returns the report.json payload
    and the directory.

    The directory is made once the config validates.  Every result is
    computed before the first file is written, so a fit that fails writes
    no file.
    """
    _check_keys("a fit config", config, FIT_KEYS)
    data, dataset_src = _load_dataset(config, config_dir)
    section = config.get("model", {})
    model = _build_model(section, data)
    modes = [m.value for m in LikelihoodMode]
    if config.get("mode", "exact") not in modes:
        raise ValidationError(f"mode must be one of {modes}, got {config['mode']!r}")
    mode = LikelihoodMode(config.get("mode", "exact"))
    chains = _chain_config(config.get("chains", {}))
    label = _string('"label"', section.get("label", config.get("label", model.label)))
    out_dir = _output_dir(config.get("output_dir", "censdev-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_id = dataset_fingerprint(data)

    seeds = _derive_run_seeds(chains.seed, 1)[0]
    if mode is LikelihoodMode.EXACT:
        [(samples, report)] = _paired_runs([(model, label, seeds)], data, chains, dataset_id)
    else:
        batch = ChainBatch((dataclasses.replace(chains, seed=seeds[0]),))
        samples = run(model, data, mode, batch)
    samples_a = samples[0]
    summary = [[s.name, *map(_fmt, dataclasses.astuple(s)[1:])] for s in summarize(samples_a)]
    files = {"samples_a.csv": _samples_file(samples_a), "summary.csv": (SUMMARY_COLUMNS, summary)}
    for param in samples_a.param_names:
        grid, density = export_density(samples_a.param(param), grid_size=512)
        files[f"density_{mode.value}_{param}.csv"] = _density_file(grid, density)
    if mode is LikelihoodMode.EXACT:
        files["samples_b.csv"] = _samples_file(samples[1])
        files["report.csv"] = (REPORT_COLUMNS, [_report_row(report)])
        payload = _report_json(report)
    else:
        payload = {
            "mode": mode.value,
            "model": label,
            "mean_monitored_deviance": float(samples_a.deviance_trace.mean()),
            "mean_exact_deviance": float(samples_a.exact_deviance_trace.mean()),
            "note": "latent-imputation monitor: censored rows contribute log(1)=0; "
                    "not usable for DIC/PED model selection",
        }
    files["report.json"] = payload
    _write_artifacts(out_dir, files, config, chains.seed, dataset_src, dataset_id)
    return payload, out_dir


def cmd_fit(config: dict, config_dir: Path) -> int:
    report, out_dir = _fit(config, config_dir)
    if "DIC" in report:
        print(f"[{report['model']}] "
              + " ".join(f"{name}={report[name]:.3f}" for name in REPORT_COLUMNS[1:]))
    else:
        print(f"[{report['model']}] mean monitored deviance "
              f"{report['mean_monitored_deviance']:.3f} ({report['mode']} mode)")
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
        sections = [{"label": v, "family": "censored-binomial", "variant": v} for v in variants]
    if len(sections) < 2:
        raise ValidationError("compare needs at least two models")
    return sections


def cmd_compare(config: dict, config_dir: Path) -> int:
    _check_keys("a compare config", config, COMPARE_KEYS)
    data, dataset_src = _load_dataset(config, config_dir)
    chains = _chain_config(config.get("chains", {}))
    sections = _model_sections(config)
    fits = []
    for section, seeds in zip(sections, _derive_run_seeds(chains.seed, len(sections))):
        model = _build_model(section, data)
        fits.append((model, _string('"label"', section.get("label", model.label)), seeds))
    out_dir = _output_dir(config.get("output_dir", "censdev-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_id = dataset_fingerprint(data)

    # Models that differ only in row_params (D, E and F) share one chain
    # batch, sampled where its first model stands.  A model's line is
    # printed once it and every model before it are fitted.
    groups = {}
    for k, (model, _, _) in enumerate(fits):
        groups.setdefault(model.layout_key, []).append(k)
    reports, printed = [None] * len(fits), 0
    for members in groups.values():
        paired = _paired_runs([fits[k] for k in members], data, chains, dataset_id)
        for k, (_, report) in zip(members, paired):
            reports[k] = report
        while printed < len(reports) and reports[printed] is not None:
            report = reports[printed]
            print(f"fitted {report.label}: DIC={report.dic:.2f} PED={report.ped:.2f}"
                  + ("  [overfit]" if report.overfit else ""))
            printed += 1

    ranked = compare(reports)
    files = {
        "comparison.csv": (REPORT_COLUMNS, map(_report_row, ranked)),
        "comparison.json": {"ranked": [_report_json(r) for r in ranked]},
    }
    _write_artifacts(out_dir, files, config, chains.seed, dataset_src, dataset_id)

    print()
    print(_format_table(ranked))
    overfit = [r.label for r in ranked if r.overfit]
    if overfit:
        print(f"overfit flag (p_opt > {OVERFIT_RATIO:g}*pD): {', '.join(overfit)}")
    print(f"artifacts in {out_dir}")
    return 0


def _format_table(reports: list[SelectionReport]) -> str:
    rows = [REPORT_COLUMNS, *(_report_row(r, "{:.2f}".format) for r in reports)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.rjust, row, widths)) for row in rows)


def cmd_export_density(args) -> int:
    names, matrix = _read_samples_csv(Path(args.trace))
    if args.param not in names:
        raise ValidationError(
            f"trace has no column {args.param!r}; available: {names}"
        )
    if not args.out and ("/" in args.param or "\0" in args.param):  # no file name holds these
        raise ValidationError(f"column {args.param!r} cannot name the density file "
                              "beside the trace; give --out")
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
    _write_csv(out, *_density_file(grid, density))
    print(f"wrote {out}")
    return 0


def cmd_demo(which: str, output_dir: str | None, quick: bool = False) -> int:
    chains = DEMO_CHAINS[which][quick]
    out_root = _output_dir(output_dir or f"censdev-demo-{which}")
    if which == "ae-synthetic":
        out_root.mkdir(parents=True, exist_ok=True)
        dataset_path = (out_root / "ae_synthetic.csv").resolve()
        dataset_path.write_text(serialize(synthetic_ae_dataset(seed=chains.seed)), "utf-8")
        config = {
            "dataset": str(dataset_path),
            "variants": list(AE_VARIANTS),
            "chains": dataclasses.asdict(chains),
            "output_dir": str(out_root.resolve()),
        }
        return cmd_compare(config, out_root)

    headline = []
    for mode in ("exact", "dinterval"):
        config = {
            "label": f"survival-{mode}",
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": mode,
            "chains": dataclasses.asdict(chains),
            "output_dir": str((out_root / f"survival-{mode}").resolve()),
        }
        report, _ = _fit(config, out_root)
        headline.append(report["Dbar"] if mode == "exact" else report["mean_monitored_deviance"])
    exact, monitored = headline
    print()
    print(f"exact-mode mean deviance:              {exact:.3f}")
    print(f"latent-imputation monitored deviance:  {monitored:.3f}")
    print(f"deviance understated by the default monitor: {exact - monitored:.3f}")
    print(f"artifacts in {out_root}")
    return 0


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
        for option in ("config", "trace", "out"):  # no file name holds a NUL
            if "\0" in (value := getattr(args, option, None) or ""):
                raise ValidationError(f"--{option} cannot name a file: {value!r} holds a NUL")
        if args.command in ("fit", "compare"):
            command = cmd_fit if args.command == "fit" else cmd_compare
            config_path = Path(args.config)
            return command(_load_config(config_path), config_path.parent)
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
