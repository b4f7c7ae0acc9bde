"""Dataset file format, bundled data, synthetic generation, and the CLI
workflows with their exit codes and determinism guarantees."""

import dataclasses
import functools
import inspect
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from censdev import (
    MODELS,
    ChainConfig,
    LikelihoodMode,
    Model,
    __version__,
    cli,
    datasets,
    distributions,
    loglik_exact,
    mcmc,
    selection,
)
from censdev.cli import main
from censdev.datasets import (
    aml_dataset,
    dataset_fingerprint,
    ingest,
    parse_dataset,
    read_utf8,
    serialize,
    synthetic_ae_dataset,
)
from censdev.exceptions import DataError, ParseError, SchemaError, ValidationError
from conftest import (
    assert_same_columns,
    censored_rows,
    make_dataset,
    outcome_specs,
    run_one,
)

HEADER = "outcome,censor,cut1,cut2,trials"


def _parse_rows(*rows, header=HEADER):
    return parse_dataset("\n".join([header, *rows]) + "\n")


class TestParsing:
    def test_observed_row(self):
        data = _parse_rows("13,none,,,,")
        assert outcome_specs(data)[0] == ("none", 13.0)

    def test_right_censored_row(self):
        data = _parse_rows(",right,28,,,")
        assert outcome_specs(data)[0] == ("right", 28.0)

    def test_left_and_interval_rows(self):
        data = _parse_rows(",left,4,,,", ",interval,1,5,,")
        assert outcome_specs(data) == [("left", 4.0), ("interval", 1.0, 5.0)]

    def test_covariates_and_trials(self):
        data = _parse_rows("3,none,,,25,1,0.5", header=HEADER + ",drug,dose")
        assert data.columns.trials.tolist() == [25]
        assert data.columns.covariates.tolist() == [[1.0, 0.5]]
        assert data.covariate_names == ("drug", "dose")

    @pytest.mark.parametrize("trials", [2**53 + 1, 2**63 - 1])
    def test_large_trial_counts_are_read_exactly(self, trials):
        data = _parse_rows(f"3,none,,,{trials},")
        assert data.columns.trials.tolist() == [trials]

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("13,sometimes,,,,", "censor"),
            (",none,,,,", "outcome"),
            ("13,none,5,,,", "cut"),
            (",left,,,,", "cut1"),
            (",left,2,7,,", "cut2"),
            (",interval,5,1,,", "out of order"),
            (",interval,5,,,", "cut2"),
            ("abc,none,,,,", "number"),
            ("13,none,,,2.5,", "trials"),
            ("13,none,,,0,", "trials"),
            ("13,none,,", "fields"),
            ("5,right,3,,,", "outcome"),
        ],
    )
    def test_malformed_rows_name_line(self, row, fragment):
        with pytest.raises(ParseError) as err:
            _parse_rows("1,none,,,,", row)
        assert "line 3" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "row,column",
        [
            ("13,none,,,inf,0.5", "trials"),
            ("13,none,,,-inf,0.5", "trials"),
            ("13,none,,,1e400,0.5", "trials"),
            ("13,none,,,nan,0.5", "trials"),
            ("13,none,,,1e20,0.5", "trials"),
            ("nan,none,,,,0.5", "outcome"),
            ("inf,none,,,,0.5", "outcome"),
            ("-1e400,none,,,,0.5", "outcome"),
            (",left,nan,,,0.5", "cut1"),
            (",left,-inf,,,0.5", "cut1"),
            (",right,inf,,,0.5", "cut1"),
            (",right,1e400,,,0.5", "cut1"),
            (",interval,nan,5,,0.5", "cut1"),
            (",interval,1,nan,,0.5", "cut2"),
            ("1,none,,,,nan", "dose"),
            ("1,none,,,,-inf", "dose"),
            ("1,none,,,,1e400", "dose"),
        ],
    )
    def test_non_finite_cells_name_line_and_column(self, row, column):
        with pytest.raises(ParseError) as err:
            _parse_rows("1,none,,,,0.5", row, header=HEADER + ",dose")
        assert str(err.value).startswith(f"line 3, column {column!r}: ")

    @pytest.mark.parametrize(
        "row,outcome",
        [
            (",interval,-inf,5,", ("interval", -math.inf, 5.0)),
            (",interval,1,inf,", ("interval", 1.0, math.inf)),
            (",left,inf,,", ("left", math.inf)),
            (",right,-inf,,", ("right", -math.inf)),
        ],
    )
    def test_infinite_bounds_of_a_non_empty_region_are_kept(self, row, outcome):
        assert outcome_specs(_parse_rows(row))[0] == outcome

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_dataset("time,event\n1,0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_dataset("")
        with pytest.raises(ParseError):
            parse_dataset(HEADER + "\n")

    def test_blank_lines_skipped(self):
        data = _parse_rows("1,none,,,,", "", "2,none,,,,")
        assert len(data) == 2


class TestBundledAml:
    def test_partition_sizes(self):
        data = aml_dataset()
        assert len(data) == 23
        kinds = [spec[0] for spec in outcome_specs(data)]
        assert kinds.count("right") == 5
        assert kinds.count("none") == 18

    def test_group_composition(self):
        data = aml_dataset()
        groups = data.columns.covariates[:, 0].tolist()
        assert data.covariate_names == ("group",)
        assert groups.count(1.0) == 11 and groups.count(0.0) == 12
        censored_groups = data.columns.covariates[censored_rows(data), 0].tolist()
        assert censored_groups.count(1.0) == 4 and censored_groups.count(0.0) == 1

    def test_exposure_totals(self):
        """Events and total follow-up per arm drive every closed-form check."""
        data = aml_dataset()
        cols = data.columns
        value = np.where(np.isnan(cols.value), cols.lo, cols.value).tolist()
        group = cols.covariates[:, 0].tolist()
        maintained = [v for v, g in zip(value, group) if g == 1.0]
        control = [v for v, g in zip(value, group) if g == 0.0]
        assert sum(maintained) == 423.0
        assert sum(control) == 255.0


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _valid_datasets(draw):
    """Datasets the file format can hold: every censor kind with the
    README's kept infinite bounds, trials present or absent per row, and
    0-3 named covariates."""
    n = draw(st.integers(1, 6))
    outcomes = []
    for _ in range(n):
        censor = draw(st.sampled_from(["none", "left", "right", "interval"]))
        if censor == "none":
            outcomes.append(("none", draw(_NUMBERS)))
        elif censor == "left":
            outcomes.append(("left", draw(st.one_of(_NUMBERS, st.just(math.inf)))))
        elif censor == "right":
            outcomes.append(("right", draw(st.one_of(_NUMBERS, st.just(-math.inf)))))
        else:
            lo = draw(st.one_of(_NUMBERS, st.just(-math.inf)))
            hi = draw(st.one_of(_NUMBERS, st.just(math.inf)).filter(lambda x: x > lo))
            outcomes.append(("interval", lo, hi))
    trials = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.none(), st.integers(1, 2**63 - 1)), min_size=n, max_size=n)))
    names = draw(st.lists(st.text("abxyz_", min_size=1, max_size=3), max_size=3, unique=True))
    covariates = draw(st.lists(st.lists(_NUMBERS, min_size=len(names), max_size=len(names)),
                               min_size=n, max_size=n))
    return make_dataset(outcomes, covariates=np.array(covariates).reshape(n, len(names)),
                        trials=trials, names=names)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(data=_valid_datasets())
    def test_parse_of_serialize_gives_bit_equal_columns(self, data):
        text = serialize(data)
        again = parse_dataset(text)
        assert_same_columns(again, data)
        assert serialize(again) == text

    def test_fingerprints_are_pinned(self):
        assert dataset_fingerprint(aml_dataset()) == "50f8367128774ad8"
        assert dataset_fingerprint(synthetic_ae_dataset()) == "fb8673e962d757a2"
        assert [dataset_fingerprint(synthetic_ae_dataset(seed=s)) for s in (1, 2, 3)] == [
            "d525ff253e327b94", "c90f5766b9f437fb", "a168aca3bdbda412"]

    def test_ingest_serialize_ingest_identity(self, tmp_path):
        data = aml_dataset()
        path = tmp_path / "roundtrip.csv"
        path.write_text(serialize(data), encoding="utf-8")
        again = ingest(path)
        assert_same_columns(again, data)
        assert serialize(again) == serialize(data)

    def test_synthetic_round_trip(self):
        data = synthetic_ae_dataset(seed=321)
        assert_same_columns(parse_dataset(serialize(data)), data)

    def test_fingerprint_tracks_content(self):
        a = synthetic_ae_dataset(seed=1)
        b = synthetic_ae_dataset(seed=1)
        c = synthetic_ae_dataset(seed=2)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(c)


class TestSyntheticAe:
    def test_shape(self):
        data = synthetic_ae_dataset(n_studies=25, seed=7)
        assert len(data) == 25
        assert data.covariate_names == ("drug", "drug_class", "study")
        drugs = set(data.columns.covariates[:, 0].tolist())
        assert drugs == {0.0, 1.0, 2.0, 3.0, 4.0}
        assert all(trials >= 30 for trials in data.columns.trials.tolist())

    def test_censoring_encoding(self):
        data = synthetic_ae_dataset(n_studies=60, seed=7)
        censored = [spec for spec in outcome_specs(data) if spec[0] != "none"]
        assert censored, "expected some censored studies at this size"
        for censor, cut in censored:
            assert censor == "left"
            # cutoffs are 2..5, encoded as count <= cutoff - 1
            assert cut in (1.0, 2.0, 3.0, 4.0)

    def test_deterministic(self):
        assert serialize(synthetic_ae_dataset(seed=4)) == serialize(
            synthetic_ae_dataset(seed=4)
        )


@pytest.fixture()
def fit_config(tmp_path):
    dataset = tmp_path / "toy.csv"
    dataset.write_text(serialize(aml_dataset()), encoding="utf-8")
    config = {
        "label": "toy",
        "dataset": str(dataset),
        "model": {"family": "survival-exponential"},
        "mode": "exact",
        "chains": {"n_chains": 2, "burn_in": 150, "n_keep": 150, "seed": 321},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, tmp_path / "out", config


class TestCliFit:
    def test_artifacts_and_report(self, fit_config, capsys):
        config_path, out_dir, _ = fit_config
        assert main(["fit", "--config", str(config_path)]) == 0
        for name in (
            "samples_a.csv",
            "samples_b.csv",
            "summary.csv",
            "report.csv",
            "report.json",
            "manifest.json",
            "density_exact_b0.csv",
            "density_exact_b1.csv",
        ):
            assert (out_dir / name).exists(), name
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("Dbar", "pD", "DIC", "p_opt", "PED"):
            assert math.isfinite(report[key]), key
        assert report["DIC"] == report["Dbar"] + report["pD"]
        header = (out_dir / "report.csv").read_text().splitlines()[0]
        assert header == "model,Dbar,pD,DIC,p_opt,PED"

    def test_summary_reports_acceptance_rates(self, fit_config):
        config_path, out_dir, _ = fit_config
        main(["fit", "--config", str(config_path)])
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "param,mean,sd,q2.5,q50,q97.5,rhat,accept"
        for line in lines[1:]:
            assert 0.0 < float(line.split(",")[7]) < 1.0

    def test_manifest_records_provenance(self, fit_config):
        config_path, out_dir, config = fit_config
        main(["fit", "--config", str(config_path)])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["seed"] == 321
        assert len(manifest["config_sha256"]) == 64
        assert manifest["dataset_fingerprint"] == dataset_fingerprint(aml_dataset())
        assert "samples_a.csv" in manifest["outputs"]

    def test_manifest_records_the_seed_the_runs_used(self, tmp_path, fit_config):
        """A config without a chain seed runs at ChainConfig's default, 0,
        and the manifest says so."""
        config_path, out_dir, config = fit_config
        del config["chains"]["seed"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 0
        config["chains"]["seed"] = 0
        explicit = _write_config(tmp_path, {**config, "output_dir": str(tmp_path / "seed0")})
        assert main(["fit", "--config", str(explicit)]) == 0
        assert ((tmp_path / "seed0" / "samples_a.csv").read_bytes()
                == (out_dir / "samples_a.csv").read_bytes())

    @pytest.mark.parametrize("name", list(MODELS))
    def test_rerun_byte_identical(self, tmp_path, name):
        """Every entry of the model table: the same config twice writes the
        same bytes."""
        path = _entry_fit_config(tmp_path, name)
        out_dir = tmp_path / "out"
        assert main(["fit", "--config", str(path)]) == 0
        first = {
            p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()
        }
        assert main(["fit", "--config", str(path)]) == 0
        for file_name, blob in first.items():
            assert (out_dir / file_name).read_bytes() == blob, file_name

    def test_density_files_well_formed(self, fit_config):
        config_path, out_dir, _ = fit_config
        main(["fit", "--config", str(config_path)])
        lines = (out_dir / "density_exact_b0.csv").read_text().splitlines()
        assert lines[0] == "grid,density"
        values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert (np.diff(values[:, 0]) > 0).all()
        assert (values[:, 1] >= 0).all()

    def test_dinterval_fit_reports_monitored_deviance_only(self, fit_config, tmp_path):
        config_path, out_dir, config = fit_config
        config["mode"] = "dinterval"
        config["output_dir"] = str(tmp_path / "out-dint")
        path = tmp_path / "fit_dint.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out-dint" / "report.json").read_text())
        assert report["mode"] == "dinterval"
        assert "DIC" not in report
        assert math.isfinite(report["mean_monitored_deviance"])

    def test_dinterval_fit_reports_the_exact_deviance_of_its_draws(self, fit_config, tmp_path):
        """``mean_exact_deviance`` is -2 loglik_exact averaged over the draws
        of samples_a.csv, recomputed offline, and lies above the monitored
        mean by the censored rows' terms."""
        _, _, config = fit_config
        config.update(mode="dinterval", output_dir=str(tmp_path / "out-dint"))
        path = tmp_path / "fit_dint.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out-dint" / "report.json").read_text())
        names, matrix = cli._read_samples_csv(tmp_path / "out-dint" / "samples_a.csv")
        data = aml_dataset()
        model = Model(MODELS["survival-exponential"], data)
        draws = matrix[:, [names.index(p) for p in model.param_names]]
        offline = np.mean([
            -2.0 * loglik_exact(data, model.family, model.row_params(theta, data.columns))
            for theta in draws])
        assert len(draws) == 300
        assert abs(report["mean_exact_deviance"] - offline) <= 1e-9 * abs(offline)
        assert report["mean_exact_deviance"] > report["mean_monitored_deviance"]


    @pytest.mark.parametrize("mode", ["exact", "dinterval"])
    def test_printed_headline_is_the_reported_value(self, fit_config, tmp_path, capsys, mode):
        config_path, _, config = fit_config
        config.update(mode=mode, output_dir=str(tmp_path / f"out-{mode}"))
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        report = json.loads((tmp_path / f"out-{mode}" / "report.json").read_text())
        if mode == "exact":
            assert printed == (
                f"[toy] Dbar={report['Dbar']:.3f} pD={report['pD']:.3f} "
                f"DIC={report['DIC']:.3f} p_opt={report['p_opt']:.3f} PED={report['PED']:.3f}"
            )
        else:
            assert printed == (f"[toy] mean monitored deviance "
                               f"{report['mean_monitored_deviance']:.3f} (dinterval mode)")


    @pytest.mark.parametrize("edit", [
        {"chains": {"n_chains": 1, "burn_in": 5, "n_keep": 1, "seed": 1}},
        {"model": {"family": "survival-exponential",
                   "hyperparameters": {"tau0": 1.7e308, "tau1": 1.7e308}}},
    ], ids=["one-draw", "huge-prior-scale"])
    def test_failed_fit_leaves_the_output_directory_untouched(self, fit_config, tmp_path,
                                                              capsys, edit):
        """A fit that fails after sampling writes no file: an earlier run's
        artifacts keep describing that run, and a new directory stays empty."""
        config_path, out_dir, config = fit_config
        assert main(["fit", "--config", str(config_path)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        config_path.write_text(json.dumps({**config, **edit}), encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 3
        assert "numeric error" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        fresh = tmp_path / "fresh"
        config_path.write_text(json.dumps({**config, **edit, "output_dir": str(fresh)}),
                               encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 3
        assert not list(fresh.iterdir())

    def test_a_fit_removes_the_outputs_of_the_run_it_replaces(self, fit_config):
        """An exact then a dinterval fit into one directory: it then holds
        the second manifest's outputs and nothing else."""
        config_path, out_dir, config = fit_config
        assert main(["fit", "--config", str(config_path)]) == 0
        assert (out_dir / "samples_b.csv").is_file()
        config_path.write_text(json.dumps({**config, "mode": "dinterval"}), encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(p.name for p in out_dir.iterdir()) == manifest["outputs"]
        assert not {"samples_b.csv", "report.csv", "density_exact_b0.csv"} & set(
            manifest["outputs"])
        assert json.loads((out_dir / "report.json").read_text())["mode"] == "dinterval"

    @pytest.mark.parametrize("manifest", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'"outputs"', b'{"outputs": 3}',
        b'{"version": "0.1.0"}',
    ])
    def test_an_unreadable_manifest_removes_nothing(self, fit_config, manifest):
        config_path, out_dir, _ = fit_config
        out_dir.mkdir()
        (out_dir / "manifest.json").write_bytes(manifest)
        (out_dir / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "kept"

    def test_only_plain_file_names_of_the_manifest_are_removed(self, fit_config, tmp_path):
        """A listed name with a directory part, or that is not a file, stays;
        so does every file the manifest does not list."""
        config_path, out_dir, _ = fit_config
        (out_dir / "sub").mkdir(parents=True)
        for name in ("old.csv", "notes.txt", "sub/x.csv", "../outside.txt"):
            (out_dir / name).write_text("x", encoding="utf-8")
        listed = ["old.csv", "sub/x.csv", "sub", "../outside.txt", str(tmp_path / "outside.txt"),
                  "", ".", "..", 7, None, ["old.csv"], {"a": 1}]
        (out_dir / "manifest.json").write_text(json.dumps({"outputs": listed}),
                                               encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        assert not (out_dir / "old.csv").exists()
        for path in (out_dir / "notes.txt", out_dir / "sub" / "x.csv", tmp_path / "outside.txt"):
            assert path.read_text(encoding="utf-8") == "x", path


class TestBenchmarkTracerContract:
    """``perfbench/tracing.py`` binds these functions' arguments by name,
    patches these kernels on every ``Family`` subclass and rebinds these
    names in ``censdev.cli``; a rename fails traced benchmark runs."""

    def test_traced_parameter_names(self):
        expected = {
            mcmc.run: ("model", "data", "mode", "config"),
            mcmc.export_density: ("trace", "grid_size"),
            selection.compute_popt_ped: ("samples_a", "samples_b", "data", "method"),
        }
        for function, names in expected.items():
            assert set(names) <= set(inspect.signature(function).parameters), function
        families = distributions.Family.__subclasses__()
        assert {cls.__name__ for cls in families} == {"Exponential", "Normal", "Binomial"}
        for cls in families:
            for name in ("log_pdf", "log_interval_prob", "sample_truncated"):
                assert callable(getattr(cls, name, None)), (cls.__name__, name)

    def test_cli_calls_traced_functions_through_its_module_names(self, fit_config,
                                                                 monkeypatch, tmp_path):
        names = ("run", "summarize", "export_density", "make_selection_report",
                 "aml_dataset", "ingest", "dataset_fingerprint")
        origins = (mcmc, mcmc, mcmc, selection, datasets, datasets, datasets)
        called = set()
        for name, origin in zip(names, origins):
            assert getattr(cli, name) is getattr(origin, name), name

            def wrapper(*args, _name=name, _fn=getattr(origin, name), **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        config_path, _, config = fit_config
        assert main(["fit", "--config", str(config_path)]) == 0
        config.update(dataset="bundled:aml", output_dir=str(tmp_path / "bundled"))
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(config_path)]) == 0
        assert called == set(names)


class TestCliErrors:
    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        config = {
            "dataset": str(tmp_path / "absent.csv"),
            "model": {"family": "survival-exponential"},
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 4

    def test_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2

    def test_unknown_family_is_validation_error(self, tmp_path):
        dataset = tmp_path / "d.csv"
        dataset.write_text(serialize(aml_dataset()), encoding="utf-8")
        config = {
            "dataset": str(dataset),
            "model": {"family": "weibull"},
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("section,column", [
        ({"family": "survival-exponential"}, "group"),
        ({"family": "censored-binomial", "variant": "G"}, "study"),
    ])
    def test_missing_covariate_column_is_validation_error(self, tmp_path, capsys,
                                                          section, column):
        dataset = tmp_path / "d.csv"
        dataset.write_text(
            "outcome,censor,cut1,cut2,trials,arm\n4,none,,,,1\n", encoding="utf-8"
        )
        config = {
            "dataset": str(dataset),
            "model": section,
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2
        assert repr(column) in capsys.readouterr().err

    @pytest.mark.parametrize("header,fragment", [
        ("group,group", "line 1, column 'group': duplicate column name 'group'"),
        ("group,outcome", "line 1, column 'outcome': duplicate column name 'outcome'"),
        (",group", "line 1: column 6 has no name"),
    ])
    def test_ambiguous_dataset_header_is_validation_error(self, tmp_path, capsys,
                                                          header, fragment):
        """The model binds a covariate by name, so each name must pick one column."""
        dataset = tmp_path / "d.csv"
        rows = [f"{t},none,,,,{g},{g}" for t, g in ((4, 1), (9, 0), (13, 1))]
        dataset.write_text("\n".join([f"{HEADER},{header}", *rows]) + "\n",
                           encoding="utf-8")
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["exact", "dinterval"])
    @pytest.mark.parametrize("row,column", [
        ("9.0,none,,,inf,1.0", "trials"),
        ("9.0,none,,,-inf,1.0", "trials"),
        ("9.0,none,,,1e400,1.0", "trials"),
        ("9.0,none,,,nan,1.0", "trials"),
        ("nan,none,,,,1.0", "outcome"),
        ("9.0,none,,,,nan", "group"),
        (",right,inf,,,1.0", "cut1"),
    ])
    def test_non_finite_dataset_cell_is_validation_error(self, tmp_path, capsys,
                                                         mode, row, column):
        lines = serialize(aml_dataset()).splitlines()
        lines[3] = row
        dataset = tmp_path / "d.csv"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "mode": mode,
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        assert f"line 4, column {column!r}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_dataset_is_validation_error(self, tmp_path):
        dataset = tmp_path / "d.csv"
        dataset.write_text(HEADER + ",group\noops,none,,,,1\n", encoding="utf-8")
        config = {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2


def _entry_fit_config(tmp_path, name, **section):
    """A tiny fit of model-table entry ``name`` on data it accepts: the AML
    data for the survival and GLM entries, synthetic AE data otherwise."""
    spec = MODELS[name]
    binomial = spec.section == "censored-binomial"
    data = synthetic_ae_dataset(n_studies=10, seed=6) if binomial else aml_dataset()
    dataset = tmp_path / "data.csv"
    dataset.write_text(serialize(data), encoding="utf-8")
    return _write_config(tmp_path, {
        "dataset": str(dataset),
        "model": {**_section(spec.section, name), **section},
        "chains": {"n_chains": 2, "burn_in": 30, "n_keep": 30, "seed": 5},
        "output_dir": str(tmp_path / "out"),
    })


def _write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _ae_fit_config(tmp_path, variant, edit_row):
    """A variant fit on a small AE dataset whose row 0 covariates are edited."""
    rows = serialize(synthetic_ae_dataset(n_studies=10, seed=6)).splitlines()
    cells = rows[1].split(",")
    for column, value in edit_row.items():
        cells[5 + ("drug", "drug_class", "study").index(column)] = value
    rows[1] = ",".join(cells)
    dataset = tmp_path / "ae.csv"
    dataset.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return _write_config(tmp_path, {
        "dataset": str(dataset),
        "model": {"family": "censored-binomial", "variant": variant},
        "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
        "output_dir": str(tmp_path / "out"),
    })


# Values a config is refused for, which ``Model`` and ``ChainConfig``
# refuse as well when given directly.
BAD_SURVIVAL_HYPERPARAMETERS = [
    {"tau0": "x"},
    {"tau0": -1.0},
    {"tau_0": 5},
    {"tau1": float("nan")},
    {"tau1": True},
]
BAD_BETA_SHAPES = [[1.0], [1.0, "a"], [0.0, 1.0], 2.0]
BAD_CHAIN_SETTINGS = [
    {"n_keep": 10.0},
    {"burn_in": True},
    {"seed": "1"},
    {"seed": -1},
]


class TestCliConfigAndCodes:
    def test_drug_class_out_of_range_is_validation_error(self, tmp_path, capsys):
        # B takes its class count from the codes, so 3 leaves class 2 empty.
        path = _ae_fit_config(tmp_path, "B", {"drug_class": "3.0"})
        assert main(["fit", "--config", str(path)]) == 2
        assert "drug_class" in capsys.readouterr().err

    def test_fractional_drug_code_is_validation_error(self, tmp_path, capsys):
        path = _ae_fit_config(tmp_path, "C", {"drug": "1.5"})
        assert main(["fit", "--config", str(path)]) == 2
        assert "drug" in capsys.readouterr().err

    def test_study_code_beyond_study_count_is_validation_error(self, tmp_path, capsys):
        path = _ae_fit_config(tmp_path, "G", {"study": "10.0"})
        assert main(["fit", "--config", str(path)]) == 2
        assert "study" in capsys.readouterr().err

    def test_negative_drug_code_is_validation_error(self, tmp_path):
        path = _ae_fit_config(tmp_path, "D", {"drug": "-1.0"})
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_missing_dataset_is_validation_error(self, tmp_path, capsys, command):
        path = _write_config(tmp_path, {
            "model": {"family": "survival-exponential"},
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main([command, "--config", str(path)]) == 2
        assert "dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("chains", BAD_CHAIN_SETTINGS)
    def test_non_integer_chain_setting_is_validation_error(self, tmp_path, chains):
        path = _write_config(tmp_path, {
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "chains": chains,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("chains", [*BAD_CHAIN_SETTINGS, {"burn_in": 10.5}, {"thin": "2"}])
    def test_chain_config_refuses_a_bad_setting(self, chains):
        with pytest.raises(DataError):
            ChainConfig(**chains)

    def test_chain_config_message_names_the_setting(self):
        with pytest.raises(DataError) as info:
            ChainConfig(burn_in=10.5)
        assert str(info.value) == "chain setting 'burn_in' must be an integer, got 10.5"

    def test_chain_config_message_prints_a_numpy_scalar_as_a_plain_number(self):
        with pytest.raises(DataError) as info:
            ChainConfig(n_chains=np.float64(2))
        assert str(info.value) == "chain setting 'n_chains' must be an integer, got 2.0"

    def test_unknown_mode_is_validation_error(self, tmp_path):
        path = _write_config(tmp_path, {
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": "latent",
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command,key", [
        ("fit", "chians"), ("fit", "mdoe"), ("fit", "variants"),
        ("compare", "mode"), ("compare", "label"), ("compare", "model"),
    ])
    def test_unknown_top_level_key_is_validation_error(self, tmp_path, capsys, command,
                                                        key):
        """A misspelt or misplaced key is refused, not run with the
        defaults it was meant to change."""
        config = {"dataset": "bundled:aml", "chains": {"n_chains": 1, "burn_in": 4,
                                                       "n_keep": 4, "seed": 1},
                  "output_dir": str(tmp_path / "out"), key: "dinterval"}
        if command == "fit":
            config["model"] = {"family": "survival-exponential"}
        path = _write_config(tmp_path, config)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        allowed = sorted(cli.FIT_KEYS if command == "fit" else cli.COMPARE_KEYS)
        assert f"[{key!r}]; allowed: {allowed}" in err
        assert not (tmp_path / "out").exists()

    def test_readme_configs_hold_only_their_command_keys(self):
        """The README's fit and compare configs pass the key rule."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]
        assert sorted("model" in config for config in configs) == [False, True]
        for config in configs:
            assert set(config) <= set(cli.FIT_KEYS if "model" in config else cli.COMPARE_KEYS)

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("key,value", [("output_dir", "a\0b"), ("dataset", "x\0")])
    def test_nul_in_a_path_is_validation_error(self, tmp_path, capsys, command, key, value):
        dataset = tmp_path / "ae.csv"
        dataset.write_text(serialize(synthetic_ae_dataset(n_studies=10, seed=6)),
                           encoding="utf-8")
        config = {"dataset": str(dataset), "chains": {"n_chains": 1, "burn_in": 4,
                                                      "n_keep": 4, "seed": 1},
                  "output_dir": str(tmp_path / "out"), key: value}
        if command == "fit":
            config["model"] = {"family": "censored-binomial", "variant": "A"}
        path = _write_config(tmp_path, config)
        assert main([command, "--config", str(path)]) == 2
        assert f'"{key}"' in capsys.readouterr().err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--config", "a\0b"],
        ["compare", "--config", "a\0b"],
        ["export-density", "--trace", "a\0b", "--param", "alpha"],
        ["export-density", "--trace", "{trace}", "--param", "alpha", "--out", "{dir}/d\0.csv"],
    ], ids=["fit-config", "compare-config", "export-trace", "export-out"])
    def test_nul_in_a_cli_path_is_validation_error(self, tmp_path, capsys, argv):
        """No file name holds a NUL: a path option that holds one exits 2
        with a one-line error naming the option, and nothing is written."""
        trace = tmp_path / "trace.csv"
        trace.write_text("chain,alpha\n0,1.0\n0,2.0\n0,4.0\n", encoding="utf-8")
        argv = [a.format(trace=trace, dir=tmp_path) for a in argv]
        option = next(a for a in argv if "\0" in a)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {argv[argv.index(option) - 1]} cannot name a file: "
                       f"{option!r} holds a NUL\n")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


class TestCliHyperparametersAndEntries:
    @pytest.mark.parametrize("hyper", BAD_SURVIVAL_HYPERPARAMETERS)
    def test_bad_survival_hyperparameter_is_validation_error(self, tmp_path, capsys,
                                                             hyper):
        path = _write_config(tmp_path, {
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential", "hyperparameters": hyper},
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        assert "hyperparameter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shapes", BAD_BETA_SHAPES)
    def test_beta_shapes_must_be_a_positive_pair(self, tmp_path, shapes):
        path = _ae_fit_config(tmp_path, "G", {})
        config = json.loads(path.read_text())
        config["model"]["hyperparameters"] = {"beta_shapes": shapes}
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("entry, hyper", [
        *(("survival-exponential", hyper) for hyper in BAD_SURVIVAL_HYPERPARAMETERS),
        *(("G", {"beta_shapes": shapes}) for shapes in [*BAD_BETA_SHAPES, (1.0, 1.0, 5.0)]),
        ("C", {"beta_shapes": (-1.0, 1.0)}),
        ("C", {"half_cauchy_scale": 0.0}),
        ("C", {"half_cauchy_scale": math.inf}),
        ("survival-exponential", {"tau0": math.inf}),
    ])
    def test_model_refuses_a_bad_hyperparameter(self, entry, hyper):
        data = aml_dataset() if entry == "survival-exponential" else synthetic_ae_dataset(seed=6)
        with pytest.raises(SchemaError, match="^(unknown )?hyperparameter"):
            Model(MODELS[entry], data, **hyper)

    @pytest.mark.parametrize("entry, hyper, message", [
        ("survival-exponential", {"tau0": -1.0},
         "hyperparameter 'tau0' must be a finite positive number, got -1.0"),
        ("G", {"beta_shapes": (1, 1, 5)},
         "hyperparameter 'beta_shapes' must be a pair of numbers, got (1, 1, 5)"),
        # The unknown key is reported ahead of a bad value, and bad values
        # in the order of the entry's defaults.
        ("survival-exponential", {"tau_0": 5, "tau1": -1.0},
         "unknown hyperparameters for survival-exponential: ['tau_0']; "
         "allowed: ['tau0', 'tau1']"),
        ("survival-exponential", {"tau1": -2.0, "tau0": -1.0},
         "hyperparameter 'tau0' must be a finite positive number, got -1.0"),
    ])
    def test_model_message_names_the_hyperparameter(self, entry, hyper, message):
        data = aml_dataset() if entry == "survival-exponential" else synthetic_ae_dataset(seed=6)
        with pytest.raises(SchemaError) as info:
            Model(MODELS[entry], data, **hyper)
        assert str(info.value) == message

    def test_model_message_prints_a_numpy_scalar_as_a_plain_number(self):
        with pytest.raises(SchemaError) as info:
            Model(MODELS["survival-exponential"], aml_dataset(), tau0=np.float64(-1))
        assert str(info.value) == (
            "hyperparameter 'tau0' must be a finite positive number, got -1.0")

    def test_numpy_scalars_are_accepted(self):
        # np.float64 is a float, np.int64 is not an int; both are numbers.
        data = aml_dataset()
        spec = MODELS["survival-exponential"]
        geometry = {"n_chains": 1, "burn_in": 20, "n_keep": 20, "seed": 4}
        plain = run_one(Model(spec, data, tau0=0.5), data, LikelihoodMode.EXACT,
                        ChainConfig(**geometry))
        typed = run_one(Model(spec, data, tau0=np.float64(0.5)), data, LikelihoodMode.EXACT,
                        ChainConfig(**{k: np.int64(v) for k, v in geometry.items()}))
        assert np.array_equal(plain.draws, typed.draws)

    def test_known_hyperparameters_are_used(self, tmp_path):
        path = _write_config(tmp_path, {
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential",
                      "hyperparameters": {"tau0": 1, "tau1": 0.5}},
            "chains": {"n_chains": 1, "burn_in": 20, "n_keep": 20, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 0

    @pytest.mark.parametrize("entries", [
        {"variants": [1, 2]},
        {"variants": "AB"},
        {"models": [1, 2]},
        {"models": [{"family": "censored-binomial", "variant": 1},
                    {"family": "censored-binomial", "variant": "B"}]},
        {"models": [{"family": "censored-binomial", "variant": "A", "label": 7},
                    {"family": "censored-binomial", "variant": "B"}]},
        {"models": [{"family": "censored-binomial", "variant": "Z"},
                    {"family": "censored-binomial", "variant": "B"}]},
        {"variants": ["A", "Z"]},
        {"models": [{"family": "censored-binomial", "variant": "A", "seed": 3},
                    {"family": "censored-binomial", "variant": "B"}]},
    ])
    def test_bad_compare_entries_are_validation_errors(self, tmp_path, entries):
        dataset = tmp_path / "ae.csv"
        dataset.write_text(
            serialize(synthetic_ae_dataset(n_studies=10, seed=6)), encoding="utf-8"
        )
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            **entries,
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", "--config", str(path)]) == 2


def _readme_model_families():
    """Family -> (section keys, {entry: {hyperparameter: default}}) from the
    README's model-family table.  A family with several entries lists their
    hyperparameters in "A, B: ...; C: ..." groups; a family of one entry
    lists them without a prefix, under the family's own name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    families = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            family = cells[0].strip("`")
            keys = set(re.findall(r"`(\w+)`", cells[1]))
            hyper = {}
            for group in cells[3].split(";"):
                names, _, listed = group.strip().rpartition(": ")
                defaults = {k: json.loads(v)
                            for k, v in re.findall(r"`(\w+)` \(([^)]*)\)", listed)}
                hyper.update(dict.fromkeys(names.split(", ") if names else [family], defaults))
            families[family] = (keys, hyper)
    return families


def _edited_dataset(tmp_path, data, row, cells):
    """``data`` as a file whose ``row`` (0-based) has the outcome ``cells``
    (an observed row unless they say otherwise)."""
    lines = serialize(data).splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    cells = {"outcome": "", "censor": "none", "cut1": "", "cut2": "", **cells}
    for column, value in cells.items():
        fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCliModelSections:
    def test_every_entry_is_reachable_and_documented(self):
        families = _readme_model_families()
        data = {"censored-binomial": synthetic_ae_dataset(n_studies=10, seed=6)}
        for name, spec in MODELS.items():
            section = _section(spec.section, name)
            model = cli._build_model(section, data.get(spec.section, aml_dataset()))
            assert model.spec is spec
            keys, hyper = families[spec.section]
            assert keys == set(cli._section_keys(spec.section)), name
            assert hyper[name] == {k: list(v) if isinstance(v, tuple) else v
                                   for k, v in spec.hyperparameters.items()}, name

    @pytest.mark.parametrize("name,section", [
        ("A", {"varaint": "G"}),
        ("survival-exponential", {"variant": "G"}),
        ("censored-normal-glm", {"group_column": "group"}),
        ("G", {"hyperparameter": {"beta_shapes": [2, 2]}}),
        # Hyperparameters of other variants that this variant's prior never reads.
        ("D", {"hyperparameters": {"beta_shapes": [50, 2]}}),
        ("A", {"hyperparameters": {"half_cauchy_scale": 7}}),
        ("G", {"hyperparameters": {"mean_precision": 3}}),
        ("C", {"hyperparameters": {"mean_precision": 3}}),
    ])
    def test_unknown_section_key_is_validation_error(self, tmp_path, capsys, name, section):
        path = _entry_fit_config(tmp_path, name)
        config = json.loads(path.read_text(encoding="utf-8"))
        config["model"].update(section)
        if name == "A":
            del config["model"]["variant"]
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        key = next(iter(section))
        if key == "hyperparameters":
            key = next(iter(section[key]))
            allowed = sorted(MODELS[name].hyperparameters)
            assert f"allowed: {allowed}" in err
        assert repr(key) in err and "allowed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant,column,missing", [
        ("C", "drug", 1),
        ("D", "drug", 1),
        ("B", "drug_class", 0),
        ("G", "study", 3),
    ])
    def test_category_codes_with_a_gap_are_validation_errors(self, tmp_path, capsys,
                                                             variant, column, missing):
        """No parameter may stand for a code that no row carries."""
        data = synthetic_ae_dataset(n_studies=10, seed=6)
        lines = serialize(data).splitlines()
        index = lines[0].split(",").index(column)
        for number, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if float(fields[index]) == missing:
                fields[index] = repr(float(missing + 1))
            lines[number] = ",".join(fields)
        path = _entry_fit_config(tmp_path, variant)
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{column!r}" in err and f"none equal to {missing}" in err

    @pytest.mark.parametrize("code", ["1e20", "1e12", "1000000000.0"])
    @pytest.mark.parametrize("variant,column", [
        ("B", "drug_class"),
        ("C", "drug"),
        ("G", "study"),
    ])
    def test_huge_category_code_is_validation_error(self, tmp_path, capsys, variant,
                                                    column, code):
        """A whole-number code far above the row count is rejected by row
        before any per-code array is sized from it."""
        path = _ae_fit_config(tmp_path, variant, {column: code})
        assert main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{column!r}" in err and "row 0" in err

    def test_fit_takes_the_section_label(self, tmp_path, capsys):
        path = _entry_fit_config(tmp_path, "survival-exponential", label="mine")
        config = json.loads(path.read_text(encoding="utf-8"))
        config["label"] = "top"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 0
        assert "[mine]" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["model"] == "mine"


class TestCliOutOfSupport:
    """Rows no parameter value can explain exit 2 in both modes, naming the
    row and the column, instead of failing the sampler's initialization."""

    def test_message_prints_the_value_as_a_plain_number(self, tmp_path, capsys):
        dataset = _edited_dataset(tmp_path, aml_dataset(), 0, {"outcome": "-5"})
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: row 0, column 'outcome': -5.0 is outside the Exponential support, "
            "[0, inf)\n")

    def test_category_code_message_prints_a_plain_number(self, tmp_path, capsys):
        lines = serialize(synthetic_ae_dataset(n_studies=10, seed=6)).splitlines()
        index = lines[0].split(",").index("drug")
        fields = lines[2].split(",")
        fields[index] = "2.5"
        lines[2] = ",".join(fields)
        path = _entry_fit_config(tmp_path, "C")
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: covariate 'drug' must hold integer category codes 0..9; row 1 has 2.5\n")

    @pytest.mark.parametrize("mode", ["exact", "dinterval"])
    @pytest.mark.parametrize("cells,column", [
        ({"outcome": "-5.0"}, "outcome"),
        ({"outcome": "", "censor": "left", "cut1": "-1.0"}, "cut1"),
        ({"outcome": "", "censor": "left", "cut1": "0.0"}, "cut1"),
        ({"outcome": "", "censor": "interval", "cut1": "-3.0", "cut2": "-1.0"}, "cut2"),
    ])
    def test_survival(self, tmp_path, capsys, mode, cells, column):
        dataset = _edited_dataset(tmp_path, aml_dataset(), 2, cells)
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "mode": mode,
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and f"'{column}'" in err

    @pytest.mark.parametrize("mode", ["exact", "dinterval"])
    @pytest.mark.parametrize("cells,column", [
        ({"outcome": "-1.0"}, "outcome"),
        ({"outcome": "2.5"}, "outcome"),
        ({"outcome": "{trials_plus_1}"}, "outcome"),
        ({"outcome": "", "censor": "left", "cut1": "-3.0"}, "cut1"),
        ({"outcome": "", "censor": "right", "cut1": "{trials_plus_1}"}, "cut1"),
        ({"outcome": "", "censor": "interval", "cut1": "2.2", "cut2": "2.8"}, "cut2"),
    ])
    def test_binomial(self, tmp_path, capsys, mode, cells, column):
        data = synthetic_ae_dataset(n_studies=10, seed=6)
        above = repr(float(data.columns.trials[4] + 1))
        cells = {k: v.replace("{trials_plus_1}", above) for k, v in cells.items()}
        dataset = _edited_dataset(tmp_path, data, 4, cells)
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "censored-binomial", "variant": "A"},
            "mode": mode,
            "chains": {"n_chains": 1, "burn_in": 10, "n_keep": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "row 4" in err and f"'{column}'" in err


class TestCliUndecodableInput:
    def test_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"dataset": "bundled:aml"\xff}')
        assert main(["fit", "--config", str(path)]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_dataset(self, tmp_path, capsys):
        dataset = tmp_path / "d.csv"
        dataset.write_bytes(HEADER.encode() + b",group\n4,none,,,,\xff\n")
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "chains": {"seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 2
        assert "d.csv" in capsys.readouterr().err

    def test_samples_csv(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"chain,alpha,deviance\n0,\xff,1.0\n")
        assert main(["export-density", "--trace", str(trace), "--param", "alpha"]) == 2
        assert "trace.csv" in capsys.readouterr().err


def _section(family, variant):
    """A model section of ``family``; binomial sections name ``variant``."""
    if family == "censored-binomial":
        return {"family": family, "variant": variant}
    return {"family": family}


_ODD = [None, True, -1, 0, 1, 2.5, float("nan"), float("inf"), 1e308, 1e-300,
        10**400, "", "x", "A", "dinterval", "a\x00b", [], [1, 2], ["A", "B"], [0.5, "a"],
        [1.0, 2.0], {}, {"a": 1}]
# Chain settings stay small: a huge iteration count is valid input, not a fault.
_ODD_CHAIN = [None, True, -1, 0, 1, 2, 2.5, "x", [], {}]
_TOP_KEYS = ["dataset", "model", "mode", "chains", "output_dir", "label",
             "variants", "models"]
_SECTION_KEYS = ["family", "variant", "hyperparameters", "group_column", "label"]
_HYPER_KEYS = ["tau0", "tau1", "beta_shapes", "half_cauchy_scale",
               "mean_precision", "coef_precision", "tau_0"]
_CHAIN_KEYS = ["n_chains", "burn_in", "n_keep", "thin", "seed", "adapt_window", "steps"]

_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("top"), st.sampled_from(_TOP_KEYS), st.sampled_from(_ODD)),
        st.tuples(st.just("section"), st.sampled_from(_SECTION_KEYS),
                  st.sampled_from(_ODD)),
        st.tuples(st.just("hyper"), st.sampled_from(_HYPER_KEYS), st.sampled_from(_ODD)),
        st.tuples(st.just("chains"), st.sampled_from(_CHAIN_KEYS),
                  st.sampled_from(_ODD_CHAIN)),
    ),
    min_size=1,
    max_size=3,
)


_ODD_CELLS = (" 3 ", "1_0", "nan", "inf", "１")
_BAD_CELLS = ("", "x")


# Every line boundary str.splitlines knows; "\r\n" is one boundary.
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")


@st.composite
def _samples_files(draw, min_width=1, line_breaks=("\n",)):
    """Samples-CSV text: blank lines, short or long rows, odd and bad cells."""
    finite = st.one_of(st.floats(-1e3, 1e3),
                       st.floats(allow_nan=False, allow_infinity=False)).map(repr)
    cells = draw(st.sampled_from([
        finite,
        finite,
        st.one_of(finite, st.sampled_from(_ODD_CELLS)),
        st.one_of(finite, st.sampled_from(_ODD_CELLS + _BAD_CELLS)),
    ]))
    width = draw(st.integers(min_width, 4))
    sizes = st.just(width)
    if draw(st.booleans()):
        sizes = st.sampled_from([width] * 8 + [width - 1, width + 1, 0])
    lines = [",".join(["chain", "alpha", "sigma", "deviance"][:width])]
    for _ in range(draw(st.integers(0, 30))):
        size = draw(sizes)
        lines.append(",".join(draw(st.lists(cells, min_size=size, max_size=size))))
    breaks = [draw(st.sampled_from(line_breaks)) for _ in lines]
    if draw(st.booleans()):  # no line break after the last line
        breaks[-1] = ""
    return "".join(map(str.__add__, lines, breaks))


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _first_fault(names, lines):
    """Where and why the file's lines fail to give a draws matrix: its first
    non-empty line after the header that does not hold one number per name."""
    numbered = [(i + 1, line.split(",")) for i, line in enumerate(lines) if i and line]
    for number, cells in numbered:
        if len(cells) != len(names):
            return f"line {number}: expected {len(names)} fields, got {len(cells)}"
        bad = [cell for cell in cells if not _is_number(cell)]
        if bad:
            return f"line {number}: expected a number, got {bad[0]!r}"
    return "no draws"


def _per_cell_samples_csv(path, read=read_utf8):
    """Oracle: the samples reader that parses one cell at a time."""
    lines = read(path).splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty samples file")
    names = lines[0].split(",")
    try:
        rows = [[float(c) for c in line.split(",")] for line in lines[1:] if line]
        matrix = np.array(rows)
    except ValueError:  # a non-numeric cell, or rows of unequal length
        matrix = None
    if matrix is None or matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValidationError(f"{path}: {_first_fault(names, lines)}")
    return names, matrix


def _read_or_error(reader, path):
    try:
        return reader(path)
    except ValidationError as exc:
        return str(exc)


class TestCliFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_samples_files())
    def test_columnar_reader_matches_per_cell_reader(self, tmp_path, text):
        """Same matrix, bit for bit and NaN-aware, or the same error message."""
        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8")
        got = _read_or_error(cli._read_samples_csv, path)
        want = _read_or_error(_per_cell_samples_csv, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1], equal_nan=True)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_samples_files(line_breaks=_LINE_BREAKS), block=st.integers(1, 40),
           untranslated=st.booleans())
    def test_reader_blocks_match_per_cell_reader(self, tmp_path, text, block,
                                                 untranslated):
        """Blocks of a few characters split every file into many; the matrix
        is still the per-cell reader's, bit for bit, or the error its message.

        Reading a file translates "\r\n" and "\r" to "\n"; ``untranslated``
        hands the readers the text as written, so those reach the blocks too.
        """
        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8", newline="")
        read = (lambda _: text) if untranslated else read_utf8
        want = _read_or_error(functools.partial(_per_cell_samples_csv, read=read), path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CSV_BLOCK", block)
            patch.setattr(cli, "read_utf8", read)
            got = _read_or_error(cli._read_samples_csv, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1], equal_nan=True)

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_samples_files(min_width=2),
           grid_size=st.integers(-3, 600),
           bandwidth=st.one_of(
               st.sampled_from(["scott", "silverman", "1e-300", "0.3"]),
               st.sampled_from(["scott", "silverman", "plugin", "nan", "inf", "-1",
                                "0", "1e-300", "1e308", "0.3", "x"])))
    def test_export_density_on_any_trace_exits_cleanly(self, tmp_path, text,
                                                        grid_size, bandwidth):
        """Exit 0, 2, 3 or 4 and no traceback; exit 0 writes grid-size rows of
        finite, non-negative densities."""
        trace = tmp_path / "trace.csv"
        trace.write_text(text, encoding="utf-8")
        out = tmp_path / "density.csv"
        out.unlink(missing_ok=True)
        code = main(["export-density", "--trace", str(trace), "--param", "alpha",
                     "--grid-size", str(grid_size), "--bandwidth", bandwidth,
                     "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "grid,density"
            density = np.array([float(line.split(",")[1]) for line in lines[1:]])
            assert density.size == grid_size
            assert np.isfinite(density).all() and (density >= 0.0).all()

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["fit", "compare"]),
           family=st.sampled_from(["survival-exponential", "censored-binomial"]),
           edits=_EDITS)
    def test_malformed_configs_exit_cleanly(self, tmp_path, monkeypatch, command,
                                            family, edits):
        """Any config edit ends in exit code 0, 2, 3 or 4, never a traceback."""
        monkeypatch.setenv("CENSDEV_OUTPUT_ROOT", str(tmp_path / "root"))
        dataset = tmp_path / "ae.csv"
        if not dataset.exists():
            dataset.write_text(serialize(synthetic_ae_dataset(n_studies=10, seed=6)),
                               encoding="utf-8")
        section = _section(family, "G")
        config = {
            "dataset": "bundled:aml" if family == "survival-exponential" else "ae.csv",
            "chains": {"n_chains": 1, "burn_in": 8, "n_keep": 8, "seed": 3},
            "output_dir": "out",
        }
        if command == "fit":
            config["model"] = section
        else:
            config["models"] = [section, _section(family, "A")]
        for where, key, value in edits:
            if where == "top":
                config[key] = value
            elif where == "section" and isinstance(config.get("model"), dict):
                config["model"][key] = value
            elif where == "section" and isinstance(config.get("models"), list):
                config["models"][0][key] = value
            elif where == "hyper" and isinstance(section.get("hyperparameters", {}), dict):
                section.setdefault("hyperparameters", {})[key] = value
            elif where == "chains" and isinstance(config.get("chains"), dict):
                config["chains"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(path)]) in (0, 2, 3, 4)


_DATASET_CELLS = ("nan", "inf", "-inf", "1e400", "1_0", "１", "", " 4 ", "-3", "2.5",
                  "0", "1e12", "1e20", "x")
_CENSOR_CELLS = ("none", "left", "right", "interval", " right ", "NONE", "sometimes",
                 "")
_FIXED_COLUMNS = ("outcome", "censor", "cut1", "cut2", "trials")


@st.composite
def _dataset_edits(draw):
    """Row edits of a dataset file: odd cells, bad censor kinds, wrong field
    counts.  Each edit is (row, column or None, cell); a None column drops the
    row's last cell, or appends ``cell`` when it is not empty."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(1, 9))
        column = draw(st.sampled_from(_FIXED_COLUMNS + ("trials", "covariate", None)))
        cells = _CENSOR_CELLS if column == "censor" else _DATASET_CELLS
        edits.append((row, column, draw(st.sampled_from(cells))))
    return edits


class TestCliDatasetFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["fit exact", "fit dinterval", "compare"]),
           family=st.sampled_from(["survival-exponential", "censored-binomial",
                                   "censored-normal-glm"]),
           edits=_dataset_edits())
    def test_malformed_datasets_exit_cleanly(self, tmp_path, monkeypatch, command,
                                             family, edits):
        """Any dataset edit ends in exit code 0, 2, 3 or 4, never a traceback."""
        monkeypatch.setenv("CENSDEV_OUTPUT_ROOT", str(tmp_path / "root"))
        data = (synthetic_ae_dataset(n_studies=10, seed=6)
                if family == "censored-binomial" else aml_dataset())
        lines = serialize(data).splitlines()
        for row, column, cell in edits:
            cells = lines[row].split(",")
            if column is None and cell:
                cells.append(cell)
            elif column is None:
                cells.pop()
            else:
                cells[_FIXED_COLUMNS.index(column) if column in _FIXED_COLUMNS
                      else len(cells) - 1] = cell
            lines[row] = ",".join(cells)
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        command, _, mode = command.partition(" ")
        config = {
            "dataset": "data.csv",
            "chains": {"n_chains": 1, "burn_in": 8, "n_keep": 8, "seed": 3},
            "output_dir": "out",
        }
        section = _section(family, "G")
        if command == "fit":
            config.update(model=section, mode=mode)
        else:
            config["models"] = [section, _section(family, "A")]
        path = _write_config(tmp_path, config)
        assert main([command, "--config", str(path)]) in (0, 2, 3, 4)


class TestCliSamplesReader:
    @pytest.mark.parametrize("row,fragment", [
        ("0,1.5,oops,101.2", "line 3: expected a number, got 'oops'"),
        ("0,1.5,101.2", "line 3: expected 4 fields, got 3"),
        ("0,1.5,0.2,101.2,7", "line 3: expected 4 fields, got 5"),
    ])
    def test_malformed_trace_names_the_line(self, tmp_path, capsys, row, fragment):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "chain,alpha,sigma,deviance\n0,1.4,0.3,100.5\n" + row + "\n",
            encoding="utf-8",
        )
        code = main(["export-density", "--trace", str(trace), "--param", "alpha"])
        assert code == 2
        assert fragment in capsys.readouterr().err

    def test_trace_without_draws_is_validation_error(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("chain,alpha,deviance\n", encoding="utf-8")
        assert main(["export-density", "--trace", str(trace), "--param", "alpha"]) == 2

    @pytest.mark.parametrize("header,fragment", [
        ("chain,alpha,alpha,deviance", "header: duplicate column name 'alpha'"),
        ("chain,alpha,,deviance", "header: column 3 has no name"),
        ("chain,alpha,deviance,", "header: column 4 has no name"),
    ])
    def test_ambiguous_header_is_validation_error(self, tmp_path, capsys, header,
                                                  fragment):
        trace = tmp_path / "trace.csv"
        trace.write_text(header + "\n0,1.4,0.3,100.5\n1,1.6,0.2,101.5\n",
                         encoding="utf-8")
        out = tmp_path / "density.csv"
        code = main(["export-density", "--trace", str(trace), "--param", "alpha",
                     "--out", str(out)])
        assert code == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_memory_is_bounded_by_a_block(self, tmp_path):
        """A 40 000-row trace in the layout the benchmark writes (3 MiB of
        text) reads in well under the 20 MiB a whole-file parse takes."""
        rng = np.random.default_rng(1)
        n = 40_000
        columns = [np.repeat(np.arange(4), n // 4),
                   1.5 + 0.3 * rng.standard_normal(n),
                   np.exp(0.2 + 0.25 * rng.standard_normal(n)),
                   rng.beta(3.0, 7.0, n),
                   100.0 + rng.chisquare(3.0, n)]
        trace = tmp_path / "trace.csv"
        np.savetxt(trace, np.column_stack(columns), delimiter=",",
                   header="chain,alpha,sigma,p,deviance", comments="",
                   fmt=["%d"] + ["%.17g"] * 4)
        tracemalloc.start()
        try:
            names, matrix = cli._read_samples_csv(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert names == ["chain", "alpha", "sigma", "p", "deviance"]
        assert np.array_equal(matrix, np.column_stack(columns))
        assert peak <= 8 * 2**20

    def test_fit_and_benchmark_layouts_never_reach_the_per_cell_parser(
        self, tmp_path, monkeypatch
    ):
        """The files ``fit`` writes, and the benchmark's trace layout, parse
        whole in numpy's reader: the per-cell fallback is never called."""
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "chains": {"n_chains": 2, "burn_in": 20, "n_keep": 300, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        assert main(["fit", "--config", str(config)]) == 0
        rng = np.random.default_rng(2)
        columns = [np.repeat(np.arange(4), 500), 1.5 + 0.3 * rng.standard_normal(2000),
                   rng.beta(3.0, 7.0, 2000), 100.0 + rng.chisquare(3.0, 2000)]
        trace = tmp_path / "trace.csv"
        np.savetxt(trace, np.column_stack(columns), delimiter=",",
                   header="chain,alpha,p,deviance", comments="",
                   fmt=["%d"] + ["%.17g"] * 3)
        paths = [tmp_path / "out" / "samples_a.csv", tmp_path / "out" / "samples_b.csv",
                 trace]
        want = [_per_cell_samples_csv(path) for path in paths]

        def per_line(path, lines, width, first):
            raise AssertionError("numpy's reader refused a block")

        monkeypatch.setattr(cli, "_parse_csv_lines", per_line)
        monkeypatch.setattr(cli, "_CSV_BLOCK", 4096)  # several blocks a file
        for path, (names, matrix) in zip(paths, want):
            got_names, got = cli._read_samples_csv(path)
            assert got_names == names
            assert np.array_equal(got, matrix)
        assert want[0][1].shape == (600, 4)
        assert np.array_equal(want[2][1], np.column_stack(columns))

    @pytest.mark.parametrize("text,message", [
        # numpy's reader would take "\x0b" for whitespace, not a line break,
        ("chain,a,b,c\n1,2,\x0b3,4\n", "line 2: expected 4 fields, got 3"),
        # ... and by default cut a cell at a "#".
        ("chain,a\n0,1.0#x\n", "line 2: expected a number, got '1.0#x'"),
    ])
    def test_faults_numpy_reads_as_numbers(self, tmp_path, text, message):
        trace = tmp_path / "trace.csv"
        trace.write_text(text, encoding="utf-8", newline="")
        want = _read_or_error(_per_cell_samples_csv, trace)
        assert want == f"{trace}: {message}"
        assert _read_or_error(cli._read_samples_csv, trace) == want

    @pytest.mark.parametrize("bad,message", [
        ("0,1.5,oops,101.2", "line 183: expected a number, got 'oops'"),
        ("0,1.5,101.2", "line 183: expected 4 fields, got 3"),
    ])
    def test_fault_in_a_late_block_names_its_line(self, tmp_path, monkeypatch, bad,
                                                  message):
        rows = [f"{i % 4},{i / 7!r},{i / 9!r},{100 + i!r}" for i in range(200)]
        rows[180] = bad
        trace = tmp_path / "trace.csv"
        trace.write_text("chain,alpha,sigma,deviance\n\n" + "\r\n".join(rows),
                         encoding="utf-8")
        monkeypatch.setattr(cli, "_CSV_BLOCK", 64)
        want = _read_or_error(_per_cell_samples_csv, trace)
        assert want == f"{trace}: {message}"
        assert _read_or_error(cli._read_samples_csv, trace) == want


class TestCliExportDensityContract:
    """Inputs with no density estimate exit 2 with a message, never a
    traceback and never a file of NaNs or of one point."""

    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        draws = np.random.default_rng(4).standard_normal(200)
        path.write_text("chain,alpha\n" + "\n".join(f"0,{x!r}" for x in draws.tolist())
                        + "\n", encoding="utf-8")
        return path

    def _export(self, trace, *options):
        out = trace.with_name("density.csv")
        code = main(["export-density", "--trace", str(trace), "--param", "alpha",
                     "--out", str(out), *options])
        return code, out

    @pytest.mark.parametrize("grid_size", ["-3", "0", "1"])
    def test_grid_of_fewer_than_two_points(self, trace, capsys, grid_size):
        code, out = self._export(trace, "--grid-size", grid_size)
        assert code == 2
        assert "at least 2 points" in capsys.readouterr().err
        assert not out.exists()

    def test_two_point_grid_is_accepted(self, trace):
        code, out = self._export(trace, "--grid-size", "2")
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize("draw", ["nan", "inf", "-inf"])
    def test_non_finite_draw(self, trace, capsys, draw):
        trace.write_text(trace.read_text(encoding="utf-8") + f"1,{draw}\n", encoding="utf-8")
        code, out = self._export(trace)
        assert code == 2
        assert "non-finite draws" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "-inf", "-1", "0"])
    def test_bandwidth_not_finite_positive(self, trace, capsys, bandwidth):
        code, out = self._export(trace, f"--bandwidth={bandwidth}")
        assert code == 2
        assert "finite positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grid_endpoint(self, trace, capsys):
        code, out = self._export(trace, "--bandwidth", "1e308")
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bandwidth_too_narrow_for_a_finite_density(self, trace, capsys):
        code, out = self._export(trace, "--bandwidth", "1e-320")
        assert code == 2
        assert "too narrow" in capsys.readouterr().err
        assert not out.exists()

    def _rename_column(self, trace, column):
        text = trace.read_text(encoding="utf-8")
        trace.write_text(text.replace("alpha", column, 1), encoding="utf-8")

    @pytest.mark.parametrize("column", ["a/b", "/", "a\0b"])
    def test_column_that_cannot_name_the_default_file(self, trace, capsys, column):
        """The default output is density_<column>.csv beside the trace; a
        column no file name can hold asks for --out, which then works."""
        self._rename_column(trace, column)
        code = main(["export-density", "--trace", str(trace), "--param", column])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(column) in err and "--out" in err
        assert [p.name for p in trace.parent.iterdir()] == ["trace.csv"]
        out = trace.with_name("density.csv")
        assert main(["export-density", "--trace", str(trace), "--param", column,
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_dot_dot_column_writes_beside_the_trace(self, trace):
        self._rename_column(trace, "..")
        assert main(["export-density", "--trace", str(trace), "--param", ".."]) == 0
        assert sorted(p.name for p in trace.parent.iterdir()) == ["density_...csv", "trace.csv"]


@pytest.fixture()
def address_space_cap():
    """Caps this process's address space at 1 GiB above its size while the
    test runs, so a size numpy does not refuse by itself fails at once
    instead of taking the host's memory."""
    resource = pytest.importorskip("resource")
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("sizing the cap needs /proc/self/statm")
    size = int(statm.read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(limit for limit in (size + 2**30, soft, hard)
              if limit != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.usefixtures("address_space_cap")
class TestCliOversizedSizes:
    """A grid or chain geometry too large to allocate exits 2 with a message
    naming the setting, not a traceback.  Only sizes numpy refuses before it
    allocates are used: 10^12 (terabytes) and 10^19 (past the largest array
    dimension)."""

    @pytest.mark.parametrize("size", [10**12, 10**19])
    def test_grid_size(self, tmp_path, capsys, size):
        trace = tmp_path / "trace.csv"
        draws = np.random.default_rng(4).standard_normal(100)
        trace.write_text("chain,alpha\n" + "\n".join(f"0,{x!r}" for x in draws.tolist())
                         + "\n", encoding="utf-8")
        out = tmp_path / "density.csv"
        code = main(["export-density", "--trace", str(trace), "--param", "alpha",
                     "--grid-size", str(size), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"density grid of {size} points (--grid-size)" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["n_keep", "n_chains"])
    @pytest.mark.parametrize("size", [10**12, 10**19])
    def test_chain_geometry(self, tmp_path, capsys, setting, size):
        chains = {"n_chains": 1, "burn_in": 0, "n_keep": 1, "seed": 1, setting: size}
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": "dinterval",
            "chains": chains,
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        assert main(["fit", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert '"chains": ' in err and f"{size}" in err and "too many to allocate" in err
        assert not list((tmp_path / "out").iterdir())

    def test_latent_draws_of_a_huge_trial_count(self, tmp_path):
        """A right-censored row of 10^12 trials in dinterval mode: its latent
        count is drawn by bisection on the region's mass, never by listing
        the region's support.  The latent pins the incidence to within about
        1e-6, so the proposal scale adapts every sweep until moves are
        accepted and the kept trace has a density."""
        dataset = tmp_path / "ae.csv"
        dataset.write_text(HEADER + "\n3,none,,,20\n5,none,,,30\n,right,4,,1000000000000\n"
                           "2,none,,,10\n", encoding="utf-8")
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "censored-binomial", "variant": "A"},
            "mode": "dinterval",
            "chains": {"n_chains": 1, "burn_in": 150, "n_keep": 20, "seed": 1,
                       "adapt_window": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 0
        samples = np.loadtxt(tmp_path / "out" / "samples_a.csv", delimiter=",", skiprows=1)
        assert samples.shape == (20, 3) and ((0.0 < samples[:, 1]) & (samples[:, 1] < 1.0)).all()

    @pytest.mark.parametrize("variant", ["A", "G"])
    def test_latent_draws_of_one_count_regions(self, tmp_path, variant):
        """Censored rows whose regions each hold one count (left at 0, an
        interval [1.5, 2], right at the row's trials) in dinterval mode: the
        draw's search takes no step, and the fit completes."""
        dataset = tmp_path / "ae.csv"
        dataset.write_text("outcome,censor,cut1,cut2,trials,drug,study\n0,none,,,10,0,0\n"
                           ",left,0,,10,0,1\n,interval,1.5,2,10,0,2\n,right,10,,10,0,3\n"
                           "0,none,,,10,0,0\n", encoding="utf-8")
        path = _write_config(tmp_path, {
            "dataset": str(dataset),
            "model": {"family": "censored-binomial", "variant": variant},
            "mode": "dinterval",
            "chains": {"n_chains": 2, "burn_in": 20, "n_keep": 20, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "samples_a.csv").is_file()


class TestCliCompareAndDensity:
    def test_compare_two_models(self, tmp_path):
        dataset = tmp_path / "ae.csv"
        dataset.write_text(
            serialize(synthetic_ae_dataset(n_studies=10, seed=6)), encoding="utf-8"
        )
        config = {
            "dataset": str(dataset),
            "models": [
                {"label": "A", "family": "censored-binomial", "variant": "A"},
                {"label": "B", "family": "censored-binomial", "variant": "B"},
            ],
            "chains": {"n_chains": 2, "burn_in": 150, "n_keep": 150, "seed": 5},
            "output_dir": str(tmp_path / "cmp"),
        }
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 0
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert lines[0] == "model,Dbar,pD,DIC,p_opt,PED"
        assert len(lines) == 3
        dics = [float(line.split(",")[3]) for line in lines[1:]]
        assert dics == sorted(dics)

    def test_export_density_roundtrip(self, fit_config, tmp_path):
        config_path, out_dir, _ = fit_config
        main(["fit", "--config", str(config_path)])
        out = tmp_path / "dens.csv"
        code = main([
            "export-density",
            "--trace", str(out_dir / "samples_a.csv"),
            "--param", "b1",
            "--grid-size", "128",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "grid,density"
        assert len(lines) == 129

    def test_export_density_unknown_param(self, fit_config):
        config_path, out_dir, _ = fit_config
        main(["fit", "--config", str(config_path)])
        code = main([
            "export-density",
            "--trace", str(out_dir / "samples_a.csv"),
            "--param", "nope",
        ])
        assert code == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CENSDEV_OUTPUT_ROOT", str(tmp_path / "root"))
        dataset = tmp_path / "d.csv"
        dataset.write_text(serialize(aml_dataset()), encoding="utf-8")
        config = {
            "dataset": str(dataset),
            "model": {"family": "survival-exponential"},
            "chains": {"n_chains": 1, "burn_in": 50, "n_keep": 50, "seed": 2},
            "output_dir": "nested/fit",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 0
        assert (tmp_path / "root" / "nested" / "fit" / "samples_a.csv").exists()


class TestCliDemo:
    def test_survival_demo_quick(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "survival", "--quick", "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "understated" in printed
        gap_line = [l for l in printed.splitlines() if "understated" in l][0]
        assert float(gap_line.split(":")[1]) > 0.0
        for mode in ("exact", "dinterval"):
            for param in ("b0", "b1"):
                assert (out / f"survival-{mode}" / f"density_{mode}_{param}.csv").exists()

    def test_survival_demo_headline_is_the_reported_values(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "survival", "--quick", "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        dbar = json.loads((out / "survival-exact" / "report.json").read_text())["Dbar"]
        monitored = json.loads(
            (out / "survival-dinterval" / "report.json").read_text()
        )["mean_monitored_deviance"]
        assert f"exact-mode mean deviance:              {dbar:.3f}" in printed
        assert f"latent-imputation monitored deviance:  {monitored:.3f}" in printed
        assert f"understated by the default monitor: {dbar - monitored:.3f}" in printed

    def test_survival_demo_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["demo", "survival", "--quick", "--output-dir", str(out1)])
        main(["demo", "survival", "--quick", "--output-dir", str(out2)])
        for sub in ("survival-exact", "survival-dinterval"):
            for f in sorted((out1 / sub).iterdir()):
                if f.name == "manifest.json":
                    continue  # embeds the output path
                assert f.read_bytes() == (out2 / sub / f.name).read_bytes(), f.name

    def test_survival_demo_under_a_relative_output_root(self, tmp_path, monkeypatch, capsys):
        """A relative $CENSDEV_OUTPUT_ROOT prefixes the demo directory once,
        and a rerun reproduces every file, manifests included."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CENSDEV_OUTPUT_ROOT", "root")

        def demo_files():
            assert main(["demo", "survival", "--quick", "--output-dir", "demo"]) == 0
            return {p.relative_to(tmp_path): p.read_bytes()
                    for p in tmp_path.rglob("*") if p.is_file()}

        first = demo_files()
        assert f"artifacts in {Path('root', 'demo')}" in capsys.readouterr().out
        assert {p.parts[:3] for p in first} == {
            ("root", "demo", "survival-exact"), ("root", "demo", "survival-dinterval")
        }
        for mode in ("exact", "dinterval"):
            manifest = json.loads(first[Path("root", "demo", f"survival-{mode}", "manifest.json")])
            assert "report.json" in manifest["outputs"]
        assert demo_files() == first

    def test_survival_demo_records_the_directory_it_writes(self, tmp_path, monkeypatch):
        """The demo's configs name the resolved output directory, so a
        relative --output-dir under a relative $CENSDEV_OUTPUT_ROOT and the
        absolute path of the same directory write the same bytes, manifests
        included."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CENSDEV_OUTPUT_ROOT", "root")
        out = tmp_path / "root" / "demo"

        def demo_files(output_dir):
            assert main(["demo", "survival", "--quick", "--output-dir", output_dir]) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        relative = demo_files("demo")
        assert demo_files(str(out)) == relative
        manifest = json.loads(relative[Path("survival-exact", "manifest.json")])
        config = {
            "label": "survival-exact",
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": "exact",
            "chains": dataclasses.asdict(cli.DEMO_CHAINS["survival"][1]),
            "output_dir": str(out / "survival-exact"),
        }
        assert manifest["config_sha256"] == cli._config_hash(config)

    def test_ae_demo_quick(self, tmp_path):
        out = tmp_path / "ae"
        assert main(["demo", "ae-synthetic", "--quick", "--output-dir", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 8  # header + seven models
        assert (out / "ae_synthetic.csv").exists()
