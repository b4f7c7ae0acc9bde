"""Sampler tests: conjugate oracles, determinism, batching, adaptation,
deviance monitors, latent imputation, summaries and density export."""

import copy
import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from censdev import ChainConfig, LikelihoodMode, aml_dataset, cli, mcmc, run
from censdev.cli import main
from censdev.datasets import dataset_fingerprint, ingest, serialize, synthetic_ae_dataset
from censdev.distributions import Binomial, Exponential, Normal
from censdev.exceptions import (
    DataError,
    DegenerateDensityError,
    InitializationError,
    NumericError,
    SchemaError,
)
from censdev.likelihood import KIND_OBSERVED, deviance
from censdev.mcmc import (
    ChainBatch,
    PosteriorSamples,
    _ChainBatch,
    adapt_step_sizes,
    export_density,
    split_rhat,
    summarize,
)
from censdev.models import MODELS, Model, Param, _columnwise, to_natural
from censdev.selection import make_selection_report
from conftest import (
    DuckModel,
    make_dataset,
    mcse,
    recorded_latents,
    run_one,
    single_binomial_dataset,
    tobit_dataset,
)
from oracle import loglik_dinterval_style, loglik_exact, outcome_families


class TestConjugateOracles:
    def test_beta_binomial_posterior_mean(self, conjugate_bb_runs):
        """Beta(1,1) + Binomial(20, p), y = 7: posterior mean (y+1)/(n+2)."""
        _, _, samples, _ = conjugate_bb_runs
        trace = samples.param("p_pool")
        oracle = (7 + 1) / (20 + 2)
        assert abs(trace.mean() - oracle) < 3 * mcse(trace)

    def test_gamma_exponential_posterior_mean(self, conjugate_ge_run):
        """Gamma(a,b) prior: posterior mean (a+N)/(b+sum y)."""
        model, data, samples = conjugate_ge_run
        total = sum(data.columns.value.tolist())
        oracle = (model.shape + len(data)) / (model.rate + total)
        trace = samples.param("lambda")
        assert abs(trace.mean() - oracle) < 3 * mcse(trace)

    def test_split_rhat_converged(self, conjugate_bb_runs, conjugate_ge_run):
        for samples in (conjugate_bb_runs[2], conjugate_ge_run[2]):
            for s in summarize(samples):
                assert s.rhat < 1.05

    def test_chain_exchangeability(self, conjugate_bb_runs):
        """Each chain's mean agrees with the pooled mean within 3 MCSE."""
        _, _, samples, _ = conjugate_bb_runs
        chains = samples.draws[:, 0].reshape(samples.n_chains, samples.n_keep)
        pooled = samples.param("p_pool")
        pooled_mean, pooled_mcse = pooled.mean(), mcse(pooled)
        for chain in chains:
            tol = 3 * math.hypot(mcse(chain), pooled_mcse)
            assert abs(chain.mean() - pooled_mean) < tol


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        data = single_binomial_dataset()
        model = Model(MODELS["A"], data)
        config = ChainConfig(n_chains=2, burn_in=200, n_keep=300, seed=77)
        a = run_one(model, data, LikelihoodMode.EXACT, config)
        b = run_one(model, data, LikelihoodMode.EXACT, config)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.deviance_trace, b.deviance_trace)
        assert np.array_equal(a.acceptance_rates, b.acceptance_rates)

    def test_different_seed_differs(self):
        data = single_binomial_dataset()
        model = Model(MODELS["A"], data)
        a = run_one(model, data, LikelihoodMode.EXACT,
                    ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=1))
        b = run_one(model, data, LikelihoodMode.EXACT,
                    ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_thinning_geometry(self):
        data = single_binomial_dataset()
        model = Model(MODELS["A"], data)
        config = ChainConfig(n_chains=2, burn_in=50, n_keep=40, thin=5, seed=9)
        samples = run_one(model, data, LikelihoodMode.EXACT, config)
        assert samples.draws.shape == (80, 1)
        assert config.total_iterations == 50 + 40 * 5


def _batch_case(name):
    """(model, data, mode) of one batching case."""
    mode = LikelihoodMode.DINTERVAL if name.endswith("dinterval") else LikelihoodMode.EXACT
    if name.startswith("survival"):
        aml = aml_dataset()
        return Model(MODELS["survival-exponential"], aml), aml, mode
    if name.startswith("glm"):
        small = name.startswith("glm-small")
        tobit = tobit_dataset(20, slopes=(0.8,)) if small else tobit_dataset()
        return Model(MODELS["censored-normal-glm"], tobit), tobit, mode
    ae = synthetic_ae_dataset(seed=11)
    return Model(MODELS[name[3]], ae), ae, mode


class _FreshDataModel(Model):
    """A Model whose row_params copies every field, data fields too."""

    def row_params(self, theta, cols):
        return tuple(np.array(p, copy=True) for p in super().row_params(theta, cols))


class TestBatching:
    """Chains of a batch advance as one array state but never interact: each
    owns its generators, so a batch of configs reproduces the configs run
    one by one, bit for bit."""

    GEOMETRY = {"burn_in": 60, "n_keep": 40, "adapt_window": 20}

    @pytest.mark.parametrize(
        "case", ["survival-exact", "survival-dinterval", "glm", "glm-dinterval", "glm-small",
                 "ae-D", "ae-G", "ae-G-dinterval"]
    )
    def test_batch_equals_separate_runs(self, case):
        model, data, mode = _batch_case(case)
        configs = (ChainConfig(n_chains=2, seed=31, **self.GEOMETRY),
                   ChainConfig(n_chains=1, seed=32, **self.GEOMETRY))
        self._check_batch(model, (), configs, data, mode)

    @pytest.mark.parametrize("mode", list(LikelihoodMode))
    def test_link_variants_batch_equals_each_run_alone(self, mode):
        """D, E and F share a layout key, so one batch may mix their configs,
        in any order: each config's chains reproduce its variant run alone."""
        data = synthetic_ae_dataset(seed=11)
        d, e, f = (Model(MODELS[v], data) for v in "DEF")
        configs = tuple(ChainConfig(n_chains=n, seed=seed, **self.GEOMETRY)
                        for n, seed in ((2, 31), (1, 32), (2, 33), (1, 34)))
        self._check_batch(e, (d, e, f, d), configs, data, mode)

    @staticmethod
    def _check_batch(model, models, configs, data, mode):
        """``run(model, ...)`` of the batch of ``configs`` and ``models``
        gives each config what it gives run alone with its own model: the
        same draws, deviances, acceptance rates and chain ids, and in every
        sweep the same latents."""
        with recorded_latents() as batched_latents:
            batched = run(model, data, mode, ChainBatch(configs, models))
        separate_latents = []
        for own, config, together in zip(models or [model] * len(configs), configs, batched):
            with recorded_latents() as latents:
                alone = run_one(own, data, mode, config)
            separate_latents.append(latents)
            assert together.param_names == alone.param_names
            for field in ("draws", "deviance_trace", "acceptance_rates", "chain_ids"):
                assert np.array_equal(getattr(alone, field), getattr(together, field)), field
        sweeps = configs[0].total_iterations
        assert len(batched_latents) == sweeps * (mode is LikelihoodMode.DINTERVAL)
        if batched_latents:  # each sweep's (chains, censored rows), the configs side by side
            alone = np.concatenate([np.stack(latents) for latents in separate_latents], axis=1)
            assert np.array_equal(np.stack(batched_latents), alone)

    @pytest.mark.parametrize("fresh", [False, True], ids=["cached-data", "fresh-data"])
    def test_row_params_of_a_mixed_batch_come_from_each_chains_model(self, fresh):
        """Also when a model returns its data fields (the trials) as a new
        array on each call, not the columns' cached one."""
        data = synthetic_ae_dataset(seed=11)
        model = _FreshDataModel if fresh else Model
        d, e, f = (model(MODELS[v], data) for v in "DEF")
        chain_models = [f, d, e, d, f]
        state = _ChainBatch(d, data, LikelihoodMode.EXACT,
                            [np.random.default_rng(s) for s in range(5)], chain_models)
        theta = np.random.default_rng(3).normal(size=(5, len(d.params)))
        theta[:, 1] = np.abs(theta[:, 1])
        cols = data.columns
        params = state._row_params(theta, cols)
        for chain, own_model in enumerate(chain_models):
            own = own_model.row_params(theta[chain], cols)
            for got, want in zip(params, own):
                got = np.broadcast_to(got, (len(theta), 1, len(cols)))[chain, 0]
                assert np.array_equal(got, want)
        # F's link gives other probabilities than D's from the same theta.
        assert not np.array_equal(params[1][0, 0], d.row_params(theta[0], cols)[1])

    @pytest.mark.parametrize("mode", list(LikelihoodMode))
    def test_restarted_chains_of_a_batch_equal_each_run_alone(self, monkeypatch, aml, mode):
        """No chain can start at the origin, so start-up restarts every
        chain, some more often than others: the attempts mix adopted and
        pending chains, and each config still reproduces its run alone."""
        attempts = []
        try_states = _ChainBatch._try_states

        def recording(self, pending):
            attempts.append(pending.copy())
            return try_states(self, pending)

        monkeypatch.setattr(_ChainBatch, "_try_states", recording)
        configs = tuple(ChainConfig(n_chains=n, seed=seed, **self.GEOMETRY)
                        for n, seed in ((2, 5), (1, 6), (2, 7)))
        self._check_batch(_NoStartAtOrigin(), (), configs, aml, mode)
        assert any(0 < pending.sum() < len(pending) for pending in attempts)

    def test_a_degenerate_start_region_fails_only_its_chain(self, monkeypatch, aml,
                                                            survival_model):
        """Start-up draws each chain's latents with a call of its own: when
        chain 1's call finds its region degenerate, chain 1 alone restarts, and
        chains 0 and 2 keep the draws of an undisturbed run."""
        config = ChainConfig(n_chains=3, seed=5, **self.GEOMETRY)
        undisturbed = run_one(survival_model, aml, LikelihoodMode.DINTERVAL, config)
        _degenerate_regions(monkeypatch, lambda call: call == 1)
        disturbed = run_one(survival_model, aml, LikelihoodMode.DINTERVAL, config)
        per_chain = [s.draws.reshape(3, config.n_keep, -1) for s in (undisturbed, disturbed)]
        same = [np.array_equal(a, b) for a, b in zip(*per_chain)]
        assert same == [True, False, True]

    def test_models_of_another_layout_cannot_share_a_batch(self):
        data = synthetic_ae_dataset(seed=11)
        d = Model(MODELS["D"], data)
        configs = tuple(ChainConfig(n_chains=1, seed=s, **self.GEOMETRY) for s in (1, 2))
        others = (Model(MODELS["C"], data), Model(MODELS["D"], data, half_cauchy_scale=2.0))
        for other in others:
            with pytest.raises(SchemaError, match="cannot share a chain batch"):
                run(d, data, LikelihoodMode.EXACT, ChainBatch(configs, (d, other)))
        with pytest.raises(DataError, match="names 1 models for 2 configs"):
            ChainBatch(configs, (d,))

    def test_layout_keys_equal_for_the_link_variants_alone(self):
        data = synthetic_ae_dataset(seed=11)
        keys = {v: Model(MODELS[v], data).layout_key for v in "ABCDEFG"}
        assert keys["D"] == keys["E"] == keys["F"]
        assert len(set(keys.values())) == 5
        assert Model(MODELS["D"], data, mean_precision=0.1).layout_key != keys["D"]

    def test_batch_geometry_counts_every_chain(self):
        configs = (ChainConfig(n_chains=2, seed=31, **self.GEOMETRY),
                   ChainConfig(n_chains=1, seed=32, **self.GEOMETRY))
        batch = ChainBatch(configs)
        assert batch.n_chains == 3
        assert batch.total_iterations == configs[0].total_iterations

    @pytest.mark.parametrize("command, batches", [
        ("fit", [["survival-exponential"] * 2]),
        ("compare", [["survival-exponential"] * 2] * 2),
        ("compare-ae", [["A"] * 2, ["B"] * 2, ["C"] * 2, ["D", "D", "E", "E", "F", "F"],
                        ["G"] * 2]),
    ], ids=["fit", "compare", "compare-ae"])
    def test_cli_samples_both_replicate_runs_in_one_run_call(
        self, monkeypatch, tmp_path, command, batches
    ):
        """Fit and compare sample through ``run``, one call per group of
        models that share a layout key, over runs A and B of each: the two
        survival models of another ``tau0`` apart, and of A-G, the link
        variants D, E and F together."""
        calls = []

        def recording_run(model, data, mode, config):
            calls.append(config)
            return run(model, data, mode, config)

        monkeypatch.setattr(cli, "run", recording_run)
        config = {
            "dataset": "bundled:aml",
            "chains": {"n_chains": 2, "burn_in": 20, "n_keep": 20, "seed": 4},
            "output_dir": str(tmp_path / "out"),
        }
        if command == "fit":
            config["model"] = {"family": "survival-exponential"}
        elif command == "compare":
            config["models"] = [
                {"label": label, "family": "survival-exponential",
                 "hyperparameters": {"tau0": tau0}}
                for label, tau0 in (("wide", 1e-4), ("narrow", 1e-2))
            ]
        else:
            dataset = tmp_path / "ae.csv"
            dataset.write_text(serialize(synthetic_ae_dataset(seed=11)), encoding="utf-8")
            config["dataset"] = str(dataset)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command.split("-")[0], "--config", str(path)]) == 0
        assert [[m.label for m in batch.models] for batch in calls] == batches
        for batch, labels in zip(calls, batches):
            assert isinstance(batch, ChainBatch) and len(batch.configs) == len(labels)
            assert batch.n_chains == 2 * len(labels)

    def test_compare_prints_each_fit_once_every_model_before_it_is_fitted(
        self, monkeypatch, tmp_path, capsys
    ):
        """Of variants D, A, E, C, D and E share one batch, sampled first:
        D's line comes before A is sampled, E's only after A's, and when
        C's batch fails the lines of the models fitted before it stand."""
        printed = []

        def recording_run(model, data, mode, config):
            printed.append(capsys.readouterr().out)
            if model.label == "C":
                raise NumericError("C fails")
            return run(model, data, mode, config)

        monkeypatch.setattr(cli, "run", recording_run)
        dataset = tmp_path / "ae.csv"
        dataset.write_text(serialize(synthetic_ae_dataset(seed=11)), encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": str(dataset), "variants": ["D", "A", "E", "C"],
            "chains": {"n_chains": 2, "burn_in": 20, "n_keep": 20, "seed": 4},
            "output_dir": str(tmp_path / "out")}), encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 3
        printed.append(capsys.readouterr().out)
        lines = [[line.split(":")[0] for line in out.splitlines()] for out in printed]
        assert lines == [[], ["fitted D"], ["fitted A", "fitted E"], []]

    def test_compare_reports_the_link_variants_as_each_sampled_alone(self, tmp_path):
        """D, E and F share one batch in ``compare``; the report of each is
        that of its variant sampled alone with its own seeds."""
        dataset = tmp_path / "ae.csv"
        dataset.write_text(serialize(synthetic_ae_dataset(seed=11)), encoding="utf-8")
        chains = {"n_chains": 2, "burn_in": 20, "n_keep": 20, "seed": 4}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": str(dataset), "chains": chains,
                                    "output_dir": str(tmp_path / "out")}), encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 0
        ranked = json.loads((tmp_path / "out" / "comparison.json").read_text("utf-8"))["ranked"]
        data = ingest(dataset)
        seeds = cli._derive_run_seeds(4, 7)
        for variant in "DEF":
            model = Model(MODELS[variant], data)
            batch = ChainBatch(tuple(ChainConfig(**{**chains, "seed": s})
                                     for s in seeds["ABCDEFG".index(variant)]))
            alone = make_selection_report(variant, model, data,
                                          *run(model, data, LikelihoodMode.EXACT, batch),
                                          dataset_id=dataset_fingerprint(data))
            (row,) = [r for r in ranked if r["model"] == variant]
            assert (row["DIC"], row["PED"]) == (alone.dic, alone.ped)

    @pytest.mark.parametrize("field", ["burn_in", "n_keep", "thin", "adapt_window"])
    def test_configs_must_share_geometry(self, field):
        data = single_binomial_dataset()
        base = ChainConfig(n_chains=1, burn_in=20, n_keep=20, thin=1, adapt_window=10)
        other = dataclasses.replace(base, **{field: getattr(base, field) + 1}, seed=5)
        with pytest.raises(DataError):
            ChainBatch((base, other))

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            ChainBatch(())

    @pytest.mark.parametrize("mode", list(LikelihoodMode))
    def test_chain_count_numpy_refuses_stops_before_any_chain_is_seeded(
        self, monkeypatch, aml, survival_model, mode
    ):
        """10^19 chains is more than an array dimension holds: numpy refuses
        the kept-draw arrays without allocating, and ``run`` asks for them
        before it seeds a chain."""
        def seeded(*args, **kwargs):
            raise AssertionError("a chain was seeded before its draws were allocated")

        monkeypatch.setattr(np.random, "SeedSequence", seeded)
        config = ChainConfig(n_chains=10**19, burn_in=0, n_keep=1, seed=1)
        with pytest.raises(DataError, match='"chains": 10000000000000000000 chains'):
            run_one(survival_model, aml, mode, config)

    def test_failing_initialization_raises_initialization_error(self):
        data = make_dataset([("none", 1.0)])
        configs = tuple(ChainConfig(n_chains=2, burn_in=5, n_keep=5, seed=s) for s in (1, 2))
        with pytest.raises(InitializationError):
            run(_HopelessModel(), data, LikelihoodMode.EXACT, ChainBatch(configs))

    def test_failing_latent_refresh_surfaces_as_numeric_error(self, monkeypatch, aml):
        """Four chains start with four calls, so call 40 is sweep 36's refresh;
        the error names the sweep and the first censored row's region."""
        _degenerate_regions(monkeypatch, lambda call: call >= 40)
        configs = tuple(ChainConfig(n_chains=2, burn_in=20, n_keep=20, seed=s) for s in (1, 2))
        first = aml.columns.lo[aml.columns.kind != KIND_OBSERVED][0]
        with pytest.raises(NumericError, match=(
                rf"^sweep 36: degenerate censoring region: truncation region "
                rf"\[{first}, inf\] has zero probability$")):
            run(Model(MODELS["survival-exponential"], aml), aml, LikelihoodMode.DINTERVAL,
                ChainBatch(configs))

    @pytest.mark.parametrize("failure", ["initialization", "latent-refresh"])
    def test_cli_exit_code_for_numeric_failures(self, monkeypatch, tmp_path, capsys, failure):
        if failure == "initialization":
            monkeypatch.setattr(Model, "log_prior",
                                lambda self, theta: np.full(len(theta), -math.inf))
        else:
            _degenerate_regions(monkeypatch, lambda call: call >= 40)
        config = {
            "dataset": "bundled:aml",
            "model": {"family": "survival-exponential"},
            "mode": "dinterval",
            "chains": {"n_chains": 2, "burn_in": 20, "n_keep": 20, "seed": 4},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")


def _degenerate_regions(monkeypatch, fails):
    """Make the calls of ``Exponential.log_contrib`` whose index (from 0)
    ``fails`` accepts give every row no mass.  In DINTERVAL mode the sampler
    calls it on censoring regions alone: once per chain at initialization
    (``sample_truncated`` scoring its regions) and once per sweep after (the
    latent refresh)."""
    calls = itertools.count()
    original = Exponential.log_contrib.__func__

    def log_contrib(cls, cols, *params):
        out = original(cls, cols, *params)
        return np.full_like(out, -math.inf) if fails(next(calls)) else out

    monkeypatch.setattr(Exponential, "log_contrib", classmethod(log_contrib))


def _four_kind_survival_dataset():
    """Survival rows of every censor kind; the interval from 0 and the
    left-censored row take the exponential kernels through log(0)."""
    rows = [(("none", 2.0), 0.0), (("none", 0.7), 1.0), (("left", 1.0), 0.0),
            (("right", 5.0), 1.0), (("interval", 0.0, 3.0), 0.0),
            (("interval", 1.0, 4.0), 1.0), (("none", 3.5), 1.0)]
    return make_dataset([o for o, _ in rows], covariates=[(g,) for _, g in rows],
                        names=("group",))


class TestDrawChunks:
    """Each chain draws its proposal normals, accept and latent uniforms and
    independence t draws from a stream of its own per kind, a chunk of
    sweeps at a time; each stream draws one distribution a fixed number of
    times per sweep, in sweep order, so the chunk length changes no draw."""

    # 101 sweeps: a chunk of 7 ends inside the burn-in and between the
    # kept sweeps' alternating random-walk and independence steps.
    GEOMETRY = {"burn_in": 60, "n_keep": 41, "adapt_window": 20}

    @pytest.mark.parametrize("case", ["survival-exact", "survival-dinterval", "ae-C",
                                      "D+E+F", "ae-A-dinterval"])
    def test_draws_equal_at_every_chunk_length(self, monkeypatch, case):
        """A chunk of 1 sweep, of 7, the default and the whole run give the
        same draws, deviances, acceptance rates and latents, byte for byte."""
        if case == "D+E+F":
            data = synthetic_ae_dataset(seed=11)
            models = tuple(Model(MODELS[v], data) for v in "DEF")
            mode = LikelihoodMode.EXACT
        else:
            model, data, mode = _batch_case(case)
            models = (model,) * 3
        configs = tuple(ChainConfig(n_chains=n, seed=seed, **self.GEOMETRY)
                        for n, seed in ((2, 31), (1, 32), (2, 33)))
        batch = ChainBatch(configs, models)
        chunks, floats = [], []
        draw_chunk = _ChainBatch._draw_chunk

        def recording(self, sweep, config):
            chunks.append(self.normals.shape[1])
            floats.append(sum(a[0, 0].size for a in (self.normals, self.uniforms, self.t)))
            draw_chunk(self, sweep, config)

        monkeypatch.setattr(_ChainBatch, "_draw_chunk", recording)
        sweeps = batch.total_iterations
        outputs = {}
        for length in ("default", 1, 7, sweeps):
            if length != "default":  # the budget of ``length`` sweeps of every chain
                monkeypatch.setattr(mcmc, "_DRAW_CHUNK", length * batch.n_chains * floats[0])
            chunks.clear()
            with recorded_latents() as latents:
                samples = run(models[0], data, mode, batch)
            if length == "default":  # it buffers this short run whole
                assert len(chunks) == 1 and chunks[0] >= sweeps
            else:
                assert chunks == [length] * -(-sweeps // length)
            assert len(latents) == sweeps * (mode is LikelihoodMode.DINTERVAL)
            outputs[length] = [np.stack(latents).tobytes() if latents else b""] + [
                getattr(s, field).tobytes() for s in samples
                for field in ("draws", "deviance_trace", "exact_deviance_trace",
                              "acceptance_rates")]
        first, *others = outputs.values()
        assert all(other == first for other in others)

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(0.0, 1.0, exclude_max=True),
           log_ratio=st.floats(min_value=0.0, allow_infinity=True))
    @example(u=0.0, log_ratio=0.0)
    @example(u=float(np.nextafter(1.0, 0.0)), log_ratio=0.0)
    def test_accept_rule_takes_every_log_ratio_from_zero_up(self, u, log_ratio):
        """A step accepts where log u < log ratio.  A uniform lies in [0, 1),
        so log u < 0: every log ratio >= 0 is accepted, -inf (a proposal
        outside the prior's support) and NaN never."""
        with np.errstate(divide="ignore"):
            log_u = np.log(np.array([u]))
        assert (log_u < log_ratio).all()
        assert not (log_u < -math.inf).any() and not (log_u < math.nan).any()

    def test_accept_columns_hold_the_logs_of_the_uniforms(self):
        """The chunk keeps each sweep's accept uniforms as their logs, all
        below 0, and the latent uniforms as drawn."""
        model, data, mode = _batch_case("survival-dinterval")
        state = _ChainBatch(model, data, mode, [np.random.default_rng(s) for s in (3, 4)],
                            [model] * 2)
        config = ChainConfig(n_chains=2, burn_in=60, n_keep=40)
        state._draw_chunk(0, config)
        sweeps = min(state.uniforms.shape[1], config.total_iterations)
        n = state.n_params
        assert state.uniforms.shape[2] == n + len(state.censored_rows)
        # Each chain's second stream, spawned from its start-up generator.
        uniforms = np.array([np.random.default_rng(s).spawn(3)[1].random(
            (sweeps, state.uniforms.shape[2])) for s in (3, 4)])
        got = state.uniforms[:, :sweeps]
        assert np.array_equal(got[..., n:], uniforms[..., n:])
        assert np.array_equal(got[..., :n], np.log(uniforms[..., :n]))
        assert (got[..., :n] < 0.0).all()


class TestFloatingPointState:
    """The kernels meet overflow and log(0) at some rows and proposals by
    design; the sampler and the selection layer own the error state, so no
    floating-point warning leaks out of a run or a report."""

    @pytest.mark.parametrize("case", ["aml", "four-kinds", "tobit"])
    def test_runs_and_reports_raise_no_runtime_warning(self, case, aml):
        if case == "tobit":
            data = tobit_dataset()
            model = Model(MODELS["censored-normal-glm"], data)
        else:
            data = aml if case == "aml" else _four_kind_survival_dataset()
            model = Model(MODELS["survival-exponential"], data)
        configs = tuple(ChainConfig(n_chains=2, burn_in=60, n_keep=40, seed=s) for s in (6, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples_a, samples_b = run(model, data, LikelihoodMode.EXACT, ChainBatch(configs))
            make_selection_report(case, model, data, samples_a, samples_b)
            run_one(model, data, LikelihoodMode.DINTERVAL, configs[0])

    @pytest.mark.parametrize("case", ["h=1e-300", "h=1e3*sd", "cauchy"])
    def test_density_export_raises_no_floating_point_warning(self, case, tmp_path):
        """The windows keep |z| <= 38.61, so no kernel term overflows, however
        narrow or wide the bandwidth and however heavy the tails."""
        rng = np.random.default_rng(8)
        if case == "cauchy":
            trace, bandwidth = rng.standard_cauchy(5000), "scott"
        else:
            trace = rng.standard_normal(2000)
            bandwidth = 1e-300 if case == "h=1e-300" else 1e3 * float(trace.std(ddof=1))
        path = tmp_path / "trace.csv"
        path.write_text("alpha\n" + "\n".join(map(repr, trace.tolist())) + "\n", encoding="utf-8")
        out = tmp_path / "density.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            export_density(trace, grid_size=400, bandwidth_rule=bandwidth)
            code = main(["export-density", "--trace", str(path), "--param", "alpha",
                         "--bandwidth", str(bandwidth), "--out", str(out)])
        assert code == 0


class TestAdaptation:
    def test_full_acceptance_increases_scale(self):
        scales = np.array([0.5])
        new = adapt_step_sizes(scales, np.array([1.0]), adapt_round=1)
        assert new[0] > scales[0]

    def test_zero_acceptance_decreases_scale(self):
        scales = np.array([0.5])
        new = adapt_step_sizes(scales, np.array([0.0]), adapt_round=1)
        assert new[0] < scales[0]

    def test_target_acceptance_is_fixed_point(self):
        scales = np.array([0.5, 2.0])
        new = adapt_step_sizes(scales, np.array([0.44, 0.44]), adapt_round=3)
        np.testing.assert_allclose(new, scales, rtol=1e-12)

    def test_gain_decays(self):
        scales = np.array([1.0])
        early = adapt_step_sizes(scales, np.array([1.0]), adapt_round=1)[0]
        late = adapt_step_sizes(scales, np.array([1.0]), adapt_round=400)[0]
        assert late - 1.0 < early - 1.0

    def test_kept_phase_acceptance_near_target(self, conjugate_bb_runs):
        _, _, samples, _ = conjugate_bb_runs
        assert np.all(np.abs(samples.acceptance_rates - 0.44) < 0.12)


class TestDevianceMonitor:
    def test_exact_trace_matches_offline_recompute(self, aml, survival_model,
                                                   survival_runs):
        exact, _ = survival_runs
        idx = np.linspace(0, exact.draws.shape[0] - 1, 500).astype(int)
        for i in idx:
            theta = exact.draws[i]
            offline = deviance(
                loglik_exact(aml, outcome_families(survival_model, theta, aml))
            )
            assert abs(offline - exact.deviance_trace[i]) < 1e-10 * max(
                1.0, abs(offline)
            )

    def test_dinterval_trace_matches_offline_monitored(self, aml, survival_model,
                                                       survival_runs, survival_latents):
        _, dint = survival_runs
        latent_rows = np.flatnonzero(aml.columns.kind != KIND_OBSERVED).tolist()
        idx = np.linspace(0, dint.draws.shape[0] - 1, 500).astype(int)
        for i in idx:
            theta = dint.draws[i]
            latents = dict(zip(latent_rows, survival_latents[i]))
            offline = loglik_dinterval_style(
                aml, outcome_families(survival_model, theta, aml), latents
            ).monitored_loglik
            assert abs(deviance(offline) - dint.deviance_trace[i]) < 1e-10 * max(
                1.0, abs(offline)
            )

    def test_dinterval_mean_below_exact_mean(self, survival_runs):
        exact, dint = survival_runs
        assert dint.deviance_trace.mean() < exact.deviance_trace.mean()

    def test_all_monitored_deviances_finite(self, survival_runs):
        for samples in survival_runs:
            assert np.isfinite(samples.deviance_trace).all()


class TestLatentImputation:
    def test_every_kept_latent_in_its_region(self, aml, survival_runs, survival_latents):
        _, dint = survival_runs
        latent_rows = np.flatnonzero(aml.columns.kind != KIND_OBSERVED)
        assert survival_latents.shape == (len(dint.draws), len(latent_rows))
        for k, row in enumerate(latent_rows):
            lo, hi = aml.columns.lo[row], aml.columns.hi[row]
            col = survival_latents[:, k]
            assert (col >= lo).all() and (col <= hi).all()

    def test_exact_mode_draws_no_latents(self, aml, survival_model):
        with recorded_latents() as refreshes:
            run_one(survival_model, aml, LikelihoodMode.EXACT,
                    ChainConfig(n_chains=2, burn_in=20, n_keep=20, seed=3))
        assert refreshes == []


class _NoStartAtOrigin(DuckModel):
    """Exponential outcomes of rate exp(x), whose prior is -inf for
    |x| < 1: the working-scale origin is outside its support."""

    family = Exponential

    def __init__(self):
        self.params = (Param("log_rate", "real"),)

    def log_prior(self, theta):
        x = self.check_theta(theta)[..., 0]
        return np.where(np.abs(x) < 1.0, -math.inf, -0.5 * x * x)

    def row_params(self, theta, cols):
        return (np.exp(np.asarray(theta, dtype=float)[..., 0:1]),)


class _HopelessModel(DuckModel):
    """Prior is -inf everywhere; initialization must give up cleanly."""

    family = Normal

    def __init__(self):
        self.params = (Param("x", "real"),)

    def log_prior(self, theta):
        return np.full(self.check_theta(theta).shape[:-1], -math.inf)

    def row_params(self, theta, cols):
        raise AssertionError("never reached")


class TestInitialization:
    @pytest.mark.parametrize("mode", list(LikelihoodMode))
    def test_initialization_error_after_retries(self, mode):
        data = make_dataset([("none", 1.0), ("right", 2.0)])
        with pytest.raises(InitializationError):
            run_one(_HopelessModel(), data, mode,
                    ChainConfig(n_chains=1, burn_in=10, n_keep=10, seed=0))


class TestLevelBlocks:
    @pytest.fixture(scope="class")
    def ae(self):
        return synthetic_ae_dataset(seed=11)

    @pytest.mark.parametrize("variant", ["D", "G"])
    def test_block_step_equals_single_site_steps(self, ae, variant):
        """One blocked step and the level-by-level single-site Metropolis
        steps on the log posterior, fed the same increments and uniforms,
        take the same decisions and reach the same state, whose cached
        terms and contributions are those of its parameters."""
        model = Model(MODELS[variant], ae)
        state = _ChainBatch(model, ae, LikelihoodMode.EXACT, [np.random.default_rng(3)], [model])
        state.initialize()
        (block,) = [b for b in state.blocks if b.owner is not None]
        levels = model.levels
        rng = np.random.default_rng(21)
        z = rng.standard_normal(len(levels))
        u = rng.uniform(size=len(levels))
        scales = rng.uniform(0.2, 1.5, size=len(model.params))

        blocked = copy.deepcopy(state)
        # The step reads its columns of the state's draw chunk at row ``at``.
        block.z[0, blocked.at], block.log_u[0, blocked.at] = z, np.log(u)
        (accept,) = block.update(blocked, scales[block.comps])

        cols, supports = ae.columns, model.supports

        def log_posterior(x):
            v = to_natural(x, supports)
            contribs = model.family.log_contrib(cols, *model.row_params(v, cols))
            return model.log_prior(v) + contribs.sum() + _columnwise(2, x, supports).sum()

        x = state.x[0].copy()
        decisions = []
        with np.errstate(all="ignore"):
            for k, j in enumerate(levels):
                proposal = x.copy()
                proposal[j] += scales[j] * z[k]
                log_ratio = log_posterior(proposal) - log_posterior(x)
                decisions.append(bool(log_ratio >= 0.0 or math.log(u[k]) < log_ratio))
                if decisions[-1]:
                    x = proposal
            v = to_natural(x, supports)
            contribs = model.family.log_contrib(cols, *model.row_params(v, cols))

        assert accept.tolist() == decisions
        assert 0 < sum(decisions) < len(levels)
        for name, want in (("x", x), ("v", v), ("jac", _columnwise(2, x, supports)),
                           ("contribs", contribs),
                           ("terms", [term.log_density(v) for term in model.prior_terms]),
                           ("level_terms", model.level_log_prior(v))):
            np.testing.assert_allclose(getattr(blocked, name)[0], want, rtol=1e-12, err_msg=name)

    def test_saturated_posterior_means_match_closed_form(self, ae):
        """G's study incidences against Beta(1+y, 1+n-y) on observed rows and
        the quadrature of Beta(1,1) x P(region) on censored rows."""
        model = Model(MODELS["G"], ae)
        samples = run_one(model, ae, LikelihoodMode.EXACT,
                          ChainConfig(n_chains=3, burn_in=1000, n_keep=5000, seed=404))
        cols = ae.columns
        for s in range(len(ae)):
            n = int(cols.trials[s])
            if np.isfinite(cols.value[s]):
                y = cols.value[s]
                oracle = (1.0 + y) / (2.0 + n)
            else:
                lo, hi = cols.lo[s], cols.hi[s]
                region = lambda p: (stats.binom.cdf(hi, n, p)
                                    - stats.binom.cdf(np.ceil(lo) - 1.0, n, p))
                mass = integrate.quad(region, 0.0, 1.0, epsabs=0, epsrel=1e-10)[0]
                first = integrate.quad(lambda p: p * region(p), 0.0, 1.0,
                                       epsabs=0, epsrel=1e-10)[0]
                oracle = first / mass
            trace = samples.param(f"p_study{s}")
            assert abs(trace.mean() - oracle) < 5 * mcse(trace), s

    @pytest.mark.parametrize("name", MODELS)
    def test_every_block_reaches_every_row_or_none(self, name):
        """A block scores the dataset's columns, or none for a component
        that only the level terms read; the other components beside the
        levels form one block, joint when they are two or more; the level
        block's rows belong to the levels their index codes name.  Every
        component is in one block, in component order, and the entry lays
        out those that reach the rows first, then ``level_reads``, then the
        levels."""
        model, data = _entry_case(name)
        state = _ChainBatch(model, data, LikelihoodMode.EXACT, [np.random.default_rng(1)],
                            [model])
        n = len(model.params)
        reaching = [j for j in range(n) if j not in model.levels + model.level_reads]
        assert reaching + list(model.level_reads) + list(model.levels) == list(range(n))
        layout = []
        for block in state.blocks:
            comps = np.atleast_1d(np.arange(n)[block.comps]).tolist()
            layout.append(comps)
            assert block.cols is data.columns or block.cols is None
            assert (block.cols is None) == (len(comps) == 1 and comps[0] in model.level_reads)
            if block.chol is not None:
                assert comps == reaching and len(comps) >= 2
                assert np.array_equal(block.chol, np.eye(len(comps))[None])
        assert sum(layout, []) == list(range(n))
        assert [comps for comps in layout if comps[0] not in model.levels + model.level_reads] \
            == ([reaching] if reaching else [])
        assert sum(b.chol is not None for b in state.blocks) == (len(reaching) >= 2)
        level_blocks = [b for b in state.blocks if b.owner is not None]
        assert len(level_blocks) == bool(model.levels)
        for block in level_blocks:
            codes = data.columns.codes(model.index_col, model.n_levels)
            assert np.array_equal(block.owner, codes)

    def test_joint_blocks_of_the_table(self):
        """Survival's b0 and b1 and all four GLM components are joint
        blocks; every other entry keeps blocks of one beside its levels."""
        joint = {}
        for name in MODELS:
            model, data = _entry_case(name)
            state = _ChainBatch(model, data, LikelihoodMode.EXACT,
                                [np.random.default_rng(1)], [model])
            joint[name] = [model.param_names[b.comps] for b in state.blocks
                           if b.chol is not None]
        assert joint.pop("survival-exponential") == [("b0", "b1")]
        assert joint.pop("censored-normal-glm") == [("intercept", "beta0", "beta1", "sigma")]
        assert all(blocks == [] for blocks in joint.values())

    STEP_KINDS = {
        "survival-exponential": [("joint", "b0")],
        "A": [("group", "p_pool")],
        "B": [("levels", "p_class0")],
        "C": [("hyper", "mu"), ("hyper", "spread"), ("levels", "p_drug0")],
        **{v: [("group", "mu"), ("hyper", "sigma"), ("levels", "delta_drug0")] for v in "DEF"},
        "G": [("levels", "p_study0")],
        "censored-normal-glm": [("joint", "intercept")],
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_each_block_is_built_as_its_step_kind(self, name):
        """Levels are a level step, a component in ``level_reads`` a hyper
        step (a group step that reaches no row), and the other components
        one group step, joint when they are two or more.  Each step
        re-scores the prior terms that read its components, and maps to the
        natural scale only those off the real line (the GLM's intercept,
        beta0 and beta1 are not mapped), with one map when they share it."""
        model, data = _entry_case(name)
        state = _ChainBatch(model, data, LikelihoodMode.EXACT, [np.random.default_rng(1)],
                            [model])
        got = []
        for step in state.blocks:
            kind = ("levels" if type(step) is mcmc._LevelStep
                    else "group" if step.cols is not None else "hyper")
            comps = list(range(len(model.params)))[step.comps]
            got.append(("joint" if step.chol is not None else kind, model.param_names[comps[0]]))
            assert (step.cols is None) == (kind == "hyper")
            assert (step.owner is not None) == (kind == "levels")
            assert [k for k, _ in step.terms] == [
                k for k, term in enumerate(model.prior_terms) if set(term.reads) & set(comps)]
            assert [j for _, j, _, _ in step.maps] == [
                j for j in comps if model.supports[j] != "real"]
            assert step.whole == (len({model.supports[j] for j in comps}) == 1
                                  and bool(step.maps))
        assert got == self.STEP_KINDS[name]


def _glm_log_posterior(data, intercept, slope, log_sigma):
    """Exact log posterior density of the one-covariate GLM on (intercept,
    slope, log sigma), with scipy's normal kernels: Normal(0, 100)
    coefficient priors, a half-Cauchy(1) prior on sigma and its log
    Jacobian.  The grids broadcast against each other."""
    cols = data.columns
    sigma = np.exp(log_sigma)
    mean = intercept[..., None] + slope[..., None] * cols.covariates[:, 0]
    sd = sigma[..., None]
    lo = (cols.lo - mean) / sd
    hi = (cols.hi - mean) / sd
    with np.errstate(divide="ignore"):  # far out on the grid an interval has no mass
        interval = np.log(stats.norm.cdf(hi) - stats.norm.cdf(lo))
    rows = np.where(cols.kind == KIND_OBSERVED, stats.norm.logpdf(cols.value, mean, sd),
                    np.where(np.isinf(cols.lo), stats.norm.logcdf(hi),
                             np.where(np.isinf(cols.hi), stats.norm.logsf(lo), interval)))
    prior = (stats.norm.logpdf(intercept, 0.0, 10.0) + stats.norm.logpdf(slope, 0.0, 10.0)
             + stats.halfcauchy.logpdf(sigma) + log_sigma)
    return rows.sum(axis=-1) + prior


def _grid_means(log_density, axes):
    """Posterior means of each axis's natural value under ``log_density``
    on the product grid of ``axes`` (value grid, natural map); asserts the
    grid's faces hold no visible mass."""
    grids = np.meshgrid(*(grid for grid, _ in axes), indexing="ij")
    # One slice of the first axis at a time keeps the (grid, rows) terms small.
    log_w = np.array([log_density(*(g[i] for g in grids)) for i in range(len(axes[0][0]))])
    w = np.exp(log_w - log_w.max())
    for axis in range(len(axes)):
        for face in (0, -1):
            assert np.take(w, face, axis=axis).max() < 1e-6
    return [float((w * to_nat(g)).sum() / w.sum()) for g, (_, to_nat) in zip(grids, axes)]


def _box(trace, to_working, points):
    """A grid over ``trace``'s working-scale mean +- 12 sds."""
    x = to_working(trace)
    return np.linspace(x.mean() - 12 * x.std(), x.mean() + 12 * x.std(), points)


class TestJointBlock:
    """The components beside the levels that reach the rows move as one
    adaptive-Metropolis block: their posterior means agree with quadrature
    of the exact log posterior, and the proposal factor is frozen after
    burn-in."""

    def test_glm_posterior_means_match_quadrature(self):
        data = tobit_dataset(20, slopes=(0.8,))
        assert set(data.columns.kind.tolist()) == {0, 1, 2, 3}
        model = Model(MODELS["censored-normal-glm"], data)
        assert model.param_names == ("intercept", "beta0", "sigma")
        samples = run_one(model, data, LikelihoodMode.EXACT,
                          ChainConfig(n_chains=3, burn_in=2000, n_keep=10000, seed=606))
        names = model.param_names
        axes = [(_box(samples.param(n), f, 61), g) for n, f, g in zip(
            names, (lambda v: v, lambda v: v, np.log), (lambda x: x, lambda x: x, np.exp))]
        oracle = _grid_means(lambda a, b, u: _glm_log_posterior(data, a, b, u), axes)
        for name, want in zip(names, oracle):
            trace = samples.param(name)
            assert abs(trace.mean() - want) < 5 * mcse(trace), (name, trace.mean(), want)

    def test_survival_posterior_means_match_quadrature(self, aml, survival_runs):
        """b0 and b1 of the criteria's exact run against a 2-D quadrature:
        Exponential(exp(b0 + b1 * group)) rows, observed or right-censored,
        Normal(0, 100) priors."""
        exact, _ = survival_runs
        cols = aml.columns
        observed = cols.kind == KIND_OBSERVED
        time = np.where(observed, cols.value, cols.lo)
        group = cols.covariates[:, 0]

        def log_density(b0, b1):
            log_rate = b0[..., None] + b1[..., None] * group
            rows = np.where(observed, log_rate, 0.0) - np.exp(log_rate) * time
            return (rows.sum(axis=-1) + stats.norm.logpdf(b0, 0.0, 10.0)
                    + stats.norm.logpdf(b1, 0.0, 10.0))

        assert set(cols.kind.tolist()) == {0, 2}
        identity = lambda v: v
        axes = [(_box(exact.param(n), identity, 401), identity) for n in ("b0", "b1")]
        for name, want in zip(("b0", "b1"), _grid_means(log_density, axes)):
            trace = exact.param(name)
            assert abs(trace.mean() - want) < 5 * mcse(trace), (name, trace.mean(), want)

    @pytest.mark.parametrize("adapt_round, gain", [(1, 0.5), (4, 0.5), (9, 1 / 3), (400, 0.05)])
    def test_factor_blends_the_window_covariance_by_the_gain(self, adapt_round, gain):
        """The window's covariance moves the current one by the gain of the
        scale adaptation, min(0.5, round^(-1/2))."""
        rng = np.random.default_rng(4)
        points = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.5], [0.0, 0.2]])
        chol = np.array([[1.0, 0.0], [0.3, 0.8]])
        got = mcmc._proposal_factor(chol, points.sum(axis=0), points.T @ points, 50,
                                    adapt_round)
        scale = 2.38 ** 2 / 2
        want = (gain * scale * np.cov(points.T, bias=True) + (1 - gain) * chol @ chol.T)
        np.testing.assert_allclose(got @ got.T, want, rtol=1e-10)
        assert np.array_equal(got, np.tril(got)) and (np.diag(got) > 0).all()

    def test_a_chain_that_never_moves_keeps_its_factor(self, monkeypatch):
        """Chain 1's normals and t draws in every draw chunk put every
        proposal far out of reach, so it rejects every step: its factor
        stays the identity while chain 0's is learned."""
        draw_chunk = _ChainBatch._draw_chunk

        def stuck(self, sweep, config):
            draw_chunk(self, sweep, config)
            self.normals[1], self.t[1], self.uniforms[1] = 1e3, 1e3, math.log(0.5)

        monkeypatch.setattr(_ChainBatch, "_draw_chunk", stuck)
        model, data, mode = _batch_case("survival-exact")
        state = _ChainBatch(model, data, mode, [np.random.default_rng(s) for s in (3, 4)],
                            [model] * 2)
        config = ChainConfig(n_chains=2, burn_in=60, n_keep=10, adapt_window=20)
        kept = mcmc._kept_arrays(ChainBatch((config,)), state.n_params)
        with np.errstate(all="ignore"):
            state.initialize()
            rates = state.sample(config, *kept)
        (joint,) = [b for b in state.blocks if b.chol is not None]
        assert np.array_equal(joint.chol[1], np.eye(2))
        assert not np.array_equal(joint.chol[0], np.eye(2))
        assert rates[1].tolist() == [0.0, 0.0] and rates[0].min() > 0.0

    @pytest.mark.parametrize("case", ["survival-exact", "glm"])
    def test_factor_is_frozen_after_burn_in(self, monkeypatch, case):
        """Each chain's factor is learned at the burn-in's window ends and
        the kept sweeps all propose with the one it had then; every other
        kept sweep takes the independence step, from one proposal built
        once, at the first of them."""
        model, data, mode = _batch_case(case)
        factors, proposals = [], []
        update = mcmc._GroupStep.update

        def recording(self, state, scales, proposal=None):
            if self.chol is not None:
                factors.append(self.chol.copy())
                proposals.append(proposal)
            return update(self, state, scales, proposal)

        monkeypatch.setattr(mcmc._GroupStep, "update", recording)
        config = ChainConfig(n_chains=2, burn_in=60, n_keep=40, adapt_window=20, seed=8)
        run_one(model, data, mode, config)
        assert len(factors) == config.total_iterations
        start, end_of_burn_in, last = factors[0], factors[config.burn_in], factors[-1]
        assert np.array_equal(start, np.tile(np.eye(start.shape[-1]), (2, 1, 1)))
        assert not np.array_equal(end_of_burn_in[0], start[0])
        assert not np.array_equal(end_of_burn_in[1], start[1])
        assert np.array_equal(factors[config.burn_in - 1], factors[config.burn_in - 20])
        for kept in factors[config.burn_in:]:
            assert np.array_equal(kept, end_of_burn_in)
        assert np.array_equal(last, end_of_burn_in)
        independent = proposals[config.burn_in + 1::2]
        assert proposals[:config.burn_in + 1] == [None] * (config.burn_in + 1)
        assert proposals[config.burn_in::2] == [None] * (config.n_keep // 2)
        assert all(p is independent[0] for p in independent)
        center, factor, inverse = independent[0]
        np.testing.assert_allclose(factor @ inverse, np.tile(np.eye(factor.shape[-1]), (2, 1, 1)),
                                   atol=1e-12)


def _entry_case(name: str):
    """(model, data) of a table entry on a dataset it fits."""
    spec = MODELS[name]
    if spec.section == "censored-binomial":
        data = synthetic_ae_dataset(seed=11)
    else:
        data = aml_dataset() if spec.family is Exponential else tobit_dataset()
    return Model(spec, data), data


def _ae_regions_dataset():
    """The synthetic AE rows with their counts censored in turn: observed,
    left of 3 and [2, 4] (regions of at most 5 counts), right of 4 and
    [1, 40] (regions over 16 counts wide)."""
    cols = synthetic_ae_dataset(seed=11).columns
    specs = (("none", 2.0), ("left", 3.0), ("right", 4.0), ("interval", 1.0, 40.0),
             ("interval", 2.0, 4.0))
    return make_dataset([specs[i % len(specs)] for i in range(len(cols))],
                        covariates=cols.covariates, names=cols.names,
                        trials=cols.trials.tolist())


class TestLatentRefresh:
    """The refresh draws through the class kernels on the censored block the
    bytes ``sample_truncated`` draws from the same regions, parameters and
    uniforms, for every censor kind of every family."""

    CASES = {
        "exponential": lambda: (MODELS["survival-exponential"],
                                _four_kind_survival_dataset()),
        "normal": lambda: (MODELS["censored-normal-glm"], tobit_dataset()),
        "binomial": lambda: (MODELS["A"], _ae_regions_dataset()),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refresh_draws_as_sample_truncated(self, case):
        spec, data = self.CASES[case]()
        model = Model(spec, data)
        seeds = (3, 4, 5)
        state = _ChainBatch(model, data, LikelihoodMode.DINTERVAL,
                            [np.random.default_rng(s) for s in seeds], [model] * len(seeds))
        block, rows = state.censored_block, state.censored_rows
        assert set(block.kind.tolist()) == {1, 2, 3} and (data.columns.kind == 0).any()
        if case == "binomial":
            width = np.minimum(block.hi, block.trials) - np.maximum(block.lo, 0.0)
            assert (width <= 5).any() and (width > 16).any()
        x = np.random.default_rng(9).normal(0.0, 0.3, state.x.shape)
        state.v[:] = to_natural(x, model.supports)
        # Each chain's uniforms of its censored rows in the chunk's row 1,
        # as many as ``sample_truncated`` takes from the generator; NaN
        # elsewhere, so a latent drawn from any other cell would be NaN.
        state.uniforms[:] = np.nan
        state.at = 1
        for c, seed in enumerate(seeds):
            state.uniforms[c, 1, state.n_params:] = np.random.default_rng(seed).random(len(rows))
        with np.errstate(all="ignore"):
            state.refresh_latents(0)
            params = state._row_params(state.v, block)
            chain_params = [[p[c] if np.ndim(p) > 1 else p for p in params]
                            for c in range(len(seeds))]
            latents = np.array([model.family(*p).sample_truncated(
                block.lo, block.hi, np.random.default_rng(s)) for p, s in zip(chain_params, seeds)])
            log_mass = np.array([model.family(*p).log_interval_prob(block.lo, block.hi)
                                 for p in chain_params])
            log_pdf = np.array([model.family(*p).log_pdf(y)
                                for p, y in zip(chain_params, latents)])
        assert state.values[:, rows].tobytes() == latents[:, 0].tobytes()
        assert state.contribs[:, rows].tobytes() == log_pdf[:, 0].tobytes()
        assert state.censored_log_mass.tobytes() == log_mass[:, 0].tobytes()


class TestPriorTermCache:
    """The sampler keeps every chain's prior term values and re-scores only
    the terms a block reads; after any number of sweeps the cache must
    still be the terms of the current state."""

    @pytest.mark.parametrize("name,mode", [
        *[(name, LikelihoodMode.EXACT) for name in MODELS],
        ("survival-exponential", LikelihoodMode.DINTERVAL),
    ])
    def test_cached_terms_equal_a_fresh_evaluation(self, name, mode):
        model, data = _entry_case(name)
        state = _ChainBatch(model, data, mode, [np.random.default_rng(s) for s in (5, 6)],
                            [model] * 2)
        config = ChainConfig(n_chains=2, burn_in=30, n_keep=20, adapt_window=10)
        kept = mcmc._kept_arrays(ChainBatch((config,)), state.n_params)
        with np.errstate(all="ignore"):
            state.initialize()
            start = state.v.copy()
            state.sample(config, *kept)
        assert (state.v != start).any(axis=1).all()
        fresh = np.array([term.log_density(state.v) for term in model.prior_terms])
        assert np.array_equal(state.terms, fresh.T.reshape(state.terms.shape))
        total = state.terms.sum(axis=1)
        if model.levels:
            assert np.array_equal(state.level_terms, model.level_log_prior(state.v))
            total = total + state.level_terms.sum(axis=1)
        np.testing.assert_allclose(total, model.log_prior(state.v), rtol=1e-12)


def _manual_samples(values, n_chains=1):
    values = np.asarray(values, dtype=float)
    n_keep = values.shape[0] // n_chains
    config = ChainConfig(n_chains=n_chains, burn_in=0, n_keep=n_keep, seed=0)
    return PosteriorSamples(
        param_names=("x",),
        draws=values.reshape(-1, 1),
        deviance_trace=np.zeros(values.shape[0]),
        exact_deviance_trace=np.zeros(values.shape[0]),
        chain_ids=np.repeat(np.arange(n_chains), n_keep),
        acceptance_rates=np.full((n_chains, 1), 0.44),
        mode=LikelihoodMode.EXACT,
        config=config,
    )


class TestSummaries:
    def test_constant_trace_sd_zero_rhat_nan(self):
        samples = _manual_samples(np.full(40, 2.5), n_chains=2)
        (s,) = summarize(samples)
        assert s.sd == 0.0
        assert math.isnan(s.rhat)

    def test_median_of_symmetric_trace_near_mean(self):
        rng = np.random.default_rng(0)
        samples = _manual_samples(rng.standard_normal(20000))
        (s,) = summarize(samples)
        assert abs(s.q500 - s.mean) < 0.03
        assert s.q025 < s.q500 < s.q975

    def test_rhat_two_chains_same_target(self):
        rng = np.random.default_rng(1)
        samples = _manual_samples(rng.standard_normal(8000), n_chains=2)
        (s,) = summarize(samples)
        assert s.rhat < 1.1

    def test_split_rhat_detects_drift(self):
        chain0 = np.zeros(1000)
        chain1 = np.full(1000, 5.0)
        assert split_rhat(np.vstack([chain0 + 1e-3 * np.arange(1000),
                                     chain1 + 1e-3 * np.arange(1000)])) > 1.5

    def test_mcse_scales_like_iid(self):
        rng = np.random.default_rng(2)
        trace = rng.standard_normal(40000)
        est = mcse(trace)
        assert est == pytest.approx(1.0 / math.sqrt(40000), rel=0.3)


def _kde_bandwidth(trace, bandwidth_rule):
    if not isinstance(bandwidth_rule, str):
        return float(bandwidth_rule)
    sd = float(trace.std(ddof=1))
    iqr = float(np.subtract(*np.percentile(trace, [75, 25])))
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    factor = {"scott": 1.06, "silverman": 0.9}[bandwidth_rule]
    return factor * spread * trace.size ** -0.2


def _full_matrix_density(trace, grid_size=512, bandwidth_rule="scott"):
    """Oracle: the Gaussian KDE summed over the whole grid-by-draws matrix."""
    trace = np.asarray(trace, dtype=float)
    h = _kde_bandwidth(trace, bandwidth_rule)
    grid = np.linspace(trace.min() - 3.0 * h, trace.max() + 3.0 * h, grid_size)
    density = np.empty(grid_size)
    norm = 1.0 / (trace.size * h * math.sqrt(2.0 * math.pi))
    chunk = max(1, int(2_000_000 // max(trace.size, 1)))
    for start in range(0, grid_size, chunk):
        g = grid[start : start + chunk, None]
        z = (g - trace[None, :]) / h
        density[start : start + chunk] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return grid, density


def _kde_trace(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return 1.5 + 0.3 * rng.standard_normal(n)
    if kind == "cauchy":
        return rng.standard_cauchy(n)
    if kind == "ties":
        trace = rng.poisson(2.0, n).astype(float)
    else:
        trace = rng.choice([-4.0, 11.0], n)
    trace[:2] = [0.0, 3.0] if kind == "ties" else [-4.0, 11.0]  # never zero variance
    return trace


class TestExportDensity:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @example(kind="cauchy", n=50_000, grid_size=700, rule="scott", seed=1)
    @given(kind=st.sampled_from(["normal", "cauchy", "ties", "two-point"]),
           n=st.one_of(st.integers(2, 2000), st.integers(2, 50000)),
           grid_size=st.integers(2, 700),
           rule=st.one_of(st.sampled_from(["scott", "silverman"]),
                          st.floats(1e-3, 10.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_windowed_sum_matches_full_matrix(self, kind, n, grid_size, rule, seed):
        """Only the summation order differs from the full kernel matrix."""
        trace = _kde_trace(kind, n, seed)
        grid, density = export_density(trace, grid_size=grid_size, bandwidth_rule=rule)
        grid_ref, density_ref = _full_matrix_density(trace, grid_size, rule)
        assert np.array_equal(grid, grid_ref)
        np.testing.assert_allclose(density, density_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["normal", "two-point"])
    def test_chunks_smaller_than_a_window(self, monkeypatch, kind):
        """Rows longer than the chunk budget and chunks of empty rows alone."""
        monkeypatch.setattr(mcmc, "_KDE_CHUNK", 7)
        trace = _kde_trace(kind, 300, 10)
        grid, density = export_density(trace, grid_size=90, bandwidth_rule=0.05)
        grid_ref, density_ref = _full_matrix_density(trace, 90, 0.05)
        assert np.array_equal(grid, grid_ref)
        np.testing.assert_allclose(density, density_ref, rtol=1e-12, atol=0.0)
        if kind == "two-point":
            assert (density == 0.0).sum() > 60

    @settings(max_examples=40, derandomize=True, deadline=None)
    @example(kind="cauchy", n=50_000, grid_size=64, rule="scott", seed=1)
    @example(kind="normal", n=50_000, grid_size=64, rule=1e-3, seed=2)
    @example(kind="two-point", n=2, grid_size=64, rule=10.0, seed=3)
    @given(kind=st.sampled_from(["normal", "cauchy", "ties", "two-point"]),
           n=st.one_of(st.integers(2, 2000), st.integers(2, 50000)),
           grid_size=st.integers(2, 64),
           rule=st.sampled_from([1e-3, "scott", 10.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_left_out_terms_total_under_eps_of_the_kept(self, kind, n, grid_size, rule, seed):
        """At every grid point the kernel terms outside the window sum to at
        most 2^-52 of those inside it, both summed exactly."""
        trace = _kde_trace(kind, n, seed)
        h = _kde_bandwidth(trace, rule)
        xs = np.sort(trace)
        grid = np.linspace(xs[0] - 3.0 * h, xs[-1] + 3.0 * h, grid_size)
        lo, hi = mcmc._kde_windows(xs, grid, h)
        with np.errstate(over="ignore"):
            for g, first, stop in zip(grid, lo, hi):
                z = (g - xs) / h
                terms = np.exp(z * z * -0.5)
                left = np.concatenate([terms[:first], terms[stop:]])
                kept = math.fsum(terms[first:stop])
                assert math.ldexp(math.fsum(left[left > 0.0]), 52) <= kept, (g, first, stop)

    def test_windows_hold_under_a_third_of_the_fixed_reach_terms(self):
        xs = np.sort(np.random.default_rng(11).standard_normal(40_000))
        h = _kde_bandwidth(xs, "scott")
        grid = np.linspace(xs[0] - 3.0 * h, xs[-1] + 3.0 * h, 400)
        lo, hi = mcmc._kde_windows(xs, grid, h)
        fixed = (np.searchsorted(xs, grid + mcmc._KDE_REACH * h, side="right")
                 - np.searchsorted(xs, grid - mcmc._KDE_REACH * h, side="left"))
        assert 3 * (hi - lo).sum() <= fixed.sum()

    def test_memory_stays_flat_in_the_trace_length(self):
        trace = np.random.default_rng(9).standard_normal(100_000)
        tracemalloc.start()
        try:
            export_density(trace, grid_size=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_window_reach_bounds_the_nonzero_kernel_terms(self):
        reach = mcmc._KDE_REACH
        assert np.exp(-0.5 * np.float64(reach) ** 2) == 0.0
        assert np.exp(-0.5 * np.float64(38.6) ** 2) > 0.0

    def test_standard_normal_peak(self):
        rng = np.random.default_rng(3)
        grid, density = export_density(rng.standard_normal(30000))
        peak = density.max()
        assert abs(peak - 0.3989) < 0.04
        assert abs(grid[np.argmax(density)]) < 0.1

    def test_trapezoid_integral_close_to_one(self):
        rng = np.random.default_rng(4)
        for spread in (1.0, 12.0):
            grid, density = export_density(spread * rng.standard_normal(5000))
            integral = np.trapezoid(density, grid)
            assert abs(integral - 1.0) < 1e-3

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        trace = rng.standard_normal(4000)
        grid0, dens0 = export_density(trace)
        grid1, dens1 = export_density(trace + 7.0)
        np.testing.assert_allclose(grid1 - grid0, 7.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dens1, dens0, rtol=1e-9, atol=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateDensityError):
            export_density(np.full(100, 3.0))

    def test_empty_trace_raises(self):
        with pytest.raises(DataError):
            export_density(np.array([]))

    def test_grid_strictly_increasing_density_nonnegative(self):
        rng = np.random.default_rng(6)
        grid, density = export_density(rng.exponential(size=2000), grid_size=256)
        assert (np.diff(grid) > 0).all()
        assert (density >= 0).all()

    def test_silverman_and_fixed_bandwidth(self):
        rng = np.random.default_rng(7)
        trace = rng.standard_normal(2000)
        for rule in ("silverman", 0.25):
            grid, density = export_density(trace, bandwidth_rule=rule)
            assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_rule_raises(self):
        with pytest.raises(DataError):
            export_density(np.arange(10.0), bandwidth_rule="plugin")
