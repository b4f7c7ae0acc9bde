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
from censdev.datasets import synthetic_ae_dataset
from censdev.distributions import Binomial, Exponential, Normal
from censdev.exceptions import (
    DataError,
    DegenerateDensityError,
    DegenerateRegionError,
    InitializationError,
    NumericError,
    SchemaError,
)
from censdev.likelihood import deviance
from censdev.mcmc import (
    ChainBatch,
    PosteriorSamples,
    _ChainBatch,
    adapt_step_sizes,
    export_density,
    mcse,
    split_rhat,
    summarize,
)
from censdev.models import MODELS, Model, Param
from censdev.selection import make_selection_report
from conftest import DuckModel, make_dataset, single_binomial_dataset, tobit_dataset
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
        chains = [samples.chain(c)[:, 0] for c in range(samples.n_chains)]
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
        a = run(model, data, LikelihoodMode.EXACT, config)
        b = run(model, data, LikelihoodMode.EXACT, config)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.deviance_trace, b.deviance_trace)
        assert np.array_equal(a.acceptance_rates, b.acceptance_rates)

    def test_different_seed_differs(self):
        data = single_binomial_dataset()
        model = Model(MODELS["A"], data)
        a = run(model, data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=1))
        b = run(model, data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_thinning_geometry(self):
        data = single_binomial_dataset()
        model = Model(MODELS["A"], data)
        config = ChainConfig(n_chains=2, burn_in=50, n_keep=40, thin=5, seed=9)
        samples = run(model, data, LikelihoodMode.EXACT, config)
        assert samples.draws.shape == (80, 1)
        assert config.total_iterations == 50 + 40 * 5


def _batch_case(name):
    """(model, data, mode) of one batching case."""
    if name.startswith("survival"):
        mode = LikelihoodMode.DINTERVAL if name.endswith("dinterval") else LikelihoodMode.EXACT
        aml = aml_dataset()
        return Model(MODELS["survival-exponential"], aml), aml, mode
    if name == "glm":
        tobit = tobit_dataset()
        return Model(MODELS["censored-normal-glm"], tobit), tobit, LikelihoodMode.EXACT
    ae = synthetic_ae_dataset(seed=11)
    return Model(MODELS[name[-1]], ae), ae, LikelihoodMode.EXACT


class TestBatching:
    """Chains of a batch advance as one array state but never interact: each
    owns its generator, so a batch of configs reproduces the configs run
    one by one, bit for bit."""

    GEOMETRY = {"burn_in": 60, "n_keep": 40, "adapt_window": 20}

    @pytest.mark.parametrize(
        "case", ["survival-exact", "survival-dinterval", "glm", "ae-D", "ae-G"]
    )
    def test_batch_equals_separate_runs(self, case):
        model, data, mode = _batch_case(case)
        configs = [ChainConfig(n_chains=2, seed=31, **self.GEOMETRY),
                   ChainConfig(n_chains=1, seed=32, **self.GEOMETRY)]
        batched = run(model, data, mode, ChainBatch(tuple(configs)))
        for alone, together in zip([run(model, data, mode, c) for c in configs], batched):
            for field in ("draws", "deviance_trace", "acceptance_rates", "chain_ids"):
                assert np.array_equal(getattr(alone, field), getattr(together, field)), field
            if mode is LikelihoodMode.DINTERVAL:
                assert np.array_equal(alone.latent_trace, together.latent_trace)
                assert alone.latent_rows == together.latent_rows
            else:
                assert alone.latent_trace is together.latent_trace is None

    def test_batch_geometry_counts_every_chain(self):
        configs = (ChainConfig(n_chains=2, seed=31, **self.GEOMETRY),
                   ChainConfig(n_chains=1, seed=32, **self.GEOMETRY))
        batch = ChainBatch(configs)
        assert batch.n_chains == 3
        assert batch.total_iterations == configs[0].total_iterations

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_cli_samples_both_replicate_runs_in_one_run_call(
        self, monkeypatch, tmp_path, command
    ):
        """Fit and compare sample through ``run``, one call per model over
        runs A and B."""
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
        else:
            config["models"] = [
                {"label": label, "family": "survival-exponential",
                 "hyperparameters": {"tau0": tau0}}
                for label, tau0 in (("wide", 1e-4), ("narrow", 1e-2))
            ]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 0
        assert len(calls) == (1 if command == "fit" else 2)
        for batch in calls:
            assert isinstance(batch, ChainBatch) and len(batch.configs) == 2
            assert batch.n_chains == 4

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

    def test_failing_initialization_raises_initialization_error(self):
        data = make_dataset([("none", 1.0)])
        configs = tuple(ChainConfig(n_chains=2, burn_in=5, n_keep=5, seed=s) for s in (1, 2))
        with pytest.raises(InitializationError):
            run(_HopelessModel(), data, LikelihoodMode.EXACT, ChainBatch(configs))

    def test_failing_latent_refresh_surfaces_as_numeric_error(self, monkeypatch, aml):
        _degenerate_after(monkeypatch, 40)
        configs = tuple(ChainConfig(n_chains=2, burn_in=20, n_keep=20, seed=s) for s in (1, 2))
        with pytest.raises(NumericError, match="degenerate censoring region"):
            run(Model(MODELS["survival-exponential"], aml), aml, LikelihoodMode.DINTERVAL,
                ChainBatch(configs))

    @pytest.mark.parametrize("failure", ["initialization", "latent-refresh"])
    def test_cli_exit_code_for_numeric_failures(self, monkeypatch, tmp_path, capsys, failure):
        if failure == "initialization":
            monkeypatch.setattr(Model, "log_prior",
                                lambda self, theta: np.full(len(theta), -math.inf))
        else:
            _degenerate_after(monkeypatch, 40)
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


def _degenerate_after(monkeypatch, n_draws):
    """Make every truncated Exponential draw after the first ``n_draws``
    find its region degenerate."""
    draws = itertools.count()
    original = Exponential.sample_truncated

    def sample_truncated(self, lower, upper, rng):
        if next(draws) >= n_draws:
            raise DegenerateRegionError("forced")
        return original(self, lower, upper, rng)

    monkeypatch.setattr(Exponential, "sample_truncated", sample_truncated)


def _four_kind_survival_dataset():
    """Survival rows of every censor kind; the interval from 0 and the
    left-censored row take the exponential kernels through log(0)."""
    rows = [(("none", 2.0), 0.0), (("none", 0.7), 1.0), (("left", 1.0), 0.0),
            (("right", 5.0), 1.0), (("interval", 0.0, 3.0), 0.0),
            (("interval", 1.0, 4.0), 1.0), (("none", 3.5), 1.0)]
    return make_dataset([o for o, _ in rows], covariates=[(g,) for _, g in rows],
                        names=("group",))


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
            run(model, data, LikelihoodMode.DINTERVAL, configs[0])

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
                                                       survival_runs):
        _, dint = survival_runs
        idx = np.linspace(0, dint.draws.shape[0] - 1, 500).astype(int)
        for i in idx:
            theta = dint.draws[i]
            latents = dict(zip(dint.latent_rows, dint.latent_trace[i]))
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
    def test_every_kept_latent_in_its_region(self, aml, survival_runs):
        _, dint = survival_runs
        for k, row in enumerate(dint.latent_rows):
            lo, hi = aml.columns.lo[row], aml.columns.hi[row]
            col = dint.latent_trace[:, k]
            assert (col >= lo).all() and (col <= hi).all()

    def test_exact_mode_has_no_latent_trace(self, survival_runs):
        exact, _ = survival_runs
        assert exact.latent_trace is None


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
    def test_initialization_error_after_retries(self):
        data = make_dataset([("none", 1.0)])
        with pytest.raises(InitializationError):
            run(_HopelessModel(), data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=10, n_keep=10, seed=0))


class _Feed:
    """Stand-in generator that hands out preset normals and uniforms."""

    def __init__(self, normals, uniforms):
        self.normals = list(normals)
        self.uniforms = list(uniforms)

    @staticmethod
    def _take(pool, size):
        if size is None:
            return pool.pop(0)
        drawn, pool[:size] = np.array(pool[:size]), []
        return drawn

    def standard_normal(self, size=None):
        return self._take(self.normals, size)

    def random(self, size=None):
        return self._take(self.uniforms, size)


class _SharedLevels(DuckModel):
    """Two levels that both reach every row: not a valid block."""

    family = Binomial
    label = "shared-levels"
    levels = (0, 1)
    prior_terms = ()

    def __init__(self):
        self.params = (Param("p0", "unit"), Param("p1", "unit"))

    def log_prior(self, theta):
        return np.zeros(self.check_theta(theta).shape[:-1])

    def level_log_prior(self, theta):
        return np.zeros(np.shape(theta))

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        return cols.positive_trials(), theta[..., 0:1] * theta[..., 1:2]


class TestLevelBlocks:
    @pytest.fixture(scope="class")
    def ae(self):
        return synthetic_ae_dataset(seed=11)

    @pytest.mark.parametrize("variant", ["D", "G"])
    def test_block_step_equals_single_site_steps(self, ae, variant):
        """One blocked step and the level-by-level single-site steps, fed the
        same increments and uniforms, take the same decisions and states."""
        model = Model(MODELS[variant], ae)
        state = _ChainBatch(model, ae, LikelihoodMode.EXACT, [np.random.default_rng(3)])
        state.initialize()
        (block,) = [b for b in state.blocks if b.owner is not None]
        levels = model.levels
        rng = np.random.default_rng(21)
        z = rng.standard_normal(len(levels))
        u = rng.uniform(size=len(levels))
        scales = rng.uniform(0.2, 1.5, size=len(model.params))

        blocked = copy.deepcopy(state)
        blocked.rngs = [_Feed(z, u)]
        (accept,) = blocked.update_block(block, scales[block.comps])

        single = copy.deepcopy(state)
        decisions = []
        for k, j in enumerate(levels):
            single.rngs = [_Feed([z[k]], [u[k]])]
            (flag,) = single.update_block(single._single_block(j, ae), scales[j])
            decisions.append(bool(flag))

        assert accept.tolist() == decisions
        assert 0 < sum(decisions) < len(levels)
        for name in ("x", "v", "jac", "contribs", "terms", "level_terms"):
            np.testing.assert_allclose(
                getattr(blocked, name), getattr(single, name), rtol=1e-12, err_msg=name
            )

    def test_saturated_posterior_means_match_closed_form(self, ae):
        """G's study incidences against Beta(1+y, 1+n-y) on observed rows and
        the quadrature of Beta(1,1) x P(region) on censored rows."""
        model = Model(MODELS["G"], ae)
        samples = run(model, ae, LikelihoodMode.EXACT,
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

    def test_levels_sharing_a_row_are_rejected(self):
        data = make_dataset([("none", 3.0)], trials=[10])
        with pytest.raises(SchemaError, match="^shared-levels: levels share rows"):
            run(_SharedLevels(), data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=1, n_keep=1, seed=0))

    def test_levels_read_by_another_prior_term_are_rejected(self):
        """A joint term over the levels cannot be split into one change per
        level, so they cannot move as a block."""
        data = make_dataset([("none", 3.0)], trials=[10])
        with pytest.raises(SchemaError, match="^level-reader: a prior term beside the level"):
            run(_LevelReader(), data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=1, n_keep=1, seed=0))


class _LevelReader(_SharedLevels):
    """Levels that the default prior term, which reads every component,
    reads too."""

    label = "level-reader"
    prior_terms = DuckModel.prior_terms


def _entry_case(name: str):
    """(model, data) of a table entry on a dataset it fits."""
    spec = MODELS[name]
    if spec.section == "censored-binomial":
        data = synthetic_ae_dataset(seed=11)
    else:
        data = aml_dataset() if spec.family is Exponential else tobit_dataset()
    return Model(spec, data), data


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
        state = _ChainBatch(model, data, mode, [np.random.default_rng(s) for s in (5, 6)])
        with np.errstate(all="ignore"):
            state.initialize()
            start = state.v.copy()
            state.sample(ChainConfig(n_chains=2, burn_in=30, n_keep=20, adapt_window=10))
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
        supports=("real",),
        draws=values.reshape(-1, 1),
        deviance_trace=np.zeros(values.shape[0]),
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


def _full_matrix_density(trace, grid_size=512, bandwidth_rule="scott"):
    """Oracle: the Gaussian KDE summed over the whole grid-by-draws matrix."""
    trace = np.asarray(trace, dtype=float)
    sd = float(trace.std(ddof=1))
    if isinstance(bandwidth_rule, str):
        iqr = float(np.subtract(*np.percentile(trace, [75, 25])))
        spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
        factor = {"scott": 1.06, "silverman": 0.9}[bandwidth_rule]
        h = factor * spread * trace.size ** -0.2
    else:
        h = float(bandwidth_rule)
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
