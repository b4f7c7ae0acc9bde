"""Sampler tests: conjugate oracles, determinism, adaptation, deviance
monitors, latent imputation, summaries and density export."""

import copy
import math

import numpy as np
import pytest
from scipy import integrate, stats

from censdev import ChainConfig, LikelihoodMode, run
from censdev.datasets import synthetic_ae_dataset
from censdev.distributions import Binomial, Normal
from censdev.exceptions import (
    DataError,
    DegenerateDensityError,
    InitializationError,
    SchemaError,
)
from censdev.likelihood import (
    CensoredDataset,
    Observation,
    Observed,
    censoring_region,
    deviance,
    loglik_dinterval_style,
    loglik_exact,
)
from censdev.mcmc import (
    PosteriorSamples,
    _ChainState,
    adapt_step_sizes,
    export_density,
    mcse,
    split_rhat,
    summarize,
)
from censdev.models import (
    Model,
    Param,
    PooledBinomialModel,
    SaturatedBinomialModel,
    ae_model,
    outcome_families,
)
from conftest import single_binomial_dataset


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
        total = sum(o.outcome.value for o in data)
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
        model = PooledBinomialModel()
        config = ChainConfig(n_chains=2, burn_in=200, n_keep=300, seed=77)
        a = run(model, data, LikelihoodMode.EXACT, config)
        b = run(model, data, LikelihoodMode.EXACT, config)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.deviance_trace, b.deviance_trace)
        assert np.array_equal(a.acceptance_rates, b.acceptance_rates)

    def test_different_seed_differs(self):
        data = single_binomial_dataset()
        model = PooledBinomialModel()
        a = run(model, data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=1))
        b = run(model, data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=100, n_keep=200, seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_thinning_geometry(self):
        data = single_binomial_dataset()
        model = PooledBinomialModel()
        config = ChainConfig(n_chains=2, burn_in=50, n_keep=40, thin=5, seed=9)
        samples = run(model, data, LikelihoodMode.EXACT, config)
        assert samples.draws.shape == (80, 1)
        assert config.total_iterations == 50 + 40 * 5


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
            lo, hi = censoring_region(aml.observations[row].outcome)
            col = dint.latent_trace[:, k]
            assert (col >= lo).all() and (col <= hi).all()

    def test_exact_mode_has_no_latent_trace(self, survival_runs):
        exact, _ = survival_runs
        assert exact.latent_trace is None


class _HopelessModel(Model):
    """Prior is -inf everywhere; initialization must give up cleanly."""

    family = Normal

    def __init__(self):
        self.params = (Param("x", "real"),)

    def log_prior(self, theta):
        return -math.inf

    def row_params(self, theta, cols):
        raise AssertionError("never reached")


class TestInitialization:
    def test_initialization_error_after_retries(self):
        data = CensoredDataset((Observation(Observed(1.0)),))
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

    def uniform(self, size=None):
        return self._take(self.uniforms, size)


class _SharedLevels(Model):
    """Two levels that both reach every row: not a valid block."""

    family = Binomial
    levels = (0, 1)

    def __init__(self):
        self.params = (Param("p0", "unit"), Param("p1", "unit"))

    def log_prior(self, theta):
        return 0.0

    def level_log_prior(self, theta):
        return np.zeros(2)

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
        model = ae_model(variant, n_drugs=5, n_studies=len(ae))
        state = _ChainState(model, ae, LikelihoodMode.EXACT, np.random.default_rng(3))
        state.initialize()
        (block,) = [b for b in state.blocks if b.owner is not None]
        levels = model.levels
        rng = np.random.default_rng(21)
        z = rng.standard_normal(len(levels))
        u = rng.uniform(size=len(levels))
        scales = rng.uniform(0.2, 1.5, size=len(model.params))

        blocked = copy.deepcopy(state)
        blocked.rng = _Feed(z, u)
        accept = blocked.update_block(block, scales[block.comps])

        single = copy.deepcopy(state)
        decisions = []
        for k, j in enumerate(levels):
            single.rng = _Feed([z[k]], [u[k]])
            decisions.append(bool(single.update_block(single._single_block(j, ae), scales[j])))

        assert accept.tolist() == decisions
        assert 0 < sum(decisions) < len(levels)
        for name in ("x", "v", "jac", "contribs"):
            np.testing.assert_allclose(
                getattr(blocked, name), getattr(single, name), rtol=1e-12, err_msg=name
            )
        assert blocked.log_prior == pytest.approx(single.log_prior, rel=1e-12)

    def test_saturated_posterior_means_match_closed_form(self, ae):
        """G's study incidences against Beta(1+y, 1+n-y) on observed rows and
        the quadrature of Beta(1,1) x P(region) on censored rows."""
        model = SaturatedBinomialModel(n_studies=len(ae))
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
        data = CensoredDataset((Observation(Observed(3.0), trials=10),))
        with pytest.raises(SchemaError):
            run(_SharedLevels(), data, LikelihoodMode.EXACT,
                ChainConfig(n_chains=1, burn_in=1, n_keep=1, seed=0))


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


class TestExportDensity:
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
