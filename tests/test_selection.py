"""Selection-statistics tests: Dbar, the plug-in pD, the paired-run
optimism estimator, report identities and ranking."""

import math

import numpy as np
import pytest

from censdev import ChainConfig, LikelihoodMode, aml_dataset
from censdev.datasets import synthetic_ae_dataset
from censdev.distributions import Normal
from censdev.exceptions import (
    ComparabilityError,
    DataError,
    InsufficientReplicationError,
    PluginError,
)
from censdev.likelihood import deviance, loglik_exact
from censdev.mcmc import PosteriorSamples
from censdev.models import MODELS, Model, Param, to_natural, to_unbounded
from conftest import DuckModel, make_dataset
from oracle import outcome_families, outcome_family
from censdev.selection import (
    SelectionReport,
    compare,
    compute_dbar,
    compute_popt_ped,
    make_selection_report,
    plugin_deviance,
)


def _samples_from_draws(draws, deviances, mode=LikelihoodMode.EXACT, seed=0,
                        param_names=("p_pool",)):
    draws = np.asarray(draws, dtype=float).reshape(len(deviances), -1)
    config = ChainConfig(n_chains=1, burn_in=0, n_keep=len(deviances), seed=seed)
    return PosteriorSamples(
        param_names=param_names,
        draws=draws,
        deviance_trace=np.asarray(deviances, dtype=float),
        exact_deviance_trace=np.asarray(deviances, dtype=float),
        chain_ids=np.zeros(len(deviances), dtype=int),
        acceptance_rates=np.full((1, draws.shape[1]), 0.44),
        mode=mode,
        config=config,
    )


def _report(label, dbar, pd, p_opt, dataset_id="d0"):
    return SelectionReport(
        label=label,
        dbar=dbar,
        pd=pd,
        dic=dbar + pd,
        p_opt=p_opt,
        ped=dbar + p_opt,
        dataset_id=dataset_id,
    )


class TestDbar:
    def test_constant_trace(self):
        assert compute_dbar(np.full(10, 380.85)) == pytest.approx(380.85)

    def test_two_point_trace(self):
        assert compute_dbar(np.array([2.0, 4.0])) == 3.0

    def test_empty_raises(self):
        with pytest.raises(DataError):
            compute_dbar(np.array([]))

    def test_non_finite_raises(self):
        with pytest.raises(DataError):
            compute_dbar(np.array([1.0, math.inf]))


class TestPd:
    """pD is Dbar minus the plug-in deviance at the posterior mean."""

    def test_degenerate_posterior_gives_zero(self):
        """All draws identical: Dbar equals the plug-in deviance exactly."""
        data = make_dataset([("none", 7.0)], trials=[20])
        model = Model(MODELS["A"], data)
        p = 0.35
        dev = deviance(
            sum(
                f.log_pdf(y)
                for f, y in zip(outcome_families(model, [p], data), data.value)
            )
        )
        draws = np.full((50, 1), p)
        trace = np.full(50, dev)
        pd = compute_dbar(trace) - plugin_deviance(model, data, draws)
        assert pd == pytest.approx(0.0, abs=1e-9)

    def test_single_parameter_posterior_pd_near_one(self, conjugate_multirow_runs):
        model, data, samples_a, _ = conjugate_multirow_runs
        pd = compute_dbar(samples_a.deviance_trace) - plugin_deviance(
            model, data, samples_a.draws
        )
        assert 0.7 < pd < 1.3


class _RowParamsModel(DuckModel):
    """One real parameter; ``row_params`` is the given function."""

    family = Normal

    def __init__(self, row_params):
        self.params = (Param("a", "real"),)
        self.row_params = row_params

    def log_prior(self, theta):
        return np.zeros(self.check_theta(theta).shape[:-1])


class TestPluginDeviance:
    @pytest.mark.parametrize("name", ["survival-exponential", "C", "D", "G"])
    def test_is_the_exact_deviance_at_the_working_scale_mean(self, name):
        """Bit for bit ``deviance(loglik_exact(...))`` at the mean taken on
        the working scale, and the per-row kernel sum it replaced."""
        data = aml_dataset() if name == "survival-exponential" else synthetic_ae_dataset(seed=5)
        model = Model(MODELS[name], data)
        rng = np.random.default_rng(8)
        x = rng.normal(-1.0, 0.7, size=(60, len(model.params)))
        draws = to_natural(x, model.supports)
        theta_bar = to_natural(to_unbounded(draws, model.supports).mean(axis=0), model.supports)
        params = model.row_params(theta_bar, data)
        got = plugin_deviance(model, data, draws)
        assert got == deviance(loglik_exact(data, model.family, params))
        assert got == -2.0 * float(model.family.log_contrib(data, *params).sum())

    def test_a_model_error_propagates(self):
        def row_params(theta, cols):
            raise KeyError("no such column")

        data = make_dataset([("none", 1.0), ("left", 0.5)])
        with pytest.raises(KeyError, match="no such column"):
            plugin_deviance(_RowParamsModel(row_params), data, np.zeros((5, 1)))

    def test_non_finite_deviance_raises_plugin_error(self):
        def row_params(theta, cols):
            return np.full(len(cols), np.nan), np.ones(len(cols))

        data = make_dataset([("none", 1.0), ("left", 0.5)])
        with pytest.raises(PluginError, match="non-finite"):
            plugin_deviance(_RowParamsModel(row_params), data, np.zeros((5, 1)))


class TestPopt:
    def test_degenerate_posterior_gives_zero(self):
        """Identical draws: p_opt is 0, so the report's PED is its Dbar."""
        data = make_dataset([("none", 7.0)], trials=[20])
        model = Model(MODELS["A"], data)
        draws = np.full((40, 1), 0.35)
        trace = np.full(40, 1.0)
        a = _samples_from_draws(draws, trace, seed=1)
        b = _samples_from_draws(draws, trace, seed=2)
        p_opt = compute_popt_ped(a, b, model, data)
        assert p_opt == pytest.approx(0.0, abs=1e-12)
        report = make_selection_report("A", model, data, a, b)
        assert report.p_opt == p_opt
        assert report.ped == pytest.approx(1.0)

    def test_conjugate_band(self, conjugate_multirow_runs):
        """Normal-approximation regime: p_opt close to 2 pd."""
        model, data, samples_a, samples_b = conjugate_multirow_runs
        p_opt = compute_popt_ped(samples_a, samples_b, model, data)
        assert 1.4 < p_opt < 2.8

    def test_twice_pd_is_not_a_method(self, conjugate_multirow_runs):
        model, data, samples_a, samples_b = conjugate_multirow_runs
        with pytest.raises(DataError):
            compute_popt_ped(samples_a, samples_b, model, data, method="2pd")

    def test_single_run_rejected(self, conjugate_multirow_runs):
        model, data, samples_a, _ = conjugate_multirow_runs
        with pytest.raises(InsufficientReplicationError):
            compute_popt_ped(samples_a, None, model, data)
        with pytest.raises(InsufficientReplicationError):
            compute_popt_ped(samples_a, samples_a, model, data)

    def test_same_seed_runs_rejected(self):
        data = make_dataset([("none", 7.0)], trials=[20])
        model = Model(MODELS["A"], data)
        a = _samples_from_draws(np.full((10, 1), 0.3), np.ones(10), seed=5)
        b = _samples_from_draws(np.full((10, 1), 0.3), np.ones(10), seed=5)
        with pytest.raises(InsufficientReplicationError):
            compute_popt_ped(a, b, model, data)


class TestReports:
    def test_identities_exact(self, conjugate_multirow_runs):
        model, data, samples_a, samples_b = conjugate_multirow_runs
        report = make_selection_report("M", model, data, samples_a, samples_b)
        assert report.dic == report.dbar + report.pd
        assert report.ped == report.dbar + report.p_opt

    def test_broken_identities_rejected(self):
        with pytest.raises(DataError):
            SelectionReport(label="X", dbar=10.0, pd=1.0, dic=11.5, p_opt=2.0, ped=12.0)

    def test_dinterval_trace_rejected(self, survival_runs, aml, survival_model):
        _, dint = survival_runs
        with pytest.raises(ComparabilityError):
            make_selection_report("S", survival_model, aml, dint, dint)

    def test_negative_pd_reported_with_warning(self):
        """Componentwise posterior means land off a ridge-shaped posterior,
        the plug-in deviance exceeds Dbar, and the negative pd is reported
        unclamped with a diagnostic."""
        from censdev.models import Param
        from censdev.distributions import Normal

        class ProductMeanModel(DuckModel):
            family = Normal

            def __init__(self):
                self.params = (Param("a", "real"), Param("b", "real"))

            def log_prior(self, theta):
                return np.zeros(self.check_theta(theta).shape[:-1])

            def row_params(self, theta, cols):
                theta = np.asarray(theta, dtype=float)
                mean = theta[..., 0:1] * theta[..., 1:2]
                return mean, np.ones_like(mean)

            def outcome_family(self, theta):
                return Normal(mean=float(theta[0] * theta[1]), precision=1.0)

        model = ProductMeanModel()
        data = make_dataset([("none", 1.0)])
        # Every draw sits on the ridge a*b = 1; their componentwise mean does not.
        draws = np.array([[0.5, 2.0], [2.0, 0.5]] * 20)
        devs = np.array(
            [
                deviance(model.outcome_family(theta).log_pdf(1.0))
                for theta in draws
            ]
        )
        run_a, run_b = (
            _samples_from_draws(draws, devs, seed=seed, param_names=("a", "b"))
            for seed in (3, 4)
        )
        report = make_selection_report("neg", model, data, run_a, run_b)
        assert report.pd < 0.0
        assert report.dic == report.dbar + report.pd
        assert any("negative" in w for w in report.warnings)

    def test_overfit_flag(self):
        assert _report("G", 100.0, 10.0, 51.0).overfit
        assert not _report("A", 100.0, 10.0, 20.0).overfit


class TestMonotoneDataEffect:
    def test_adding_observed_row_adds_pointwise_deviance(self):
        """At fixed draws, Dbar is additive over rows; discrete rows can only
        increase it because their pointwise deviance is nonnegative."""
        base = make_dataset([("none", float(y)) for y in (3, 5, 2)], trials=[30] * 3)
        model = Model(MODELS["A"], base)
        extended = make_dataset([("none", float(y)) for y in (3, 5, 2, 4)], trials=[30] * 4)
        rng = np.random.default_rng(0)
        draws = rng.uniform(0.05, 0.4, size=25)

        def dbar(data):
            devs = [
                deviance(
                    sum(
                        f.log_pdf(y)
                        for f, y in zip(outcome_families(model, [p], data),
                                        data.value)
                    )
                )
                for p in draws
            ]
            return compute_dbar(np.array(devs))

        def pointwise_new(p):
            fam = outcome_family(model, [p], extended, 3)
            return deviance(fam.log_pdf(4.0))

        added = np.mean([pointwise_new(p) for p in draws])
        assert dbar(extended) == pytest.approx(dbar(base) + added, rel=1e-12)
        assert dbar(extended) >= dbar(base)


class TestCompare:
    def test_sorted_by_dic(self):
        reports = [_report("B", 100.0, 2.0, 4.0), _report("A", 90.0, 1.0, 2.0),
                   _report("C", 95.0, 5.0, 30.0)]
        ranked = compare(reports)
        assert [r.label for r in ranked] == ["A", "C", "B"]

    def test_tie_broken_by_ped_then_label(self):
        r1 = _report("B", 100.0, 2.0, 5.0)   # DIC 102, PED 105
        r2 = _report("A", 100.0, 2.0, 4.0)   # DIC 102, PED 104
        r3 = _report("C", 101.0, 1.0, 4.0)   # DIC 102, PED 105
        ranked = compare([r1, r2, r3])
        assert [r.label for r in ranked] == ["A", "B", "C"]

    def test_mixed_datasets_rejected(self):
        with pytest.raises(ComparabilityError):
            compare([_report("A", 1.0, 0.1, 0.2, "d0"),
                     _report("B", 1.0, 0.1, 0.2, "d1")])

    def test_single_report_rejected(self):
        with pytest.raises(DataError):
            compare([_report("A", 1.0, 0.1, 0.2)])
