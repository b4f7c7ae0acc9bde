"""Selection-statistics tests: Dbar, the plug-in pD, the paired-run
optimism estimator, report identities and ranking."""

import math

import numpy as np
import pytest

from censdev import ChainConfig, LikelihoodMode
from censdev.exceptions import (
    ComparabilityError,
    DataError,
    InsufficientReplicationError,
)
from censdev.likelihood import CensoredDataset, Observation, Observed, deviance
from censdev.mcmc import PosteriorSamples
from censdev.models import MODELS, Model
from conftest import DuckModel
from oracle import outcome_families, outcome_family
from censdev.selection import (
    SelectionReport,
    compare,
    compute_dbar,
    compute_pd,
    compute_popt_ped,
    make_selection_report,
)


def _samples_from_draws(draws, deviances, mode=LikelihoodMode.EXACT, seed=0):
    draws = np.asarray(draws, dtype=float).reshape(len(deviances), -1)
    config = ChainConfig(n_chains=1, burn_in=0, n_keep=len(deviances), seed=seed)
    return PosteriorSamples(
        param_names=("p_pool",),
        supports=("unit",),
        draws=draws,
        deviance_trace=np.asarray(deviances, dtype=float),
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
        mode=LikelihoodMode.EXACT,
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
    def test_degenerate_posterior_gives_zero(self):
        """All draws identical: Dbar equals the plug-in deviance exactly."""
        data = CensoredDataset((Observation(Observed(7.0), trials=20),))
        model = Model(MODELS["A"], data)
        p = 0.35
        dev = deviance(
            sum(
                f.log_pdf(o.outcome.value)
                for f, o in zip(outcome_families(model, [p], data), data)
            )
        )
        draws = np.full((50, 1), p)
        trace = np.full(50, dev)
        assert compute_pd(trace, draws, model, data) == pytest.approx(0.0, abs=1e-9)

    def test_single_parameter_posterior_pd_near_one(self, conjugate_multirow_runs):
        model, data, samples_a, _ = conjugate_multirow_runs
        pd = compute_pd(samples_a.deviance_trace, samples_a.draws, model, data)
        assert 0.7 < pd < 1.3


class TestPopt:
    def test_degenerate_posterior_gives_zero(self):
        data = CensoredDataset((Observation(Observed(7.0), trials=20),))
        model = Model(MODELS["A"], data)
        draws = np.full((40, 1), 0.35)
        trace = np.full(40, 1.0)
        a = _samples_from_draws(draws, trace, seed=1)
        b = _samples_from_draws(draws, trace, seed=2)
        p_opt, ped = compute_popt_ped(a, b, model, data)
        assert p_opt == pytest.approx(0.0, abs=1e-12)
        assert ped == pytest.approx(1.0)

    def test_conjugate_band(self, conjugate_multirow_runs):
        """Normal-approximation regime: p_opt close to 2 pd."""
        model, data, samples_a, samples_b = conjugate_multirow_runs
        p_opt, _ = compute_popt_ped(samples_a, samples_b, model, data)
        assert 1.4 < p_opt < 2.8

    def test_fallback_is_twice_pd(self, conjugate_multirow_runs):
        model, data, samples_a, _ = conjugate_multirow_runs
        pd = compute_pd(samples_a.deviance_trace, samples_a.draws, model, data)
        p_opt, ped = compute_popt_ped(samples_a, None, model, data, method="2pd")
        assert p_opt == pytest.approx(2.0 * pd, rel=1e-12)
        assert ped == pytest.approx(compute_dbar(samples_a.deviance_trace) + p_opt)

    def test_fallback_doubles_exactly(self):
        # definition check on the stated example value
        assert 2.0 * 4.61 == pytest.approx(9.22)

    def test_single_run_rejected(self, conjugate_multirow_runs):
        model, data, samples_a, _ = conjugate_multirow_runs
        with pytest.raises(InsufficientReplicationError):
            compute_popt_ped(samples_a, None, model, data)
        with pytest.raises(InsufficientReplicationError):
            compute_popt_ped(samples_a, samples_a, model, data)

    def test_same_seed_runs_rejected(self):
        data = CensoredDataset((Observation(Observed(7.0), trials=20),))
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
            SelectionReport(
                label="X", dbar=10.0, pd=1.0, dic=11.5, p_opt=2.0, ped=12.0,
                mode=LikelihoodMode.EXACT,
            )

    def test_dinterval_trace_rejected(self, survival_runs, aml, survival_model):
        _, dint = survival_runs
        with pytest.raises(ComparabilityError):
            make_selection_report("S", survival_model, aml, dint)

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

            def outcome_family(self, theta, obs):
                return Normal(mean=float(theta[0] * theta[1]), precision=1.0)

        model = ProductMeanModel()
        data = CensoredDataset((Observation(Observed(1.0)),))
        # Every draw sits on the ridge a*b = 1; their componentwise mean does not.
        draws = np.array([[0.5, 2.0], [2.0, 0.5]] * 20)
        devs = np.array(
            [
                deviance(model.outcome_family(theta, data.observations[0]).log_pdf(1.0))
                for theta in draws
            ]
        )
        config = ChainConfig(n_chains=1, burn_in=0, n_keep=len(devs), seed=3)
        samples = PosteriorSamples(
            param_names=("a", "b"),
            supports=("real", "real"),
            draws=draws,
            deviance_trace=devs,
            chain_ids=np.zeros(len(devs), dtype=int),
            acceptance_rates=np.full((1, 2), 0.44),
            mode=LikelihoodMode.EXACT,
            config=config,
        )
        report = make_selection_report(
            "neg", model, data, samples, popt_method="2pd"
        )
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
        base = CensoredDataset(
            tuple(Observation(Observed(float(y)), trials=30) for y in (3, 5, 2))
        )
        model = Model(MODELS["A"], base)
        extended = CensoredDataset(base.observations +
                                   (Observation(Observed(4.0), trials=30),))
        rng = np.random.default_rng(0)
        draws = rng.uniform(0.05, 0.4, size=25)

        def dbar(data):
            devs = [
                deviance(
                    sum(
                        f.log_pdf(o.outcome.value)
                        for f, o in zip(outcome_families(model, [p], data), data)
                    )
                )
                for p in draws
            ]
            return compute_dbar(np.array(devs))

        def pointwise_new(p):
            fam = outcome_family(model, [p], extended.observations[-1])
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
