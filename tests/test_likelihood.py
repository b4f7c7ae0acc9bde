"""Censored log-likelihood tests: the columnar dataset, the exact/Bernoulli
equivalence, the latent-imputation bookkeeping and its per-row deviance gap."""

import math
import re
from math import inf
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from censdev.distributions import Binomial, Exponential, Normal
from censdev.exceptions import BoundOrderError, DataError
from censdev.likelihood import (
    KIND_INTERVAL,
    KIND_LEFT,
    KIND_OBSERVED,
    KIND_RIGHT,
    CensoredDataset,
    deviance,
    exact_contributions,
    loglik_bernoulli_reform,
    loglik_dinterval_style,
    loglik_exact,
)
from conftest import (
    censored_rows,
    family_params,
    make_dataset,
    outcome_specs,
    random_dataset,
    subset,
)

ORACLE_RTOL = 1e-12


def _ds(*outcomes):
    return make_dataset(outcomes)


def _rates(*rates):
    return (np.array(rates, dtype=float),)


def _close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(1.0, abs(b))


class TestDatasetStructure:
    def test_nonempty_required(self):
        with pytest.raises(DataError):
            CensoredDataset([], [], [], [])

    def test_covariate_width_constant(self):
        with pytest.raises(DataError):
            make_dataset([("none", 1.0), ("none", 2.0)], covariates=[(1.0,), (1.0, 2.0)])

    def test_interval_bounds_ordered(self):
        with pytest.raises(BoundOrderError):
            _ds(("interval", 3.0, 3.0))

    def test_partition_covers_dataset(self):
        """The kernels' branch masks split the rows: every row takes one."""
        data = _ds(
            ("none", 1.0),
            ("left", 0.5),
            ("right", 2.0),
            ("interval", 1.0, 4.0),
            ("none", 2.5),
        )
        cols = data.columns
        masks = [m for m in (cols.observed, cols.below, cols.above, cols.between)
                 if m is not None]
        assert (np.sum(masks, axis=0) == 1).all()
        assert list(cols.kind) == [KIND_OBSERVED, KIND_LEFT, KIND_RIGHT, KIND_INTERVAL,
                                   KIND_OBSERVED]

    def test_censoring_regions(self):
        data = _ds(("left", 2.0), ("right", 2.0), ("interval", 1.0, 3.0), ("none", 1.0))
        cols = data.columns
        assert list(zip(cols.lo, cols.hi)) == [(-inf, 2.0), (2.0, inf), (1.0, 3.0),
                                               (-inf, inf)]
        assert np.isnan(cols.value[:3]).all() and cols.value[3] == 1.0
        assert outcome_specs(data) == [("left", 2.0), ("right", 2.0),
                                       ("interval", 1.0, 3.0), ("none", 1.0)]

    @pytest.mark.parametrize("kind,lo,hi,value", [
        ([0], [-inf], [inf], [math.nan]),  # an observed row without a value
        ([0], [0.0], [inf], [1.0]),  # an observed row with a region
        ([1], [0.0], [2.0], [math.nan]),  # a left row with a lower bound
        ([2], [0.0], [2.0], [math.nan]),  # a right row with an upper bound
        ([3], [0.0], [2.0], [1.0]),  # a censored row with a value
        ([4], [-inf], [inf], [1.0]),  # no such kind
        ([0, 0], [-inf], [inf], [1.0, 2.0]),  # unequal lengths
    ])
    def test_rows_off_the_column_layout_are_rejected(self, kind, lo, hi, value):
        with pytest.raises(DataError):
            CensoredDataset(kind, lo, hi, value)

    @pytest.mark.parametrize("trials", [[0], [-3], [2.5], [1, 2]])
    def test_trials_below_one_or_misaligned_are_rejected(self, trials):
        with pytest.raises(DataError):
            make_dataset([("none", 1.0)], trials=trials)

    def test_missing_trials_are_none(self):
        data = make_dataset([("none", 1.0), ("none", 2.0)], trials=[None, 4])
        assert data.columns.trials.tolist() == [0, 4]

    @pytest.mark.parametrize("names", [("a",), ("a", "a"), ("a", "")])
    def test_covariate_names_must_fit_the_columns(self, names):
        with pytest.raises(DataError):
            make_dataset([("none", 1.0)], covariates=[(1.0, 2.0)], names=names)

    @pytest.mark.parametrize("bad", [math.nan, inf, -inf])
    @pytest.mark.parametrize("names, named", [(("x", "group"), "'group'"), ((), "'#1'")])
    def test_non_finite_covariates_are_rejected(self, bad, names, named):
        """A dataset built in code is checked as the file parser checks
        cells, naming the row and the column."""
        with pytest.raises(DataError, match=f"^covariate {named} must be finite; row 2 has "):
            make_dataset([("none", 1.0), ("right", 2.0), ("none", 3.0)],
                         covariates=[(0.5, 0.0), (1.5, 1.0), (2.5, bad)], names=names)


class TestLoglikExact:
    @pytest.mark.parametrize("family,params,y", [
        (Exponential, (0.7,), 1.2),
        (Normal, (0.0, 2.0), -0.3),
        (Binomial, (9, 0.4), 4.0),
    ])
    def test_fully_observed_equals_sum_of_log_pdf(self, family, params, y):
        data = _ds(("none", y), ("none", y))
        arrays = tuple(np.array([p, p]) for p in params)
        expected = 2.0 * family(*params).log_pdf(y)
        assert loglik_exact(data, family, arrays) == pytest.approx(expected, abs=1e-14)

    def test_right_censored_exponential_closed_form(self):
        # log(1 - F(c)) = -rate * c
        data = _ds(("right", 3.5))
        assert loglik_exact(data, Exponential, _rates(0.8)) == pytest.approx(
            -0.8 * 3.5, abs=1e-12
        )

    def test_unbounded_interval_contributes_zero(self):
        data = _ds(("none", 1.0), ("interval", -inf, inf))
        assert loglik_exact(data, Exponential, _rates(1.0, 1.0)) == pytest.approx(
            Exponential(1.0).log_pdf(1.0), abs=1e-14
        )

    def test_zero_probability_region_gives_neg_inf(self):
        data = _ds(("interval", -9.0, -5.0))
        assert loglik_exact(data, Exponential, _rates(1.0)) == -inf

    def test_parameters_broadcast_over_rows(self):
        """One pooled parameter, as model A's ``row_params`` returns it."""
        data = _ds(("none", 1.0), ("left", 0.5), ("right", 2.0))
        assert loglik_exact(data, Exponential, _rates(0.9)) == loglik_exact(
            data, Exponential, _rates(0.9, 0.9, 0.9))

    def test_alignment_checked(self):
        with pytest.raises(DataError):
            oracle.loglik_exact(_ds(("none", 1.0)), [])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, derandomize=True)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data, fams = random_dataset(rng)
        family, params = family_params(fams)
        base = loglik_exact(data, family, params)
        perm = rng.permutation(len(fams))
        shuffled = loglik_exact(subset(data, perm), family, tuple(p[perm] for p in params))
        assert shuffled == pytest.approx(base, rel=1e-10, abs=1e-10)

    def test_shrinking_interval_recovers_density(self):
        """exp(log P(a <= Y <= a+eps)) / eps -> f(a) for continuous families."""
        eps = 1e-6
        for fam, a in [(Exponential(0.9), 1.3), (Normal(0.5, 2.0), 0.4)]:
            ratio = math.exp(fam.log_interval_prob(a, a + eps)) / eps
            assert ratio == pytest.approx(math.exp(fam.log_pdf(a)), rel=1e-4)


class TestBernoulliReform:
    def test_left_censored_is_log_cdf(self):
        data = _ds(("left", 0.7))
        assert loglik_bernoulli_reform(data, Exponential, _rates(1.3)) == pytest.approx(
            oracle.Exponential(1.3).log_cdf(0.7), rel=1e-12
        )

    def test_right_censored_is_log_one_minus_cdf(self):
        data = _ds(("right", 0.4))
        params = (np.array([0.0]), np.array([1.0]))
        assert loglik_bernoulli_reform(data, Normal, params) == pytest.approx(
            math.log1p(-math.exp(oracle.Normal(0.0, 1.0).log_cdf(0.4))), rel=1e-12
        )

    def test_count_rows_use_the_left_limit(self):
        """On integer support the right row's indicator reads F(cut - 1)."""
        data = make_dataset([("right", 3.0), ("interval", 2.0, 5.0)], trials=[10, 10])
        fams = [oracle.Binomial(10, 0.3)] * 2
        family, params = family_params(fams)
        assert loglik_bernoulli_reform(data, family, params) == pytest.approx(
            oracle.loglik_bernoulli_reform(data, fams), rel=ORACLE_RTOL)
        assert loglik_bernoulli_reform(data, family, params) == pytest.approx(
            Binomial(10, 0.3).log_interval_prob(3.0, inf)
            + Binomial(10, 0.3).log_interval_prob(2.0, 5.0), rel=1e-10)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, derandomize=True)
    def test_equals_exact(self, seed):
        rng = np.random.default_rng(seed)
        data, fams = random_dataset(rng)
        family, params = family_params(fams)
        a = loglik_exact(data, family, params)
        b = loglik_bernoulli_reform(data, family, params)
        if a == -inf:
            assert b == -inf or b < -20.0
        else:
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        assert _close(a, oracle.loglik_exact(data, fams), ORACLE_RTOL)
        assert _close(b, oracle.loglik_bernoulli_reform(data, fams), ORACLE_RTOL)


class TestDIntervalStyle:
    def test_no_censoring_monitored_equals_exact(self):
        data = _ds(("none", 1.0), ("none", 2.0))
        rates = _rates(0.7, 1.4)
        result = loglik_dinterval_style(data, Exponential, rates, [])
        assert result.monitored_loglik == pytest.approx(
            loglik_exact(data, Exponential, rates), abs=1e-14
        )
        assert result.sampler_loglik == result.monitored_loglik

    def test_all_censored_monitored_is_zero(self):
        data = _ds(("right", 1.0), ("left", 2.0))
        result = loglik_dinterval_style(data, Exponential, _rates(1.0, 1.0), [1.5, 0.5])
        assert result.monitored_loglik == 0.0
        fam = Exponential(1.0)
        assert result.sampler_loglik == pytest.approx(
            fam.log_pdf(1.5) + fam.log_pdf(0.5), abs=1e-14
        )

    def test_latent_outside_region_raises(self):
        data = _ds(("none", 0.5), ("right", 2.0))
        with pytest.raises(DataError, match="^row 1: latent value 1.0 outside"):
            loglik_dinterval_style(data, Exponential, _rates(1.0, 1.0), [1.0])

    def test_missing_latent_raises(self):
        data = _ds(("right", 2.0))
        with pytest.raises(DataError):
            loglik_dinterval_style(data, Exponential, _rates(1.0), [])

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, derandomize=True)
    def test_gap_accounting_term_by_term(self, seed):
        """monitored = exact - (every censored row's exact contribution)."""
        rng = np.random.default_rng(seed)
        data, fams = random_dataset(rng)
        family, params = family_params(fams)
        cols = data.columns
        rows = censored_rows(data)
        latents = [fams[i].sample_truncated(cols.lo[i], cols.hi[i], rng) for i in rows]
        contribs = exact_contributions(data, family, params)
        result = loglik_dinterval_style(data, family, params, latents)
        monitored = result.monitored_loglik
        assert monitored == pytest.approx(
            loglik_exact(data, family, params) - contribs[rows].sum(), rel=1e-10, abs=1e-10
        )
        # The monitor reads the observed rows' exact terms, bit for bit.
        assert monitored == contribs[cols.kind == KIND_OBSERVED].sum()
        reference = oracle.loglik_dinterval_style(data, fams, dict(zip(rows, latents)))
        assert _close(monitored, reference.monitored_loglik, ORACLE_RTOL)
        assert _close(result.sampler_loglik, reference.sampler_loglik, ORACLE_RTOL)


class TestRowParamShapes:
    @staticmethod
    def _score(name, data, params):
        if name == "loglik_dinterval_style":
            rows = censored_rows(data)
            return loglik_dinterval_style(data, Exponential, params,
                                          data.columns.lo[rows] + 1.0)
        return globals()[name](data, Exponential, params)

    @pytest.mark.parametrize("name", ["exact_contributions", "loglik_exact",
                                      "loglik_bernoulli_reform", "loglik_dinterval_style"])
    def test_params_are_one_vector_over_the_rows(self, aml, name):
        """A scalar, one value or one per row is scored; a row axis of any
        other length, or a stack of draws, is a DataError naming its shape."""
        n = len(aml)
        for shape in [(), (1,), (n,)]:
            result = self._score(name, aml, (np.full(shape, 0.05),))
            assert np.isfinite(np.asarray(result, dtype=float)).all(), shape
        for shape in [(5,), (3, n), (1, n)]:
            with pytest.raises(DataError, match=re.escape(f"shape {shape}")):
                self._score(name, aml, (np.full(shape, 0.05),))


class TestDeviance:
    def test_values(self):
        assert deviance(0.0) == 0.0
        assert deviance(-1.0) == 2.0
        # scale check: a realistic posterior-mean log-likelihood
        assert deviance(-190.425) == pytest.approx(380.85, abs=1e-12)


def test_readme_python_example_holds():
    """The README's Python example runs, and its two claims hold: the
    Bernoulli reform equals the exact likelihood, and the monitored
    log-likelihood drops the censored rows' exact terms."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    namespace = {}
    exec(code, namespace)
    exact, pair = namespace["exact"], namespace["pair"]
    censored = namespace["data"].columns.kind != KIND_OBSERVED
    contributions = exact_contributions(namespace["data"], namespace["model"].family,
                                        namespace["params"])
    assert abs(namespace["reform"] - exact) <= 1e-12
    assert abs(pair.monitored_loglik - (exact - contributions[censored].sum())) <= 1e-12
