"""Model-library tests: priors, outcome construction, schemas, posterior
composition, and the slower identifiability properties (MLE recovery with
flat priors, hierarchical collapse when the spread prior vanishes)."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import norm

import oracle
from censdev import ChainConfig, LikelihoodMode, aml_dataset, datasets
from censdev.datasets import AE_COVARIATES, synthetic_ae_dataset
from censdev.distributions import Binomial, Exponential
from censdev.exceptions import SchemaError
from censdev.likelihood import exact_contributions
from censdev.models import (
    MODELS,
    Model,
    ModelSpec,
    Param,
    _half_cauchy_log_prior,
    _normal_log_prior,
    to_natural,
    to_unbounded,
)
from conftest import censored_rows, make_dataset, run_one, subset
from oracle import log_posterior_unnorm, loglik_exact, outcome_families, outcome_family


def _binomial_row(count, trials, drug, study):
    """A one-row adverse-event dataset."""
    from censdev.datasets import DRUG_CLASSES

    return make_dataset([("none", float(count))],
                        covariates=[(drug, DRUG_CLASSES[drug], study)],
                        trials=[trials], names=AE_COVARIATES)


@pytest.fixture(scope="module")
def ae_data():
    return synthetic_ae_dataset(seed=99)


def _ae_rows(n_drugs=5, n_studies=None):
    """A small adverse-event dataset: drug codes 0..n_drugs-1, both drug
    classes, study codes 0..n_studies-1 (one per row when None)."""
    n = max(n_drugs, n_studies or 2, 2)
    return make_dataset(
        [("none", 1.0)] * n,
        covariates=[(i % n_drugs, i % 2, i % (n_studies or n)) for i in range(n)],
        trials=[10] * n,
        names=AE_COVARIATES,
    )


def _glm_rows(n_covariates):
    return make_dataset([("none", 0.0)], covariates=[(0.0,) * n_covariates])


def _model(name, data, **hyperparameters):
    return Model(MODELS[name], data, **hyperparameters)


def _survival(**hyperparameters):
    return _model("survival-exponential", aml_dataset(), **hyperparameters)


class TestWorkingScale:
    def test_origin_is_the_neutral_point_of_each_support(self):
        """The sampler starts every chain at x = 0: the natural values 0, 1
        and 1/2, exactly."""
        supports = ("real", "positive", "unit")
        assert to_natural(np.zeros(3), supports).tolist() == [0.0, 1.0, 0.5]
        assert to_unbounded(np.array([0.0, 1.0, 0.5]), supports).tolist() == [0.0, 0.0, 0.0]

    def test_round_trip_on_draws(self):
        supports = ("real", "positive", "unit")
        x = np.random.default_rng(4).normal(size=(50, 3))
        np.testing.assert_allclose(to_unbounded(to_natural(x, supports), supports), x,
                                   rtol=1e-12, atol=1e-12)

    def test_a_parameter_needs_a_known_support(self):
        with pytest.raises(SchemaError, match="unknown support 'simplex'"):
            Param("w", "simplex")


class TestPriors:
    def test_survival_prior_at_origin(self):
        model = _survival(tau0=0.01, tau1=0.01)
        oracle = 2.0 * norm.logpdf(0.0, loc=0.0, scale=10.0)
        assert model.log_prior(np.zeros(2)) == pytest.approx(oracle, rel=1e-12)

    def test_half_cauchy_support(self):
        model = _model("D", _ae_rows(n_drugs=2))
        theta = np.array([0.0, -0.5, 0.0, 0.0])  # sigma < 0
        assert model.log_prior(theta) == -math.inf

    def test_half_cauchy_is_minus_inf_at_and_below_zero(self):
        values = _half_cauchy_log_prior(2.5)(np.array([-1.0, -0.0, 0.0, 1e-300]))
        assert values[:3].tolist() == [-math.inf] * 3
        assert values[3] == pytest.approx(math.log(2.0 / (math.pi * 2.5)))
        assert _half_cauchy_log_prior(1.0)(0.0) == -math.inf

    @settings(max_examples=200, deadline=None)
    @given(hyper=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([0.01, 1.0, 2.5, 5e-324])),
           x=st.lists(st.one_of(st.floats(allow_nan=False),
                                st.sampled_from([0.0, -0.0, 5e-324, -1.0])), min_size=1))
    def test_terms_match_the_per_call_formulas_bit_for_bit(self, hyper, x):
        """Each term's constant, computed once when the model builds it, is
        the one the old per-call formulas computed on every call."""
        def normal_per_call(x, precision):
            return 0.5 * (np.log(precision) - math.log(2.0 * math.pi)) - 0.5 * precision * (x * x)

        def half_cauchy_per_call(x, scale):
            r = x / scale
            return np.where(x > 0.0, (math.log(2.0 / math.pi) - np.log(scale)) - np.log1p(r * r),
                            -math.inf)

        with np.errstate(all="ignore"):
            for value in (np.array(x), np.float64(x[0])):
                pairs = [(_normal_log_prior(hyper)(value), normal_per_call(value, hyper)),
                         (_half_cauchy_log_prior(hyper)(value), half_cauchy_per_call(value, hyper))]
                for new, old in pairs:
                    assert np.shape(new) == np.shape(old)
                    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()

    @pytest.mark.parametrize("name", ["C", "D", "E", "F", "censored-normal-glm"])
    def test_zero_scale_is_outside_the_prior(self, name):
        """C's spread and D/E/F's or the GLM's sigma at exactly 0: the joint
        log prior is -inf, as the level terms alone already make it for the
        hierarchical entries."""
        data = _glm_rows(2) if name == "censored-normal-glm" else _ae_rows(n_drugs=2)
        model = _model(name, data)
        theta = np.full(len(model.params), 0.5)
        scale = model.param_names.index("sigma" if "sigma" in model.param_names else "spread")
        theta[scale] = 0.0
        assert model.log_prior(theta) == -math.inf
        assert model.log_prior(np.stack([theta, theta])).tolist() == [-math.inf] * 2
        if model.levels:
            assert (model.level_log_prior(theta) == -math.inf).all()

    def test_uniform_beta_prior_is_flat(self):
        model = _model("A", _ae_rows(), beta_shapes=(1.0, 1.0))
        assert model.log_prior(np.array([0.5])) == 0.0
        assert model.log_prior(np.array([1.5])) == -math.inf

    def test_schema_mismatch(self):
        with pytest.raises(SchemaError):
            _survival().log_prior(np.zeros(3))
        with pytest.raises(SchemaError):
            _survival().log_prior(np.zeros((2, 3)))
        with pytest.raises(SchemaError):
            _survival().log_prior(np.zeros((2, 2, 2)))

    def test_unknown_hyperparameter_names_the_known_set(self):
        with pytest.raises(SchemaError, match=r"\['tau_0'\]; allowed: \['tau0', 'tau1'\]"):
            _survival(tau_0=1.0)


# Per model: a builder, a scipy.stats oracle of the joint log prior, and
# parameter vectors inside the support and outside it (sigma <= 0, a
# probability outside (0, 1)).  Non-flat Beta shapes keep the values away
# from 0, where a relative comparison means nothing.
def _hc(x, scale=1.0):
    return stats.halfcauchy.logpdf(x, scale=scale)


def _beta(x, a, b):
    return stats.beta.logpdf(x, a, b)


def _normal(x, precision):
    return stats.norm.logpdf(x, 0.0, 1.0 / math.sqrt(precision))


def _c_oracle(t):
    kappa = 1.0 / t[1] ** 2
    return (_beta(t[0], 2.0, 3.0) + _hc(t[1], 0.7)
            + _beta(t[2:], t[0] * kappa, (1.0 - t[0]) * kappa).sum())


PRIOR_CASES = {
    "survival": (
        lambda: _survival(tau0=0.5, tau1=2.0),
        lambda t: _normal(t[0], 0.5) + _normal(t[1], 2.0),
        [[0.3, -1.2], [-4.0, 0.7], [2.5, 0.0]],
        [],
    ),
    "A": (
        lambda: _model("A", _ae_rows(), beta_shapes=(2.0, 3.0)),
        lambda t: _beta(t[0], 2.0, 3.0),
        [[0.2], [0.73], [0.999]],
        [[0.0], [1.0], [1.5], [-0.2]],
    ),
    "B": (
        lambda: _model("B", _ae_rows(), beta_shapes=(2.0, 3.0)),
        lambda t: _beta(t, 2.0, 3.0).sum(),
        [[0.2, 0.6], [0.05, 0.9]],
        [[0.2, 1.0], [-0.1, 0.5]],
    ),
    "C": (
        lambda: _model("C", _ae_rows(n_drugs=3), beta_shapes=(2.0, 3.0),
                       half_cauchy_scale=0.7),
        _c_oracle,
        [[0.3, 0.5, 0.2, 0.4, 0.35], [0.6, 1.3, 0.7, 0.5, 0.9]],
        [[0.3, -0.5, 0.2, 0.4, 0.35], [1.2, 0.5, 0.2, 0.4, 0.35],
         [0.3, 0.5, 0.2, 1.4, 0.35]],
    ),
    **{
        variant: (
            lambda v=variant: _model(v, _ae_rows(n_drugs=3), mean_precision=0.2,
                                     half_cauchy_scale=0.7),
            lambda t: (_normal(t[0], 0.2) + _hc(t[1], 0.7)
                       + _normal(t[2:], 1.0 / t[1] ** 2).sum()),
            [[-1.5, 0.8, 0.3, -0.6, 1.1], [0.4, 2.5, -3.0, 0.1, 0.9]],
            [[-1.5, -0.8, 0.3, -0.6, 1.1]],
        )
        for variant in "DEF"
    },
    "G": (
        lambda: _model("G", _ae_rows(n_studies=4), beta_shapes=(2.0, 3.0)),
        lambda t: _beta(t, 2.0, 3.0).sum(),
        [[0.2, 0.6, 0.4, 0.1], [0.9, 0.3, 0.5, 0.05]],
        [[0.2, 0.6, 1.0, 0.1]],
    ),
    "glm": (
        lambda: _model("censored-normal-glm", _glm_rows(2), coef_precision=0.3,
                       half_cauchy_scale=0.7),
        lambda t: _hc(t[-1], 0.7) + _normal(t[:-1], 0.3).sum(),
        [[0.5, -1.0, 2.0, 1.3], [-2.0, 0.1, 0.3, 0.2]],
        [[0.5, -1.0, 2.0, -1.3]],
    ),
}


# Per model with levels: scipy.stats terms of its levels, given the rest.
LEVEL_ORACLES = {
    "B": lambda t: _beta(t, 2.0, 3.0),
    "C": lambda t: _beta(t[2:], t[0] / t[1] ** 2, (1.0 - t[0]) / t[1] ** 2),
    "D": lambda t: _normal(t[2:], 1.0 / t[1] ** 2),
    "G": lambda t: _beta(t, 2.0, 3.0),
}


class TestStackedPriors:
    """``log_prior`` and ``level_log_prior`` take one parameter vector or a
    (K, n_params) stack, by the same float operations: a stack's values are
    exactly those of its rows."""

    @pytest.mark.parametrize("name", sorted(PRIOR_CASES))
    def test_stack_equals_rows_and_scipy(self, name):
        build, oracle, inside, outside = PRIOR_CASES[name]
        model = build()
        stack = np.array(inside + outside, dtype=float)
        rows = [model.log_prior(theta) for theta in stack]
        assert all(type(value) is float for value in rows)
        stacked = model.log_prior(stack)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(stack),)
        assert np.array_equal(stacked, rows)
        for theta, value in zip(inside, rows):
            assert value == pytest.approx(oracle(np.array(theta)), rel=1e-12)
        assert all(value == -math.inf for value in rows[len(inside):])

    @pytest.mark.parametrize("name", sorted(LEVEL_ORACLES))
    def test_level_priors_stack_equals_rows_and_scipy(self, name):
        model = PRIOR_CASES[name][0]()
        stack = np.array(PRIOR_CASES[name][2], dtype=float)
        rows = [model.level_log_prior(theta) for theta in stack]
        stacked = model.level_log_prior(stack)
        assert stacked.shape == (len(stack), len(model.levels))
        assert np.array_equal(stacked, rows)
        for theta, levels in zip(stack, rows):
            np.testing.assert_allclose(levels, LEVEL_ORACLES[name](theta), rtol=1e-12)

    def test_zero_scale_is_outside_the_support(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _model("D", _ae_rows(n_drugs=2)).log_prior(
                np.array([0.0, 0.0, 0.1, 0.2])) == -math.inf
            assert _model("censored-normal-glm", _glm_rows(1)).log_prior(
                np.array([0.0, 0.0, 0.0])) == -math.inf
            assert _model("C", _ae_rows(n_drugs=1)).log_prior(
                np.array([0.5, 0.0, 0.5])) == -math.inf
            stack = np.array([[0.0, 0.0, 0.1, 0.2], [0.0, 0.5, 0.1, 0.2]])
            lp = _model("D", _ae_rows(n_drugs=2)).log_prior(stack)
            assert lp[0] == -math.inf and np.isfinite(lp[1])

    @pytest.mark.parametrize("name", ["C", "D", "E", "F"])
    def test_scale_whose_square_underflows_is_outside_the_support(self, name):
        """At such a scale 1/scale^2 is inf; the level terms are -inf, as at
        zero, not NaN, and no floating-point warning leaks."""
        model = _model(name, _ae_rows(n_drugs=2))
        theta = np.array([0.5 if name == "C" else 0.0, 4.2e-278, 0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = model.level_log_prior(theta)
            assert (levels == -math.inf).all(), levels
            assert model.log_prior(theta) == -math.inf
            assert (model.log_prior(np.stack([theta, theta])) == -math.inf).all()


def _entry(name):
    spec = MODELS[name]
    if spec.section == "censored-binomial":
        return _model(name, _ae_rows(n_drugs=3, n_studies=4))
    return _survival() if spec.family is Exponential else _model(name, _glm_rows(2))


# Values inside and outside every support: zero and negative scales, a
# scale whose square underflows, probabilities at and beyond 0 and 1.
_component = st.one_of(st.sampled_from([0.0, 1.0, -0.5, 1.5, 1e-3, 0.999, 4.2e-278]),
                       st.floats(-3.0, 3.0))


class TestPriorTerms:
    """The sampler trusts each term's declared reads to skip it when other
    components move; a term that reads an undeclared component would bias
    the chains without any error."""

    def test_level_reads_follow_the_pooling(self):
        expected = {"C": (0, 1), "D": (1,), "E": (1,), "F": (1,)}
        assert {name: _entry(name).level_reads for name in MODELS} == {
            name: expected.get(name, ()) for name in MODELS}

    @pytest.mark.parametrize("name", list(MODELS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_terms_read_only_what_they_declare(self, name, data):
        model = _entry(name)
        n = len(model.params)
        k = data.draw(st.integers(1, 4), label="stack size")
        theta = np.array(data.draw(st.lists(_component, min_size=n * k, max_size=n * k)),
                         dtype=float).reshape(k, n)
        j = data.draw(st.integers(0, n - 1), label="moved component")
        moved = theta.copy()
        moved[:, j] = data.draw(st.lists(_component, min_size=k, max_size=k))
        with np.errstate(all="ignore"):
            for term in model.prior_terms:
                before, after = term.log_density(theta), term.log_density(moved)
                assert before.shape == (k,)
                if j not in term.reads:
                    assert np.array_equal(before, after), term.reads
            values = [term.log_density(theta) for term in model.prior_terms]
            if model.levels:
                levels, levels_moved = model.level_log_prior(theta), model.level_log_prior(moved)
                for position, level in enumerate(model.levels):
                    if j != level and j not in model.level_reads:
                        assert np.array_equal(levels[:, position], levels_moved[:, position])
                values.append(levels.sum(axis=1))
            lp = model.log_prior(theta)
        total = np.sum(values, axis=0)
        assert np.array_equal(np.isneginf(total), np.isneginf(lp))
        np.testing.assert_allclose(total, lp, rtol=1e-12)


class TestOutcomeConstruction:
    def test_survival_identity_rate(self):
        model = _survival()
        cols = make_dataset([("none", 1.0)], covariates=[(1.0,)]).columns
        fam = outcome_family(model, np.zeros(2), cols, 0)
        assert isinstance(fam, oracle.Exponential)
        assert fam.rate == pytest.approx(1.0)

    def test_survival_group_rate(self):
        model = _survival()
        cols = make_dataset([("none", 1.0)], covariates=[(1.0,)]).columns
        fam = outcome_family(model, np.array([0.3, -1.2]), cols, 0)
        assert fam.rate == pytest.approx(math.exp(0.3 - 1.2), rel=1e-12)

    @pytest.mark.parametrize("variant", ["D", "F"])
    def test_zero_linear_predictor_gives_half(self, variant):
        model = _model(variant, _ae_rows())
        theta = np.zeros(len(model.params))
        cols = _binomial_row(3, 20, drug=2, study=0).columns
        fam = outcome_family(model, theta, cols, 0)
        assert isinstance(fam, oracle.Binomial)
        assert fam.prob == pytest.approx(0.5)

    def test_cloglog_variant_uses_its_link(self):
        model = _model("E", _ae_rows())
        theta = np.zeros(len(model.params))
        fam = outcome_family(model, theta, _binomial_row(3, 20, 1, 0).columns, 0)
        assert fam.prob == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_normal_glm_mean(self):
        model = _model("censored-normal-glm", _glm_rows(2))
        cols = make_dataset([("none", 0.0)], covariates=[(2.0, -1.0)]).columns
        fam = outcome_family(model, np.array([0.5, 1.0, 2.0, 0.5]), cols, 0)
        assert isinstance(fam, oracle.Normal)
        assert fam.mean == pytest.approx(0.5 + 2.0 - 2.0)
        assert fam.precision == pytest.approx(4.0)


class TestSchemas:
    def test_pooled_has_one_parameter(self):
        assert len(_model("A", _ae_rows()).params) == 1

    def test_saturated_parameter_count_is_study_count(self):
        for n in (3, 25):
            assert len(_model("G", _ae_rows(n_studies=n)).params) == n

    def test_variant_aliases(self):
        labels = [_model(v, _ae_rows(n_studies=4)).label for v in "ABCDEFG"]
        assert labels == list("ABCDEFG")


# A per-level parameter ahead of the pooled one: no table entry is laid out
# so, and building it would move mu with the levels and leave p_drug0 out.
_LEVELS_FIRST = ModelSpec("bad", "censored-binomial", Binomial, "identity",
                          (Param("p_drug{}", "unit"), Param("mu", "unit")),
                          {"beta_shapes": (1.0, 1.0)}, index="drug", pooling="beta")


class TestTableEntriesOnly:
    """A model is an entry of the model table, up to its covariate columns;
    the sampler relies on the entries' level layout without checking it."""

    @pytest.mark.parametrize("spec", [
        _LEVELS_FIRST,
        dataclasses.replace(MODELS["C"], name="H"),
        dataclasses.replace(MODELS["C"], params=(Param("mu", "positive"),)
                            + MODELS["C"].params[1:]),
        dataclasses.replace(MODELS["A"], hyperparameters={"beta_shapes": (2.0, 2.0)}),
        dataclasses.replace(MODELS["survival-exponential"], covariates=()),
        dataclasses.replace(MODELS["censored-normal-glm"], covariates=("x",)),
    ], ids=["levels-first", "unknown-name", "C-mu-positive", "A-other-defaults",
            "survival-no-covariate", "glm-named-covariates"])
    def test_other_specs_are_refused_at_build_time(self, spec):
        with pytest.raises(SchemaError, match="is not an entry of the model table"):
            Model(spec, _ae_rows())

    @pytest.mark.parametrize("name", list(MODELS))
    def test_every_entry_builds(self, name):
        assert _entry(name).spec == MODELS[name]

    def test_covariate_columns_may_be_re_pointed(self):
        data = make_dataset([("none", 1.0), ("right", 2.0)],
                            covariates=[(0.0, 1.0), (1.0, 0.0)], names=("group", "arm"))
        spec = dataclasses.replace(MODELS["survival-exponential"], covariates=("arm",))
        rates = Model(spec, data).row_params(np.array([0.0, 1.0]), data.columns)[0]
        np.testing.assert_allclose(rates, [math.e, 1.0])

    @pytest.mark.parametrize("name", [n for n, spec in MODELS.items() if spec.index])
    def test_levels_are_one_trailing_block_no_other_term_reads(self, name):
        """The layout that lets the sampler move the levels as one block:
        the trailing components, one support, read by no prior term."""
        model = _entry(name)
        n_levels = model.n_levels
        assert model.levels == tuple(range(len(model.params) - n_levels, len(model.params)))
        assert {model.supports[j] for j in model.levels} == {MODELS[name].params[-1].support}
        assert not any(set(term.reads) & set(model.levels) for term in model.prior_terms)


class TestLogPosterior:
    def test_flat_prior_equals_loglik(self):
        data = _binomial_row(4, 10, 0, 0)
        model = _model("A", data, beta_shapes=(1.0, 1.0))
        theta = np.array([0.37])
        expected = loglik_exact(data, outcome_families(model, theta, data))
        assert log_posterior_unnorm(model, theta, data) == pytest.approx(
            expected, abs=1e-14
        )

    def test_outside_support_is_neg_inf(self):
        data = _binomial_row(4, 10, 0, 0)
        model = _model("A", data)
        assert log_posterior_unnorm(model, np.array([1.2]), data) == -math.inf

    def test_a_stack_of_parameter_vectors_is_rejected(self):
        """The priors take stacks; the scalar posterior takes one vector."""
        data = _binomial_row(4, 10, 0, 0)
        model = _model("A", data)
        with pytest.raises(SchemaError):
            log_posterior_unnorm(model, np.array([[0.3], [0.4]]), data)

    def test_mode_difference_is_censored_contribution_sum(self, aml):
        """Exact and latent-imputation targets differ by the censored terms
        whenever every latent value sits exactly at its censoring cutoff."""
        model = _model("survival-exponential", aml)
        theta = np.array([-3.1, -0.9])
        dists = outcome_families(model, theta, aml)
        contribs = exact_contributions(aml, model.family,
                                       model.row_params(theta, aml.columns))
        rows = censored_rows(aml)
        latents = {i: aml.columns.lo[i] for i in rows}
        exact = log_posterior_unnorm(model, theta, aml, LikelihoodMode.EXACT)
        dint = log_posterior_unnorm(
            model, theta, aml, LikelihoodMode.DINTERVAL, latents
        )
        censored_sum = contribs[rows].sum()
        latent_sum = sum(dists[i].log_pdf(latents[i]) for i in rows)
        assert exact - dint == pytest.approx(censored_sum - latent_sum, rel=1e-10)

    def test_latents_required_iff_dinterval(self, aml):
        model = _model("survival-exponential", aml)
        theta = np.zeros(2)
        with pytest.raises(SchemaError):
            log_posterior_unnorm(model, theta, aml, LikelihoodMode.DINTERVAL)
        with pytest.raises(SchemaError):
            log_posterior_unnorm(
                model, theta, aml, LikelihoodMode.EXACT, latent_values={0: 1.0}
            )


class TestIdentifiability:
    def test_flat_prior_posterior_mode_matches_mle(self, aml):
        """With near-flat priors and no censored rows, the per-group rate at
        the posterior mode matches events / total time within 2% at 1e5
        draws.  The mode is estimated by the highest-posterior kept draw,
        which converges much faster than a smoothed-density peak."""
        data = subset(aml, np.flatnonzero(~np.isnan(aml.columns.value)))
        groups = data.columns.covariates[:, 0]
        times = data.columns.value
        mle = {
            g: (groups == g).sum() / times[groups == g].sum() for g in (0.0, 1.0)
        }

        model = _model("survival-exponential", data, tau0=1e-8, tau1=1e-8)
        config = ChainConfig(n_chains=1, burn_in=4000, n_keep=100_000, seed=11)
        samples = run_one(model, data, LikelihoodMode.EXACT, config)

        # The stack is scored in chunks with the columnar kernels; the scalar
        # oracle checks the chosen draw's score.
        cols = data.columns
        log_post = np.concatenate([
            model.log_prior(chunk)
            + model.family.log_contrib(cols, *model.row_params(chunk, cols)).sum(axis=-1)
            for chunk in np.array_split(samples.draws, 10)
        ])
        best = int(np.argmax(log_post))
        assert log_post[best] == pytest.approx(
            log_posterior_unnorm(model, samples.draws[best], data), rel=1e-12)
        b0_star, b1_star = samples.draws[best]
        assert math.exp(b0_star) == pytest.approx(mle[0.0], rel=0.02)
        assert math.exp(b0_star + b1_star) == pytest.approx(mle[1.0], rel=0.02)

    def test_link_models_collapse_when_spread_prior_vanishes(self, monkeypatch):
        """Spread prior concentrated at zero on homogeneous data: the fitted
        drug-specific incidences agree within Monte Carlo error."""
        monkeypatch.setattr(datasets, "DRUG_EFFECTS", (0.0, 0.0, 0.0, 0.0, 0.0))
        data = synthetic_ae_dataset(n_studies=15, seed=5)
        model = _model("D", data, half_cauchy_scale=1e-4)
        config = ChainConfig(n_chains=2, burn_in=2000, n_keep=2000, seed=3)
        samples = run_one(model, data, LikelihoodMode.EXACT, config)
        mu = samples.param("mu")
        incidences = []
        for d in range(5):
            eta = mu + samples.param(f"delta_drug{d}")
            incidences.append(float(np.mean(1.0 / (1.0 + np.exp(-eta)))))
        spread = max(incidences) - min(incidences)
        assert spread < 0.005, incidences

    def test_normal_glm_smoke_with_censoring(self):
        rng = np.random.default_rng(8)
        outcomes, xs = [], []
        for _ in range(30):
            x = float(rng.normal())
            y = 1.0 + 0.5 * x + rng.normal(scale=0.8)
            outcomes.append(("right", 2.0) if y > 2.0 else ("none", y))
            xs.append((x,))
        data = make_dataset(outcomes, covariates=xs, names=("x",))
        model = _model("censored-normal-glm", data)
        config = ChainConfig(n_chains=1, burn_in=1500, n_keep=1500, seed=4)
        samples = run_one(model, data, LikelihoodMode.EXACT, config)
        assert np.isfinite(samples.deviance_trace).all()
        assert abs(samples.param("beta0").mean() - 0.5) < 0.5
