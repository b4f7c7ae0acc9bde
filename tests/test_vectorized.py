"""Differential tests: the vectorized likelihood core against the scalar
``Family`` kernels it replaced in the sampler and the selection layer.

* ``Family.log_contrib`` over a dataset's columns equals the per-row
  ``oracle.exact_contribution`` on randomized rows of every outcome family
  and censor kind.
* Each model's ``row_params`` equals the scalar ``oracle.outcome_family``
  at extreme parameter values, where the rate, probability and link clamps
  act.
* ``compute_popt_ped`` equals a per-row, per-draw-pair reference built from
  ``kl_divergence`` and ``bernoulli_kl``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censdev import ChainConfig, LikelihoodMode, aml_dataset, selection
from censdev.distributions import Exponential, bernoulli_kl, kl_divergence
from censdev.likelihood import KIND_OBSERVED
from censdev.mcmc import PosteriorSamples
from censdev.models import MODELS, Model
from censdev.selection import compute_popt_ped
from conftest import FIELDS, family_params, make_dataset, outcome_specs, random_dataset
from oracle import exact_contribution, outcome_family

KERNEL_RTOL = 1e-12
POPT_RTOL = 1e-10


@pytest.fixture(autouse=True)
def _kernel_error_state():
    """Callers of the vectorized kernels own the floating-point error state,
    as the sampler and the selection layer do: extreme parameters meet
    overflow and log(0) by design."""
    with np.errstate(all="ignore"):
        yield


def _assert_close(vector, scalar, rtol):
    vector = np.asarray(vector, dtype=float)
    scalar = np.asarray(scalar, dtype=float)
    assert vector.shape == scalar.shape
    same_inf = np.isinf(scalar) & (vector == scalar)
    close = np.abs(vector - scalar) <= rtol * np.abs(scalar)
    assert (same_inf | close).all(), (vector, scalar)


class TestLogContribMatchesScalarKernels:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_random_rows_every_family_and_censor_kind(self, seed):
        rng = np.random.default_rng(seed)
        data, fams = random_dataset(rng, max_rows=12)
        cls, params = family_params(fams)
        scalar = [exact_contribution(f, data.columns, i) for i, f in enumerate(fams)]
        vector = cls.log_contrib(data.columns, *params)
        _assert_close(vector, scalar, KERNEL_RTOL)
        # A block taken in another order scores the same rows the same way.
        order = rng.permutation(len(fams))
        block = data.columns.take(order)
        _assert_close(cls.log_contrib(block, *(p[order] for p in params)),
                      np.array(scalar)[order], KERNEL_RTOL)

    def test_all_four_censor_kinds_are_generated(self):
        rng = np.random.default_rng(0)
        kinds, families = set(), set()
        for _ in range(200):
            data, fams = random_dataset(rng)
            kinds |= {spec[0] for spec in outcome_specs(data)}
            families.add(type(fams[0]))
        assert kinds == {"none", "left", "right", "interval"}
        assert families == set(FIELDS)

    def test_draws_axis_broadcasts(self):
        data = make_dataset([("none", 1.5), ("left", 0.2), ("right", 2.0),
                             ("interval", 0.5, 3.0)])
        rates = np.array([[0.3], [1.0], [4.0]])
        vector = Exponential.log_contrib(data.columns, rates)
        assert vector.shape == (3, 4)
        for d, rate in enumerate(rates[:, 0]):
            scalar = [exact_contribution(Exponential(rate), data.columns, i)
                      for i in range(len(data))]
            _assert_close(vector[d], scalar, KERNEL_RTOL)


# ---------------------------------------------------------------------------
# Model parameter maps at extreme parameter values
# ---------------------------------------------------------------------------


def _ae_dataset():
    """Rows of every censor kind, with Binomial tails deep enough that
    betainc underflows and the kernels sum terms instead."""
    rows = (
        (("none", 3.0), 50, 0, 0),
        (("left", 4.0), 800, 1, 0),
        (("right", 300.0), 800, 2, 1),
        (("interval", 2.0, 6.0), 100, 3, 1),
        (("none", 0.0), 30, 4, 1),
        (("left", 1.0), 200, 0, 0),
    )
    return make_dataset(
        [outcome for outcome, *_ in rows],
        covariates=[(drug, cls, study) for study, (_, _, drug, cls) in enumerate(rows)],
        trials=[trials for _, trials, _, _ in rows],
        names=("drug", "drug_class", "study"),
    )


def _check_model_at(model, data, theta):
    cols = data.columns
    params = np.broadcast_arrays(*model.row_params(theta, cols), cols.lo)[:-1]
    fields = FIELDS[model.family]
    scalar_contribs = []
    for i in range(len(data)):
        family = outcome_family(model, np.asarray(theta, dtype=float), cols, i)
        assert type(family) is model.family
        for name, array in zip(fields, params):
            _assert_close(array[i], getattr(family, name), KERNEL_RTOL)
        scalar_contribs.append(exact_contribution(family, cols, i))
    vector = model.family.log_contrib(cols, *model.row_params(theta, cols))
    _assert_close(vector, scalar_contribs, KERNEL_RTOL)


EXTREMES = (-800.0, -40.0, 0.0, 3.0, 800.0)


class TestParameterMapsAtExtremes:
    @pytest.mark.parametrize("b0", EXTREMES)
    @pytest.mark.parametrize("b1", EXTREMES)
    def test_survival_rate_clamps(self, aml, b0, b1):
        _check_model_at(Model(MODELS["survival-exponential"], aml), aml, np.array([b0, b1]))

    @pytest.mark.parametrize("eta", EXTREMES)
    @pytest.mark.parametrize("sigma", [1e-300, 1e-6, 1.0, 1e6])
    def test_normal_glm_mean_and_sigma_clamp(self, eta, sigma):
        rng = np.random.default_rng(3)
        outcomes = [("none", 0.3), ("left", -1.0), ("right", 2.0),
                    ("interval", -0.5, 0.5), ("none", -2.0)]
        data = make_dataset(outcomes, covariates=[rng.normal(size=2) for _ in outcomes],
                            names=("x1", "x2"))
        _check_model_at(Model(MODELS["censored-normal-glm"], data), data,
                        np.array([eta, 0.5 * eta, -1.0, sigma]))

    @pytest.mark.parametrize("variant", ["D", "E", "F"])
    @pytest.mark.parametrize("mu", EXTREMES)
    def test_link_variants(self, variant, mu):
        data = _ae_dataset()
        model = Model(MODELS[variant], data)
        deltas = np.array([0.0, 800.0, -800.0, 2.0, -2.0])
        _check_model_at(model, data, np.concatenate([[mu, 1.0], deltas]))

    @pytest.mark.parametrize("p", [0.0, 1e-300, 1e-12, 0.3, 1.0 - 1e-12, 1.0])
    def test_probability_variants_deep_tails(self, p):
        data = _ae_dataset()
        thetas = {
            "A": [p],
            "B": [p, 1.0 - p],
            "C": [0.5, 0.3, p, 1.0 - p, p, 0.02, p],
            "G": [p, 1.0 - p, p, 1.0 - p, p, 0.5],
        }
        for variant, theta in thetas.items():
            model = Model(MODELS[variant], data)
            _check_model_at(model, data, np.array(theta))

    def test_deep_tail_fallback_is_exercised(self):
        data = _ae_dataset()
        model = Model(MODELS["A"], data)
        cols = data.columns
        censored = np.flatnonzero(cols.kind != KIND_OBSERVED)
        for p in (1e-12, 1.0 - 1e-12):
            # At least one censored row sits beyond betainc's range.
            assert any(
                exact_contribution(outcome_family(model, np.array([p]), cols, i), cols, i)
                < math.log(1e-290)
                for i in censored
            )


# ---------------------------------------------------------------------------
# Paired optimism against the per-row, per-pair scalar reference
# ---------------------------------------------------------------------------


def _samples(draws, model, seed):
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    return PosteriorSamples(
        param_names=model.param_names,
        supports=model.supports,
        draws=draws,
        deviance_trace=np.zeros(n),
        chain_ids=np.zeros(n, dtype=int),
        acceptance_rates=np.full((1, draws.shape[1]), 0.44),
        mode=LikelihoodMode.EXACT,
        config=ChainConfig(n_chains=1, burn_in=0, n_keep=n, seed=seed),
    )


def _popt_reference(model, data, draws_a, draws_b):
    p_opt = 0.0
    cols = data.columns
    for i in range(len(data)):
        ksym, log_w = [], []
        for theta_a, theta_b in zip(draws_a, draws_b):
            fam_a = outcome_family(model, theta_a, cols, i)
            fam_b = outcome_family(model, theta_b, cols, i)
            if cols.kind[i] == KIND_OBSERVED:
                ksym.append(kl_divergence(fam_a, fam_b) + kl_divergence(fam_b, fam_a))
            else:
                lo, hi = float(cols.lo[i]), float(cols.hi[i])
                p_a = math.exp(fam_a.log_interval_prob(lo, hi))
                p_b = math.exp(fam_b.log_interval_prob(lo, hi))
                ksym.append(bernoulli_kl(p_a, p_b) + bernoulli_kl(p_b, p_a))
            log_w.append(-(exact_contribution(fam_a, cols, i)
                           + exact_contribution(fam_b, cols, i)))
        log_w = np.array(log_w)
        weights = np.exp(log_w - log_w.max())
        p_opt += float(weights @ np.array(ksym) / weights.sum())
    return p_opt


def _popt_cases():
    rng = np.random.default_rng(11)
    outcomes, xs = [], []
    for _ in range(12):
        x = rng.normal(size=2)
        y = 1.0 + x @ [0.8, -0.5] + 1.2 * rng.normal()
        kind = rng.integers(4)
        outcomes.append((("none", y), ("left", y + 0.5), ("right", y - 0.5),
                         ("interval", y - 0.4, y + 0.3))[kind])
        xs.append(x)
    tobit = make_dataset(outcomes, covariates=xs, names=("x1", "x2"))
    glm = Model(MODELS["censored-normal-glm"], tobit)
    glm_draws = lambda: np.column_stack([
        rng.normal([1.0, 0.8, -0.5], 0.2, size=(40, 3)),
        np.exp(rng.normal(0.2, 0.2, size=40)),
    ])
    aml = aml_dataset()
    survival = Model(MODELS["survival-exponential"], aml)
    surv_draws = lambda: rng.normal([-3.2, -0.9], [0.3, 0.4], size=(40, 2))
    ae = _ae_dataset()
    link = Model(MODELS["D"], ae)
    link_draws = lambda: np.column_stack([
        rng.normal(-3.5, 0.5, size=40), np.exp(rng.normal(size=40)),
        rng.normal(0.0, 0.7, size=(40, 5)),
    ])
    return [
        ("tobit", glm, tobit, glm_draws(), glm_draws()),
        ("survival", survival, aml, surv_draws(), surv_draws()),
        ("ae-logit", link, ae, link_draws(), link_draws()),
    ]


class TestPairedOptimism:
    @pytest.mark.parametrize("chunk_elements", [selection.POPT_CHUNK_ELEMENTS, 30])
    @pytest.mark.parametrize("case", _popt_cases(), ids=lambda c: c[0])
    def test_matches_scalar_reference(self, monkeypatch, chunk_elements, case):
        _, model, data, draws_a, draws_b = case
        monkeypatch.setattr(selection, "POPT_CHUNK_ELEMENTS", chunk_elements)
        p_opt, _ = compute_popt_ped(_samples(draws_a, model, 1), _samples(draws_b, model, 2),
                                    model, data)
        reference = _popt_reference(model, data, draws_a, draws_b)
        assert abs(p_opt - reference) <= POPT_RTOL * abs(reference)
