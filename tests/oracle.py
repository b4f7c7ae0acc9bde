"""Scalar references for the model table and the likelihood functions.

``outcome_family(model, theta, cols, i)`` builds the outcome distribution of
row ``i`` of a :class:`~censdev.likelihood.DataColumns` block by each
entry's scalar arithmetic, the reference that ``Model.row_params`` is
checked against; ``outcome_families`` lists it for every row of a dataset.

``exact_contribution(s)``, ``loglik_exact``, ``loglik_bernoulli_reform`` and
``loglik_dinterval_style`` are the per-row versions of the columnar
likelihood functions of ``censdev.likelihood``: they take one scalar
``Family`` object per row and score the rows one at a time, the reference
the columnar functions are checked against.  ``log_posterior_unnorm``
composes them with a model's prior.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from censdev.distributions import (
    Binomial,
    Exponential,
    Family,
    Normal,
    bernoulli_log_prob,
    clamp_probability,
    link_invert,
)
from censdev.exceptions import DataError, SchemaError
from censdev.likelihood import (
    KIND_LEFT,
    KIND_OBSERVED,
    KIND_RIGHT,
    CensoredDataset,
    DIntervalLogLik,
    LikelihoodMode,
)

_NEG_INF = float("-inf")
_MAX_RATE = 1e12
_MIN_RATE = 1e-12


# ---------------------------------------------------------------------------
# Per-row outcome distributions of the model table
# ---------------------------------------------------------------------------


def _survival(model, theta, cols, i):
    b0, b1 = theta
    group = cols.covariates[i, model.covariate_cols[0]]
    eta = b0 + b1 * group
    rate = math.exp(min(eta, math.log(_MAX_RATE)))
    return Exponential(rate=max(rate, _MIN_RATE))


def _trials(cols, i) -> int:
    if not cols.trials[i]:
        raise DataError("adverse-event models need a trials count on every row")
    return int(cols.trials[i])


def _binomial(trials: int, p: float) -> Binomial:
    return Binomial(trials=trials, prob=clamp_probability(p))


def _level_of(model, cols, i) -> int:
    return int(cols.covariates[i, model.index_col])


def _pooled(model, theta, cols, i):  # A
    return _binomial(_trials(cols, i), theta[0])


def _two_group(model, theta, cols, i):  # B
    return _binomial(_trials(cols, i), theta[_level_of(model, cols, i)])


def _drug_mean(model, theta, cols, i):  # C
    return _binomial(_trials(cols, i), theta[2 + _level_of(model, cols, i)])


def _drug_link(model, theta, cols, i):  # D, E, F
    eta = theta[0] + theta[2 + _level_of(model, cols, i)]
    return _binomial(_trials(cols, i), link_invert(model.link, eta))


def _saturated(model, theta, cols, i):  # G
    return _binomial(_trials(cols, i), theta[_level_of(model, cols, i)])


def _normal_glm(model, theta, cols, i):
    mean = theta[0] + float(np.dot(theta[1:-1], cols.covariates[i]))
    sigma = max(theta[-1], _MIN_RATE)
    return Normal(mean=mean, precision=1.0 / (sigma * sigma))


_SCALAR = {
    "survival-exponential": _survival,
    "A": _pooled,
    "B": _two_group,
    "C": _drug_mean,
    "D": _drug_link,
    "E": _drug_link,
    "F": _drug_link,
    "G": _saturated,
    "censored-normal-glm": _normal_glm,
}


def outcome_family(model, theta, cols, i: int) -> Family:
    """The outcome distribution of row ``i`` of ``cols`` at one parameter vector."""
    return _SCALAR[model.spec.name](model, theta, cols, i)


def outcome_families(model, theta, data: CensoredDataset) -> list[Family]:
    """Per-row outcome distributions at a fixed parameter vector."""
    return [outcome_family(model, theta, data.columns, i) for i in range(len(data))]


# ---------------------------------------------------------------------------
# Per-row likelihoods
# ---------------------------------------------------------------------------


def _check_alignment(data: CensoredDataset, dists: Sequence[Family]) -> None:
    if len(dists) != len(data):
        raise DataError(
            f"{len(dists)} outcome distributions for {len(data)} observations"
        )


def exact_contribution(family: Family, cols, i: int) -> float:
    """Per-row term of the exact censored log-likelihood."""
    if cols.kind[i] == KIND_OBSERVED:
        return family.log_pdf(float(cols.value[i]))
    return family.log_interval_prob(float(cols.lo[i]), float(cols.hi[i]))


def exact_contributions(
    data: CensoredDataset, outcome_dists: Sequence[Family]
) -> np.ndarray:
    """Vector of per-row exact log-likelihood contributions."""
    _check_alignment(data, outcome_dists)
    return np.array(
        [exact_contribution(fam, data.columns, i) for i, fam in enumerate(outcome_dists)]
    )


def loglik_exact(data: CensoredDataset, outcome_dists: Sequence[Family]) -> float:
    """Total exact censored log-likelihood; -inf flags a zero-probability row."""
    return float(exact_contributions(data, outcome_dists).sum())


def loglik_bernoulli_reform(
    data: CensoredDataset, outcome_dists: Sequence[Family]
) -> float:
    """Exact likelihood computed through the Bernoulli-indicator route, row
    by row: log f(y) for observed rows, Bernoulli(1; F(cut)) for left-,
    Bernoulli(0; F(cut^-)) for right- and Bernoulli(1; F(cut2) - F(cut1^-))
    for interval-censored rows."""
    _check_alignment(data, outcome_dists)
    cols = data.columns
    total = 0.0
    for i, fam in enumerate(outcome_dists):
        kind, lo, hi = cols.kind[i], float(cols.lo[i]), float(cols.hi[i])
        if kind == KIND_OBSERVED:
            total += fam.log_pdf(float(cols.value[i]))
        elif kind == KIND_LEFT:
            total += bernoulli_log_prob(1, math.exp(fam.log_cdf(hi)))
        elif kind == KIND_RIGHT:
            total += bernoulli_log_prob(0, math.exp(fam.log_cdf_left_limit(lo)))
        else:
            p = math.exp(fam.log_cdf(hi)) - math.exp(fam.log_cdf_left_limit(lo))
            total += bernoulli_log_prob(1, clamp_probability(p))
    return total


def loglik_dinterval_style(
    data: CensoredDataset,
    outcome_dists: Sequence[Family],
    latent_values: Mapping[int, float],
) -> DIntervalLogLik:
    """Log-likelihood pair under latent-imputation bookkeeping, row by row;
    ``latent_values`` maps each censored row to its imputed value."""
    _check_alignment(data, outcome_dists)
    cols = data.columns
    sampler = 0.0
    monitored = 0.0
    for i, fam in enumerate(outcome_dists):
        if cols.kind[i] == KIND_OBSERVED:
            term = fam.log_pdf(float(cols.value[i]))
            sampler += term
            monitored += term
            continue
        if i not in latent_values:
            raise DataError(f"row {i}: censored row missing a latent value")
        value = latent_values[i]
        lo, hi = float(cols.lo[i]), float(cols.hi[i])
        if not lo <= value <= hi:
            raise DataError(
                f"row {i}: latent value {value} outside censoring region [{lo}, {hi}]"
            )
        sampler += fam.log_pdf(value)
    return DIntervalLogLik(sampler_loglik=sampler, monitored_loglik=monitored)


def log_posterior_unnorm(
    model,
    theta,
    data: CensoredDataset,
    mode: LikelihoodMode = LikelihoodMode.EXACT,
    latent_values=None,
) -> float:
    """Log prior plus the mode's sampler log-likelihood (unnormalized).

    In DINTERVAL mode the sampler target conditions on the supplied latent
    values; they are required there and rejected elsewhere.
    """
    theta = model.check_theta(theta)
    if theta.ndim != 1:
        raise SchemaError(f"expected one parameter vector, got shape {theta.shape}")
    lp = model.log_prior(theta)
    if lp == _NEG_INF:
        return _NEG_INF
    dists = outcome_families(model, theta, data)
    if mode is LikelihoodMode.EXACT:
        if latent_values is not None:
            raise SchemaError("latent values are only meaningful in DINTERVAL mode")
        return lp + loglik_exact(data, dists)
    if latent_values is None:
        raise SchemaError("DINTERVAL mode requires latent values for censored rows")
    return lp + loglik_dinterval_style(data, dists, latent_values).sampler_loglik
