"""Scalar references for the model table.

``outcome_family(model, theta, obs)`` builds one row's outcome distribution
by each entry's scalar arithmetic, the reference that ``Model.row_params``
is checked against; ``outcome_families`` and ``log_posterior_unnorm``
compose it with the per-row likelihood functions of ``censdev.likelihood``.
"""

from __future__ import annotations

import math

import numpy as np

from censdev.distributions import (
    Binomial,
    Exponential,
    Family,
    Normal,
    clamp_probability,
    link_invert,
)
from censdev.exceptions import DataError, SchemaError
from censdev.likelihood import (
    CensoredDataset,
    LikelihoodMode,
    Observation,
    loglik_dinterval_style,
    loglik_exact,
)

_NEG_INF = float("-inf")
_MAX_RATE = 1e12
_MIN_RATE = 1e-12


def _survival(model, theta, obs):
    b0, b1 = theta
    group = obs.covariates[model.covariate_cols[0]]
    eta = b0 + b1 * group
    rate = math.exp(min(eta, math.log(_MAX_RATE)))
    return Exponential(rate=max(rate, _MIN_RATE))


def _trials(obs: Observation) -> int:
    if obs.trials is None:
        raise DataError("adverse-event models need a trials count on every row")
    return obs.trials


def _binomial(trials: int, p: float) -> Binomial:
    return Binomial(trials=trials, prob=clamp_probability(p))


def _level_of(model, obs) -> int:
    return int(obs.covariates[model.index_col])


def _pooled(model, theta, obs):  # A
    return _binomial(_trials(obs), theta[0])


def _two_group(model, theta, obs):  # B
    return _binomial(_trials(obs), theta[_level_of(model, obs)])


def _drug_mean(model, theta, obs):  # C
    return _binomial(_trials(obs), theta[2 + _level_of(model, obs)])


def _drug_link(model, theta, obs):  # D, E, F
    eta = theta[0] + theta[2 + _level_of(model, obs)]
    return _binomial(_trials(obs), link_invert(model.link, eta))


def _saturated(model, theta, obs):  # G
    return _binomial(_trials(obs), theta[_level_of(model, obs)])


def _normal_glm(model, theta, obs):
    mean = theta[0] + float(np.dot(theta[1:-1], obs.covariates))
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


def outcome_family(model, theta, obs: Observation) -> Family:
    """The outcome distribution of one row at one parameter vector."""
    return _SCALAR[model.spec.name](model, theta, obs)


def outcome_families(model, theta, data: CensoredDataset) -> list[Family]:
    """Per-row outcome distributions at a fixed parameter vector."""
    return [outcome_family(model, theta, obs) for obs in data]


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
