"""Concrete model families: exponential survival regression, censored
binomial adverse-event models A-G, and a generic censored normal GLM.

Every model exposes the same surface the sampler and the selection layer
drive:

* ``params``: ordered schema of named components with support descriptors
  ("real", "positive" or "unit");
* ``log_prior(theta)``: joint log prior density, -inf outside support, of
  one parameter vector (a float) or of each row of a (K, n_params) stack
  (an array of K), by the same float operations either way;
* ``family``: the outcome :class:`~censdev.distributions.Family` class;
* ``row_params(theta, cols)``: that family's parameters for every row of a
  :class:`~censdev.likelihood.DataColumns` block, as arrays, for one
  parameter vector or a stack of draws (what the sampler and the selection
  layer evaluate);
* ``outcome_family(theta, obs)``: the outcome distribution of one row, the
  scalar reference ``row_params`` is tested against;
* ``rows_for_param(j, data)``: row indices whose likelihood terms depend on
  component ``j`` (None means all rows), which lets single-site Metropolis
  updates skip untouched rows;
* ``levels`` and ``level_log_prior(theta)``: a model with a categorical
  index column has one parameter per level of it (B: the class incidences,
  C: the drug incidences, D/E/F: the drug effects, G: the study
  incidences).  Given the other components these are independent a priori
  and reach disjoint rows, so the sampler moves them as one block;
  ``level_log_prior`` returns each level's prior term (on the last axis,
  for a vector or a stack), and ``log_prior`` is the other components'
  terms plus their sum.

Categorical covariates (drug, drug class, study) must hold whole-number
codes below the number of levels the model has; anything else raises
:class:`~censdev.exceptions.DataError` when the row indices are built.

Adverse-event variants (one study-level binomial count per row, covariates
``drug``, ``drug_class``, ``study``):

* A - one pooled incidence, Beta prior;
* B - one incidence per drug class, independent Beta priors;
* C - drug incidences on the identity scale drawn from a common Beta
  hyperdistribution; the spread parameter gets a half-Cauchy prior and is
  mapped to a Beta concentration of 1/spread^2;
* D/E/F - hierarchical linear predictor mu + delta_drug through a logit,
  cloglog or probit link, delta ~ Normal(0, sigma^2), sigma ~ half-Cauchy;
* G - one incidence per study, no pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    Beta,
    Binomial,
    Exponential,
    Family,
    HalfCauchy,
    Normal,
    clamp_probability,
    clamp_probability_v,
    link_invert,
    link_invert_v,
)
from .exceptions import DataError, SchemaError
from .likelihood import (
    CensoredDataset,
    DataColumns,
    LikelihoodMode,
    Observation,
    loglik_dinterval_style,
    loglik_exact,
)

__all__ = [
    "Param",
    "SurvivalExpModel",
    "PooledBinomialModel",
    "TwoGroupBinomialModel",
    "DrugMeanBinomialModel",
    "DrugLinkBinomialModel",
    "SaturatedBinomialModel",
    "NormalGlmModel",
    "ae_model",
    "AE_VARIANTS",
    "outcome_families",
    "log_posterior_unnorm",
]

_NEG_INF = float("-inf")

# Rate/probability guards: keep families constructible at any proposal so a
# wild Metropolis step is rejected by its likelihood, not by an exception.
_MAX_RATE = 1e12
_MIN_RATE = 1e-12
_LOG_MAX_RATE = math.log(_MAX_RATE)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Param:
    """One named parameter with its support descriptor."""

    name: str
    support: str  # "real" | "positive" | "unit"

    def __post_init__(self):
        if self.support not in ("real", "positive", "unit"):
            raise SchemaError(f"unknown support {self.support!r} for {self.name!r}")


def _prior_value(total):
    """A float for one parameter vector, the array of values for a stack."""
    return float(total) if np.ndim(total) == 0 else total


def _normal_log_prior(x, precision):
    """Normal(0, 1/precision) log density at ``x``, elementwise.

    The arithmetic of the scalar normal priors, precision * x^2, which
    rounds differently from :meth:`Normal.log_pdf_v`'s (x sqrt(precision))^2;
    the survival, GLM and D/E/F mean priors keep it.
    """
    return 0.5 * (np.log(precision) - _LOG_2PI) - 0.5 * precision * (x * x)


class Model:
    """Base class: schema bookkeeping shared by every model."""

    params: tuple[Param, ...]
    family: type[Family]
    label: str = ""
    levels: tuple[int, ...] = ()  # component indices of the per-level parameters

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def supports(self) -> tuple[str, ...]:
        return tuple(p.support for p in self.params)

    def check_theta(self, theta) -> np.ndarray:
        """``theta`` as floats: one parameter vector or a (K, n_params) stack."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != len(self.params):
            raise SchemaError(
                f"{type(self).__name__} expects {len(self.params)} parameters, "
                f"got shape {theta.shape}"
            )
        return theta

    def log_prior(self, theta):
        """Joint log prior of one parameter vector (a float) or of each row
        of a (K, n_params) stack (an array); -inf outside the support."""
        raise NotImplementedError

    def level_log_prior(self, theta) -> np.ndarray:
        """Prior term of each component in ``levels``, in that order on the
        last axis, given the other components of ``theta`` (a vector or a
        stack); -inf for a level outside its support."""
        raise NotImplementedError

    def row_params(self, theta, cols: DataColumns) -> tuple[np.ndarray, ...]:
        """Outcome-family parameters of every row of ``cols``.

        ``theta`` is one parameter vector or a stack of draws, shape
        ``(..., n_params)``.  The arrays come in the family's field order,
        with the rows on their last axis and broadcasting over the leading
        axes of ``theta``; they carry the clamps of :meth:`outcome_family`.
        """
        raise NotImplementedError

    def outcome_family(self, theta, obs: Observation) -> Family:
        raise NotImplementedError

    def rows_for_param(self, j: int, data: CensoredDataset) -> Optional[np.ndarray]:
        return None

    def initial_theta(self) -> np.ndarray:
        """Starting point: prior means where defined, neutral values otherwise."""
        defaults = {"real": 0.0, "positive": 1.0, "unit": 0.5}
        return np.array([defaults[p.support] for p in self.params])


class SurvivalExpModel(Model):
    """Exponential survival regression with a binary group covariate.

    Per-row hazard rate exp(b0 + b1 * group); independent Normal(0, tau)
    priors on both coefficients with fixed small precision.
    """

    family = Exponential

    def __init__(self, tau0: float = 0.01, tau1: float = 0.01, group_col: int = 0):
        self.tau0 = float(tau0)
        self.tau1 = float(tau1)
        self.group_col = group_col
        self.params = (Param("b0", "real"), Param("b1", "real"))
        self.label = "survival-exponential"

    def log_prior(self, theta):
        theta = self.check_theta(theta)
        return _prior_value(_normal_log_prior(theta[..., 0], self.tau0)
                            + _normal_log_prior(theta[..., 1], self.tau1))

    def outcome_family(self, theta, obs):
        b0, b1 = theta
        group = obs.covariates[self.group_col]
        eta = b0 + b1 * group
        rate = math.exp(min(eta, math.log(_MAX_RATE)))
        return Exponential(rate=max(rate, _MIN_RATE))

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        eta = theta[..., 0:1] + theta[..., 1:2] * cols.covariates[:, self.group_col]
        rate = np.exp(np.minimum(eta, _LOG_MAX_RATE))
        return (np.maximum(rate, _MIN_RATE),)


class _BinomialModel(Model):
    """Shared helpers for the study-level adverse-event variants."""

    family = Binomial

    def _binomial_params(self, cols: DataColumns, p) -> tuple[np.ndarray, np.ndarray]:
        return cols.positive_trials(), clamp_probability_v(p)

    def _trials(self, obs: Observation) -> int:
        if obs.trials is None:
            raise DataError("adverse-event models need a trials count on every row")
        return obs.trials

    def _binomial(self, trials: int, p: float) -> Binomial:
        return Binomial(trials=trials, prob=clamp_probability(p))


class PooledBinomialModel(_BinomialModel):
    """Variant A: one incidence shared by every study."""

    def __init__(self, beta_shapes: tuple[float, float] = (1.0, 1.0)):
        self.beta_shapes = beta_shapes
        self.params = (Param("p_pool", "unit"),)
        self.label = "A"

    def log_prior(self, theta):
        theta = self.check_theta(theta)
        return _prior_value(Beta.log_pdf_v(theta[..., 0], *self.beta_shapes))

    def outcome_family(self, theta, obs):
        return self._binomial(self._trials(obs), theta[0])

    def row_params(self, theta, cols):
        return self._binomial_params(cols, np.asarray(theta, dtype=float)[..., 0:1])


class TwoGroupBinomialModel(_BinomialModel):
    """Variant B: independent incidences for the two drug classes."""

    def __init__(
        self,
        beta_shapes: tuple[float, float] = (1.0, 1.0),
        class_col: int = 1,
    ):
        self.beta_shapes = beta_shapes
        self.class_col = class_col
        self.params = (Param("p_class0", "unit"), Param("p_class1", "unit"))
        self.levels = (0, 1)
        self.label = "B"

    def level_log_prior(self, theta):
        return Beta.log_pdf_v(theta, *self.beta_shapes)

    def log_prior(self, theta):
        return _prior_value(self.level_log_prior(self.check_theta(theta)).sum(axis=-1))

    def _class_of(self, obs):
        return int(obs.covariates[self.class_col])

    def outcome_family(self, theta, obs):
        return self._binomial(self._trials(obs), theta[self._class_of(obs)])

    def _classes(self, cols):
        return cols.codes(self.class_col, len(self.params))

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        return self._binomial_params(cols, theta[..., self._classes(cols)])

    def rows_for_param(self, j, data):
        return np.flatnonzero(self._classes(data.columns) == j)


class DrugMeanBinomialModel(_BinomialModel):
    """Variant C: drug incidences partially pooled on the identity scale.

    p_d ~ Beta(mu * kappa, (1 - mu) * kappa) with kappa = 1 / spread^2,
    spread ~ half-Cauchy(scale), mu ~ Beta(beta_shapes).
    """

    def __init__(
        self,
        n_drugs: int = 5,
        beta_shapes: tuple[float, float] = (1.0, 1.0),
        half_cauchy_scale: float = 1.0,
        drug_col: int = 0,
    ):
        self.n_drugs = n_drugs
        self.beta_shapes = beta_shapes
        self.half_cauchy_scale = half_cauchy_scale
        self.drug_col = drug_col
        self.params = (
            Param("mu", "unit"),
            Param("spread", "positive"),
            *(Param(f"p_drug{d}", "unit") for d in range(n_drugs)),
        )
        self.levels = tuple(range(2, 2 + n_drugs))
        self.label = "C"

    def level_log_prior(self, theta):
        return self._drug_terms(theta[..., 2:], theta[..., 0:1], theta[..., 1:2])

    @staticmethod
    def _drug_terms(p, mu, spread):
        kappa = 1.0 / (spread * spread)
        return Beta.log_pdf_v(p, mu * kappa, (1.0 - mu) * kappa)

    def log_prior(self, theta):
        theta = self.check_theta(theta)
        mu, spread = theta[..., 0], theta[..., 1]
        total = Beta.log_pdf_v(mu, *self.beta_shapes)
        total = total + HalfCauchy.log_pdf_v(spread, self.half_cauchy_scale)
        # A zero spread would divide by zero in the drug terms; a stand-in
        # keeps them quiet and the mask below makes the prior -inf.
        positive = spread > 0.0
        spread = np.where(positive, spread, 1.0)
        drugs = self._drug_terms(theta[..., 2:], mu[..., None], spread[..., None])
        total = total + drugs.sum(axis=-1)
        inside = (mu > 0.0) & (mu < 1.0) & positive
        return _prior_value(np.where(inside, total, _NEG_INF))

    def _drug_of(self, obs):
        return int(obs.covariates[self.drug_col])

    def outcome_family(self, theta, obs):
        return self._binomial(self._trials(obs), theta[2 + self._drug_of(obs)])

    def _drugs(self, cols):
        return cols.codes(self.drug_col, self.n_drugs)

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        return self._binomial_params(cols, theta[..., 2 + self._drugs(cols)])

    def rows_for_param(self, j, data):
        drugs = self._drugs(data.columns)
        if j < 2:
            return np.empty(0, dtype=np.intp)  # hyperparameters touch the prior only
        return np.flatnonzero(drugs == j - 2)


class DrugLinkBinomialModel(_BinomialModel):
    """Variants D/E/F: hierarchical drug effects behind a link function."""

    def __init__(
        self,
        link: str,
        n_drugs: int = 5,
        mean_precision: float = 0.01,
        half_cauchy_scale: float = 1.0,
        drug_col: int = 0,
        label: str = "",
    ):
        self.link = link
        self.n_drugs = n_drugs
        self.mean_precision = mean_precision
        self.half_cauchy_scale = half_cauchy_scale
        self.drug_col = drug_col
        self.params = (
            Param("mu", "real"),
            Param("sigma", "positive"),
            *(Param(f"delta_drug{d}", "real") for d in range(n_drugs)),
        )
        self.levels = tuple(range(2, 2 + n_drugs))
        self.label = label or {"logit": "D", "cloglog": "E", "probit": "F"}[link]

    def level_log_prior(self, theta):
        return self._effect_terms(theta[..., 2:], theta[..., 1:2])

    @staticmethod
    def _effect_terms(delta, sigma):
        return Normal.log_pdf_v(delta, 0.0, 1.0 / (sigma * sigma))

    def log_prior(self, theta):
        theta = self.check_theta(theta)
        mu, sigma = theta[..., 0], theta[..., 1]
        total = _normal_log_prior(mu, self.mean_precision)
        total = total + HalfCauchy.log_pdf_v(sigma, self.half_cauchy_scale)
        # A zero sigma would divide by zero in the effect terms; a stand-in
        # keeps them quiet and the mask below makes the prior -inf.
        positive = sigma > 0.0
        sigma = np.where(positive, sigma, 1.0)
        total = total + self._effect_terms(theta[..., 2:], sigma[..., None]).sum(axis=-1)
        return _prior_value(np.where(positive, total, _NEG_INF))

    def _drug_of(self, obs):
        return int(obs.covariates[self.drug_col])

    def outcome_family(self, theta, obs):
        eta = theta[0] + theta[2 + self._drug_of(obs)]
        return self._binomial(self._trials(obs), link_invert(self.link, eta))

    def _drugs(self, cols):
        return cols.codes(self.drug_col, self.n_drugs)

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        eta = theta[..., 0:1] + theta[..., 2 + self._drugs(cols)]
        return self._binomial_params(cols, link_invert_v(self.link, eta))

    def rows_for_param(self, j, data):
        drugs = self._drugs(data.columns)
        if j == 0:
            return None
        if j == 1:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(drugs == j - 2)


class SaturatedBinomialModel(_BinomialModel):
    """Variant G: one incidence per study, no pooling."""

    def __init__(
        self,
        n_studies: int,
        beta_shapes: tuple[float, float] = (1.0, 1.0),
        study_col: int = 2,
    ):
        self.n_studies = n_studies
        self.beta_shapes = beta_shapes
        self.study_col = study_col
        self.params = tuple(Param(f"p_study{s}", "unit") for s in range(n_studies))
        self.levels = tuple(range(n_studies))
        self.label = "G"

    def level_log_prior(self, theta):
        return Beta.log_pdf_v(theta, *self.beta_shapes)

    def log_prior(self, theta):
        return _prior_value(self.level_log_prior(self.check_theta(theta)).sum(axis=-1))

    def _study_of(self, obs):
        return int(obs.covariates[self.study_col])

    def outcome_family(self, theta, obs):
        return self._binomial(self._trials(obs), theta[self._study_of(obs)])

    def _studies(self, cols):
        return cols.codes(self.study_col, self.n_studies)

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        return self._binomial_params(cols, theta[..., self._studies(cols)])

    def rows_for_param(self, j, data):
        return np.flatnonzero(self._studies(data.columns) == j)


class NormalGlmModel(Model):
    """Generic censored normal regression (tobit-style escape hatch).

    Mean is a linear function of all covariates plus an intercept; the
    residual scale gets a half-Cauchy prior.  Provided for completeness,
    exercised only by smoke tests.
    """

    family = Normal

    def __init__(
        self,
        n_covariates: int,
        coef_precision: float = 0.01,
        half_cauchy_scale: float = 1.0,
    ):
        self.n_covariates = n_covariates
        self.coef_precision = coef_precision
        self.half_cauchy_scale = half_cauchy_scale
        self.params = (
            Param("intercept", "real"),
            *(Param(f"beta{k}", "real") for k in range(n_covariates)),
            Param("sigma", "positive"),
        )
        self.label = "censored-normal-glm"

    def log_prior(self, theta):
        theta = self.check_theta(theta)
        sigma = theta[..., -1]
        total = HalfCauchy.log_pdf_v(sigma, self.half_cauchy_scale)
        for k in range(len(self.params) - 1):
            total = total + _normal_log_prior(theta[..., k], self.coef_precision)
        return _prior_value(np.where(sigma > 0.0, total, _NEG_INF))

    def outcome_family(self, theta, obs):
        mean = theta[0] + float(np.dot(theta[1:-1], obs.covariates))
        sigma = max(theta[-1], _MIN_RATE)
        return Normal(mean=mean, precision=1.0 / (sigma * sigma))

    def row_params(self, theta, cols):
        theta = np.asarray(theta, dtype=float)
        mean = theta[..., 0:1] + theta[..., 1:-1] @ cols.covariates.T
        sigma = np.maximum(theta[..., -1:], _MIN_RATE)
        return mean, 1.0 / (sigma * sigma)


AE_VARIANTS = ("A", "B", "C", "D", "E", "F", "G")


def ae_model(
    variant: str,
    n_drugs: int = 5,
    n_studies: Optional[int] = None,
    beta_shapes: tuple[float, float] = (1.0, 1.0),
    half_cauchy_scale: float = 1.0,
    mean_precision: float = 0.01,
) -> Model:
    """Build one of the adverse-event binomial variants A-G."""
    variant = variant.upper()
    if variant == "A":
        return PooledBinomialModel(beta_shapes)
    if variant == "B":
        return TwoGroupBinomialModel(beta_shapes)
    if variant == "C":
        return DrugMeanBinomialModel(n_drugs, beta_shapes, half_cauchy_scale)
    if variant in ("D", "E", "F"):
        link = {"D": "logit", "E": "cloglog", "F": "probit"}[variant]
        return DrugLinkBinomialModel(
            link, n_drugs, mean_precision, half_cauchy_scale
        )
    if variant == "G":
        if n_studies is None:
            raise SchemaError("variant G needs the number of studies")
        return SaturatedBinomialModel(n_studies, beta_shapes)
    raise SchemaError(f"unknown adverse-event variant {variant!r}")


def outcome_families(model: Model, theta, data: CensoredDataset) -> list[Family]:
    """Per-row outcome distributions at a fixed parameter vector."""
    return [model.outcome_family(theta, obs) for obs in data]


def log_posterior_unnorm(
    model: Model,
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
