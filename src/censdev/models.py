"""The model table: every censored model as one declarative entry.

Each entry of :data:`MODELS` is a :class:`ModelSpec`: the outcome family and
link, the categorical index column that carries one parameter per code, how
those per-level parameters are pooled, the named covariate columns, the
parameter layout and the accepted hyperparameters with their defaults.  One
:class:`Model`, built from ``(spec, data, **hyperparameters)``, derives from
its entry, once, the surface the sampler and the selection layer drive:

* ``params``, ``param_names`` and ``supports``: the ordered components with
  their support descriptors ("real", "positive" or "unit");
* ``prior_terms``: the log prior's factors beside the level terms, each a
  :class:`Term` naming the components it reads;
* ``levels``, ``level_reads`` and ``level_log_prior(theta)``: a model with
  an index column has one parameter per code of it (B: the class
  incidences, C: the drug incidences, D/E/F: the drug effects, G: the study
  incidences).  Given the other components these are independent a priori
  and reach disjoint rows, so the sampler moves them as one block;
  ``level_log_prior`` returns each level's term (on the last axis), which
  reads the level and ``level_reads`` (C's mu and spread, D/E/F's sigma);
* ``log_prior(theta)``: the sum of all those terms, -inf outside support,
  of one parameter vector (a float) or of each row of a (K, n_params)
  stack (an array of K), by the same float operations either way;
* ``family``: the outcome :class:`~censdev.distributions.Family` class;
* ``row_params(theta, cols)``: that family's parameters for every row of a
  :class:`~censdev.likelihood.DataColumns` block, as arrays, for one
  parameter vector or a stack of draws;
* ``rows_for_param(j, data)``: row indices whose likelihood terms depend on
  component ``j`` (None means all rows), which lets single-site Metropolis
  updates skip untouched rows;
* ``initial_theta()``: the sampler's starting point.

The entries:

* ``survival-exponential`` - hazard rate exp(b0 + b1 * group), independent
  Normal(0, 1/tau) priors on both coefficients;
* ``A`` - one pooled incidence, Beta prior;
* ``B`` - one incidence per drug class, independent Beta priors;
* ``C`` - drug incidences on the identity scale drawn from a common Beta
  hyperdistribution; the spread parameter gets a half-Cauchy prior and is
  mapped to a Beta concentration of 1/spread^2;
* ``D``/``E``/``F`` - hierarchical linear predictor mu + delta_drug through
  a logit, cloglog or probit link, delta ~ Normal(0, sigma^2), sigma ~
  half-Cauchy;
* ``G`` - one incidence per study, no pooling;
* ``censored-normal-glm`` - mean linear in every covariate plus an
  intercept, Normal coefficient priors, half-Cauchy residual scale.

Building a model checks the data against it and raises
:class:`~censdev.exceptions.DataError` naming the row or column for a
missing covariate column, category codes that are not whole numbers or skip
a code below their maximum, an observed value outside the family's support
and a censoring region that holds none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

from .distributions import (
    Beta,
    Binomial,
    Exponential,
    Family,
    HalfCauchy,
    Normal,
    clamp_probability_v,
    link_invert_v,
)
from .exceptions import DataError, SchemaError
from .likelihood import KIND_INTERVAL, KIND_OBSERVED, CensoredDataset, DataColumns

__all__ = ["Param", "ModelSpec", "MODELS", "AE_VARIANTS", "Term", "Model"]

_NEG_INF = float("-inf")

# Rate guards: keep families constructible at any proposal so a wild
# Metropolis step is rejected by its likelihood, not by an exception.
_MAX_RATE = 1e12
_MIN_RATE = 1e-12
_LOG_MAX_RATE = math.log(_MAX_RATE)
_LOG_2PI = math.log(2.0 * math.pi)
# The level priors' scales are -inf at or below this, as at zero: the
# half-Cauchy prior puts mass below 1e-150 / half_cauchy_scale there.
_MIN_SCALE = 1e-150
_INITIAL = {"real": 0.0, "positive": 1.0, "unit": 0.5}


@dataclass(frozen=True)
class Param:
    """One named parameter with its support descriptor."""

    name: str
    support: str  # "real" | "positive" | "unit"

    def __post_init__(self):
        if self.support not in _INITIAL:
            raise SchemaError(f"unknown support {self.support!r} for {self.name!r}")


@dataclass(frozen=True)
class ModelSpec:
    """One entry of the model table.

    A "{}" in a parameter name stands for one parameter per level of the
    index column or, without one, per covariate.  Per-level parameters come
    last.  ``pooling`` says how the levels are tied together: "none" (no
    levels), "beta" (independent Beta priors), "beta-hyper" (a Beta
    hyperdistribution with mean mu and spread) or "normal-hyper" (Normal
    effects with scale sigma behind the link).
    """

    name: str  # the model's label, a variant's letter
    section: str  # the config "family" that selects it
    family: type[Family]
    link: str  # "log", "identity", "logit", "cloglog" or "probit"
    params: tuple[Param, ...]
    hyperparameters: Mapping[str, Any]  # accepted keys and their defaults
    index: Optional[str] = None
    pooling: str = "none"
    covariates: Optional[tuple[str, ...]] = ()  # None: every covariate column


def _binomial(name, link, params, pooling="none", **fields) -> ModelSpec:
    """A censored-binomial entry taking the hyperparameters its pooling's terms read."""
    keys = {"beta-hyper": ("beta_shapes", "half_cauchy_scale"),
            "normal-hyper": ("half_cauchy_scale", "mean_precision")}.get(pooling, ("beta_shapes",))
    hyper = {"beta_shapes": (1.0, 1.0), "half_cauchy_scale": 1.0, "mean_precision": 0.01}
    return ModelSpec(name, "censored-binomial", Binomial, link, params,
                     {key: hyper[key] for key in keys}, pooling=pooling, **fields)


_DRUG_EFFECTS = (Param("mu", "real"), Param("sigma", "positive"), Param("delta_drug{}", "real"))

MODELS: dict[str, ModelSpec] = {spec.name: spec for spec in (
    ModelSpec("survival-exponential", "survival-exponential", Exponential, "log",
              (Param("b0", "real"), Param("b1", "real")), {"tau0": 0.01, "tau1": 0.01},
              covariates=("group",)),
    _binomial("A", "identity", (Param("p_pool", "unit"),)),
    _binomial("B", "identity", (Param("p_class{}", "unit"),), index="drug_class",
              pooling="beta"),
    _binomial("C", "identity",
              (Param("mu", "unit"), Param("spread", "positive"), Param("p_drug{}", "unit")),
              index="drug", pooling="beta-hyper"),
    _binomial("D", "logit", _DRUG_EFFECTS, index="drug", pooling="normal-hyper"),
    _binomial("E", "cloglog", _DRUG_EFFECTS, index="drug", pooling="normal-hyper"),
    _binomial("F", "probit", _DRUG_EFFECTS, index="drug", pooling="normal-hyper"),
    _binomial("G", "identity", (Param("p_study{}", "unit"),), index="study", pooling="beta"),
    ModelSpec("censored-normal-glm", "censored-normal-glm", Normal, "identity",
              (Param("intercept", "real"), Param("beta{}", "real"), Param("sigma", "positive")),
              {"coef_precision": 0.01, "half_cauchy_scale": 1.0}, covariates=None),
)}

AE_VARIANTS = tuple(name for name, spec in MODELS.items() if spec.section == "censored-binomial")


def _normal_log_prior(x, precision):
    """Normal(0, 1/precision) log density at ``x``, elementwise.

    The arithmetic of the scalar normal priors, precision * x^2, which
    rounds differently from :meth:`Normal.log_pdf_v`'s (x sqrt(precision))^2;
    the survival, GLM and D/E/F mean priors keep it.
    """
    return 0.5 * (np.log(precision) - _LOG_2PI) - 0.5 * precision * (x * x)


class Term(NamedTuple):
    """One factor of a model's log prior: ``log_density(theta)``, of a vector
    or of each row of a stack, depends only on the components in ``reads``."""

    reads: tuple[int, ...]
    log_density: Callable[[np.ndarray], np.ndarray]


def _term(j: int, log_pdf, *args) -> Term:
    """The prior term ``log_pdf(theta_j, *args)`` of component ``j`` alone."""
    return Term((j,), lambda theta: log_pdf(theta[..., j], *args))


class Model:
    """A table entry built against a dataset."""

    def __init__(self, spec: ModelSpec, data: CensoredDataset, **hyperparameters):
        unknown = set(hyperparameters) - set(spec.hyperparameters)
        if unknown:
            raise SchemaError(f"unknown hyperparameters for {spec.name}: {sorted(unknown)}; "
                              f"allowed: {sorted(spec.hyperparameters)}")
        hyper = {key: (tuple(map(float, value)) if key == "beta_shapes" else float(value))
                 for key, value in {**spec.hyperparameters, **hyperparameters}.items()}
        cols = data.columns
        self.spec = spec
        self.label = spec.name
        self.family = spec.family
        self.link = spec.link
        self.covariate_cols = (tuple(range(cols.covariates.shape[1])) if spec.covariates is None
                               else tuple(_column(data, name) for name in spec.covariates))
        self.index_col = None if spec.index is None else _column(data, spec.index)
        self.n_levels = 0 if spec.index is None else _level_count(cols, self.index_col)
        _check_support(spec.family, cols)

        count = self.n_levels if spec.index else len(self.covariate_cols)
        self.params = tuple(
            Param(p.name.format(k), p.support)
            for p in spec.params for k in (range(count) if "{}" in p.name else (None,))
        )
        self.param_names = tuple(p.name for p in self.params)
        self.supports = tuple(p.support for p in self.params)
        self._first_level = first = len(spec.params) - 1
        self.levels = tuple(range(first, len(self.params))) if spec.index else ()
        # The components the level terms read beside the levels, which reach
        # no row: C's mu and spread, D/E/F's sigma.
        hyper_pooled = spec.pooling.endswith("-hyper")
        self.level_reads = (() if not hyper_pooled
                            else (1,) if spec.link != "identity" else (0, 1))

        self._scale = hyper.get("half_cauchy_scale")
        self._shapes = hyper.get("beta_shapes")
        last = len(self.params) - 1
        if spec.family is Exponential:
            self._group_col = self.covariate_cols[0]
            terms = [_term(j, _normal_log_prior, hyper[f"tau{j}"]) for j in (0, 1)]
            self._row_params = self._rate
        elif spec.family is Normal:
            terms = [Term((last,), self._positive_scale)] + [
                _term(j, _normal_log_prior, hyper["coef_precision"]) for j in range(last)]
            self._row_params = self._normal_params
        else:  # A: the mean's term; B, G: level terms only; C, D/E/F: mean and scale
            mean = (_term(0, _normal_log_prior, hyper["mean_precision"])
                    if spec.pooling == "normal-hyper" else _term(0, Beta.log_pdf_v, *self._shapes))
            terms = ([mean, _term(1, HalfCauchy.log_pdf_v, self._scale)] if hyper_pooled
                     else [] if spec.index else [mean])
            self._row_params = self._probability
        self.prior_terms = tuple(terms)

    def check_theta(self, theta) -> np.ndarray:
        """``theta`` as floats: one parameter vector or a (K, n_params) stack."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != len(self.params):
            raise SchemaError(
                f"{self.label} expects {len(self.params)} parameters, got shape {theta.shape}"
            )
        return theta

    def log_prior(self, theta):
        """Joint log prior of one parameter vector (a float) or of each row
        of a (K, n_params) stack (an array): the prior terms in order, then
        the sum of the level terms; -inf outside the support."""
        theta = self.check_theta(theta)
        values = [term.log_density(theta) for term in self.prior_terms]
        if self.levels:
            values.append(self.level_log_prior(theta).sum(axis=-1))
        total = sum(values[1:], values[0])
        return float(total) if np.ndim(total) == 0 else total

    def row_params(self, theta, cols: DataColumns) -> tuple[np.ndarray, ...]:
        """Outcome-family parameters of every row of ``cols``.

        ``theta`` is one parameter vector or a stack of draws, shape
        ``(..., n_params)``.  The arrays come in the family's field order,
        with the rows on their last axis and broadcasting over the leading
        axes of ``theta``; rates and probabilities are clamped so every
        proposal gives a valid family.
        """
        return self._row_params(np.asarray(theta, dtype=float), cols)

    def rows_for_param(self, j: int, data: CensoredDataset) -> Optional[np.ndarray]:
        if j in self.levels:
            codes = data.columns.codes(self.index_col, self.n_levels)
            return np.flatnonzero(codes == j - self._first_level)
        if j in self.level_reads:
            return np.empty(0, dtype=np.intp)
        return None

    def initial_theta(self) -> np.ndarray:
        """Starting point: neutral values of each support."""
        return np.array([_INITIAL[s] for s in self.supports])

    # -- priors ------------------------------------------------------------
    def level_log_prior(self, theta) -> np.ndarray:
        """Prior term of each component in ``levels``, in that order on the
        last axis, of a vector or a stack; each reads its level and the
        components in ``level_reads``, and is -inf where they leave the
        support (C: mu outside (0, 1); C, D/E/F: a scale at or below
        _MIN_SCALE)."""
        levels = theta[..., self._first_level:]
        if not self.level_reads:
            return Beta.log_pdf_v(levels, *self._shapes)
        mu, scale = theta[..., 0:1], theta[..., 1:2]
        # At or below _MIN_SCALE, 1/scale^2 is 1e300 or more (inf at zero or
        # when the square underflows) and the terms can turn NaN; a stand-in
        # keeps them quiet and the mask makes them -inf.
        inside = scale > _MIN_SCALE
        scale = np.where(inside, scale, 1.0)
        if self.spec.pooling == "beta-hyper":
            kappa = 1.0 / (scale * scale)
            out = Beta.log_pdf_v(levels, mu * kappa, (1.0 - mu) * kappa)
            inside = inside & (mu > 0.0) & (mu < 1.0)
        else:
            out = Normal.log_pdf_v(levels, 0.0, 1.0 / (scale * scale))
        return np.where(inside, out, _NEG_INF)

    def _positive_scale(self, theta):
        """The GLM's half-Cauchy term of its residual scale, -inf at <= 0."""
        sigma = theta[..., -1]
        return np.where(sigma > 0.0, HalfCauchy.log_pdf_v(sigma, self._scale), _NEG_INF)

    # -- outcome parameters ----------------------------------------------------
    def _rate(self, theta, cols):
        eta = theta[..., 0:1] + theta[..., 1:2] * cols.covariates[:, self._group_col]
        rate = np.exp(np.minimum(eta, _LOG_MAX_RATE))
        return (np.maximum(rate, _MIN_RATE),)

    @staticmethod
    def _normal_params(theta, cols):
        mean = theta[..., 0:1] + theta[..., 1:-1] @ cols.covariates.T
        sigma = np.maximum(theta[..., -1:], _MIN_RATE)
        return mean, 1.0 / (sigma * sigma)

    def _probability(self, theta, cols):
        if self.index_col is None:
            p = theta[..., 0:1]
        else:
            p = theta[..., self._first_level:][..., cols.codes(self.index_col, self.n_levels)]
        if self.link != "identity":  # link_invert_v applies the same clamp
            return cols.positive_trials(), link_invert_v(self.link, theta[..., 0:1] + p)
        return cols.positive_trials(), clamp_probability_v(p)


# ---------------------------------------------------------------------------
# Checks of a dataset against a model
# ---------------------------------------------------------------------------


def _column(data: CensoredDataset, name: str) -> int:
    if name not in data.covariate_names:
        raise DataError(
            f"dataset has no covariate column {name!r}; "
            f"available: {list(data.covariate_names)}"
        )
    return data.covariate_names.index(name)


def _level_count(cols: DataColumns, col: int) -> int:
    """The levels of category column ``col``: its codes must run 0..max.

    Gap-free codes stay below the row count, so that bounds them before
    they are cast and counted.
    """
    seen = np.bincount(cols.codes(col, len(cols)))
    if not seen.all():
        raise DataError(
            f"covariate {cols.names[col]!r} has category codes up to {len(seen) - 1} "
            f"but none equal to {int(np.flatnonzero(seen == 0)[0])}; "
            f"every code from 0 to the largest must occur"
        )
    return len(seen)


def _check_support(family: type[Family], cols: DataColumns) -> None:
    """Reject rows no parameter value can explain: an observed value outside
    the family's support, or a censoring region that holds none of it."""
    if family is Normal:
        return
    discrete = family.is_discrete
    top = cols.positive_trials() if discrete else math.inf
    value, observed = cols.value, cols.kind == KIND_OBSERVED
    lo, hi = np.maximum(cols.lo, 0.0), np.minimum(cols.hi, top)
    if discrete:
        bad = np.where(observed, (value != np.floor(value)) | (value < 0) | (value > top),
                       np.ceil(lo) > np.floor(hi))
        support = "whole numbers from 0 to the row's trials"
    else:
        bad = np.where(observed, value < 0.0, lo >= hi)
        support = "[0, inf)"
    if not bad.any():
        return
    row = int(np.flatnonzero(bad)[0])
    if observed[row]:
        where = f"column 'outcome': {value[row]!r} is outside"
    else:
        columns = "'cut1', 'cut2'" if cols.kind[row] == KIND_INTERVAL else "'cut1'"
        where = (f"column {columns}: the censoring region [{cols.lo[row]!r}, "
                 f"{cols.hi[row]!r}] holds no point of")
    raise DataError(f"row {row}, {where} the {family.__name__} support, {support}")
