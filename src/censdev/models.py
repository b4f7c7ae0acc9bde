"""The model table: every censored model as one declarative entry.

Each entry of :data:`MODELS` is a :class:`ModelSpec`: the outcome family and
link, the categorical index column that carries one parameter per code, how
those per-level parameters are pooled, the named covariate columns, the
parameter layout and the accepted hyperparameters with their defaults.  One
:class:`Model`, built from ``(spec, data, **hyperparameters)``, derives from
its entry, once, the surface the sampler and the selection layer drive:

* ``params``, ``param_names`` and ``supports``: the ordered components with
  their support descriptors ("real", "positive" or "unit"), each with its
  working-scale transform (:func:`to_unbounded`, :func:`to_natural`);
* ``prior_terms``: the log prior's factors beside the level terms, each a
  :class:`Term` naming the components it reads;
* ``levels``, ``level_reads`` and ``level_log_prior(theta)``: a model with
  an index column has one parameter per code of it (B: the class
  incidences, C: the drug incidences, D/E/F: the drug effects, G: the study
  incidences).  They are the trailing components, the expansion of the
  entry's last ``Param`` on one support, after ``level_reads``, which come
  after the components that reach the rows, and no term of ``prior_terms``
  reads them.  Given the other components they are independent a priori
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
* ``index_col``: the covariate column whose code on a row names the level
  that row reads; the levels aside, a component reaches every row, or none
  if it is in ``level_reads``;
* ``layout_key``: all of the model but its link (family, parameters and
  supports, levels and ``level_reads``, index and covariate columns,
  pooling and hyperparameters).  Models with equal keys, such as D, E and
  F on one dataset, differ only in the link of ``row_params``, so their
  chains can share one sampler state, which computes their
  ``linear_predictor`` once.

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

Building a model raises :class:`~censdev.exceptions.SchemaError` for a spec
that is not a table entry (re-pointed covariate columns aside), so the level
layout above holds for every model, and for a hyperparameter its entry lacks
or that is not a finite positive real (for ``beta_shapes``, a pair of them),
so every prior is proper.  It checks the data against it and raises
:class:`~censdev.exceptions.DataError` naming the row or column for a
missing covariate column, category codes that are not whole numbers or skip
a code below their maximum, an observed value outside the family's support
and a censoring region that holds none of it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import _special as sc
from .distributions import (
    Binomial,
    Exponential,
    Family,
    Normal,
    link_invert_v,
)
from .exceptions import DataError, SchemaError
from .likelihood import KIND_INTERVAL, CensoredDataset, DataColumns

__all__ = ["Param", "ModelSpec", "MODELS", "AE_VARIANTS", "Term", "Model", "to_unbounded",
           "to_natural"]

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

# Per support: natural -> unbounded, unbounded -> natural, and the log
# Jacobian log |dv/dx| of the latter.  Elementwise, so one set serves a single
# component and whole columns of draws alike.  Each maps the working-scale
# origin x = 0 to a neutral natural value: 0, 1 and 1/2.
_TRANSFORMS = {
    "real": (lambda v: v, lambda x: x, lambda x: 0.0 * x),
    "positive": (
        np.log,
        lambda x: np.exp(np.minimum(x, 700.0)),
        lambda x: np.minimum(x, 700.0),
    ),
    # logistic: log v + log(1 - v), stable in both tails.  logit and expit
    # are looked up per call, so importing this module does not load scipy.
    "unit": (
        lambda v: sc.logit(v),
        lambda x: sc.expit(x),
        lambda x: -np.logaddexp(0.0, -x) - np.logaddexp(0.0, x),
    ),
}


def _columnwise(which: int, values, supports) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for j, support in enumerate(supports):
        out[..., j] = _TRANSFORMS[support][which](values[..., j])
    return out


def to_unbounded(values, supports) -> np.ndarray:
    """Natural-scale values, shape (..., n_params), on the working scale."""
    return _columnwise(0, values, supports)


def to_natural(x, supports) -> np.ndarray:
    """Working-scale values, shape (..., n_params), on the natural scale."""
    return _columnwise(1, x, supports)


@dataclass(frozen=True)
class Param:
    """One named parameter with its support descriptor."""

    name: str
    support: str  # "real" | "positive" | "unit"

    def __post_init__(self):
        if self.support not in _TRANSFORMS:
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


def _normal_log_prior(precision):
    """Normal(0, 1/precision) log density of ``x``, elementwise, as a
    function of ``x``; its constant is computed here, once.

    The arithmetic of the scalar normal priors, precision * x^2, which
    rounds differently from :meth:`Normal.log_pdf_v`'s (x sqrt(precision))^2;
    the survival, GLM and D/E/F mean priors keep it.
    """
    const = 0.5 * (np.log(precision) - _LOG_2PI)
    return lambda x: const - 0.5 * precision * (x * x)


def _beta_log_prior(x, alpha, beta, log_norm=None):
    """Beta(alpha, beta) log density at ``x``, elementwise; -inf off (0, 1).
    Fixed shapes pass their ``log_norm``, log B(alpha, beta), computed once."""
    inside = (x > 0.0) & (x < 1.0)
    log_norm = sc.betaln(alpha, beta) if log_norm is None else log_norm
    out = sc.xlogy(alpha - 1.0, x) + sc.xlog1py(beta - 1.0, -x) - log_norm
    return np.where(inside, out, _NEG_INF)


def _half_cauchy_log_prior(scale):
    """Half-Cauchy(scale) log density of ``x``, elementwise, as a function of
    ``x``; -inf at or below 0.  Its constant is computed here, once."""
    const = math.log(2.0 / math.pi) - np.log(scale)

    def log_pdf(x):
        r = x / scale
        return np.where(x > 0.0, const - np.log1p(r * r), _NEG_INF)
    return log_pdf


class Term(NamedTuple):
    """One factor of a model's log prior: ``log_density(theta)``, of a vector
    or of each row of a stack, depends only on the components in ``reads``."""

    reads: tuple[int, ...]
    log_density: Callable[[np.ndarray], np.ndarray]


def _term(j: int, log_pdf, *args) -> Term:
    """The prior term ``log_pdf(theta_j, *args)`` of component ``j`` alone."""
    return Term((j,), lambda theta: log_pdf(theta[..., j], *args))


def _plain(value):
    """A numpy scalar as the Python number it holds, so messages print
    ``-1.0``, not ``np.float64(-1.0)``; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _hyperparameter(key: str, value):
    """``value`` as the prior terms take it: ``beta_shapes`` a list or tuple
    of two floats, any other key a float; raises SchemaError unless each
    number is a finite positive real (numpy scalars included, bools not)."""
    pair = key == "beta_shapes"
    if pair and (not isinstance(value, (list, tuple)) or len(value) != 2):
        raise SchemaError(f"hyperparameter 'beta_shapes' must be a pair of numbers, got {value!r}")
    for v in value if pair else (value,):
        # bool is an int subclass; NaN fails both comparisons.
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not 0 < v <= sys.float_info.max):
            raise SchemaError(
                f"hyperparameter {key!r} must be a finite positive number, got {_plain(v)!r}")
    return tuple(map(float, value)) if pair else float(value)


class Model:
    """A table entry built against a dataset; raises SchemaError for any
    other spec and for a hyperparameter its entry lacks or that is not a
    finite positive real."""

    def __init__(self, spec: ModelSpec, data: CensoredDataset, **hyperparameters):
        entry = MODELS.get(spec.name)
        # An entry may name other covariate columns, one for each of its own.
        if entry is None or replace(spec, covariates=entry.covariates) != entry or (
                np.shape(spec.covariates) != np.shape(entry.covariates)):
            raise SchemaError(f"model {spec.name!r} is not an entry of the model table, "
                              f"up to its covariate columns; entries: {list(MODELS)}")
        unknown = set(hyperparameters) - set(spec.hyperparameters)
        if unknown:
            raise SchemaError(f"unknown hyperparameters for {spec.name}: {sorted(unknown)}; "
                              f"allowed: {sorted(spec.hyperparameters)}")
        hyper = {key: _hyperparameter(key, value)
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
        self.level_reads = {"beta-hyper": (0, 1), "normal-hyper": (1,)}.get(spec.pooling, ())

        scale = hyper.get("half_cauchy_scale")
        # The Beta prior's shapes and their log B, computed once.
        shapes = hyper.get("beta_shapes")
        self._beta = None if shapes is None else (*shapes, sc.betaln(*shapes))
        last = len(self.params) - 1
        if spec.family is Exponential:
            self._group_col = self.covariate_cols[0]
            terms = [_term(j, _normal_log_prior(hyper[f"tau{j}"])) for j in (0, 1)]
            self._row_params = self._rate
        elif spec.family is Normal:
            terms = [_term(last, _half_cauchy_log_prior(scale))] + [
                _term(j, _normal_log_prior(hyper["coef_precision"])) for j in range(last)]
            self._row_params = self._normal_params
        else:  # A: the mean's term; B, G: level terms only; C, D/E/F: mean and scale
            mean = (_term(0, _normal_log_prior(hyper["mean_precision"]))
                    if spec.pooling == "normal-hyper"
                    else _term(0, _beta_log_prior, *self._beta))
            terms = ([mean, _term(1, _half_cauchy_log_prior(scale))] if self.level_reads
                     else [] if spec.index else [mean])
            self._row_params = self._probability
        self.prior_terms = tuple(terms)
        self.layout_key = (spec.family, self.params, self.levels, self.level_reads,
                           self.index_col, self.covariate_cols, spec.pooling,
                           tuple(sorted(hyper.items())))

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

    # -- priors ------------------------------------------------------------
    def level_log_prior(self, theta) -> np.ndarray:
        """Prior term of each component in ``levels``, in that order on the
        last axis, of a vector or a stack; each reads its level and the
        components in ``level_reads``, and is -inf where they leave the
        support (C: mu outside (0, 1); C, D/E/F: a scale at or below
        _MIN_SCALE)."""
        levels = theta[..., self._first_level:]
        if not self.level_reads:
            return _beta_log_prior(levels, *self._beta)
        mu, scale = theta[..., 0:1], theta[..., 1:2]
        # At or below _MIN_SCALE, 1/scale^2 is 1e300 or more (inf at zero or
        # when the square underflows) and the terms can turn NaN; a stand-in
        # keeps them quiet and the mask makes them -inf.
        inside = scale > _MIN_SCALE
        scale = np.where(inside, scale, 1.0)
        if self.spec.pooling == "beta-hyper":
            kappa = 1.0 / (scale * scale)
            out = _beta_log_prior(levels, mu * kappa, (1.0 - mu) * kappa)
            inside = inside & (mu > 0.0) & (mu < 1.0)
        else:
            out = Normal.log_pdf_v(levels, 0.0, 1.0 / (scale * scale))
        return np.where(inside, out, _NEG_INF)

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
        trials, p = self.linear_predictor(theta, cols)
        return trials, link_invert_v(self.link, p)

    def linear_predictor(self, theta, cols):
        """(trials, predictor) of every row of ``cols``: a Binomial model's
        ``row_params`` before its link, mu + delta_code under a link other
        than the identity, the same for every model of its ``layout_key``."""
        p = (theta[..., 0:1] if self.index_col is None
             else theta[..., self._first_level:][..., cols.codes(self.index_col, self.n_levels)])
        return cols.positive_trials(), p if self.link == "identity" else theta[..., 0:1] + p


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
    value, censored = cols.value, cols.censored
    lo, hi = np.maximum(cols.lo, 0.0), np.minimum(cols.hi, top)
    if discrete:
        bad = np.where(censored, np.ceil(lo) > np.floor(hi),
                       (value != np.floor(value)) | (value < 0) | (value > top))
        support = "whole numbers from 0 to the row's trials"
    else:
        bad = np.where(censored, lo >= hi, value < 0.0)
        support = "[0, inf)"
    if not bad.any():
        return
    row = int(np.flatnonzero(bad)[0])
    if not censored[row]:
        where = f"column 'outcome': {value[row].item()!r} is outside"
    else:
        columns = "'cut1', 'cut2'" if cols.kind[row] == KIND_INTERVAL else "'cut1'"
        where = (f"column {columns}: the censoring region [{cols.lo[row].item()!r}, "
                 f"{cols.hi[row].item()!r}] holds no point of")
    raise DataError(f"row {row}, {where} the {family.__name__} support, {support}")
