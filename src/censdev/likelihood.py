"""Censored-data log-likelihoods under two rival bookkeeping schemes.

A censored dataset splits into observed rows O, one-sided censored rows C
and interval-censored rows I.  The exact log-likelihood sums

    sum_O log f(y)  +  sum_L log F(cut)  +  sum_R log[1 - F(cut^-)]
                    +  sum_I log[F(cut2) - F(cut1^-)],

with L/R the left/right halves of C.  ``loglik_bernoulli_reform`` computes
the same quantity the way a Bernoulli-indicator model specification does
(indicator = 1 for left- and interval-censored rows, 0 for right-censored,
success probability a CDF value or CDF increment); the two agree up to
floating-point rounding.

``loglik_dinterval_style`` reproduces the bookkeeping of interval-indicator
model specifications built on latent imputation: the sampler's target sums
log f over *all* rows at observed-or-imputed values, while the deviance
monitor sees only the observed rows because each censored row's indicator
contributes a constant likelihood of one.  The monitored total is therefore
biased low by exactly the censored terms above; ``exact_contributions``
exposes the per-row terms so that gap can be audited row by row.

Those functions take one :class:`~censdev.distributions.Family` object per
row and are the reference.  The sampler and the selection layer read the
dataset as columns instead (:class:`DataColumns`, built once per dataset on
first use) and score all rows at once with the families' vectorized
``log_contrib``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import Family, bernoulli_log_prob, clamp_probability
from .exceptions import BoundOrderError, DataError

__all__ = [
    "Observed",
    "LeftCensored",
    "RightCensored",
    "IntervalCensored",
    "CensorKind",
    "Observation",
    "CensoredDataset",
    "DataColumns",
    "LikelihoodMode",
    "censoring_region",
    "exact_contribution",
    "exact_contributions",
    "loglik_exact",
    "loglik_bernoulli_reform",
    "loglik_dinterval_style",
    "DIntervalLogLik",
    "deviance",
]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Observed:
    value: float


@dataclass(frozen=True)
class LeftCensored:
    """Outcome known only to satisfy Y <= cut."""

    cut: float


@dataclass(frozen=True)
class RightCensored:
    """Outcome known only to satisfy Y >= cut."""

    cut: float


@dataclass(frozen=True)
class IntervalCensored:
    """Outcome known only to satisfy cut1 <= Y <= cut2."""

    cut1: float
    cut2: float

    def __post_init__(self):
        if not self.cut1 < self.cut2:
            raise BoundOrderError(
                f"interval censoring requires cut1 < cut2, got ({self.cut1}, {self.cut2})"
            )


CensorKind = Observed | LeftCensored | RightCensored | IntervalCensored


@dataclass(frozen=True)
class Observation:
    """One outcome record: exact value or censoring region, plus covariates."""

    outcome: CensorKind
    covariates: tuple[float, ...] = ()
    trials: Optional[int] = None

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise DataError(f"trials must be a positive integer, got {self.trials}")


# Censor-kind codes of DataColumns.kind.
KIND_OBSERVED, KIND_LEFT, KIND_RIGHT, KIND_INTERVAL = 0, 1, 2, 3
_KIND_CODES = {Observed: KIND_OBSERVED, LeftCensored: KIND_LEFT,
               RightCensored: KIND_RIGHT, IntervalCensored: KIND_INTERVAL}


class DataColumns:
    """A dataset's rows, or a subset of them, as arrays.

    ``kind`` holds the censor-kind codes; ``lo``/``hi`` the censoring
    region, ``-inf``/``inf`` on its open side and on observed rows;
    ``value`` the observed outcome, NaN on censored rows; ``trials`` the
    trial count, 0 where a row has none; ``covariates`` one row per
    observation.

    The masks ``observed``, ``below`` (region (-inf, hi]), ``above``
    ((lo, inf)) and ``between`` (both bounds finite) split the rows by the
    branch ``Family.log_interval_prob`` takes for them; a mask is None when
    no row takes that branch, so kernels skip it.
    """

    def __init__(self, kind, lo, hi, value, trials, covariates, names=()):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.value = value
        self.trials = trials
        self.covariates = covariates
        self.names = tuple(names)
        observed = kind == KIND_OBSERVED
        below = ~observed & (lo == _NEG_INF)
        above = ~observed & ~below & (hi == math.inf)
        between = ~(observed | below | above)
        self.observed, self.below, self.above, self.between = (
            mask if mask.any() else None for mask in (observed, below, above, between)
        )
        self._checked: dict = {}  # validated views, built on first use

    @classmethod
    def from_observations(cls, observations, names=()) -> "DataColumns":
        n = len(observations)
        kind = np.empty(n, dtype=np.int8)
        lo = np.full(n, _NEG_INF)
        hi = np.full(n, math.inf)
        value = np.full(n, math.nan)
        trials = np.zeros(n, dtype=np.int64)
        for i, obs in enumerate(observations):
            outcome = obs.outcome
            kind[i] = _KIND_CODES[type(outcome)]
            if kind[i] == KIND_OBSERVED:
                value[i] = outcome.value
            else:
                lo[i], hi[i] = censoring_region(outcome)
            if obs.trials is not None:
                trials[i] = obs.trials
        width = len(observations[0].covariates) if n else 0
        covariates = np.array(
            [obs.covariates for obs in observations], dtype=float
        ).reshape(n, width)
        return cls(kind, lo, hi, value, trials, covariates, names)

    def __len__(self) -> int:
        return self.kind.shape[0]

    def take(self, rows) -> "DataColumns":
        """The block of the given rows, in the given order."""
        return DataColumns(
            self.kind[rows], self.lo[rows], self.hi[rows], self.value[rows],
            self.trials[rows], self.covariates[rows], self.names,
        )

    def codes(self, col: int, n_levels: Optional[int] = None) -> np.ndarray:
        """Covariate ``col`` as integer category codes, validated on first use.

        Every entry must be a whole number in [0, n_levels) (no upper
        bound when ``n_levels`` is None); anything else raises
        :class:`DataError` naming the first offending row.
        """
        key = ("codes", col, n_levels)
        if key not in self._checked:
            x = self.covariates[:, col]
            bad = ~(np.isfinite(x) & (x == np.floor(x)) & (x >= 0))
            if n_levels is not None:
                bad |= x >= n_levels
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                name = self.names[col] if col < len(self.names) else f"#{col}"
                levels = "0, 1, 2, ..." if n_levels is None else f"0..{n_levels - 1}"
                raise DataError(
                    f"covariate {name!r} must hold integer category codes "
                    f"{levels}; row {row} has {x[row]!r}"
                )
            self._checked[key] = x.astype(np.intp)
        return self._checked[key]

    def memo(self, key, source, build):
        """``build()``, cached with this block under ``key`` for as long as
        the array it derives from is ``source`` (kernels keep data-only terms
        here)."""
        entry = self._checked.get(key)
        if entry is None or entry[0] is not source:
            entry = (source, build())
            self._checked[key] = entry
        return entry[1]

    def positive_trials(self) -> np.ndarray:
        """The trials column, validated on first use: every row needs a count."""
        if "trials" not in self._checked:
            if not self.trials.all():
                row = int(np.flatnonzero(self.trials == 0)[0])
                raise DataError(f"binomial outcomes need a trials count on every row; "
                                f"row {row} has none")
            self._checked["trials"] = self.trials
        return self._checked["trials"]


@dataclass(frozen=True)
class CensoredDataset:
    """Ordered observations partitioned into observed / one-sided / interval rows."""

    observations: tuple[Observation, ...]
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        obs = tuple(self.observations)
        object.__setattr__(self, "observations", obs)
        if not obs:
            raise DataError("dataset must contain at least one observation")
        width = len(obs[0].covariates)
        for i, o in enumerate(obs):
            if len(o.covariates) != width:
                raise DataError(
                    f"row {i}: covariate vector length {len(o.covariates)} != {width}"
                )
        if self.covariate_names and len(self.covariate_names) != width:
            raise DataError(
                f"{len(self.covariate_names)} covariate names for width-{width} vectors"
            )

    def __len__(self):
        return len(self.observations)

    @cached_property
    def columns(self) -> DataColumns:
        """The rows as arrays, built on first use."""
        return DataColumns.from_observations(self.observations, self.covariate_names)

    def __iter__(self):
        return iter(self.observations)

    @property
    def observed_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, o in enumerate(self.observations) if isinstance(o.outcome, Observed)
        )

    @property
    def onesided_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, o in enumerate(self.observations)
            if isinstance(o.outcome, (LeftCensored, RightCensored))
        )

    @property
    def interval_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, o in enumerate(self.observations)
            if isinstance(o.outcome, IntervalCensored)
        )

    @property
    def censored_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, o in enumerate(self.observations)
            if not isinstance(o.outcome, Observed)
        )


class LikelihoodMode(Enum):
    EXACT = "exact"
    DINTERVAL = "dinterval"


def censoring_region(outcome: CensorKind) -> tuple[float, float]:
    """Closed region [lo, hi] carrying the outcome's probability mass."""
    if isinstance(outcome, LeftCensored):
        return (_NEG_INF, outcome.cut)
    if isinstance(outcome, RightCensored):
        return (outcome.cut, math.inf)
    if isinstance(outcome, IntervalCensored):
        return (outcome.cut1, outcome.cut2)
    raise DataError(f"observed outcome {outcome!r} has no censoring region")


def _check_alignment(data: CensoredDataset, dists: Sequence[Family]) -> None:
    if len(dists) != len(data):
        raise DataError(
            f"{len(dists)} outcome distributions for {len(data)} observations"
        )


def exact_contribution(family: Family, outcome: CensorKind) -> float:
    """Per-row term of the exact censored log-likelihood."""
    if isinstance(outcome, Observed):
        return family.log_pdf(outcome.value)
    return family.log_interval_prob(*censoring_region(outcome))


def exact_contributions(
    data: CensoredDataset, outcome_dists: Sequence[Family]
) -> np.ndarray:
    """Vector of per-row exact log-likelihood contributions."""
    _check_alignment(data, outcome_dists)
    return np.array(
        [
            exact_contribution(fam, obs.outcome)
            for fam, obs in zip(outcome_dists, data.observations)
        ]
    )


def loglik_exact(data: CensoredDataset, outcome_dists: Sequence[Family]) -> float:
    """Total exact censored log-likelihood; -inf flags a zero-probability row."""
    return float(exact_contributions(data, outcome_dists).sum())


def loglik_bernoulli_reform(
    data: CensoredDataset, outcome_dists: Sequence[Family]
) -> float:
    """Exact likelihood computed through the Bernoulli-indicator route.

    Observed rows contribute log f(y).  A one-sided censored row contributes
    a Bernoulli log-probability with success probability F(cut) (indicator 1
    when left-censored, 0 when right-censored, using the left CDF limit).
    Interval rows contribute Bernoulli(1; F(cut2) - F(cut1^-)).  Agrees with
    :func:`loglik_exact` up to floating-point rounding.
    """
    _check_alignment(data, outcome_dists)
    total = 0.0
    for fam, obs in zip(outcome_dists, data.observations):
        outcome = obs.outcome
        if isinstance(outcome, Observed):
            total += fam.log_pdf(outcome.value)
        elif isinstance(outcome, LeftCensored):
            total += bernoulli_log_prob(1, math.exp(fam.log_cdf(outcome.cut)))
        elif isinstance(outcome, RightCensored):
            total += bernoulli_log_prob(
                0, math.exp(fam.log_cdf_left_limit(outcome.cut))
            )
        else:
            p = math.exp(fam.log_cdf(outcome.cut2)) - math.exp(
                fam.log_cdf_left_limit(outcome.cut1)
            )
            total += bernoulli_log_prob(1, clamp_probability(p))
    return total


class DIntervalLogLik(NamedTuple):
    sampler_loglik: float
    monitored_loglik: float


def loglik_dinterval_style(
    data: CensoredDataset,
    outcome_dists: Sequence[Family],
    latent_values: Mapping[int, float],
) -> DIntervalLogLik:
    """Log-likelihood pair under latent-imputation bookkeeping.

    ``sampler_loglik`` sums log f over all rows at observed or imputed
    values: the target a Gibbs sampler over (parameters, latents) uses.
    ``monitored_loglik`` sums over observed rows only, which is what the
    deviance monitor reports when censored rows contribute log 1 = 0.
    """
    _check_alignment(data, outcome_dists)
    sampler = 0.0
    monitored = 0.0
    for i, (fam, obs) in enumerate(zip(outcome_dists, data.observations)):
        outcome = obs.outcome
        if isinstance(outcome, Observed):
            term = fam.log_pdf(outcome.value)
            sampler += term
            monitored += term
            continue
        if i not in latent_values:
            raise DataError(f"row {i}: censored row missing a latent value")
        value = latent_values[i]
        lo, hi = censoring_region(outcome)
        if not lo <= value <= hi:
            raise DataError(
                f"row {i}: latent value {value} outside censoring region [{lo}, {hi}]"
            )
        sampler += fam.log_pdf(value)
    return DIntervalLogLik(sampler_loglik=sampler, monitored_loglik=monitored)


def deviance(loglik: float) -> float:
    """-2 times a log-likelihood."""
    return -2.0 * loglik
