"""Censored datasets as columns, and their log-likelihoods under the rival
bookkeeping schemes.

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

A :class:`CensoredDataset` is its columns, checked once when it is built;
a block of its rows is one too.  Every likelihood function takes the
dataset, the outcome :class:`~censdev.distributions.Family` class and that
family's per-row parameters as ``Model.row_params(theta, data)`` returns them
for one parameter vector, and scores all rows at once with the family's
vectorized kernels, as the sampler and the selection layer do.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import Family, clamp_probability_v, region_masks
from .exceptions import BoundOrderError, DataError

__all__ = [
    "CensoredDataset",
    "LikelihoodMode",
    "exact_contributions",
    "loglik_exact",
    "loglik_bernoulli_reform",
    "loglik_dinterval_style",
    "DIntervalLogLik",
    "deviance",
]

_NEG_INF = float("-inf")

# Censor-kind codes of CensoredDataset.kind.
KIND_OBSERVED, KIND_LEFT, KIND_RIGHT, KIND_INTERVAL = 0, 1, 2, 3


class CensoredDataset:
    """A dataset's rows, or a block of them, as arrays, checked when built.

    ``kind`` holds the censor-kind codes; ``lo``/``hi`` the censoring
    region, ``-inf``/``inf`` on its open side and on observed rows;
    ``value`` the observed outcome, NaN on censored rows; ``trials`` the
    trial count, 0 where a row has none; ``covariates`` one row per
    observation, its columns named by ``covariate_names`` or left unnamed.
    The constructor takes ``trials`` as a count >= 1 per row, or None where
    a row has none (None alone: no row has one), and ``covariates`` as an
    (n, width) matrix (None: no covariates).  It raises
    :class:`BoundOrderError` for a censored row without lo < hi and
    :class:`DataError` for anything else off that layout, or no rows.
    ``take`` builds a block of rows already checked without checking them
    again; a block may be empty.

    ``censored`` marks the rows that are not observed.  The masks
    ``observed``, ``below`` (region (-inf, hi]), ``above`` ((lo, inf)) and
    ``between`` (both bounds finite) split the rows by the branch
    ``Family.log_contrib`` takes for them; a mask is None when no row takes
    that branch, so kernels skip it.  They are built with the block, which
    the sampler's latent refresh reads every sweep.
    """

    def __init__(self, kind, lo, hi, value, trials=None, covariates=None,
                 covariate_names: Sequence[str] = ()):
        kind = np.asarray(kind)
        lo, hi, value = (np.asarray(a, dtype=float) for a in (lo, hi, value))
        n = len(kind)
        if n == 0:
            raise DataError("dataset must contain at least one observation")
        if any(a.shape != (n,) for a in (kind, lo, hi, value)):
            raise DataError(f"kind, lo, hi and value need one entry per row; got shapes "
                            f"{[a.shape for a in (kind, lo, hi, value)]}")
        observed, left, right, interval = (
            kind == code for code in (KIND_OBSERVED, KIND_LEFT, KIND_RIGHT, KIND_INTERVAL))
        layout = np.where(
            observed, ~np.isnan(value) & (lo == _NEG_INF) & (hi == math.inf),
            np.isnan(value) & (left | right | interval)
            & (~left | (lo == _NEG_INF)) & (~right | (hi == math.inf)),
        )
        for bad, error, what in ((~layout, DataError, "is off the column layout"),
                                 (~observed & ~(lo < hi), BoundOrderError, "needs lo < hi")):
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                raise error(f"row {row}: kind {kind[row]}, value {value[row]} and "
                            f"region [{lo[row]}, {hi[row]}] {what}")

        trials = [None] * n if trials is None else list(trials)
        bad = [t for t in trials
               if not (t is None or (1 <= t < 2**63 and float(t).is_integer()))]
        if bad or len(trials) != n:
            raise DataError(f"trials need a whole count in [1, 2**63) or None per row; "
                            f"got {bad[0] if bad else f'{len(trials)} entries'}")
        counts = np.array([t or 0 for t in trials], dtype=np.int64)
        try:
            covariates = np.asarray(np.zeros((n, 0)) if covariates is None else covariates,
                                    dtype=float)
        except ValueError:
            raise DataError("covariate rows differ in length") from None
        names = tuple(covariate_names)
        if covariates.ndim != 2 or covariates.shape[0] != n or (
                names and len(names) != covariates.shape[1]):
            raise DataError(f"covariates of shape {covariates.shape} for {n} rows "
                            f"and names {names}")
        if len(set(names)) != len(names) or "" in names:
            raise DataError(f"covariate names must be distinct and non-empty, got {names}")
        bad = np.argwhere(~np.isfinite(covariates))
        if len(bad):
            row, col = bad[0].tolist()
            raise DataError(f"covariate {names[col] if names else f'#{col}'!r} must be "
                            f"finite; row {row} has {covariates[row, col].item()!r}")
        self._hold(kind.astype(np.int8), lo, hi, value, counts, covariates, names)

    def _hold(self, kind, lo, hi, value, trials, covariates, covariate_names):
        """Keep checked columns and build their masks; returns the dataset."""
        self.kind, self.lo, self.hi, self.value = kind, lo, hi, value
        self.trials, self.covariates, self.covariate_names = trials, covariates, covariate_names
        self.censored = kind != KIND_OBSERVED
        self.observed = None if self.censored.all() else ~self.censored
        self.below, self.above, self.between = region_masks(lo, hi, self.censored)
        self._checked: dict = {}  # validated views, built on first use
        return self

    def __len__(self) -> int:
        return self.kind.shape[0]

    def take(self, rows) -> "CensoredDataset":
        """The block of the given rows, in the given order."""
        return CensoredDataset.__new__(CensoredDataset)._hold(
            self.kind[rows], self.lo[rows], self.hi[rows], self.value[rows],
            self.trials[rows], self.covariates[rows], self.covariate_names,
        )

    def codes(self, col: int, n_levels: int) -> np.ndarray:
        """Covariate ``col`` as integer category codes, validated on first use.

        Every entry must be a whole number in [0, n_levels); anything else
        raises :class:`DataError` naming the first offending row.
        """
        key = ("codes", col, n_levels)
        if key not in self._checked:
            x = self.covariates[:, col]
            bad = ~(np.isfinite(x) & (x == np.floor(x)) & (x >= 0) & (x < n_levels))
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                names = self.covariate_names
                name = names[col] if col < len(names) else f"#{col}"
                raise DataError(
                    f"covariate {name!r} must hold integer category codes "
                    f"0..{n_levels - 1}; row {row} has {x[row].item()!r}"
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


class LikelihoodMode(Enum):
    EXACT = "exact"
    DINTERVAL = "dinterval"


def _check_params(data: CensoredDataset, params) -> None:
    """Each of ``params`` must be a scalar or hold one value, or one per row:
    the row parameters of one parameter vector, not a stack of draws."""
    n = len(data)
    for p in params:
        if np.shape(p) not in ((), (1,), (n,)):
            raise DataError(f"row parameter of shape {np.shape(p)} for {n} rows; each "
                            f"needs shape (), (1,) or ({n},)")


def exact_contributions(data: CensoredDataset, family: type[Family], params) -> np.ndarray:
    """Vector of per-row exact log-likelihood contributions.

    Raises :class:`DataError` when a parameter array is not a scalar, a
    single value or one value per row; every likelihood function here
    checks its ``params`` this way.
    """
    _check_params(data, params)
    with np.errstate(all="ignore"):
        return family.log_contrib(data, *params)


def loglik_exact(data: CensoredDataset, family: type[Family], params) -> float:
    """Total exact censored log-likelihood; -inf flags a zero-probability row."""
    return float(exact_contributions(data, family, params).sum())


def loglik_bernoulli_reform(data: CensoredDataset, family: type[Family], params) -> float:
    """Exact likelihood computed through the Bernoulli-indicator route.

    An observed row contributes log f(y), a left-censored row
    Bernoulli(1; F(cut)), a right-censored row Bernoulli(0; F(cut^-)) and an
    interval row Bernoulli(1; F(cut2) - F(cut1^-)), each success probability
    clamped to the standard band; an interval row with an infinite end counts
    as the one-sided row it equals, the branch of ``log_contrib``.  Agrees
    with :func:`loglik_exact` up to floating-point rounding.
    """
    _check_params(data, params)
    with np.errstate(all="ignore"):
        value, hi, lo_left = family._points(data, params)
        p_hi = np.exp(family._log_cdf_v(hi, *params))
        p_lo = np.exp(family._log_cdf_v(lo_left, *params))
        none = np.zeros(len(data), dtype=bool)
        terms = np.select(
            [none if mask is None else mask for mask in (data.observed, data.below, data.above)],
            [family.log_pdf_v(value, *params), np.log(clamp_probability_v(p_hi)),
             np.log1p(-clamp_probability_v(p_lo))],
            np.log(clamp_probability_v(p_hi - p_lo)),
        )
    return float(terms.sum())


class DIntervalLogLik(NamedTuple):
    sampler_loglik: float
    monitored_loglik: float


def loglik_dinterval_style(data: CensoredDataset, family: type[Family], params,
                           latent_values) -> DIntervalLogLik:
    """Log-likelihood pair under latent-imputation bookkeeping.

    ``latent_values`` holds one imputed value per censored row, in row
    order; each must lie in its row's censoring region.  ``sampler_loglik``
    sums log f over all rows at observed or imputed values: the target a
    Gibbs sampler over (parameters, latents) uses.  ``monitored_loglik``
    sums over observed rows only, which is what the deviance monitor
    reports when censored rows contribute log 1 = 0.
    """
    _check_params(data, params)
    rows = np.flatnonzero(data.censored)
    latents = np.asarray(latent_values, dtype=float)
    if latents.shape != rows.shape:
        raise DataError(f"{latents.shape} latent values for {len(rows)} censored rows")
    lo, hi = data.lo[rows], data.hi[rows]
    outside = np.flatnonzero(~((lo <= latents) & (latents <= hi)))
    if outside.size:
        k = outside[0]
        raise DataError(f"row {rows[k]}: latent value {latents[k]} outside censoring "
                        f"region [{lo[k]}, {hi[k]}]")
    values = data.value.copy()
    values[rows] = latents
    with np.errstate(all="ignore"):
        terms = family.log_pdf_v(values, *params)
    return DIntervalLogLik(sampler_loglik=float(terms.sum()),
                           monitored_loglik=float(terms[~data.censored].sum()))


def deviance(loglik: float) -> float:
    """-2 times a log-likelihood."""
    return -2.0 * loglik
