"""Scalar references for the outcome families, the model table and the
likelihood functions.

``Exponential``, ``Normal`` and ``Binomial`` are the scalar outcome
families that ``censdev.distributions`` once carried beside its array
kernels: one distribution per object, with ``math``-based ``log_pdf``,
``log_cdf``, ``log_sf``, left limits, ``log_interval_prob``, ``sample`` and
the per-row truncated samplers (inverse CDF for the Exponential, exact
rejection for the Normal, the renormalized support for the Binomial).  The
array kernels are checked against them; ``kernel`` names each one's
``censdev.distributions`` class.  ``link_apply``, ``link_invert`` and
``clamp_probability`` are the scalar links and probability clamp.

``outcome_family(model, theta, cols, i)`` builds the outcome distribution of
row ``i`` of a :class:`~censdev.likelihood.DataColumns` block by each
entry's scalar arithmetic, the reference that ``Model.row_params`` is
checked against; ``outcome_families`` lists it for every row of a dataset.

``exact_contribution(s)``, ``loglik_exact``, ``loglik_bernoulli_reform`` and
``loglik_dinterval_style`` are the per-row versions of the columnar
likelihood functions of ``censdev.likelihood``: they take one scalar
family object per row and score the rows one at a time, the reference
the columnar functions are checked against.  ``log_posterior_unnorm``
composes them with a model's prior.

``bernoulli_log_prob``, ``bernoulli_kl`` and ``kl_divergence`` are the
scalar Bernoulli and closed-form KL formulas that the vectorized kernels
and the optimism estimator are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import special as sc

from censdev import distributions
from censdev.distributions import PROB_CLAMP
from censdev.exceptions import (
    BoundOrderError,
    DataError,
    DegenerateRegionError,
    ParameterError,
    SchemaError,
    ValidationError,
)
from censdev.likelihood import (
    KIND_LEFT,
    KIND_OBSERVED,
    KIND_RIGHT,
    CensoredDataset,
    DIntervalLogLik,
    LikelihoodMode,
)

_NEG_INF = float("-inf")
_LOG_HALF = math.log(0.5)
# Below this a Binomial tail probability from betainc is summed term by term.
_TAIL_FLOOR = 1e-290
_MAX_RATE = 1e12
_MIN_RATE = 1e-12


# ---------------------------------------------------------------------------
# Scalar outcome families and links
# ---------------------------------------------------------------------------


class BoundaryError(ValidationError):
    """Probability at 0 or 1 passed to a link; callers must clamp first."""


def clamp_probability(p: float) -> float:
    """Clamp ``p`` into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    if p < PROB_CLAMP:
        return PROB_CLAMP
    if p > 1.0 - PROB_CLAMP:
        return 1.0 - PROB_CLAMP
    return p


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _finite(x) -> bool:
    return math.isfinite(x)


def _log_diff_from_logs(log_hi: float, log_lo: float) -> float:
    """log(exp(log_hi) - exp(log_lo)) for log_lo <= log_hi, stable."""
    if log_lo == _NEG_INF:
        return log_hi
    delta = log_lo - log_hi
    if delta >= 0.0:
        # Equal within rounding: the difference has no mass left.
        return _NEG_INF
    return log_hi + math.log(-math.expm1(delta))


class Family:
    """Common interval/truncation machinery shared by all kernels.

    Subclasses provide ``log_pdf``, ``log_cdf``, ``log_sf`` and ``sample``;
    discrete ones override ``log_cdf_left_limit`` and
    ``_sample_truncated_impl``.
    """

    is_discrete = False

    # -- mandatory surface -------------------------------------------------
    def log_pdf(self, y: float) -> float:
        raise NotImplementedError

    def log_cdf(self, y: float) -> float:
        raise NotImplementedError

    def log_sf(self, y: float) -> float:
        """log P(Y > y), the survival complement of ``log_cdf``."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------
    def log_cdf_left_limit(self, a: float) -> float:
        """log F(a^-); continuous families have no atom at ``a``."""
        return self.log_cdf(a)

    def log_sf_left_limit(self, a: float) -> float:
        """log P(Y >= a) = log(1 - F(a^-))."""
        if a == _NEG_INF:
            return 0.0
        if self.is_discrete:
            return self.log_sf(math.ceil(a) - 1)
        return self.log_sf(a)

    def log_interval_prob(self, a: float, b: float) -> float:
        """log P(a <= Y <= b) with bounds possibly infinite.

        Evaluates whichever of the CDF or survival representation keeps the
        subtraction well conditioned; returns ``-inf`` for regions of zero
        probability rather than raising.
        """
        if math.isnan(a) or math.isnan(b):
            raise BoundOrderError("interval bounds must not be NaN")
        if a > b:
            raise BoundOrderError(f"interval bounds out of order: {a} > {b}")
        if a == _NEG_INF and b == math.inf:
            return 0.0
        log_cdf_b = self.log_cdf(b)
        if a == _NEG_INF:
            return log_cdf_b
        log_sf_a = self.log_sf_left_limit(a)
        if b == math.inf:
            return log_sf_a
        if log_cdf_b <= _LOG_HALF:
            return _log_diff_from_logs(log_cdf_b, self.log_cdf_left_limit(a))
        # Right half of the distribution: difference of survival functions.
        return _log_diff_from_logs(log_sf_a, self.log_sf(b))

    def sample_truncated(
        self, lower: float, upper: float, rng: np.random.Generator
    ) -> float:
        """Draw from the family restricted to the region [lower, upper].

        Integer endpoints are inclusive on discrete support, mirroring the
        interval-probability convention above.
        """
        if not lower < upper:
            raise BoundOrderError(
                f"truncation bounds out of order: {lower} >= {upper}"
            )
        log_mass = self.log_interval_prob(lower, upper)
        if log_mass < math.log(1e-290):
            raise DegenerateRegionError(
                f"truncation region [{lower}, {upper}] has zero probability"
            )
        return self._sample_truncated_impl(lower, upper, rng)

    def _sample_truncated_impl(self, lower, upper, rng):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(Family):
    """Exponential kernel with rate parameterization: f(y) = rate * exp(-rate*y)."""

    kernel = distributions.Exponential

    rate: float

    def __post_init__(self):
        _require(_finite(self.rate) and self.rate > 0.0, f"rate must be positive, got {self.rate}")

    def log_pdf(self, y):
        if y < 0.0 or not _finite(y):
            return _NEG_INF
        return math.log(self.rate) - self.rate * y

    def log_cdf(self, y):
        if y <= 0.0:
            return _NEG_INF
        if y == math.inf:
            return 0.0
        return math.log(-math.expm1(-self.rate * y))

    def log_sf(self, y):
        if y <= 0.0:
            return 0.0
        return -self.rate * y

    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng):
        return rng.exponential(1.0 / self.rate)

    def _sample_truncated_impl(self, lower, upper, rng):
        # Memoryless shift keeps the inverse CDF stable however far out the
        # region sits: Y = a + Exp(rate) conditioned on Y - a <= b - a.
        a = max(lower, 0.0)
        u = rng.random()  # uniform on [0, 1), as uniform() but faster
        if upper == math.inf:
            return a - math.log1p(-u) / self.rate
        width_mass = -math.expm1(-self.rate * (upper - a))
        return a - math.log1p(-u * width_mass) / self.rate


@dataclass(frozen=True)
class Normal(Family):
    """Normal kernel parameterized by mean and precision (1 / variance)."""

    kernel = distributions.Normal

    mean: float
    precision: float

    def __post_init__(self):
        _require(_finite(self.mean), f"mean must be finite, got {self.mean}")
        _require(
            _finite(self.precision) and self.precision > 0.0,
            f"precision must be positive, got {self.precision}",
        )

    @property
    def sd(self) -> float:
        return self.precision ** -0.5

    def _z(self, y):
        return (y - self.mean) * math.sqrt(self.precision)

    def log_pdf(self, y):
        if not _finite(y):
            return _NEG_INF
        z = self._z(y)
        return 0.5 * (math.log(self.precision) - math.log(2.0 * math.pi)) - 0.5 * z * z

    def log_cdf(self, y):
        if y == math.inf:
            return 0.0
        if y == _NEG_INF:
            return _NEG_INF
        return float(sc.log_ndtr(self._z(y)))

    def log_sf(self, y):
        if y == math.inf:
            return _NEG_INF
        if y == _NEG_INF:
            return 0.0
        return float(sc.log_ndtr(-self._z(y)))

    def sample(self, rng):
        return self.mean + self.sd * rng.standard_normal()

    def _sample_truncated_impl(self, lower, upper, rng):
        sd = self.sd
        alpha = _NEG_INF if lower == _NEG_INF else (lower - self.mean) / sd
        beta = math.inf if upper == math.inf else (upper - self.mean) / sd
        z = _truncated_standard_normal(alpha, beta, rng)
        return self.mean + sd * z


def _truncated_standard_normal(alpha, beta, rng):
    """Exact rejection sampler for N(0,1) restricted to [alpha, beta].

    One-sided tails use Robert's shifted-exponential proposal; two-sided
    regions use a uniform proposal with the exact acceptance ratio.  No
    tuning parameters, all branches exact.
    """
    if beta == math.inf and alpha == _NEG_INF:
        return rng.standard_normal()
    if beta == math.inf:
        if alpha <= 0.0:
            while True:
                z = rng.standard_normal()
                if z >= alpha:
                    return z
        return _normal_tail(alpha, rng)
    if alpha == _NEG_INF:
        if beta >= 0.0:
            while True:
                z = rng.standard_normal()
                if z <= beta:
                    return z
        return -_normal_tail(-beta, rng)
    # Two-sided: uniform proposal, accept with exp((c - z^2)/2) where c is
    # the minimum of z^2 over the interval.
    if alpha <= 0.0 <= beta:
        c = 0.0
    else:
        c = min(alpha * alpha, beta * beta)
    while True:
        z = rng.uniform(alpha, beta)
        if math.log(rng.random()) <= 0.5 * (c - z * z):
            return z


def _normal_tail(a, rng):
    """Robert (1995) exponential-proposal sampler for N(0,1) on [a, inf), a > 0."""
    rate = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        z = a + rng.exponential(1.0 / rate)
        if math.log(rng.random()) <= -0.5 * (z - rate) ** 2:
            return z


@dataclass(frozen=True)
class Binomial(Family):
    """Binomial kernel on {0, ..., trials}."""

    kernel = distributions.Binomial

    trials: int
    prob: float

    is_discrete = True

    def __post_init__(self):
        _require(
            isinstance(self.trials, (int, np.integer)) and self.trials >= 1,
            f"trials must be a positive integer, got {self.trials}",
        )
        _require(
            _finite(self.prob) and 0.0 <= self.prob <= 1.0,
            f"prob must lie in [0, 1], got {self.prob}",
        )

    def log_pdf(self, y):
        if y != math.floor(y) or y < 0 or y > self.trials:
            return _NEG_INF
        k, n, p = int(y), self.trials, self.prob
        if p == 0.0:
            return 0.0 if k == 0 else _NEG_INF
        if p == 1.0:
            return 0.0 if k == n else _NEG_INF
        log_comb = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        )
        return log_comb + k * math.log(p) + (n - k) * math.log1p(-p)

    def _tail_logsumexp(self, ks):
        terms = [self.log_pdf(k) for k in ks]
        hi = max(terms)
        if hi == _NEG_INF:
            return _NEG_INF
        return hi + math.log(sum(math.exp(t - hi) for t in terms))

    def log_cdf(self, y):
        if y == math.inf:
            return 0.0
        m = math.floor(y)
        if m < 0:
            return _NEG_INF
        n, p = self.trials, self.prob
        if m >= n or p == 0.0:
            return 0.0
        # P(X <= m) = I_{1-p}(n - m, m + 1)
        cdf = float(sc.betainc(n - m, m + 1, 1.0 - p))
        if cdf > _TAIL_FLOOR:
            return math.log(min(cdf, 1.0))
        # Deep lower tail: sum the few pmf terms directly in log space.
        return self._tail_logsumexp(range(0, int(m) + 1))

    def log_sf(self, y):
        if y == math.inf:
            return _NEG_INF
        m = math.floor(y)
        n, p = self.trials, self.prob
        if m < 0:
            return 0.0
        if m >= n:
            return _NEG_INF
        # P(X > m) = P(X >= m + 1) = I_p(m + 1, n - m)
        sf = float(sc.betainc(m + 1, n - m, p))
        if sf > _TAIL_FLOOR:
            return math.log(min(sf, 1.0))
        return self._tail_logsumexp(range(int(m) + 1, n + 1))

    def log_cdf_left_limit(self, a):
        return self.log_cdf(math.ceil(a) - 1)

    def sample(self, rng):
        return float(rng.binomial(self.trials, self.prob))

    def _sample_truncated_impl(self, lower, upper, rng):
        lo = 0 if lower == _NEG_INF else max(0, math.ceil(lower))
        hi = self.trials if upper == math.inf else min(self.trials, math.floor(upper))
        support = np.arange(lo, hi + 1)
        log_mass = np.array([self.log_pdf(k) for k in support])
        log_mass -= log_mass.max()
        mass = np.exp(log_mass)
        mass /= mass.sum()
        return float(rng.choice(support, p=mass))


LinkFunction = str  # one of "identity", "logit", "cloglog", "probit"

_LINKS = ("identity", "logit", "cloglog", "probit")


def _check_link(link: str) -> None:
    if link not in _LINKS:
        raise ParameterError(f"unknown link {link!r}; expected one of {_LINKS}")


def link_apply(link: LinkFunction, p: float) -> float:
    """Map an incidence probability to the linear-predictor scale."""
    _check_link(link)
    if not 0.0 < p < 1.0:
        raise BoundaryError(f"link argument must lie strictly in (0, 1), got {p}")
    if link == "identity":
        return p
    if link == "logit":
        return math.log(p) - math.log1p(-p)
    if link == "cloglog":
        return math.log(-math.log1p(-p))
    return float(sc.ndtri(p))


def link_invert(link: LinkFunction, eta: float) -> float:
    """Map a linear predictor back to a probability in (0, 1).

    Outputs of the non-identity links are clamped to the standard
    probability band; float saturation would otherwise return exactly 0
    or 1 for |eta| beyond roughly 37.
    """
    _check_link(link)
    if link == "identity":
        return eta
    if link == "logit":
        return clamp_probability(float(sc.expit(eta)))
    if link == "cloglog":
        return clamp_probability(-math.expm1(-math.exp(min(eta, 700.0))))
    return clamp_probability(float(sc.ndtr(eta)))



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


# ---------------------------------------------------------------------------
# Scalar Bernoulli helpers and closed-form KL divergences
# ---------------------------------------------------------------------------


def bernoulli_log_prob(z: int, p: float) -> float:
    """log Bernoulli(z; p) with the standard probability clamp applied."""
    p = clamp_probability(p)
    return math.log(p) if z == 1 else math.log1p(-p)


def bernoulli_kl(p: float, q: float) -> float:
    """KL(Bernoulli(p) || Bernoulli(q)), both arguments clamped."""
    p = clamp_probability(p)
    q = clamp_probability(q)
    return p * (math.log(p) - math.log(q)) + (1.0 - p) * (
        math.log1p(-p) - math.log1p(-q)
    )


def kl_divergence(f: Family, g: Family) -> float:
    """KL(f || g) between two kernels of the same family.

    The scalar reference for the optimism estimator, which cross-evaluates
    the per-row predictive distributions at paired posterior draws.
    """
    if type(f) is not type(g):
        raise ParameterError(
            f"KL divergence requires matching families, got {type(f).__name__} vs {type(g).__name__}"
        )
    if isinstance(f, Exponential):
        r = f.rate / g.rate
        return math.log(r) + 1.0 / r - 1.0
    if isinstance(f, Normal):
        var_f, var_g = 1.0 / f.precision, 1.0 / g.precision
        return 0.5 * (
            math.log(var_g / var_f)
            + (var_f + (f.mean - g.mean) ** 2) / var_g
            - 1.0
        )
    if isinstance(f, Binomial):
        if f.trials != g.trials:
            raise ParameterError("binomial KL requires equal trial counts")
        return f.trials * bernoulli_kl(f.prob, g.prob)
    raise ParameterError(f"no closed-form KL for family {type(f).__name__}")
