"""Probability kernels and link functions for censored-data likelihoods.

Every family exposes the same small surface: ``log_pdf``, ``log_cdf``,
``log_sf``, ``log_interval_prob``, ``sample`` and ``sample_truncated``.
The interval convention throughout is

    P(a <= Y <= b) = F(b) - F(a^-),

where ``F(a^-)`` is the left limit of the CDF: ``F(a - 1)`` on integer
support, ``F(a)`` for continuous families.  One-sided censoring reduces to
this with an infinite bound, so a single stable kernel serves left-, right-
and interval-censored contributions.  Truncated sampling uses the same
region convention (inclusive integer endpoints; for continuous families the
boundary carries no mass either way).

Tail quantities are computed in log space with ``log1p``/``expm1``
complements so that ``log(1 - F)`` survives far into the tail instead of
rounding through probability one.

Each outcome family also has a vectorized form of the same kernels, used by
the sampler and the selection layer: ``log_contrib`` scores the rows of a
:class:`~censdev.likelihood.DataColumns` block from per-row parameter arrays
(broadcast over any leading axis, such as posterior draws), ``log_pdf_v``
evaluates the density at an array of values and ``kl_v`` is the closed-form
KL divergence.  They follow the scalar methods branch for branch, which stay
as the reference they are tested against.  ``Beta`` and ``HalfCauchy``
serve as priors only and have ``log_pdf_v`` alone; the model priors
evaluate it for one parameter vector or a stack of them alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special as sc
from .exceptions import (
    BoundaryError,
    BoundOrderError,
    DegenerateRegionError,
    ParameterError,
)

__all__ = [
    "Exponential",
    "Normal",
    "Binomial",
    "Beta",
    "HalfCauchy",
    "Family",
    "LinkFunction",
    "link_apply",
    "link_invert",
    "clamp_probability",
    "clamp_probability_v",
    "link_invert_v",
    "bernoulli_kl_v",
    "PROB_CLAMP",
]

# Probabilities fed to links or Bernoulli terms are clamped to this band so
# extreme Metropolis proposals yield huge-but-finite log terms, not -inf.
PROB_CLAMP = 1e-12

_NEG_INF = float("-inf")
_LOG_HALF = math.log(0.5)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2_OVER_PI = math.log(2.0 / math.pi)
# Below this a Binomial tail probability from betainc is summed term by term.
_TAIL_FLOOR = 1e-290


def clamp_probability(p: float) -> float:
    """Clamp ``p`` into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    if p < PROB_CLAMP:
        return PROB_CLAMP
    if p > 1.0 - PROB_CLAMP:
        return 1.0 - PROB_CLAMP
    return p


def clamp_probability_v(p):
    """Elementwise :func:`clamp_probability`."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


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


def _log_diff_from_logs_v(log_hi, log_lo):
    """Elementwise :func:`_log_diff_from_logs`.

    log_lo = -inf needs no branch of its own: expm1(-inf) = -1 adds exactly
    0 to log_hi, and when log_hi is -inf as well the NaN difference lands
    in the -inf branch.
    """
    delta = log_lo - log_hi
    return np.where(delta < 0.0, log_hi + np.log(-np.expm1(delta)), _NEG_INF)


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

    # -- vectorized kernels ------------------------------------------------
    # Subclasses provide ``log_pdf_v``, ``_log_cdf_v``, ``_log_sf_v`` and
    # ``kl_v``; parameters are arrays in the dataclass field order.
    @classmethod
    def _points(cls, cols, params):
        """The points ``log_contrib`` evaluates the kernels at: the observed
        values, the upper bounds and the left limits of the lower bounds
        (on continuous support, the lower bounds themselves)."""
        return cols.value, cols.hi, cols.lo

    @classmethod
    def _log_cdf_sf_v(cls, y, *params):
        """(log F(y), log(1 - F(y))); families that share work override it."""
        return cls._log_cdf_v(y, *params), cls._log_sf_v(y, *params)

    @classmethod
    def log_contrib(cls, cols, *params) -> np.ndarray:
        """Exact log-likelihood contribution of every row of ``cols``.

        ``params`` are arrays whose last axis runs over the rows of ``cols``
        (leading axes broadcast).  Each row takes the branch the scalar
        ``log_pdf`` / ``log_interval_prob`` takes; only the terms that some
        row of the block needs are evaluated.

        Callers own the floating-point error state: the kernels meet
        overflow, log(0) and inf - inf at extreme parameters by design, so
        the sampler and the selection layer enter ``np.errstate(all="ignore")``
        once around their work rather than once per call here.
        """
        value, hi, lo_left = cls._points(cols, params)
        terms = []
        if cols.observed is not None:
            terms.append((cols.observed, cls.log_pdf_v(value, *params)))
        if cols.between is not None:
            log_cdf_hi, log_sf_hi = cls._log_cdf_sf_v(hi, *params)
            log_cdf_lo, log_sf_lo = cls._log_cdf_sf_v(lo_left, *params)
            # Same conditioning switch as log_interval_prob.
            use_cdf = log_cdf_hi <= _LOG_HALF
            terms.append((cols.between, _log_diff_from_logs_v(
                np.where(use_cdf, log_cdf_hi, log_sf_lo),
                np.where(use_cdf, log_cdf_lo, log_sf_hi),
            )))
        else:
            if cols.below is not None:
                log_cdf_hi = cls._log_cdf_v(hi, *params)
            if cols.above is not None:
                log_sf_lo = cls._log_sf_v(lo_left, *params)
        if cols.below is not None:
            terms.append((cols.below, log_cdf_hi))
        if cols.above is not None:
            terms.append((cols.above, log_sf_lo))
        out = terms[0][1]
        for mask, term in terms[1:]:
            out = np.where(mask, term, out)
        return out


@dataclass(frozen=True)
class Exponential(Family):
    """Exponential kernel with rate parameterization: f(y) = rate * exp(-rate*y)."""

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

    @staticmethod
    def log_pdf_v(y, rate):
        return np.where((y >= 0.0) & np.isfinite(y), np.log(rate) - rate * y, _NEG_INF)

    @staticmethod
    def _log_cdf_v(y, rate):
        return np.where(y <= 0.0, _NEG_INF, np.log(-np.expm1(-rate * y)))

    @staticmethod
    def _log_sf_v(y, rate):
        return np.where(y <= 0.0, 0.0, -rate * y)

    @staticmethod
    def kl_v(f, g):
        (rate_f,), (rate_g,) = f, g
        r = rate_f / rate_g
        return np.log(r) + 1.0 / r - 1.0


@dataclass(frozen=True)
class Normal(Family):
    """Normal kernel parameterized by mean and precision (1 / variance)."""

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

    @staticmethod
    def log_pdf_v(y, mean, precision):
        z = (y - mean) * np.sqrt(precision)
        log_pdf = 0.5 * (np.log(precision) - _LOG_2PI) - 0.5 * z * z
        return np.where(np.isfinite(y), log_pdf, _NEG_INF)

    @staticmethod
    def _log_cdf_v(y, mean, precision):
        return sc.log_ndtr((y - mean) * np.sqrt(precision))

    @staticmethod
    def _log_sf_v(y, mean, precision):
        return sc.log_ndtr(-((y - mean) * np.sqrt(precision)))

    @staticmethod
    def _log_cdf_sf_v(y, mean, precision):
        z = (y - mean) * np.sqrt(precision)
        return sc.log_ndtr(z), sc.log_ndtr(-z)

    @staticmethod
    def kl_v(f, g):
        (mean_f, prec_f), (mean_g, prec_g) = f, g
        var_f, var_g = 1.0 / prec_f, 1.0 / prec_g
        return 0.5 * (
            np.log(var_g / var_f) + (var_f + (mean_f - mean_g) ** 2) / var_g - 1.0
        )


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

    @classmethod
    def _points(cls, cols, params):
        # The data-only terms at the block's points are built once per block.
        trials = params[0]
        return cols.memo(cls, trials, lambda: (
            _BinomialPoints(cols.value, trials),
            _BinomialPoints(cols.hi, trials),
            _BinomialPoints(np.ceil(cols.lo) - 1.0, trials),
        ))

    @staticmethod
    def log_pdf_v(y, trials, prob):
        pts = _BinomialPoints.of(y, trials)
        log_pmf = pts.log_comb + sc.xlogy(pts.y, prob) + sc.xlog1py(pts.n_minus_y, -prob)
        return log_pmf if pts.all_support else np.where(pts.support, log_pmf, _NEG_INF)

    @staticmethod
    def _log_cdf_v(y, trials, prob):
        # P(X <= m) = I_{1-p}(n - m, m + 1) strictly inside the support; at
        # p = 0 it is I_1 = 1, the scalar kernel's special case.
        pts = _BinomialPoints.of(y, trials)
        cdf = sc.betainc(pts.n_minus_m, pts.m_plus_1, 1.0 - prob)
        return pts.finish(cdf, _NEG_INF, 0.0, prob, lambda m, n: range(0, m + 1))

    @staticmethod
    def _log_sf_v(y, trials, prob):
        # P(X > m) = I_p(m + 1, n - m) strictly inside the support.
        pts = _BinomialPoints.of(y, trials)
        sf = sc.betainc(pts.m_plus_1, pts.n_minus_m, prob)
        return pts.finish(sf, 0.0, _NEG_INF, prob, lambda m, n: range(m + 1, n + 1))

    @staticmethod
    def kl_v(f, g):
        (trials, prob_f), (_, prob_g) = f, g
        return trials * bernoulli_kl_v(prob_f, prob_g)


class _BinomialPoints:
    """The terms of the vectorized Binomial kernels that depend on the points
    ``y`` and the trial counts alone."""

    def __init__(self, y, trials):
        with np.errstate(all="ignore"):
            self.y, self.n, self.m = y, trials, np.floor(y)
            self.n_minus_y = trials - y
            self.log_comb = (sc.gammaln(trials + 1) - sc.gammaln(y + 1)
                             - sc.gammaln(self.n_minus_y + 1))
            self.support = (y == self.m) & (y >= 0) & (y <= trials)
            self.all_support = bool(self.support.all())
            self.n_minus_m, self.m_plus_1 = trials - self.m, self.m + 1
            # 0 <= m < n: where betainc gives the tail probabilities.
            self.inside = (self.m >= 0) & (self.m < trials)
            self.all_inside = bool(self.inside.all())

    @staticmethod
    def of(y, trials) -> "_BinomialPoints":
        return y if isinstance(y, _BinomialPoints) else _BinomialPoints(y, trials)

    def finish(self, prob_tail, below_value, above_value, prob, support):
        """log of a betainc tail probability inside the support, the fixed
        values below (m < 0) and above (m >= n) it, and the scalar kernel's
        term-by-term sum where betainc underflows."""
        out = np.log(np.minimum(prob_tail, 1.0))
        tail = prob_tail <= _TAIL_FLOOR
        if not self.all_inside:
            out = np.where(self.inside, out, np.where(self.m < 0, below_value, above_value))
            tail &= self.inside
        if not tail.any():
            return out
        out = np.array(out, dtype=float)
        m, n, prob = np.broadcast_arrays(self.m, self.n, prob)
        for idx in zip(*np.nonzero(tail)):
            k, trials = int(m[idx]), int(n[idx])
            out[idx] = Binomial(trials, float(prob[idx]))._tail_logsumexp(support(k, trials))
        return out


@dataclass(frozen=True)
class Beta(Family):
    """Beta kernel on (0, 1) with shape parameters alpha, beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require(
            _finite(self.alpha) and self.alpha > 0.0,
            f"alpha must be positive, got {self.alpha}",
        )
        _require(
            _finite(self.beta) and self.beta > 0.0,
            f"beta must be positive, got {self.beta}",
        )

    def log_pdf(self, y):
        if y <= 0.0 or y >= 1.0:
            return _NEG_INF
        a, b = self.alpha, self.beta
        log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        return log_norm + (a - 1.0) * math.log(y) + (b - 1.0) * math.log1p(-y)

    def log_cdf(self, y):
        if y <= 0.0:
            return _NEG_INF
        if y >= 1.0:
            return 0.0
        cdf = float(sc.betainc(self.alpha, self.beta, y))
        if cdf <= 0.0:
            return _NEG_INF
        return math.log(min(cdf, 1.0))

    def log_sf(self, y):
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return _NEG_INF
        sf = float(sc.betainc(self.beta, self.alpha, 1.0 - y))
        if sf <= 0.0:
            return _NEG_INF
        return math.log(min(sf, 1.0))

    def sample(self, rng):
        return rng.beta(self.alpha, self.beta)

    @staticmethod
    def log_pdf_v(y, alpha, beta):
        """Elementwise :meth:`log_pdf`; the shapes broadcast against ``y``."""
        inside = (y > 0.0) & (y < 1.0)
        out = sc.xlogy(alpha - 1.0, y) + sc.xlog1py(beta - 1.0, -y) - sc.betaln(alpha, beta)
        return np.where(inside, out, _NEG_INF)

    def _sample_truncated_impl(self, lower, upper, rng):
        lo = 0.0 if lower == _NEG_INF else max(0.0, min(lower, 1.0))
        hi = 1.0 if upper == math.inf else max(0.0, min(upper, 1.0))
        c_lo = float(sc.betainc(self.alpha, self.beta, lo))
        c_hi = float(sc.betainc(self.alpha, self.beta, hi))
        u = rng.uniform(c_lo, c_hi)
        return float(sc.betaincinv(self.alpha, self.beta, u))


@dataclass(frozen=True)
class HalfCauchy(Family):
    """Half-Cauchy kernel on [0, inf); used as a heavy-tailed scale prior."""

    scale: float

    def __post_init__(self):
        _require(
            _finite(self.scale) and self.scale > 0.0,
            f"scale must be positive, got {self.scale}",
        )

    def log_pdf(self, y):
        if y < 0.0 or not _finite(y):
            return _NEG_INF
        r = y / self.scale
        return math.log(2.0 / math.pi) - math.log(self.scale) - math.log1p(r * r)

    def log_cdf(self, y):
        if y <= 0.0:
            return _NEG_INF
        if y == math.inf:
            return 0.0
        return math.log(2.0 / math.pi * math.atan(y / self.scale))

    def log_sf(self, y):
        if y <= 0.0:
            return 0.0
        if y == math.inf:
            return _NEG_INF
        return math.log1p(-2.0 / math.pi * math.atan(y / self.scale))

    def sample(self, rng):
        return self.scale * abs(rng.standard_cauchy())

    @staticmethod
    def log_pdf_v(y, scale):
        """Elementwise :meth:`log_pdf` (at y = inf the density term is -inf
        already)."""
        r = y / scale
        return np.where(y >= 0.0, (_LOG_2_OVER_PI - np.log(scale)) - np.log1p(r * r), _NEG_INF)

    def _sample_truncated_impl(self, lower, upper, rng):
        lo = max(lower, 0.0)
        c_lo = 0.0 if lo <= 0.0 else 2.0 / math.pi * math.atan(lo / self.scale)
        c_hi = 1.0 if upper == math.inf else 2.0 / math.pi * math.atan(upper / self.scale)
        u = rng.uniform(c_lo, c_hi)
        return self.scale * math.tan(0.5 * math.pi * u)


# ---------------------------------------------------------------------------
# Link functions
# ---------------------------------------------------------------------------

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


def link_invert_v(link: LinkFunction, eta):
    """Elementwise :func:`link_invert`, with the same clamps."""
    _check_link(link)
    if link == "identity":
        return eta
    if link == "logit":
        return clamp_probability_v(sc.expit(eta))
    if link == "cloglog":
        return clamp_probability_v(-np.expm1(-np.exp(np.minimum(eta, 700.0))))
    return clamp_probability_v(sc.ndtr(eta))


# ---------------------------------------------------------------------------
# Bernoulli predictive divergence
# ---------------------------------------------------------------------------


def bernoulli_kl_v(p, q):
    """KL(Bernoulli(p) || Bernoulli(q)) elementwise, both arguments clamped."""
    p = clamp_probability_v(p)
    q = clamp_probability_v(q)
    return p * (np.log(p) - np.log(q)) + (1.0 - p) * (np.log1p(-p) - np.log1p(-q))
