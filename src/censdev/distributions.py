"""Outcome families of censored-data likelihoods, and link functions.

Each outcome family (``Exponential``, ``Normal``, ``Binomial``) is one set of
array kernels on its class: ``log_pdf_v``, the log CDF and survival function
``_log_cdf_v``/``_log_sf_v``, the closed-form KL divergence ``kl_v`` and
``log_contrib``, which scores the rows of a
:class:`~censdev.likelihood.CensoredDataset`, or a block of its rows, from
per-row parameter arrays broadcast over any leading axis (draws, chains).
An instance binds the parameters of a block of rows, arrays or scalars, by
position or keyword (``Exponential(rate=...)``, ``Normal(mean=...,
precision=...)``, ``Binomial(trials=..., prob=...)``); its ``log_pdf``,
``log_interval_prob`` and ``sample_truncated`` (one inverse-CDF draw per
row) check their arguments and run the same kernels elementwise.  The
sampler's latent refresh calls the class kernels directly: ``log_contrib``
and the inverse CDF ``_draw(lo, hi, u, log_mass, *params)``.

Regions follow P(a <= Y <= b) = F(b) - F(a^-), where F(a^-) is F(a - 1) on
integer support and F(a) for continuous families; one-sided censoring has an
infinite bound.  Tails are computed in log space with ``log1p``/``expm1``
complements, so log(1 - F) survives far into them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _special as sc
from .exceptions import BoundOrderError, DegenerateRegionError, ParameterError

__all__ = [
    "Exponential",
    "Normal",
    "Binomial",
    "Family",
    "LinkFunction",
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
_TAIL_FLOOR = 1e-290  # a Binomial tail from betainc below this is redone in log space
_LOG_MIN_MASS = math.log(1e-290)  # a truncation region with less has none to draw from
_CF_STEPS = 200  # continued-fraction steps of a deep Binomial tail; it needs a handful


def clamp_probability_v(p):
    """Clamp ``p`` into [PROB_CLAMP, 1 - PROB_CLAMP], elementwise."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def _require(value, valid, message: str) -> None:
    """Raise ParameterError naming the first entry of ``value`` that is not ``valid``."""
    valid = np.asarray(valid)
    if not valid.all():
        bad = np.broadcast_to(value, valid.shape)[~valid][0]
        raise ParameterError(f"{message}, got {bad.item()!r}")


def _log_diff_from_logs_v(log_hi, log_lo):
    """log(exp(log_hi) - exp(log_lo)) for log_lo <= log_hi, elementwise; -inf
    where they are equal within rounding.  log_lo = -inf needs no branch:
    expm1(-inf) = -1 adds exactly 0, and a NaN difference lands on -inf."""
    delta = log_lo - log_hi
    return np.where(delta < 0.0, log_hi + np.log(-np.expm1(delta)), _NEG_INF)


def _log_between(log_cdf_hi, log_sf_hi, log_cdf_lo, log_sf_lo):
    """log P(lo <= Y <= hi) from log F and log(1 - F) at hi and at lo's left
    limit: CDFs subtracted in the left half of the distribution, survival
    functions in the right half, so the subtraction stays well conditioned."""
    use_cdf = log_cdf_hi <= _LOG_HALF
    return _log_diff_from_logs_v(np.where(use_cdf, log_cdf_hi, log_sf_lo),
                                 np.where(use_cdf, log_cdf_lo, log_sf_hi))


class Family:
    """An outcome family's array kernels, and as an instance the distribution
    of a block of rows.  Subclasses provide the class kernels (parameters in
    the constructor's order), ``_draw`` among them: the inverse CDF at ``u``
    of regions [lo, hi] of log mass ``log_mass``; and an ``__init__`` that
    checks its parameters and keeps them as ``params``."""

    is_discrete = False

    # -- class kernels -----------------------------------------------------
    @classmethod
    def _points(cls, data, params):
        """Where ``log_contrib`` evaluates: values, upper bounds, lower left limits."""
        return data.value, data.hi, data.lo

    @classmethod
    def _log_cdf_sf_v(cls, y, *params):
        """(log F(y), log(1 - F(y))); families that share work override it."""
        return cls._log_cdf_v(y, *params), cls._log_sf_v(y, *params)

    @classmethod
    def log_contrib(cls, data, *params) -> np.ndarray:
        """Exact log-likelihood contribution of every row of ``data``, from
        ``params`` whose last axis runs over its rows (leading axes
        broadcast): an observed row's log density, a censored row's log
        region probability.  Only terms some row needs are evaluated.

        Callers own the floating-point error state: the kernels meet
        overflow, log(0) and inf - inf at extreme parameters by design, so
        the sampler and the selection layer enter ``np.errstate(all="ignore")``
        once around their work rather than once per call here.  A block of
        no rows scores an empty array.
        """
        if data.observed is data.below is data.above is data.between is None:  # no rows
            return np.zeros(np.broadcast(data.lo, data.hi, *params).shape)
        value, hi, lo_left = cls._points(data, params)
        terms = []
        if data.observed is not None:
            terms.append((data.observed, cls.log_pdf_v(value, *params)))
        if data.between is not None:
            log_cdf_hi, log_sf_hi = cls._log_cdf_sf_v(hi, *params)
            log_cdf_lo, log_sf_lo = cls._log_cdf_sf_v(lo_left, *params)
            terms.append((data.between,
                          _log_between(log_cdf_hi, log_sf_hi, log_cdf_lo, log_sf_lo)))
        else:
            if data.below is not None:
                log_cdf_hi = cls._log_cdf_v(hi, *params)
            if data.above is not None:
                log_sf_lo = cls._log_sf_v(lo_left, *params)
        if data.below is not None:
            terms.append((data.below, log_cdf_hi))
        if data.above is not None:
            terms.append((data.above, log_sf_lo))
        out = terms[0][1]
        for mask, term in terms[1:]:
            out = np.where(mask, term, out)
        return out

    # -- the distribution of a block of rows -----------------------------------
    def log_pdf(self, y):
        """log density (log mass on integer support) at ``y``, elementwise."""
        with np.errstate(all="ignore"):
            return self.log_pdf_v(np.asarray(y, dtype=float), *self.params)[()]

    def log_interval_prob(self, lo, hi):
        """log P(lo <= Y <= hi) elementwise, bounds possibly infinite, by
        ``log_contrib``'s branches; -inf for no mass.  NaN or reversed bounds
        raise BoundOrderError."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ordered = lo <= hi
        if not ordered.all():
            a, b = (np.broadcast_to(x, ordered.shape)[~ordered][0] for x in (lo, hi))
            raise BoundOrderError(f"interval bounds must be ordered numbers, got [{a}, {b}]")
        with np.errstate(all="ignore"):
            return self.log_contrib(_Region(lo, hi), *self.params)[()]

    def sample_truncated(self, lo, hi, rng):
        """One draw per row from the family restricted to [lo, hi] (integer
        endpoints inclusive), the inverse CDF of one uniform each from the
        Generator ``rng``, in row order.  Raises BoundOrderError for NaN or
        reversed bounds, DegenerateRegionError for a region of probability
        below 1e-290 (lo = hi on continuous support)."""
        log_mass = self.log_interval_prob(lo, hi)
        require_mass(log_mass, lo, hi)
        u = rng.random(np.shape(log_mass))
        with np.errstate(all="ignore"):
            return self._draw(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                              u, log_mass, *self.params)[()]


def require_mass(log_mass, lo, hi) -> None:
    """Raise DegenerateRegionError naming the first region [lo, hi] of log
    mass ``log_mass`` below that of probability 1e-290: none to draw from."""
    empty = log_mass < _LOG_MIN_MASS
    if empty.any():
        a, b = (np.broadcast_to(x, empty.shape)[empty][0] for x in (lo, hi))
        raise DegenerateRegionError(f"truncation region [{a}, {b}] has zero probability")


def region_masks(lo, hi, censored=True):
    """The branch masks ``below``, ``above`` and ``between`` of the ``censored``
    rows (every row by default) of regions [lo, hi], as a dataset holds them."""
    below = censored & (lo == _NEG_INF)
    above = censored & ~below & (hi == math.inf)
    between = censored & ~(below | above)
    return tuple(m if m.any() else None for m in (below, above, between))


class _Region:
    """Censored rows [lo, hi] in the form ``Family.log_contrib`` reads a
    dataset: no row observed, the branch masks of the regions."""

    observed = None

    def __init__(self, lo, hi):
        self.value, self.lo, self.hi = lo, lo, hi  # no row is observed; _points reads value
        self.below, self.above, self.between = region_masks(lo, hi)

    def memo(self, key, source, build):
        return build()


class Exponential(Family):
    """Exponential outcomes with rate parameterization: f(y) = rate * exp(-rate*y)."""

    def __init__(self, rate):
        _require(rate, np.isfinite(rate) & (rate > 0.0), "rate must be positive")
        self.params = (rate,)

    @staticmethod
    def _draw(lo, hi, u, log_mass, rate):
        # Memoryless shift keeps the inverse CDF stable however far out the
        # region sits: Y = a + Exp(rate) conditioned on Y - a <= hi - a.
        a = np.maximum(lo, 0.0)
        return a - np.log1p(-u * -np.expm1(-rate * (hi - a))) / rate

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


class Normal(Family):
    """Normal outcomes parameterized by mean and precision (1 / variance)."""

    def __init__(self, mean, precision):
        _require(mean, np.isfinite(mean), "mean must be finite")
        _require(precision, np.isfinite(precision) & (precision > 0.0),
                 "precision must be positive")
        self.params = (mean, precision)

    @staticmethod
    def _draw(lo, hi, u, log_mass, mean, precision):
        # Inverse CDF in log space from the lower tail, where log_ndtr keeps
        # its precision: a region centred above the mean is mirrored below
        # it.  u is the region's conditional mass between the draw and its
        # end nearer the mean, so every u in [0, 1) gives a finite draw.
        scale = np.sqrt(precision)
        z_lo, z_hi = (lo - mean) * scale, (hi - mean) * scale
        mirror = z_lo + z_hi > 0.0
        log_a = sc.log_ndtr(np.where(mirror, -z_hi, z_lo))
        log_b = sc.log_ndtr(np.where(mirror, -z_lo, z_hi))
        z = sc.ndtri_exp(log_b + np.log1p(u * np.expm1(log_a - log_b)))
        return mean + np.where(mirror, -z, z) / scale

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


class Binomial(Family):
    """Binomial outcomes on {0, ..., trials}."""

    is_discrete = True

    def __init__(self, trials, prob):
        _require(trials, np.isfinite(trials) & (np.floor(trials) == trials) & (trials >= 1),
                 "trials must be a positive whole number")
        _require(prob, (prob >= 0.0) & (prob <= 1.0), "prob must lie in [0, 1]")
        self.params = (trials, prob)

    @classmethod
    def _draw(cls, lo, hi, u, log_mass, trials, prob):
        # The smallest k of the region whose conditional CDF exceeds u, by
        # bisection on whole numbers: each step scores P(first <= X <= k) as
        # log_interval_prob would, so the support is never materialised.
        # Counts stay int64, exact up to the largest trials a dataset holds.
        below = np.ceil(np.maximum(lo, 0.0)).astype(np.int64) - 1
        inside = hi < trials
        top = np.where(inside, np.floor(np.where(inside, hi, 0.0)).astype(np.int64), trials)
        log_cdf_lo, log_sf_lo = cls._log_cdf_sf_v(below.astype(float), trials, prob)
        log_u = np.log(u) + log_mass

        def over(k):  # P(first <= X <= k) > u P(first <= X <= last)
            log_cdf, log_sf = cls._log_cdf_sf_v(k.astype(float), trials, prob)
            return _log_between(log_cdf, log_sf, log_cdf_lo, log_sf_lo) > log_u

        # In a wide region, start from a bracket around the normal
        # approximation of k, not from the whole region (log2(trials) steps
        # at most): an end of it whose check fails falls back to the
        # region's end, so the search finds the same k.  The two end checks
        # cost two steps, so the bracket is only tried in regions over 16
        # counts wide (at most 4 steps otherwise) and only taken where it
        # is under a quarter of its region.
        wide = top - below > 16
        if wide.any():
            start, end = cls._bracket(below, top, log_cdf_lo, log_sf_lo, log_u, trials, prob)
            narrows = wide & (top - below > 4 * (end - start))
            if narrows.any():
                below = np.where(narrows & (start > below) & ~over(start), start, below)
                top = np.where(narrows & (end < top) & over(end), end, top)
        while True:
            left = top - 1 - below  # counts strictly between; never overflows
            if not (left > 0).any():  # in the draws' shape, though no step was taken
                return np.broadcast_to(top, np.shape(log_u)).astype(float)
            mid = below + 1 + left // 2
            is_over = over(mid)
            top, below = np.where(is_over, mid, top), np.where(is_over, below, mid)

    @staticmethod
    def _bracket(below, top, log_cdf_lo, log_sf_lo, log_u, trials, prob):
        """Whole numbers in [below, top] around the k whose CDF first exceeds
        q = F(below) + u P(first <= X <= last): the normal quantile of q,
        continuity-corrected, give or take 2 + z^2/4, which covers the
        Cornish-Fisher skewness term |1 - 2p| (z^2 - 1) / 6.  The quantile
        is taken from log q below the median and from log(1 - q) above it.
        Where it is not finite an end is the region's end."""
        log_q = np.logaddexp(log_cdf_lo, log_u)
        log_1mq = log_sf_lo + np.log1p(-np.exp(log_u - log_sf_lo))
        z = np.where(log_q <= _LOG_HALF, sc.ndtri_exp(log_q), -sc.ndtri_exp(log_1mq))
        center = trials * prob + np.sqrt(trials * prob * (1.0 - prob)) * z - 0.5
        margin = 2.0 + 0.25 * z * z
        return tuple(np.fmin(np.fmax(bound, below), top).astype(np.int64)
                     for bound in (np.floor(center - margin), np.ceil(center + margin)))

    @classmethod
    def _points(cls, data, params):
        # The data-only terms at the block's points are built once per block,
        # with 0 (in every Binomial support) on the rows whose branch does not
        # read a point, so NaN outcomes of censored rows and infinite bounds
        # of observed ones leave the kernels no support masks to apply.
        trials = params[0]

        def points(y, *branches):
            reads = functools.reduce(np.logical_or, [m for m in branches if m is not None], False)
            return _BinomialPoints(np.where(reads, y, 0.0), trials)
        return data.memo(cls, trials, lambda: (
            points(data.value, data.observed),
            points(data.hi, data.below, data.between),
            points(np.ceil(data.lo) - 1.0, data.above, data.between),
        ))

    @classmethod
    def _log_cdf_sf_v(cls, y, trials, prob):
        pts = _BinomialPoints.of(y, trials)
        return cls._log_cdf_v(pts, trials, prob), cls._log_sf_v(pts, trials, prob)

    @staticmethod
    def log_pdf_v(y, trials, prob):
        pts = _BinomialPoints.of(y, trials)
        log_pmf = pts.log_comb + sc.xlogy(pts.y, prob) + sc.xlog1py(pts.n_minus_y, -prob)
        return log_pmf if pts.all_support else np.where(pts.support, log_pmf, _NEG_INF)

    @staticmethod
    def _log_cdf_v(y, trials, prob):
        # P(X <= m) = I_{1-p}(n - m, m + 1) strictly inside the support; at
        # p = 0 it is I_1 = 1.
        pts = _BinomialPoints.of(y, trials)
        cdf = sc.betainc(pts.n_minus_m, pts.m_plus_1, 1.0 - prob)
        return pts.finish(cdf, _NEG_INF, 0.0, prob, lower=True)

    @staticmethod
    def _log_sf_v(y, trials, prob):
        # P(X > m) = I_p(m + 1, n - m) strictly inside the support.
        pts = _BinomialPoints.of(y, trials)
        sf = sc.betainc(pts.m_plus_1, pts.n_minus_m, prob)
        return pts.finish(sf, 0.0, _NEG_INF, prob, lower=False)

    @staticmethod
    def kl_v(f, g):
        (trials, prob_f), (_, prob_g) = f, g
        return trials * bernoulli_kl_v(prob_f, prob_g)


class _BinomialPoints:
    """The terms of the Binomial kernels that depend on the points ``y`` and
    the trial counts alone."""

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

    def finish(self, prob_tail, below_value, above_value, prob, lower: bool):
        """log of a betainc tail (P(X <= m) when ``lower``, else P(X > m))
        inside the support, recomputed in log space where it underflows,
        and the fixed values below (m < 0) and above (m >= n) the support."""
        out = np.log(np.minimum(prob_tail, 1.0))
        tail = prob_tail <= _TAIL_FLOOR
        if not self.all_inside:
            out = np.where(self.inside, out, np.where(self.m < 0, below_value, above_value))
            tail &= self.inside
        if not tail.any():
            return out
        out = np.array(out, dtype=float)
        m, n, p = (np.broadcast_to(x, out.shape)[tail] for x in (self.m, self.n, prob))
        if lower:
            out[tail] = _log_beta_tail(n - m, m + 1.0, 1.0 - p, np.log1p(-p), np.log(p))
        else:
            out[tail] = _log_beta_tail(m + 1.0, n - m, p, np.log(p), np.log1p(-p))
        return out


def _log_beta_tail(a, b, x, log_x, log_1mx):
    """log I_x(a, b) in a Binomial tail where betainc underflows: the leading
    term x^a (1-x)^b / (a B(a, b)) (the tail's first pmf term times 1 - x)
    times the incomplete beta continued fraction (modified Lentz).  Such a
    tail starts past the mode, where the log-concave pmf only falls, and the
    fraction converges in a few steps however many trials there are."""
    log_lead = (sc.gammaln(a + b) - sc.gammaln(a + 1.0) - sc.gammaln(b)
                + a * log_x + b * log_1mx)
    tiny = 1e-300

    def guard(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for k in range(1, _CF_STEPS):
        for coef in (k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)),
                     -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0))):
            d = 1.0 / guard(1.0 + coef * d)
            c = guard(1.0 + coef / c)
            step = d * c
            fraction = fraction * step
        if (np.abs(step - 1.0) <= 1e-15).all():
            break
    return log_lead + np.log(fraction)


# ---------------------------------------------------------------------------
# Link functions
# ---------------------------------------------------------------------------

LinkFunction = str  # one of "identity", "logit", "cloglog", "probit"

_LINKS = ("identity", "logit", "cloglog", "probit")


def link_invert_v(link: LinkFunction, eta):
    """Map a linear predictor back to a probability in (0, 1), elementwise,
    clamped to the probability band: saturation would give exactly 0 or 1
    for |eta| beyond about 37, and an identity predictor may leave (0, 1)."""
    if link not in _LINKS:
        raise ParameterError(f"unknown link {link!r}; expected one of {_LINKS}")
    if link == "identity":
        return clamp_probability_v(eta)
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
