"""The outcome families of ``censdev.distributions`` as the distribution of a
block of rows: the constructors and the instance methods, ``log_pdf`` and
``log_interval_prob`` against the scalar references of ``tests/oracle.py``,
the inverse-CDF draws of ``sample_truncated`` (a round trip through the
conditional CDF, and KS tests against the scalar samplers they replaced)
and the deep Binomial tails where betainc underflows."""

import functools
import inspect
import math
import time
import types
from math import inf

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import ks_2samp

import oracle
from censdev.distributions import Binomial, Exponential, Family, Normal
from censdev.exceptions import BoundOrderError, DegenerateRegionError, ParameterError
from conftest import family_params, random_family

FAMILIES = (Exponential, Normal, Binomial)
METHODS = ("log_pdf", "log_interval_prob", "sample_truncated")
KERNEL_RTOL = 1e-12
ROUND_TRIP_TOL = 1e-10


def _assert_close(vector, scalar, rtol):
    vector = np.asarray(vector, dtype=float)
    scalar = np.asarray(scalar, dtype=float)
    assert vector.shape == scalar.shape
    same_inf = np.isinf(scalar) & (vector == scalar)
    close = np.abs(vector - scalar) <= rtol * np.abs(scalar)
    assert (same_inf | close).all(), (vector, scalar)


class TestContract:
    def test_the_outcome_families_are_the_subclasses(self):
        assert set(Family.__subclasses__()) == set(FAMILIES)

    @pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
    def test_methods_are_plain_instance_functions(self, cls, monkeypatch):
        """Each method is a plain function found on the class, so a wrapper
        of ``getattr(cls, name)`` set on the class is called as a method."""
        family = {Exponential: Exponential(rate=2.0),
                  Normal: Normal(mean=0.0, precision=1.0),
                  Binomial: Binomial(trials=10, prob=0.3)}[cls]
        calls = []
        for name in METHODS:
            function = getattr(cls, name)
            assert isinstance(inspect.getattr_static(cls, name), types.FunctionType), name
            assert isinstance(function, types.FunctionType), name

            def wrapper(*args, _name=name, _function=function, **kwargs):
                calls.append(_name)
                return _function(*args, **kwargs)

            monkeypatch.setattr(cls, name, functools.wraps(function)(wrapper))
        family.log_pdf(1.0)
        family.log_interval_prob(1.0, 4.0)
        family.sample_truncated(1.0, 4.0, np.random.default_rng(0))
        # sample_truncated scores its region's mass through log_interval_prob.
        assert calls == ["log_pdf", "log_interval_prob", "sample_truncated",
                         "log_interval_prob"]

    def test_keyword_constructors_bind_arrays_and_scalars(self):
        rng = np.random.default_rng(1)
        lo, hi = np.array([0.5, 2.0, -inf]), np.array([inf, 3.0, 4.0])
        for family in (Exponential(rate=np.array([0.5, 1.0, 2.0])),
                       Normal(mean=np.array([0.0, 1.0, 2.0]), precision=0.5),
                       Binomial(trials=np.array([5, 10, 20]), prob=0.4)):
            assert family.log_pdf(np.array([1.0, 2.0, 3.0])).shape == (3,)
            assert family.log_interval_prob(lo, hi).shape == (3,)
            draws = family.sample_truncated(lo, hi, rng)
            assert draws.shape == (3,) and ((lo <= draws) & (draws <= hi)).all()

    def test_scalar_arguments_give_scalars(self):
        assert Exponential(1.0).log_pdf(0.0) == 0.0
        assert isinstance(Binomial(5, 0.5).log_interval_prob(2, 3), float)
        assert isinstance(Normal(0.0, 1.0).sample_truncated(0.0, inf, np.random.default_rng(2)),
                          float)

    @pytest.mark.parametrize("build, bad", [
        (lambda: Exponential(0.0), "0.0"),
        (lambda: Exponential(np.array([1.0, -2.0, -3.0])), "-2.0"),
        (lambda: Exponential(inf), "inf"),
        (lambda: Normal(math.nan, 1.0), "nan"),
        (lambda: Normal(0.0, np.array([1.0, 0.0])), "0.0"),
        (lambda: Binomial(0, 0.5), "0"),
        (lambda: Binomial(np.array([3.0, 2.5]), 0.5), "2.5"),
        (lambda: Binomial(10, np.array([0.2, 1.2])), "1.2"),
        (lambda: Binomial(10, math.nan), "nan"),
    ])
    def test_invalid_parameters_raise_naming_the_first(self, build, bad):
        with pytest.raises(ParameterError, match=f"got {bad}$"):
            build()


class TestMatchesScalarReference:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_log_pdf_and_log_interval_prob_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        kind = int(rng.integers(3))
        fams = [random_family(rng, kind) for _ in range(9)]
        cls, params = family_params(fams)
        family = cls(*params)
        y = np.array([f.sample(rng) for f in fams])
        other = np.array([f.sample(rng) for f in fams])
        lo, hi = np.minimum(y, other), np.maximum(y, other)
        lo[::3], hi[1::3] = -inf, inf
        _assert_close(family.log_pdf(y), [f.log_pdf(v) for f, v in zip(fams, y)], KERNEL_RTOL)
        _assert_close(family.log_interval_prob(lo, hi),
                      [f.log_interval_prob(a, b) for f, a, b in zip(fams, lo, hi)],
                      KERNEL_RTOL)

    def test_no_rows(self):
        empty = np.empty(0)
        assert Exponential(np.empty(0)).log_interval_prob(empty, empty).shape == (0,)
        assert Exponential(1.0).sample_truncated(empty, empty,
                                                 np.random.default_rng(0)).shape == (0,)

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_unordered_bounds_raise(self, lo, hi):
        with pytest.raises(BoundOrderError):
            Exponential(1.0).log_interval_prob(np.array([0.0, lo]), np.array([1.0, hi]))
        with pytest.raises(BoundOrderError):
            Normal(0.0, 1.0).sample_truncated(lo, hi, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Truncated draws
# ---------------------------------------------------------------------------


def _normal_mass_from_near_end(mean, precision, lo, hi, x):
    """The conditional mass of [lo, hi] between ``x`` and the end nearer
    the mean, from log CDFs on the side where they keep their precision."""
    mirror = (lo - mean) + (hi - mean) > 0.0
    sign = -1.0 if mirror else 1.0  # the log CDF of the mirror image, -Y
    log_cdf = lambda v: special.log_ndtr(sign * (v - mean) * math.sqrt(precision))
    near, far = (lo, hi) if mirror else (hi, lo)
    return math.expm1(log_cdf(x) - log_cdf(near)) / math.expm1(log_cdf(far) - log_cdf(near))


def _exponential_cdf(rate, lo, hi, x):
    """The conditional CDF of [lo, hi] at ``x``."""
    a = max(lo, 0.0)
    return math.expm1(-rate * (x - a)) / math.expm1(-rate * (hi - a))


def _binomial_tail_start(trials, prob, rng):
    """Per row, a count whose upper tail holds between e^-600 and e^-50."""
    starts = []
    for n, p in zip(trials, prob):
        log_mass = Binomial(n, p).log_interval_prob(np.arange(n + 1.0), inf)
        starts.append(rng.choice(np.flatnonzero((log_mass > -600) & (log_mass < -50))))
    return np.array(starts, dtype=float)


def _region_case(rng, region):
    """(family, lo, hi) of 8 rows in one of the round trip's regions."""
    n = 8
    if region == "normal-upper-tail":  # [mean + 30 sd, mean + 36 sd] and up
        mean, precision = rng.uniform(-5, 5, n), np.exp(rng.uniform(-3, 3, n))
        lo = mean + rng.uniform(30, 36, n) / np.sqrt(precision)
        return Normal(mean, precision), lo, np.full(n, inf)
    if region == "normal-lower-tail":  # (-inf, -40] at sd 1.12 to 1.33: z from -35.8
        return Normal(np.zeros(n), rng.uniform(0.565, 0.8, n)), np.full(n, -inf), \
            np.full(n, -40.0)
    if region == "normal-narrow":  # 0.001 to 0.1 sd wide, up to 8 sd out
        mean = rng.uniform(-3, 3, n)
        lo = mean + rng.uniform(-8, 8, n)
        return Normal(mean, np.ones(n)), lo, lo + 10.0 ** rng.uniform(-3, -1, n)
    if region == "exponential-far":  # lo * rate up to 640: mass down to about e^-645
        rate = np.exp(rng.uniform(-4, 4, n))
        lo = rng.uniform(500, 640, n) / rate
        width = 0.01 + rng.exponential(2.0, n)
        return Exponential(rate), lo, np.where(rng.random(n) < 0.5, inf, lo + width / rate)
    if region == "exponential-narrow":  # 0.001 to 0.1 of a mean wide
        rate = np.exp(rng.uniform(-2, 2, n))
        lo = rng.uniform(0, 5, n) / rate
        return Exponential(rate), lo, lo + 10.0 ** rng.uniform(-3, -1, n) / rate
    if region == "binomial-upper-tail":  # betainc underflows inside these regions
        trials = rng.integers(200, 2000, n)
        prob = 10.0 ** rng.uniform(-4, -1, n)
        return Binomial(trials, prob), _binomial_tail_start(trials, prob, rng), np.full(n, inf)
    if region == "binomial-lower-tail":  # the mirror image: X <= k where n - X is deep
        trials = rng.integers(200, 2000, n)
        prob = 10.0 ** rng.uniform(-4, -1, n)
        hi = trials - _binomial_tail_start(trials, prob, rng)
        return Binomial(trials, 1.0 - prob), np.full(n, -inf), hi
    # binomial-narrow: one or two whole numbers near the mode
    trials = rng.integers(5, 300, n)
    prob = rng.uniform(0.05, 0.95, n)
    lo = np.clip(np.floor(trials * prob) + rng.integers(-2, 3, n), 0, trials - 1)
    return Binomial(trials, prob), lo, lo + rng.choice([0.0, 0.5, 1.0], n)


REGIONS = ("normal-upper-tail", "normal-lower-tail", "normal-narrow", "exponential-far",
           "exponential-narrow", "binomial-upper-tail", "binomial-lower-tail",
           "binomial-narrow")


def _round_trip_errors(family, lo, hi, draws, u):
    """Per row, how far the draw's conditional CDF misses its uniform (for a
    whole number k: how far u lies outside [G(k - 1), G(k)])."""
    if isinstance(family, Binomial):
        errors = []
        for n, p, a, b, k, v in zip(*family.params, lo, hi, draws, u):
            ref = oracle.Binomial(int(n), float(p))
            log_mass = ref.log_interval_prob(a, b)
            first = 0 if a == -inf else max(math.ceil(a), 0)
            g_k = math.exp(ref.log_interval_prob(first, k) - log_mass)
            g_before = 0.0 if k == first else math.exp(ref.log_interval_prob(first, k - 1)
                                                       - log_mass)
            errors.append(max(0.0, g_before - v, v - g_k))
        return np.array(errors)
    if isinstance(family, Normal):
        mass = [_normal_mass_from_near_end(m, t, a, b, x)
                for m, t, a, b, x in zip(*family.params, lo, hi, draws)]
    else:
        mass = [_exponential_cdf(r, a, b, x) for r, a, b, x in zip(*family.params, lo, hi, draws)]
    return np.abs(np.array(mass) - u)


class _FullRegionBinomial(Binomial):
    """A Binomial whose draws bisect the whole truncation region."""

    @staticmethod
    def _bracket(below, top, *logs_and_params):
        return below, top


class _MovedBracketBinomial(Binomial):
    """A Binomial whose bracket is moved by ``shift`` counts, within the
    region, so that its end checks have to catch a bracket that misses;
    ``moved(shift)`` is the subclass of one shift."""

    shift = 0

    @classmethod
    def moved(cls, shift):
        return type(cls.__name__, (cls,), {"shift": shift})

    @classmethod
    def _bracket(cls, below, top, *logs_and_params):
        return tuple(np.clip(end + cls.shift, below, top)
                     for end in Binomial._bracket(below, top, *logs_and_params))


class TestTruncatedDraws:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           region=st.sampled_from(REGIONS))
    @settings(max_examples=160, derandomize=True, deadline=None)
    def test_conditional_cdf_gives_back_the_uniform(self, seed, region):
        """Each draw's conditional CDF is its uniform within 1e-10; for the
        Normal, the conditional mass between the draw and the region's end
        nearer the mean, and for the Binomial, u lies between the CDF at the
        draw and at the count below it."""
        family, lo, hi = _region_case(np.random.default_rng(seed), region)
        draws = family.sample_truncated(lo, hi, np.random.default_rng(seed))
        assert ((lo <= draws) & (draws <= hi)).all(), (region, lo, hi, draws)
        u = np.random.default_rng(seed).random(len(lo))
        errors = _round_trip_errors(family, lo, hi, draws, u)
        assert errors.max() <= ROUND_TRIP_TOL, (region, seed, errors.max())

    def test_exponential_draws_are_the_scalar_formula(self):
        """The same uniforms through the scalar sampler give the same draws
        where numpy's log1p and expm1 round as math's do, and draws within
        4 ulps where they round one ulp apart (the quotient by the rate
        carries that ulp of the logarithm into the draw)."""
        rng = np.random.default_rng(20261019)
        n = 10_000
        rate = np.exp(rng.uniform(-5.0, 1.0, n))
        lo = rng.uniform(0.0, 200.0, n)
        hi = np.where(rng.random(n) < 0.7, inf, lo + rng.exponential(50.0, n))
        draws = Exponential(rate).sample_truncated(lo, hi, np.random.default_rng(3))
        scalar_rng = np.random.default_rng(3)
        scalar = np.array([oracle.Exponential(float(r))._sample_truncated_impl(a, b, scalar_rng)
                           for r, a, b in zip(rate, lo, hi)])
        u = np.random.default_rng(3).random(n)
        shift = -rate * (hi - lo)
        x = -u * -np.expm1(shift)
        same_rounding = (np.log1p(x) == [math.log1p(v) for v in x]) & (
            np.expm1(shift) == [math.expm1(v) for v in shift])
        assert same_rounding.mean() > 0.9
        assert draws[same_rounding].tobytes() == scalar[same_rounding].tobytes()
        assert (np.abs(draws - scalar) <= 4 * np.spacing(scalar)).all()

    def test_a_generator_per_chain_draws_as_each_alone(self):
        """The class kernel on a stack of chains, each chain's uniforms from
        its own generator (as the sampler's latent refresh draws them), gives
        each chain the draws a call with its own generator gives."""
        lo, hi = np.array([0.5, 1.0, 2.0]), np.array([inf, 4.0, inf])
        rate = np.array([[[0.3, 1.0, 2.0]], [[0.7, 0.1, 5.0]]])
        log_mass = Exponential(rate).log_interval_prob(lo, hi)
        u = np.array([np.random.default_rng(seed).random((1, 3)) for seed in (1, 2)])
        together = Exponential._draw(lo, hi, u, log_mass, rate)
        for c, seed in enumerate((1, 2)):
            alone = Exponential(rate[c]).sample_truncated(lo, hi, np.random.default_rng(seed))
            assert together[c].tobytes() == alone.tobytes()

    def test_binomial_draw_in_one_count_regions_has_the_draws_shape(self):
        """Where every region holds one count (left at 0, an interval [1.5,
        2], right at the trials) the search takes no step; each chain still
        draws those counts, in the shape of its uniforms."""
        lo, hi = np.array([-inf, 1.5, 10.0]), np.array([0.0, 2.0, inf])
        trials, prob = np.full(3, 10), np.array([[[0.2, 0.5, 0.9]], [[0.1, 0.3, 0.6]]])
        log_mass = Binomial(trials, prob).log_interval_prob(lo, hi)
        u = np.random.default_rng(1).random((2, 1, 3))
        with np.errstate(all="ignore"):
            draws = Binomial._draw(lo, hi, u, log_mass, trials, prob)
        assert draws.shape == u.shape and (draws == [0.0, 2.0, 10.0]).all()

    @given(log_trials=st.floats(0.0, 12.0), log_prob=st.floats(-12.0, -1e-3),
           mirror=st.booleans(), kind=st.sampled_from(["right", "left", "interval"]),
           ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           shift=st.integers(-50, 50))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_binomial_bracket_draws_as_the_full_region_bisection(
        self, log_trials, log_prob, mirror, kind, ends, u, shift
    ):
        """The Binomial draw starts its bisection from a normal-approximation
        bracket; whatever the trials (up to 10^12), probability and region,
        it finds the count a bisection over the whole region finds, and so
        it does from a bracket moved off the answer."""
        trials = float(max(1, round(10.0**log_trials)))
        prob = 1.0 - 10.0**log_prob if mirror else 10.0**log_prob
        first = math.floor(ends[0] * trials)
        lo = -inf if kind == "left" else float(first)
        hi = inf if kind == "right" else float(first + math.floor(ends[1] * (trials - first)))
        args = [np.array([x]) for x in (trials, prob)]
        region = [np.array([x]) for x in (lo, hi)]
        log_mass = Binomial(*args).log_interval_prob(*region)
        assume(log_mass[0] >= math.log(1e-290))
        with np.errstate(all="ignore"):
            full = _FullRegionBinomial._draw(*region, np.array([u]), log_mass, *args)
            for cls in (Binomial, _MovedBracketBinomial.moved(shift)):
                draw = cls._draw(*region, np.array([u]), log_mass, *args)
                assert draw.tobytes() == full.tobytes(), (cls, draw, full)

    def test_binomial_draw_at_huge_trials_takes_a_few_steps(self, monkeypatch):
        """At 10^12 trials a draw scores a handful of counts, not the 41 a
        bisection over the whole region needs."""
        counts = []
        kernel = Binomial._log_cdf_sf_v.__func__
        monkeypatch.setattr(Binomial, "_log_cdf_sf_v", classmethod(
            lambda cls, y, *params: counts.append(y) or kernel(cls, y, *params)))
        family = Binomial(np.full(50, 1e12), np.linspace(0.01, 0.99, 50))
        draws = family.sample_truncated(np.full(50, 4.0), np.full(50, inf),
                                        np.random.default_rng(8))
        assert ((4.0 <= draws) & (draws <= 1e12)).all()
        assert len(counts) <= 12, len(counts)

    def test_binomial_draw_in_narrow_regions_skips_the_bracket(self, monkeypatch):
        """Where no region holds over 16 counts, as in the AE data's
        left-censored counts (below 5 of about 120 trials), the draw scores
        the region's lower end and then one count per halving of its 16
        counts: no bracket and no end checks."""
        counts = []
        kernel = Binomial._log_cdf_sf_v.__func__
        monkeypatch.setattr(Binomial, "_log_cdf_sf_v", classmethod(
            lambda cls, y, *params: counts.append(y) or kernel(cls, y, *params)))
        family = Binomial(np.full(40, 120.0), np.linspace(0.001, 0.2, 40))
        family.sample_truncated(np.full(40, -inf), np.tile([0.0, 2.0, 4.0, 15.0], 10),
                                np.random.default_rng(5))
        assert len(counts) == 1 + 4, len(counts)

    def test_degenerate_region_raises_naming_it(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DegenerateRegionError, match=r"\[-4.0, -1.0\]"):
            Exponential(1.0).sample_truncated(np.array([0.0, -4.0]), np.array([1.0, -1.0]), rng)
        with pytest.raises(DegenerateRegionError):
            Normal(0.0, 1.0).sample_truncated(60.0, 70.0, rng)
        with pytest.raises(DegenerateRegionError):  # no mass between the whole numbers
            Binomial(10, 0.5).sample_truncated(2.2, 2.8, rng)

    @pytest.mark.parametrize("reference, lo, hi", [
        (oracle.Normal(1.0, 4.0), -inf, 0.5),
        (oracle.Normal(0.0, 1.0), 2.5, inf),      # the scalar far-tail rejection branch
        (oracle.Normal(0.0, 1.0), -1.0, 0.75),    # the scalar two-sided branch
        (oracle.Normal(-2.0, 0.25), -30.0, -15.0),
        (oracle.Binomial(10, 0.5), 0, 2),
        (oracle.Binomial(40, 0.3), 15, inf),
        (oracle.Binomial(200, 0.02), -inf, 3),
        (oracle.Binomial(500, 0.6), 280, 330),
    ], ids=lambda v: type(v).__name__ if isinstance(v, oracle.Family) else str(v))
    def test_ks_against_the_scalar_samplers(self, reference, lo, hi):
        """Two-sample KS of 20000 draws against the scalar rejection (Normal)
        and support (Binomial) samplers.  On whole numbers the test is
        conservative: ties only shrink the statistic."""
        n = 20_000
        cls, params = family_params([reference])
        draws = cls(*params).sample_truncated(np.full(n, lo), np.full(n, hi),
                                              np.random.default_rng(11))
        rng = np.random.default_rng(12)
        scalar = np.array([reference.sample_truncated(lo, hi, rng) for _ in range(n)])
        assert ks_2samp(draws, scalar).pvalue > 1e-3


# ---------------------------------------------------------------------------
# Deep Binomial tails
# ---------------------------------------------------------------------------

# (trials, prob, point, lower): P(X <= point) when lower, else P(X > point),
# each beyond betainc's range.
DEEP_TAILS = [
    (800, 1e-12, 300, False),
    (10**5, 1e-12, 1000, False),
    (10**5, 0.5, 80_000, False),
    (10**5, 0.3, 50_000, False),
    (10**5, 0.01, 5000, False),
    (20_000, 0.999, 18_000, True),
    (10**5, 0.5, 30_000, True),
    (2000, 0.9, 100, True),
    (800, 1.0 - 1e-12, 4, True),
    (50, 1e-12, 30, False),
]


class TestDeepBinomialTail:
    @pytest.mark.parametrize("trials, prob, point, lower", DEEP_TAILS)
    def test_matches_the_per_term_sum(self, trials, prob, point, lower):
        n, p, y = np.array([trials]), np.array([prob]), np.array([float(point)])
        if lower:
            assert special.betainc(trials - point, point + 1, 1.0 - prob) <= 1e-290
            kernel, terms = Binomial._log_cdf_v, range(0, point + 1)
        else:
            assert special.betainc(point + 1, trials - point, prob) <= 1e-290
            kernel, terms = Binomial._log_sf_v, range(point + 1, trials + 1)
        with np.errstate(divide="ignore"):  # log(0) of the underflowed betainc
            value = kernel(y, n, p)
        reference = oracle.Binomial(trials, prob)._tail_logsumexp(terms)
        assert abs(value[0] - reference) <= KERNEL_RTOL * abs(reference)

    @pytest.mark.parametrize("trials, prob, point, lower", [
        (10**9, 1e-12, 1000, False),
        (2**62, 1e-30, 1000, False),
        (10**9, 0.5, 500_632_456, False),
        (10**9, 1.0 - 1e-12, 10**9 - 1000, True),
        (2**62, 0.5, 2**61 - 2**40, True),
    ])
    def test_cost_does_not_grow_with_trials(self, trials, prob, point, lower):
        kernel = Binomial._log_cdf_v if lower else Binomial._log_sf_v
        args = np.array([float(point)]), np.array([trials]), np.array([prob])
        with np.errstate(all="ignore"):
            kernel(*args)
            start = time.perf_counter()
            value = kernel(*args)
            elapsed = time.perf_counter() - start
        assert np.isfinite(value).all() and value[0] < math.log(1e-290)
        assert elapsed < 0.05
