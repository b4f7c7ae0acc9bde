"""Tests of the scalar reference kernels of ``tests/oracle.py``: densities,
CDFs, interval probabilities, truncated sampling and link functions, each
checked against an independent oracle (closed forms, brute-force summation,
or numerical quadrature).  The array kernels of ``censdev.distributions``
are checked against these references elsewhere."""

import math
from math import comb, inf, log
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import kstest

from censdev.datasets import synthetic_ae_dataset
from censdev.distributions import PROB_CLAMP, _TAIL_FLOOR, _log_beta_tail, _log_between
from censdev.distributions import clamp_probability_v, link_invert_v
from censdev.distributions import Binomial as BinomialKernels
from censdev.exceptions import BoundOrderError, DegenerateRegionError, ParameterError
from conftest import make_dataset
from oracle import (
    BoundaryError,
    Binomial,
    Exponential,
    Normal,
    bernoulli_kl,
    bernoulli_log_prob,
    kl_divergence,
    link_apply,
    link_invert,
)

LINKS = ("identity", "logit", "cloglog", "probit")


class TestLogPdf:
    def test_exponential_unit_rate_at_zero(self):
        assert Exponential(1.0).log_pdf(0.0) == 0.0

    def test_fair_coin(self):
        assert Binomial(1, 0.5).log_pdf(1) == pytest.approx(log(0.5), abs=1e-15)

    def test_exponential_closed_form(self):
        # log(rate) - rate * y at rate 0.5, y 2
        assert Exponential(0.5).log_pdf(2.0) == pytest.approx(
            -1.6931471805599453, abs=1e-12
        )

    def test_outside_support_is_neg_inf_not_error(self):
        assert Exponential(1.0).log_pdf(-0.5) == -inf
        assert Binomial(10, 0.3).log_pdf(2.5) == -inf

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Normal(0.0, 0.0),
            lambda: Normal(math.nan, 1.0),
            lambda: Binomial(0, 0.5),
            lambda: Binomial(10, 1.2),
        ],
    )
    def test_invalid_parameters_raise(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_normal_matches_scipy(self):
        from scipy.stats import norm

        fam = Normal(mean=1.5, precision=0.25)
        for y in (-3.0, 0.0, 1.5, 7.2):
            assert fam.log_pdf(y) == pytest.approx(
                norm.logpdf(y, loc=1.5, scale=2.0), abs=1e-12
            )


class TestLogCdf:
    def test_exponential_closed_form(self):
        assert Exponential(0.5).log_cdf(2.0) == pytest.approx(
            -0.45867514538708193, abs=1e-12
        )

    def test_total_probability_at_infinity(self):
        for fam in (Exponential(2.0), Normal(0, 1), Binomial(7, 0.4)):
            assert fam.log_cdf(inf) == 0.0

    def test_binomial_brute_force(self):
        # sum_{k<=2} C(10,k) 0.3^k 0.7^(10-k)
        oracle = sum(comb(10, k) * 0.3**k * 0.7 ** (10 - k) for k in range(3))
        assert Binomial(10, 0.3).log_cdf(2) == pytest.approx(log(oracle), rel=1e-12)

    @pytest.mark.parametrize(
        "fam,grid",
        [
            (Exponential(0.7), np.linspace(0.01, 12, 80)),
            (Normal(1.0, 0.5), np.linspace(-8, 10, 80)),
            (Binomial(25, 0.35), np.arange(0, 26)),
        ],
    )
    def test_monotone_nondecreasing(self, fam, grid):
        values = [fam.log_cdf(float(y)) for y in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_deep_tail_does_not_underflow(self):
        # log(1 - F) far out in the right tail stays finite and exact
        assert Exponential(1.0).log_sf(500.0) == pytest.approx(-500.0)
        assert Normal(0, 1).log_sf(30.0) < -400.0
        assert math.isfinite(Normal(0, 1).log_sf(30.0))
        assert math.isfinite(Binomial(40, 0.01).log_sf(39))


class TestIntervalProb:
    def test_certain_event(self):
        for fam in (Exponential(1.0), Normal(0, 1), Binomial(5, 0.5)):
            assert fam.log_interval_prob(-inf, inf) == 0.0

    def test_exponential_full_support(self):
        assert Exponential(1.0).log_interval_prob(0.0, inf) == 0.0

    def test_binomial_brute_force(self):
        assert Binomial(5, 0.5).log_interval_prob(2, 3) == pytest.approx(
            log(20 / 32), abs=1e-12
        )

    def test_ordering_error(self):
        with pytest.raises(BoundOrderError):
            Exponential(1.0).log_interval_prob(2.0, 1.0)

    def test_zero_probability_region_is_value_not_error(self):
        assert Exponential(1.0).log_interval_prob(-5.0, -1.0) == -inf
        assert Binomial(5, 0.5).log_interval_prob(6, 9) == -inf

    def test_discrete_left_limit_convention(self):
        # P(a <= X <= b) uses F(a - 1) on integer support
        fam = Binomial(6, 0.4)
        oracle = sum(math.exp(fam.log_pdf(k)) for k in (2, 3, 4))
        assert math.exp(fam.log_interval_prob(2, 4)) == pytest.approx(
            oracle, abs=1e-14
        )

    def _brute_force(self, fam, a, b):
        if isinstance(fam, Binomial):
            lo = 0 if a == -inf else max(0, math.ceil(a))
            hi = fam.trials if b == inf else min(fam.trials, math.floor(b))
            return sum(math.exp(fam.log_pdf(k)) for k in range(lo, hi + 1))
        lo = a if a != -inf else None
        hi = b if b != inf else None
        if isinstance(fam, Exponential):
            lo = 0.0 if lo is None else max(lo, 0.0)
            hi = hi if hi is not None else max(lo, 0.0) + 60.0 / fam.rate
        else:
            sd = fam.sd
            lo = fam.mean - 12 * sd if lo is None else lo
            hi = fam.mean + 12 * sd if hi is None else hi
        value, _ = integrate.quad(
            lambda y: math.exp(fam.log_pdf(y)), lo, hi, limit=300
        )
        return value

    def test_interval_matches_cdf_difference_against_brute_force(self):
        """exp(log_interval_prob) == quadrature/summation to 1e-12 absolute."""
        rng = np.random.default_rng(1234)
        from conftest import random_family

        checked = 0
        while checked < 120:
            fam = random_family(rng)
            pts = sorted([fam.sample(rng), fam.sample(rng)])
            a, b = pts
            if not a < b:
                continue
            bounds = [(a, b), (-inf, b), (a, inf)]
            for lo, hi in bounds:
                left = math.exp(fam.log_interval_prob(lo, hi))
                right = self._brute_force(fam, lo, hi)
                tol = 1e-12 if isinstance(fam, Binomial) else 1e-9
                assert left == pytest.approx(right, abs=tol), (fam, lo, hi)
            checked += 1


class TestTruncatedSampling:
    def test_support_constraint_exponential(self):
        rng = np.random.default_rng(0)
        fam = Exponential(1.0)
        draws = [fam.sample_truncated(5.0, inf, rng) for _ in range(500)]
        assert min(draws) > 5.0

    def test_half_normal_mean(self):
        rng = np.random.default_rng(1)
        fam = Normal(0.0, 1.0)
        draws = np.array([fam.sample_truncated(-inf, 0.0, rng) for _ in range(60000)])
        # closed-form mean of the lower half-normal: -sqrt(2/pi)
        assert draws.mean() == pytest.approx(-0.7978845608028654, abs=0.01)
        assert draws.max() <= 0.0

    def test_binomial_renormalized_frequencies(self):
        rng = np.random.default_rng(2)
        fam = Binomial(10, 0.5)
        n = 40000
        draws = np.array([fam.sample_truncated(0, 2, rng) for _ in range(n)])
        assert set(np.unique(draws)) <= {0.0, 1.0, 2.0}
        mass = np.array([math.exp(fam.log_pdf(k)) for k in range(3)])
        mass /= mass.sum()
        for k in range(3):
            freq = float((draws == k).mean())
            sd = math.sqrt(mass[k] * (1 - mass[k]) / n)
            assert abs(freq - mass[k]) < 4 * sd

    @pytest.mark.parametrize(
        "fam,lo,hi",
        [
            (Exponential(0.8), 1.5, 6.0),
            (Exponential(2.0), 3.0, inf),
            (Normal(1.0, 4.0), -inf, 0.5),
            (Normal(0.0, 1.0), 2.5, inf),     # far-tail rejection branch
            (Normal(0.0, 1.0), -1.0, 0.75),   # two-sided branch
        ],
    )
    def test_ks_against_truncated_cdf(self, fam, lo, hi):
        """KS statistic of 1e5 draws vs the truncated CDF below the 1% cutoff."""
        rng = np.random.default_rng(20260810)
        n = 100_000
        draws = np.array([fam.sample_truncated(lo, hi, rng) for _ in range(n)])
        log_mass = fam.log_interval_prob(lo, hi)
        log_f_lo = fam.log_cdf_left_limit(lo) if lo != -inf else -inf

        def trunc_cdf(y):
            y = np.asarray(y, dtype=float)
            out = np.empty(y.shape)
            for i, yi in np.ndenumerate(y):
                if yi >= hi:
                    out[i] = 1.0
                    continue
                num = math.exp(fam.log_cdf(float(yi))) - (
                    math.exp(log_f_lo) if log_f_lo != -inf else 0.0
                )
                out[i] = min(max(num / math.exp(log_mass), 0.0), 1.0)
            return out

        stat = kstest(draws, trunc_cdf).statistic
        # 1% critical value for the one-sample KS statistic
        assert stat < 1.628 / math.sqrt(n)

    def test_degenerate_region_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DegenerateRegionError):
            Exponential(1.0).sample_truncated(-4.0, -1.0, rng)
        with pytest.raises(DegenerateRegionError):
            Normal(0.0, 1.0).sample_truncated(60.0, 70.0, rng)

    def test_bound_order_error(self):
        rng = np.random.default_rng(4)
        with pytest.raises(BoundOrderError):
            Exponential(1.0).sample_truncated(3.0, 3.0, rng)


class TestLinks:
    def test_logit_symmetry_point(self):
        assert link_apply("logit", 0.5) == 0.0

    def test_probit_symmetry_point(self):
        assert link_invert("probit", 0.0) == 0.5

    def test_cloglog_invert_at_zero(self):
        assert link_invert("cloglog", 0.0) == pytest.approx(
            0.6321205588285577, abs=1e-12
        )

    @given(
        p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        link=st.sampled_from(LINKS),
    )
    @settings(max_examples=300, derandomize=True)
    def test_round_trip(self, p, link):
        assert abs(link_invert(link, link_apply(link, p)) - p) < 1e-10

    @given(eta=st.floats(min_value=-200.0, max_value=200.0),
           link=st.sampled_from(("logit", "cloglog", "probit")))
    @settings(max_examples=200, derandomize=True)
    def test_inverse_maps_reals_into_open_unit_interval(self, eta, link):
        p = link_invert(link, eta)
        assert 0.0 < p < 1.0

    def test_vector_inverse_clamps_every_link(self):
        """The identity too: its predictor may leave (0, 1)."""
        eta = np.array([-200.0, -1.0, 0.0, 0.3, 1.0, 200.0])
        for link in LINKS:
            p = link_invert_v(link, eta)
            assert ((PROB_CLAMP <= p) & (p <= 1.0 - PROB_CLAMP)).all(), link
        assert np.array_equal(link_invert_v("identity", eta), clamp_probability_v(eta))

    def test_boundary_raises(self):
        for link in LINKS:
            with pytest.raises(BoundaryError):
                link_apply(link, 0.0)
            with pytest.raises(BoundaryError):
                link_apply(link, 1.0)

    def test_unknown_link(self):
        with pytest.raises(ParameterError):
            link_apply("log", 0.5)


class TestKL:
    def test_zero_at_equal_parameters(self):
        assert kl_divergence(Exponential(2.0), Exponential(2.0)) == 0.0
        assert kl_divergence(Binomial(9, 0.3), Binomial(9, 0.3)) == 0.0

    def test_binomial_against_direct_sum(self):
        f, g = Binomial(12, 0.3), Binomial(12, 0.55)
        oracle = sum(
            math.exp(f.log_pdf(k)) * (f.log_pdf(k) - g.log_pdf(k)) for k in range(13)
        )
        assert kl_divergence(f, g) == pytest.approx(oracle, rel=1e-10)

    def test_exponential_against_quadrature(self):
        f, g = Exponential(1.4), Exponential(0.6)
        oracle, _ = integrate.quad(
            lambda y: math.exp(f.log_pdf(y)) * (f.log_pdf(y) - g.log_pdf(y)),
            0.0,
            80.0,
        )
        assert kl_divergence(f, g) == pytest.approx(oracle, rel=1e-8)

    def test_mismatched_families_raise(self):
        with pytest.raises(ParameterError):
            kl_divergence(Exponential(1.0), Normal(0.0, 1.0))

    def test_bernoulli_helpers(self):
        assert bernoulli_log_prob(1, 0.25) == pytest.approx(log(0.25))
        assert bernoulli_log_prob(0, 0.25) == pytest.approx(log(0.75))
        assert bernoulli_kl(0.3, 0.3) == 0.0
        assert bernoulli_kl(0.3, 0.6) > 0.0


def _masked_points(y, n):
    """The data-only terms of the Binomial kernels at points ``y`` taken as
    they stand: NaN outcomes of censored rows and infinite bounds included."""
    with np.errstate(all="ignore"):
        m = np.floor(y)
        return SimpleNamespace(
            y=y, n=n, m=m, n_minus_y=n - y,
            log_comb=special.gammaln(n + 1) - special.gammaln(y + 1) - special.gammaln(n - y + 1),
            support=(y == m) & (y >= 0) & (y <= n), inside=(m >= 0) & (m < n))


def _masked_tail(pts, prob_tail, below_value, above_value, prob, lower):
    out = np.where(pts.inside, np.log(np.minimum(prob_tail, 1.0)),
                   np.where(pts.m < 0, below_value, above_value))
    tail = (prob_tail <= _TAIL_FLOOR) & pts.inside
    if tail.any():
        out = np.array(out, dtype=float)
        m, n, p = (np.broadcast_to(x, out.shape)[tail] for x in (pts.m, pts.n, prob))
        out[tail] = (_log_beta_tail(n - m, m + 1.0, 1.0 - p, np.log1p(-p), np.log(p)) if lower
                     else _log_beta_tail(m + 1.0, n - m, p, np.log(p), np.log1p(-p)))
    return out


def _masked_log_contrib(cols, trials, prob):
    """``Binomial.log_contrib`` as it was before its point memo held 0 on the
    rows that do not read a point: every point as it stands, and the rows
    outside the support masked in each kernel."""
    value, hi, lo = (_masked_points(y, trials) for y in (cols.value, cols.hi,
                                                         np.ceil(cols.lo) - 1.0))

    def log_cdf(pts):
        cdf = special.betainc(pts.n - pts.m, pts.m + 1, 1.0 - prob)
        return _masked_tail(pts, cdf, -inf, 0.0, prob, lower=True)

    def log_sf(pts):
        sf = special.betainc(pts.m + 1, pts.n - pts.m, prob)
        return _masked_tail(pts, sf, 0.0, -inf, prob, lower=False)

    log_pmf = (value.log_comb + special.xlogy(value.y, prob)
               + special.xlog1py(value.n_minus_y, -prob))
    out = np.where(value.support, log_pmf, -inf)
    out = np.where(cols.below, log_cdf(hi), out)
    out = np.where(cols.above, log_sf(lo), out)
    return np.where(cols.between, _log_between(log_cdf(hi), log_sf(hi), log_cdf(lo), log_sf(lo)),
                    out)


class TestBinomialPointMemo:
    """``Binomial.log_contrib`` evaluates its kernels on points that hold 0
    on the rows whose branch does not read them, without support masks
    where every row that reads a point is inside the support; each row's
    value stays bit for bit that of the masked formula."""

    @pytest.mark.parametrize("seed", range(6))
    def test_log_contrib_equals_the_masked_formula_bit_for_bit(self, seed):
        """Blocks of all four censor kinds, some bounds outside [0, trials),
        trials up to 800, p from 1e-12 to 1 - 1e-12 (far enough out that the
        log-space tail runs) and a leading chain axis."""
        rng = np.random.default_rng(seed)
        trials = rng.integers(1, 801, 80)
        specs = []
        for n, kind in zip(trials.tolist(), rng.integers(0, 4, len(trials)).tolist()):
            a, b = sorted(rng.integers(-3, n + 4, 2).tolist())
            specs.append([("none", float(rng.integers(0, n + 1))), ("left", float(b)),
                          ("right", float(a)), ("interval", float(a), b + 1.0)][kind])
        cols = make_dataset(specs, trials=trials.tolist())
        assert all(mask is not None for mask in (cols.observed, cols.below, cols.above,
                                                 cols.between))
        log_q = math.log(PROB_CLAMP) * rng.uniform(size=(3, 1, len(trials)))
        prob = np.where(rng.uniform(size=log_q.shape) < 0.5, np.exp(log_q), -np.expm1(log_q))
        with np.errstate(all="ignore"):
            got = BinomialKernels.log_contrib(cols, cols.positive_trials(), prob)
            want = _masked_log_contrib(cols, cols.trials, prob)
        assert got.shape == (3, 1, len(trials))
        assert got.tobytes() == want.tobytes()
        assert (want < math.log(_TAIL_FLOOR)).any()
        # Rows that read a bound outside the support still need the masks.
        _, hi, lo_left = BinomialKernels._points(cols, (cols.positive_trials(),))
        assert not hi.all_inside and not lo_left.all_inside

    def test_the_ae_block_needs_no_mask(self):
        """On the synthetic AE data (observed counts and left-censored ones
        below their cutoffs) every point a row reads is in the support."""
        cols = synthetic_ae_dataset(seed=1)
        points = BinomialKernels._points(cols, (cols.positive_trials(),))
        assert points[0].all_support and points[1].all_inside
