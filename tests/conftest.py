"""Shared fixtures: bundled data, full-scale survival runs, randomized datasets.

The survival fixture reproduces the demo geometry (3 chains, 30000 burn-in,
10000 kept draws per chain, both likelihood modes) once per session; the
statistical acceptance checks and several invariant tests share it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from censdev import (
    MODELS,
    ChainConfig,
    LikelihoodMode,
    Model,
    aml_dataset,
    run,
)
from censdev.cli import _derive_run_seeds
from censdev.distributions import Beta, Binomial, Exponential, Normal
from censdev.likelihood import (
    KIND_INTERVAL,
    KIND_LEFT,
    KIND_OBSERVED,
    KIND_RIGHT,
    CensoredDataset,
)
from censdev.models import Param, Term

SURVIVAL_DEMO_SEED = 20260810


# ---------------------------------------------------------------------------
# Datasets from outcome specs
# ---------------------------------------------------------------------------


def _layout(censor, *numbers):
    """(kind, lo, hi, value) of one outcome spec in the column layout."""
    if censor == "none":
        return KIND_OBSERVED, -math.inf, math.inf, numbers[0]
    if censor == "left":
        return KIND_LEFT, -math.inf, numbers[0], math.nan
    if censor == "right":
        return KIND_RIGHT, numbers[0], math.inf, math.nan
    return KIND_INTERVAL, numbers[0], numbers[1], math.nan


def make_dataset(outcomes, covariates=None, trials=None, names=()):
    """A dataset from outcome specs in the file format's censor words:
    ("none", y), ("left", cut), ("right", cut) or ("interval", lo, hi)."""
    return CensoredDataset(*zip(*(_layout(*o) for o in outcomes)), trials, covariates, names)


def outcome_specs(data) -> list[tuple]:
    """Every row's outcome spec, the inverse of :func:`make_dataset`'s."""
    cols = data.columns
    specs = []
    for kind, lo, hi, value in zip(cols.kind.tolist(), cols.lo.tolist(), cols.hi.tolist(),
                                   cols.value.tolist()):
        specs.append((("none", value), ("left", hi), ("right", lo),
                      ("interval", lo, hi))[kind])
    return specs


def subset(data, rows):
    """The dataset of the given rows of ``data``, in that order."""
    cols = data.columns.take(rows)
    return CensoredDataset(cols.kind, cols.lo, cols.hi, cols.value,
                           [t or None for t in cols.trials.tolist()], cols.covariates,
                           cols.names)


def censored_rows(data) -> np.ndarray:
    return np.flatnonzero(data.columns.kind != KIND_OBSERVED)


def assert_same_columns(a, b):
    """Two datasets hold bit-equal arrays (NaN in the same places) and names."""
    ca, cb = a.columns, b.columns
    assert ca.names == cb.names
    for field in ("kind", "lo", "hi", "value", "trials", "covariates"):
        x, y = getattr(ca, field), getattr(cb, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field


@pytest.fixture(scope="session")
def aml():
    return aml_dataset()


@pytest.fixture(scope="session")
def survival_model(aml):
    return Model(MODELS["survival-exponential"], aml)


@pytest.fixture(scope="session")
def survival_runs(aml, survival_model):
    """Full-scale exact and latent-imputation runs on the bundled data."""
    seed_a, _ = _derive_run_seeds(SURVIVAL_DEMO_SEED, 1)[0]
    config = ChainConfig(n_chains=3, burn_in=30000, n_keep=10000, thin=1, seed=seed_a)
    exact = run(survival_model, aml, LikelihoodMode.EXACT, config)
    dinterval = run(survival_model, aml, LikelihoodMode.DINTERVAL, config)
    return exact, dinterval


# ---------------------------------------------------------------------------
# Conjugate test models with closed-form posteriors
# ---------------------------------------------------------------------------


class DuckModel:
    """The model surface the sampler and the selection layer drive, for
    hand-written test models: a subclass sets ``family`` and ``params`` and
    provides ``log_prior`` and ``row_params`` (and, with ``levels``,
    ``level_log_prior``).  Its one default prior term is the whole
    ``log_prior`` and reads every component."""

    label = ""
    levels: tuple[int, ...] = ()
    level_reads: tuple[int, ...] = ()

    @property
    def prior_terms(self) -> tuple[Term, ...]:
        return (Term(tuple(range(len(self.params))), self.log_prior),)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def supports(self) -> tuple[str, ...]:
        return tuple(p.support for p in self.params)

    def check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        assert theta.ndim in (1, 2) and theta.shape[-1] == len(self.params), theta.shape
        return theta

    def rows_for_param(self, j, data):
        return None

    def initial_theta(self) -> np.ndarray:
        defaults = {"real": 0.0, "positive": 1.0, "unit": 0.5}
        return np.array([defaults[s] for s in self.supports])


class GammaExponentialModel(DuckModel):
    """Exponential outcome with a Gamma(shape, rate) prior on its rate.

    Fully observed data give the closed-form posterior
    Gamma(shape + N, rate + sum(y)), the oracle for the sampler checks.
    """

    def __init__(self, shape: float = 2.0, rate: float = 1.0):
        self.shape = shape
        self.rate = rate
        self.params = (Param("lambda", "positive"),)
        self.label = "gamma-exponential"

    def log_prior(self, theta):
        lam = self.check_theta(theta)[..., 0]
        positive = lam > 0.0
        safe = np.where(positive, lam, 1.0)
        total = (
            self.shape * math.log(self.rate)
            - math.lgamma(self.shape)
            + (self.shape - 1.0) * np.log(safe)
            - self.rate * safe
        )
        return np.where(positive, total, -math.inf)

    family = Exponential

    def row_params(self, theta, cols):
        return (np.maximum(np.asarray(theta, dtype=float)[..., 0:1], 1e-300),)


def tobit_dataset(n=40, seed=8):
    """Censored normal regression rows (intercept 1, slopes 0.8 and -0.5,
    sd 1.2) with every censor kind: the lowest and highest fifths left- and
    right-censored at their quantile cutoffs, every third middle row coarsened
    to a half-unit interval, the rest observed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = 1.0 + x @ np.array([0.8, -0.5]) + 1.2 * rng.standard_normal(n)
    lo_cut, hi_cut = np.quantile(y, [0.2, 0.8])
    outcomes = []
    for i in range(n):
        if y[i] < lo_cut:
            outcomes.append(("left", float(lo_cut)))
        elif y[i] > hi_cut:
            outcomes.append(("right", float(hi_cut)))
        elif i % 3 == 0:
            lo = math.floor(2.0 * y[i]) / 2.0
            outcomes.append(("interval", lo, lo + 0.5))
        else:
            outcomes.append(("none", float(y[i])))
    return make_dataset(outcomes, covariates=x)


def single_binomial_dataset(successes=7, trials=20):
    return make_dataset([("none", float(successes))], trials=[trials])


def multirow_binomial_dataset():
    counts = (2, 1, 3, 2, 0, 1, 2, 4, 1, 2, 3, 1, 2, 1, 0, 2, 3, 1, 2, 2)
    return make_dataset([("none", float(y)) for y in counts], trials=[50] * len(counts))


def exponential_dataset(n=40, rate=0.8, seed=123):
    rng = np.random.default_rng(seed)
    return make_dataset([("none", float(rng.exponential(1.0 / rate))) for _ in range(n)])


@pytest.fixture(scope="session")
def conjugate_bb_runs():
    """Two independent runs of the single-row Beta-Binomial conjugate model."""
    data = single_binomial_dataset()
    model = Model(MODELS["A"], data, beta_shapes=(1.0, 1.0))
    make = lambda seed: run(
        model,
        data,
        LikelihoodMode.EXACT,
        ChainConfig(n_chains=3, burn_in=1000, n_keep=10000, seed=seed),
    )
    return model, data, make(1101), make(2202)


@pytest.fixture(scope="session")
def conjugate_multirow_runs():
    """Two runs of a 20-row shared-incidence Binomial model (pd/p_opt bands)."""
    data = multirow_binomial_dataset()
    model = Model(MODELS["A"], data, beta_shapes=(1.0, 1.0))
    make = lambda seed: run(
        model,
        data,
        LikelihoodMode.EXACT,
        ChainConfig(n_chains=3, burn_in=1000, n_keep=10000, seed=seed),
    )
    return model, data, make(3303), make(4404)


@pytest.fixture(scope="session")
def conjugate_ge_run():
    data = exponential_dataset()
    model = GammaExponentialModel(shape=2.0, rate=1.0)
    samples = run(
        model,
        data,
        LikelihoodMode.EXACT,
        ChainConfig(n_chains=3, burn_in=1000, n_keep=10000, seed=5505),
    )
    return model, data, samples


# ---------------------------------------------------------------------------
# Randomized censored datasets for the likelihood-equivalence properties
# ---------------------------------------------------------------------------

# Censoring regions are kept inside this probability band so that both the
# log-space and the probability-space likelihood routes stay representable
# in double precision; outside it, 1 - F rounds to 0 long before log(1 - F)
# does and the comparison measures float saturation, not the identity.
REGION_PROB_BAND = (1e-6, 1.0 - 1e-6)


def random_family(rng: np.random.Generator, kind=None):
    """An Exponential, Normal, Binomial or Beta distribution (``kind`` 0 to 3,
    drawn when None) with random parameters."""
    if kind is None:
        kind = rng.integers(4)
    if kind == 0:
        return Exponential(rate=float(np.exp(rng.uniform(-2.0, 2.0))))
    if kind == 1:
        return Normal(
            mean=float(rng.uniform(-3.0, 3.0)),
            precision=float(np.exp(rng.uniform(-2.0, 2.0))),
        )
    if kind == 2:
        return Binomial(
            trials=int(rng.integers(1, 41)), prob=float(rng.uniform(0.05, 0.95))
        )
    return Beta(
        alpha=float(np.exp(rng.uniform(-1.0, 1.5))),
        beta=float(np.exp(rng.uniform(-1.0, 1.5))),
    )


def _region_ok(family, lo, hi) -> bool:
    p = math.exp(family.log_interval_prob(lo, hi))
    return REGION_PROB_BAND[0] < p < REGION_PROB_BAND[1]


def random_outcome(rng: np.random.Generator, family) -> tuple:
    """One outcome spec under ``family`` with any of the four censoring kinds."""
    kind = rng.integers(4)
    for _ in range(50):
        if kind == 0:
            return ("none", family.sample(rng))
        a = family.sample(rng)
        if kind == 1 and _region_ok(family, -math.inf, a):
            return ("left", a)
        if kind == 2 and _region_ok(family, a, math.inf):
            return ("right", a)
        if kind == 3:
            b = family.sample(rng)
            lo, hi = min(a, b), max(a, b)
            if lo < hi and _region_ok(family, lo, hi):
                return ("interval", lo, hi)
    return ("none", family.sample(rng))


def random_dataset(rng: np.random.Generator, max_rows: int = 8):
    """(dataset, per-row families) pair: one outcome family (Beta, a prior
    only, has no columnar kernels), its parameters drawn per row, and mixed
    censoring kinds."""
    n = int(rng.integers(2, max_rows + 1))
    kind = int(rng.integers(3))
    families = [random_family(rng, kind) for _ in range(n)]
    outcomes = [random_outcome(rng, fam) for fam in families]
    trials = [fam.trials for fam in families] if kind == 2 else None
    return make_dataset(outcomes, trials=trials), families


FIELDS = {Exponential: ("rate",), Normal: ("mean", "precision"), Binomial: ("trials", "prob")}


def family_params(families):
    """(family class, per-row parameter arrays) of a list of one family's
    objects: the columnar likelihoods' arguments for them."""
    cls = type(families[0])
    return cls, tuple(np.array([getattr(f, name) for f in families]) for name in FIELDS[cls])
