"""Adaptive random-walk Metropolis-within-Gibbs posterior sampler.

Each parameter component is updated on an unbounded working scale (log for
positive supports, logit for unit-interval supports: the transforms of
:mod:`censdev.models`) with a Jacobian correction, so one proposal mechanism
serves every model.  Proposal scales adapt during burn-in, toward a 0.44
acceptance rate for a step that moves one component and 0.234 for one that
moves several at once (Roberts, Gelman & Gilks 1997), and are frozen
afterwards, with every other adapted quantity, so the kept portion of each
chain comes from one fixed Markov kernel (Roberts & Rosenthal 2009).

Two likelihood bookkeeping modes are supported.  EXACT targets the censored
log-likelihood directly and monitors the matching deviance.  DINTERVAL
emulates latent-imputation samplers: censored rows carry latent outcome
values that are Gibbs-refreshed from their truncated outcome distribution
every sweep, the parameter target conditions on those values, and the
deviance monitor sums observed rows only (censored rows contribute log 1).
The refresh runs the family's class kernels on the censored rows' block,
checked once with the dataset; each region's log mass is also its row's
exact contribution, so kept DINTERVAL draws carry their exact deviance.

The likelihood is kept as a per-row contribution array and the prior as
the values of the model's prior and level terms.  A sweep visits the
components in order, in Metropolis blocks, each a step of one class built
once with the state, which fixes its accept unit (a level, or a chain),
what it re-scores, which of its columns leave the real line and its draw
buffers, so one update serves every kind.  A model's levels (one
parameter per level of a categorical index column, e.g. one incidence per
study) form a level step: given the other components their priors
factorize and their row sets are disjoint, so each level keeps its own
Metropolis accept and the block has the stationary law of the
level-by-level single-site updates it replaces (the chromatic Gibbs
argument).  It draws one proposal vector, scores every row with one
vectorized kernel call and sums the change per level.  The other
components that reach the rows (survival's b0 and b1; the GLM's
intercept, coefficients and sigma) form one group step, with one accept,
so a sweep scores the rows once for them: a joint block when they are two
or more, a group of one otherwise (A's p_pool, D/E/F's mu).  Each
component that only the level terms read (C's mu and spread, D/E/F's
sigma) is a hyper step, a group of one that re-scores those terms and no
row.

A joint block of d components is adaptive Metropolis (Haario, Saksman &
Tamminen 2001): chain c proposes x + scale_c * L_c z_c from one standard
normal d-vector z_c, and accepts or rejects the whole step.  L_c starts at
the identity; at each adaptation-window end of the burn-in in which the
chain moved, it becomes the Cholesky factor of 2.38^2 / d times the
window's working-scale covariance, from running sums over the window,
blended with the previous estimate by the scale adaptation's gain
(``_proposal_factor``).  Its components share one scale and one accept,
so their acceptance columns are equal.  A group of one keeps the plain
step scale_c * z_c.  Acceptance rates, and so the scale adaptation, stay
per component.

A d-dimensional random-walk step moves each component less per scoring
than d single-site steps do, so where the components are nearly
independent (the GLM's) it alone loses effective draws per second.  The
kept phase therefore alternates it with an independence Metropolis step
(adaptive independence Metropolis-Hastings: Holden, Hauge & Holden 2009),
whose proposal is fixed at the end of burn-in: Student t draws on 5
degrees of freedom, centred on the chain's mean position over the
burn-in's second half, on 1.3 times the posterior scale that the adapted
random walk implies.  Both steps keep the target, so their cycle does.

All chains of a call advance together as one array state.  ``run`` takes
a ``ChainBatch`` of run configs (one, or several: the replicate runs A and
B of a fit, say) and keeps parameters, working-scale values, Jacobians and
proposal scales as (chains, params) arrays, a joint block's factors as a
(chains, d, d) array, the prior term values as (chains, terms) and
(chains, levels) arrays and the per-row contributions and latent values
as (chains, rows) arrays, so each block scores every
chain's proposal with one ``log_contrib`` call.  Start-up is a masked
sweep: each attempt scores every chain and adopts the pending chains whose
posterior is finite; the others restart from jittered points.  A batch may
also name one model per config, as long as the models share a
``layout_key``: they then differ only in their link (D, E and F: one
hierarchical model under three links), so the batch computes their linear
predictor once and each chain's link on its own values, while proposals,
prior and level terms, the kernel, accept and commit run once over all
chains.  Chains stay independent: each owns a
child generator spawned deterministically from its run's seed, for its
jittered restarts and start latents, and three streams spawned from it:
proposal normals, accept and latent uniforms, and independence t draws.
Each draws one distribution a fixed number of times per sweep, in sweep
order, so a chunk of sweeps (as many as ``_DRAW_CHUNK`` buffered floats
allow) takes one call per chain and stream, every accept is one
comparison log u < log ratio, and the chunk length changes no draw.  A
chain's terms and factor depend on its own row of the state only.  So a
chain's draws are bit for bit the same whichever chains, of whichever of
those models, share its batch; ``TestBatching`` and ``TestDrawChunks`` in
``tests/test_mcmc.py`` check that.  Every sampling call goes through
``run``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .distributions import link_invert_v, require_mass
from .exceptions import (
    DataError,
    DegenerateDensityError,
    DegenerateRegionError,
    InitializationError,
    NumericError,
    SchemaError,
)
from .likelihood import CensoredDataset, LikelihoodMode
from .models import _TRANSFORMS, Model, _columnwise, _plain, to_natural

__all__ = [
    "ChainConfig",
    "ChainBatch",
    "PosteriorSamples",
    "ParamSummary",
    "run",
    "adapt_step_sizes",
    "summarize",
    "split_rhat",
    "export_density",
]

# exp(-z * z / 2) rounds to exactly 0.0 in binary64 for |z| > 38.604; no
# density window reaches further than a little past that.
_KDE_REACH = 38.61
# A density window leaves out kernel terms totalling under this share of its sum.
_KDE_EPS = 2.0 ** -52
# Kernel terms evaluated per chunk of density grid rows (2 MiB of float64).
_KDE_CHUNK = 1 << 18
# Draws buffered per chunk of sweeps, over every chain and kind (1 MiB of float64).
_DRAW_CHUNK = 1 << 17
TARGET_ACCEPTANCE = 0.44
# The optimal acceptance rate of a random-walk step that moves several
# components at once (Roberts, Gelman & Gilks 1997).
JOINT_TARGET_ACCEPTANCE = 0.234
MAX_INIT_RETRIES = 100
# The kept phase's independence step for a joint block draws Student t
# components with this many degrees of freedom, on a scale this many times
# the posterior scale the burn-in learned.
_T_DF = 5.0
_T_INFLATE = 1.3


@dataclass(frozen=True)
class ChainConfig:
    """Run geometry: chains, burn-in, kept draws, thinning, seed; raises
    DataError unless each is an integer (numpy's too, not a bool) in range."""

    n_chains: int = 3
    burn_in: int = 1000
    n_keep: int = 1000
    thin: int = 1
    seed: int = 0
    adapt_window: int = 50

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            # bool is an int subclass; 10.0 is not an iteration count.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataError(
                    f"chain setting {field.name!r} must be an integer, got {_plain(value)!r}")
        if self.n_chains < 1 or self.n_keep < 1 or self.thin < 1:
            raise DataError("n_chains, n_keep and thin must be positive")
        if self.burn_in < 0 or self.adapt_window < 1:
            raise DataError("burn_in must be >= 0 and adapt_window positive")
        if self.seed < 0:
            raise DataError("seed must be a non-negative integer")

    @property
    def total_iterations(self) -> int:
        return self.burn_in + self.n_keep * self.thin


@dataclass(frozen=True)
class ChainBatch:
    """Run configs sampled together as one state.

    Their chains sweep in lockstep, so the configs must share burn-in, kept
    draws, thinning and adaptation window; chain counts and seeds may
    differ.  ``models``, when given, names the model of each config (by
    default each samples the model passed to ``run``); ``run`` requires
    them to share that model's ``layout_key``.  ``n_chains`` counts the
    chains of every config.
    """

    configs: tuple[ChainConfig, ...]
    models: tuple[Model, ...] = ()

    def __post_init__(self):
        geometry = {(c.burn_in, c.n_keep, c.thin, c.adapt_window) for c in self.configs}
        if len(geometry) != 1:
            raise DataError(
                "a chain batch needs configs that share burn_in, n_keep, thin "
                f"and adapt_window; got {sorted(geometry)}"
            )
        if self.models and len(self.models) != len(self.configs):
            raise DataError(f"a chain batch names {len(self.models)} models "
                            f"for {len(self.configs)} configs")

    @property
    def n_chains(self) -> int:
        return sum(c.n_chains for c in self.configs)

    @property
    def total_iterations(self) -> int:
        return self.configs[0].total_iterations


@dataclass
class PosteriorSamples:
    """Kept draws with the per-draw monitored deviance.

    ``draws`` holds natural-scale values, chain-major: the first ``n_keep``
    rows belong to chain 0.  ``deviance_trace`` is the active mode's
    monitored deviance per kept draw and ``exact_deviance_trace`` the exact
    deviance of the same draws, every censored row counted: in EXACT mode
    the same values.
    """

    param_names: tuple[str, ...]
    draws: np.ndarray
    deviance_trace: np.ndarray
    exact_deviance_trace: np.ndarray
    chain_ids: np.ndarray
    acceptance_rates: np.ndarray  # [n_chains, n_params], kept phase
    mode: LikelihoodMode
    config: ChainConfig

    @property
    def n_chains(self) -> int:
        return self.config.n_chains

    @property
    def n_keep(self) -> int:
        return self.config.n_keep

    def param(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


# ---------------------------------------------------------------------------
# Adaptation
# ---------------------------------------------------------------------------


def _gain(adapt_round: int) -> float:
    """The adaptation's Robbins-Monro gain at round ``adapt_round``: it decays
    as adapt_round^(-1/2), so adjustments vanish over a long burn-in."""
    return min(0.5, float(adapt_round) ** -0.5)


def adapt_step_sizes(scales: np.ndarray, accept_rates: np.ndarray, adapt_round: int,
                     target=TARGET_ACCEPTANCE) -> np.ndarray:
    """Robbins-Monro rescaling of proposal step sizes toward ``target``
    (a rate, or one per column of ``scales``), by the round's ``_gain``;
    scales are left untouched when the observed rate hits the target
    exactly.
    """
    return scales * np.exp(_gain(adapt_round) * (np.asarray(accept_rates) - target))


def _proposal_factor(chol: np.ndarray, sums: np.ndarray, outer: np.ndarray, n: int,
                     adapt_round: int) -> np.ndarray:
    """A chain's joint-block factor after adaptation window ``adapt_round``
    of ``n`` sweeps whose working-scale positions have sums ``sums`` (d,)
    and outer-product sums ``outer`` (d, d): the Cholesky factor of
    2.38^2 / d times a covariance moved from the one the current factor
    ``chol`` stands for toward the window's by the round's ``_gain``.  The
    blend stays positive definite when the window's moves span fewer than
    d directions, lets the burn-in's first windows, far from the posterior,
    fade, and remembers more windows as the burn-in goes on.  ``chol``
    itself if the factorization fails.
    """
    scale = 2.38 ** 2 / len(sums)
    gain = _gain(adapt_round)
    mean = sums / n
    window = outer / n - mean[:, None] * mean[None, :]
    cov = gain * window + (1.0 - gain) / scale * (chol @ chol.T)
    try:
        return math.sqrt(scale) * np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return chol


# ---------------------------------------------------------------------------
# Batched chain state
# ---------------------------------------------------------------------------


def _log_t_kernel(t: np.ndarray) -> np.ndarray:
    """Log density, up to a constant, of standard Student t components."""
    return -0.5 * (_T_DF + 1.0) * np.log1p(t * t / _T_DF)


def _independence_proposal(chol: np.ndarray, scale: np.ndarray, center: np.ndarray):
    """(center, factor, inverse) of each chain's independence proposal for
    a joint block with factors ``chol`` (chains, d, d) and scales ``scale``
    (chains,): centred on ``center`` (chains, d), with the posterior scale
    that the adapted random walk implies, scale_c L_c sqrt(d) / 2.38 (its
    step is 2.38 / sqrt(d) posterior scales), inflated by ``_T_INFLATE``."""
    factor = _T_INFLATE * math.sqrt(chol.shape[-1]) / 2.38 * scale[:, None, None] * chol
    return center, factor, np.linalg.inv(factor)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Per-chain sums of a (chains, rows) array, in one chain's order."""
    return np.ascontiguousarray(a).sum(axis=1)


class _Step:
    """One Metropolis step of every chain of a batch for the components
    ``comps`` (a slice), built once with the batch's state, which fixes its
    accept unit and what it re-scores.  A ``levels`` step has one accept
    per level: its log uniforms ``log_u`` are every level's column of the
    draw chunk, and ``owner`` maps each row to its level (``bins`` is owner
    + levels * chain, for one ``np.bincount`` of every chain).  Any other
    step has one accept per chain, read from its first component's column,
    and ``owner`` None.  A step re-scores the prior terms that read its
    components (``terms``: index and function), the level terms if it is a
    level step or a hyper step (one without ``rows``), and the rows if it
    has ``rows`` (``cols`` is then the dataset, else None).  ``chol`` is
    None but for a ``joint`` step.  ``maps`` lists each component off the
    real line (a real one is its own natural value, with log Jacobian 0) by
    its column in the step and in the state, with its two maps; ``whole``
    says one map serves every column, as for levels, which share a support.

    ``update(state, scales, proposal)`` moves every chain by the chunk's
    row ``state.at`` and returns its accept flags, (chains, units).  A
    random walk proposes ``scales * z_c``, times the chain's factor
    ``chol_c`` in a joint step (starting at the identity); given an
    independence ``proposal`` (center, factor, inverse) it proposes
    center_c + factor_c t_c from d Student t draws t_c instead, and its log
    ratio gains log q(x) - log q(y) of that fixed proposal density q.  The
    log ratio adds, in this order, the changes of the prior terms, the
    level terms, the rows' contributions (summed by owner in a level step)
    and the log Jacobians, each as (chains, units): a level step keeps its
    per-level changes, any other step sums each change per chain.  It
    accepts where log u < log ratio, never at -inf or NaN (a proposal
    outside the prior's support).
    """

    def __init__(self, state, comps: slice, rows=True, levels=False, joint=False):
        self.comps, self.cols = comps, state.data if rows else None
        self.rescores_levels = levels or not rows
        reads = set(range(comps.start, comps.stop))
        self.terms = [(k, term.log_density) for k, term in enumerate(state.model.prior_terms)
                      if reads & set(term.reads)]
        self.z = state.normals[:, :, comps]
        n_chains, _, width = self.z.shape
        accepts = comps if levels else slice(comps.start, comps.start + 1)
        self.log_u = state.uniforms[:, :, accepts]
        supports = state.supports[comps]
        self.maps = [(i, comps.start + i, *_TRANSFORMS[support][1:])
                     for i, support in enumerate(supports) if support != "real"]
        self.whole = len(set(supports)) == 1 and bool(self.maps)
        self.owner = self.chol = None
        if levels:
            self.owner = state.data.codes(state.model.index_col, width)
            self.bins = (self.owner + width * np.arange(n_chains)[:, None]).ravel()
        if joint:
            self.chol = np.tile(np.eye(width), (n_chains, 1, 1))

    def update(self, state, scales, proposal=None):
        x = state.x[:, self.comps]
        if proposal is None:
            z = self.z[:, state.at]
            if self.chol is not None:  # elementwise products, so a chain's step is its own alone
                z = (self.chol * z[:, None, :]).sum(axis=2)
            x_new = x + scales * z
        else:
            center, factor, inverse = proposal
            t = state.t[:, state.at]
            x_new = center + (factor * t[:, None, :]).sum(axis=2)
            u = (inverse * (x - center)[:, None, :]).sum(axis=2)
            q_ratio = _row_sums(_log_t_kernel(u) - _log_t_kernel(t))[:, None]
        if self.whole:
            v_new = self.maps[0][2](x_new)
            jacs = [(self.comps, self.maps[0][3](x_new))]
        else:
            v_new = x_new.copy() if self.maps else x_new
            jacs = []
            for i, j, to_nat, log_jac in self.maps:
                v_new[:, i] = to_nat(x_new[:, i])
                jacs.append((slice(j, j + 1), log_jac(x_new[:, i, None])))
        theta = state.v.copy()
        theta[:, self.comps] = v_new
        changes, terms_new = [], []
        for k, log_density in self.terms:
            terms_new.append(log_density(theta)[:, None])
            changes.append(terms_new[-1] - state.terms[:, k, None])
        by_level = self.owner is not None
        if self.rescores_levels:
            levels_new = state.model.level_log_prior(theta)
            change = levels_new - state.level_terms
            changes.append(change if by_level else _row_sums(change)[:, None])
        if self.cols is not None:
            contribs = state._contributions(state._row_params(theta, self.cols))
            change = contribs - state.contribs
            changes.append(np.bincount(self.bins, change.ravel(), levels_new.size).reshape(
                levels_new.shape) if by_level else _row_sums(change)[:, None])
        for cols, jac in jacs:  # one map over d > 1 columns of a chain's accept: their sum
            change = jac - state.jac[:, cols]
            changes.append(change if by_level or change.shape[1] == 1
                           else _row_sums(change)[:, None])
        if proposal is not None:
            changes.append(q_ratio)
        log_ratio = sum(changes[1:], changes[0])
        accept = self.log_u[:, state.at] < log_ratio
        np.copyto(state.x[:, self.comps], x_new, where=accept)
        np.copyto(state.v[:, self.comps], v_new, where=accept)
        for cols, jac in jacs:
            np.copyto(state.jac[:, cols], jac, where=accept)
        for (k, _), t in zip(self.terms, terms_new):
            np.copyto(state.terms[:, k, None], t, where=accept)
        if self.rescores_levels:
            np.copyto(state.level_terms, levels_new, where=accept)
        if self.cols is not None:
            np.copyto(state.contribs, contribs, where=accept[:, self.owner] if by_level else accept)
        return accept


class _ChainBatch:
    """Mutable sampler state of every chain of a batch, as arrays.

    ``x``, ``v`` and ``jac`` are (chains, params), ``terms`` and
    ``level_terms`` (the values of the model's prior terms and level terms)
    are (chains, terms) and (chains, levels), and ``contribs`` and
    ``values`` (the observed outcomes, with the latents in the censored
    rows in DINTERVAL mode) are (chains, rows), over the rows of the
    dataset ``data``.  All stay in sync with the current parameters and
    latents.  ``rngs`` holds each chain's start-up generator, ``streams``
    the three spawned from it, and ``normals``, ``uniforms`` and ``t``
    their (chains, chunk, draws a sweep) blocks, ``at`` the current sweep's
    row: a sweep takes a normal and an accept uniform (kept as its log) per
    component, then a uniform per latent, and d t draws in an independence
    sweep of a d-component joint block.  ``chain_models`` (the model of
    each chain) share a ``layout_key``, so they differ at most in their
    link: ``model``, the first, gives the layout, and ``links`` is None
    when every chain's row parameters are its, else the chains of each
    link.  ``blocks`` lists the Metropolis steps of a sweep in component
    order, each a ``_Step`` built once.  A table entry lays its components
    out as those that reach the rows, then ``level_reads``, then the levels,
    so the steps are one group step for the first (a joint block when they
    are two or more), a hyper step (one that reaches no row) for each
    component in ``level_reads`` and a level step for the levels.
    """

    def __init__(self, data, mode, rngs, chain_models):
        self.model = model = chain_models[0]
        by_link = {}
        if any(m is not model for m in chain_models):
            for c, m in enumerate(chain_models):
                by_link.setdefault(m.link, []).append(c)
        self.links = list(by_link.items()) if len(by_link) > 1 else None
        self.family = model.family
        self.mode = mode
        self.rngs = rngs
        self.supports = model.supports
        self.n_params = len(model.params)
        self.data = data
        self.observed_rows = np.flatnonzero(~data.censored)
        self.censored_rows = np.flatnonzero(data.censored)
        self.censored_block = data.take(self.censored_rows)
        levels = model.levels
        n_group = self.n_params - len(levels) - len(model.level_reads)
        n_chains = len(rngs)
        n_latent = len(self.censored_rows) if mode is LikelihoodMode.DINTERVAL else 0
        n_t = n_group if n_group > 1 else 0
        chunk = max(1, _DRAW_CHUNK // (n_chains * (2 * self.n_params + n_latent + n_t)))
        self.streams = [rng.spawn(3) for rng in rngs]
        self.normals = np.empty((n_chains, chunk, self.n_params))
        self.uniforms = np.empty((n_chains, chunk, self.n_params + n_latent))
        self.t = np.empty((n_chains, chunk, n_t))
        self.at = 0
        self.blocks = [_Step(self, slice(0, n_group), joint=n_group > 1)] if n_group else []
        self.blocks += [_Step(self, slice(j, j + 1), rows=False) for j in model.level_reads]
        if levels:
            self.blocks.append(_Step(self, slice(levels[0], self.n_params), levels=True))

        self.values = np.tile(data.value, (n_chains, 1))
        self.x = np.empty((n_chains, self.n_params))
        self.v = np.empty((n_chains, self.n_params))
        self.jac = np.empty((n_chains, self.n_params))
        self.contribs = np.empty((n_chains, len(data)))
        self.terms = np.empty((n_chains, len(model.prior_terms)))
        self.level_terms = np.empty((n_chains, len(levels)))
        self.censored_log_mass = np.zeros((n_chains, len(self.censored_rows)))

    # -- contribution bookkeeping ------------------------------------------
    def _row_params(self, theta, block) -> tuple[np.ndarray, ...]:
        """Family parameters of ``block`` at each chain's row of ``theta``,
        as (chains, 1, rows) arrays (or broadcastable to them), a chain's
        from its own model.  Each chain enters ``row_params`` as a stack of
        one, so a model's matrix products are matrix-vector products per
        chain and a chain's terms do not depend on which chains share the
        batch.  Link variants compute their ``linear_predictor`` once, then
        each chain's link: elementwise, so a chain's values are its own."""
        theta = theta[:, None, :]
        if self.links is None:
            return self.model.row_params(theta, block)
        trials, eta = self.model.linear_predictor(theta, block)
        prob = np.empty(eta.shape)
        for link, chains in self.links:
            prob[chains] = link_invert_v(link, eta[chains])
        return trials, prob

    def _contributions(self, params) -> np.ndarray:
        """(chains, rows) contributions of every row from its ``params``."""
        if self.mode is LikelihoodMode.EXACT:
            out = self.family.log_contrib(self.data, *params)
        else:
            out = self.family.log_pdf_v(self.values[:, None, :], *params)
        return out[:, 0]

    # -- initialization ------------------------------------------------------
    def initialize(self) -> None:
        """Start every chain at the working-scale origin, the natural values
        0, 1 and 1/2 of the supports.  Each attempt scores every chain as a
        sweep does and adopts the pending chains whose posterior is finite;
        the others retry from jittered points, each drawn from its chain's
        own generator."""
        self.x[:] = 0.0
        pending = np.ones(len(self.rngs), dtype=bool)
        for attempt in range(MAX_INIT_RETRIES + 1):
            if attempt:
                for c in np.flatnonzero(pending):
                    self.x[c] = self.rngs[c].normal(size=self.n_params)
            pending &= ~self._try_states(pending)
            if not pending.any():
                return
        raise InitializationError(
            f"no finite posterior found after {MAX_INIT_RETRIES} jittered restarts"
        )

    def _try_states(self, pending: np.ndarray) -> np.ndarray:
        """Adopt each chain's working-scale point ``x`` for the ``pending``
        chains whose prior and likelihood are finite there; returns the mask
        of the chains adopted.  No likelihood is scored when no pending
        chain's prior is finite."""
        v = to_natural(self.x, self.supports)
        ok = pending & np.isfinite(self.model.log_prior(v))
        if self.mode is LikelihoodMode.DINTERVAL and ok.any():
            block = self.censored_block
            params = self._row_params(v, block)
            # One call per chain, so a degenerate region fails only its chain.
            for c in np.flatnonzero(ok):
                family = self.family(*(p[c] if np.ndim(p) > 1 else p for p in params))
                try:
                    latents = family.sample_truncated(block.lo, block.hi, self.rngs[c])
                except DegenerateRegionError:
                    ok[c] = False
                else:
                    self.values[c, self.censored_rows] = latents
        if not ok.any():
            return ok
        contribs = self._contributions(self._row_params(v, self.data))
        ok &= np.isfinite(_row_sums(contribs))
        self.v[ok], self.contribs[ok] = v[ok], contribs[ok]
        for k, term in enumerate(self.model.prior_terms):
            self.terms[ok, k] = term.log_density(v)[ok]
        if self.model.levels:
            self.level_terms[ok] = self.model.level_log_prior(v)[ok]
        self.jac[ok] = _columnwise(2, self.x, self.supports)[ok]
        return ok

    def refresh_latents(self, sweep: int) -> None:
        """Draw every chain's latents at its current parameters from its
        latent uniforms in the chunk's row ``at``: ``_draw`` of the regions'
        log mass, which ``log_contrib`` gives on ``censored_block`` and
        ``censored_log_mass`` keeps as their exact contributions."""
        rows, block = self.censored_rows, self.censored_block
        if not len(rows):
            return
        params = self._row_params(self.v, block)
        log_mass = self.family.log_contrib(block, *params)
        try:
            require_mass(log_mass, block.lo, block.hi)
        except DegenerateRegionError as exc:
            raise NumericError(f"sweep {sweep}: degenerate censoring region: {exc}") from exc
        u = self.uniforms[:, self.at, None, self.n_params:]
        latents = self.family._draw(block.lo, block.hi, u, log_mass, *params)
        self.values[:, rows] = latents[:, 0]
        self.contribs[:, rows] = self.family.log_pdf_v(latents, *params)[:, 0]
        self.censored_log_mass = log_mass[:, 0]

    def monitored_deviance(self) -> np.ndarray:
        if self.mode is LikelihoodMode.EXACT:
            return -2.0 * _row_sums(self.contribs)
        return -2.0 * np.take(self.contribs, self.observed_rows, axis=1).sum(axis=1)

    # -- sampling --------------------------------------------------------------
    def _draw_chunk(self, sweep: int, config: ChainConfig) -> None:
        """Fill the draw blocks for the chunk of sweeps from ``sweep``, one
        call per chain and stream, t draws in the kept phase's odd (the
        independence) sweeps, and take the accept uniforms' logs in place."""
        n = min(self.normals.shape[1], config.total_iterations - sweep)
        kept = np.arange(sweep, sweep + n) - config.burn_in
        independent = np.flatnonzero((kept > 0) & (kept % 2 == 1))
        for (normal, uniform, student), z, u, t in zip(self.streams, self.normals,
                                                        self.uniforms, self.t):
            normal.standard_normal(out=z[:n])
            uniform.random(out=u[:n])
            t[independent] = student.standard_t(_T_DF, (len(independent), t.shape[1]))
        accept = self.uniforms[:, :n, :self.n_params]
        np.log(accept, out=accept)

    def sample(self, config: ChainConfig, draws, devs, exact_devs):
        """Burn-in with adaptation, then the kept sweeps, for every chain.

        Fills the kept draws (chains, n_keep, params), monitored deviances
        and exact deviances (chains, n_keep), as :func:`_kept_arrays`
        allocates them.  The exact deviance is the monitored one less twice
        the sum of ``censored_log_mass``: in EXACT mode the monitored one.
        Returns the kept-phase acceptance rates (chains, params).

        A joint block's scale adapts toward ``JOINT_TARGET_ACCEPTANCE``, the
        rest toward ``TARGET_ACCEPTANCE``.  At each window end of the
        burn-in, each chain that moved in the window re-estimates its factor
        from running sums of its positions over the window
        (``_proposal_factor``); the factor is frozen after burn-in.  Every
        second kept sweep moves the joint block by an independence step
        instead (``_independence_proposal``), centred on the chain's mean
        position over the burn-in's second half (its current position when
        there is no burn-in) and built once, at the first kept sweep.
        """
        n_chains = len(self.rngs)
        shape = (n_chains, self.n_params)
        scales = np.full(shape, 0.5)
        window_accepts = np.zeros(shape)
        kept_accepts = np.zeros(shape)
        target = np.full(self.n_params, TARGET_ACCEPTANCE)
        joint = next((b for b in self.blocks if b.chol is not None), None)
        if joint is not None:
            target[joint.comps] = JOINT_TARGET_ACCEPTANCE
            sums, outer = np.zeros(joint.chol.shape[:2]), np.zeros_like(joint.chol)
            late_sums = np.zeros(joint.chol.shape[:2])
        late = config.burn_in // 2
        proposal = None
        for sweep in range(config.total_iterations):
            self.at = sweep % self.normals.shape[1]
            if self.at == 0:
                self._draw_chunk(sweep, config)
            in_burn = sweep < config.burn_in
            accepts = window_accepts if in_burn else kept_accepts
            if joint is not None and sweep == config.burn_in:
                center = (late_sums / (config.burn_in - late) if config.burn_in
                          else self.x[:, joint.comps].copy())
                proposal = _independence_proposal(joint.chol, scales[:, joint.comps.start],
                                                  center)
            independent = proposal is not None and (sweep - config.burn_in) % 2
            for step in self.blocks:
                accepts[:, step.comps] += step.update(
                    self, scales[:, step.comps], proposal if step is joint and independent
                    else None)
            if self.mode is LikelihoodMode.DINTERVAL:
                self.refresh_latents(sweep)

            if in_burn:
                if joint is not None:
                    at = self.x[:, joint.comps]
                    sums += at
                    outer += at[:, :, None] * at[:, None, :]
                    if sweep >= late:
                        late_sums += at
                adapt_round, window_count = divmod(sweep + 1, config.adapt_window)
                if window_count == 0:
                    rates = window_accepts / config.adapt_window
                    scales = adapt_step_sizes(scales, rates, adapt_round, target)
                    if joint is not None:
                        for c in np.flatnonzero(window_accepts[:, joint.comps.start]):
                            joint.chol[c] = _proposal_factor(joint.chol[c], sums[c], outer[c],
                                                             config.adapt_window, adapt_round)
                        sums[:], outer[:] = 0.0, 0.0
                    window_accepts[:] = 0.0
            elif (sweep - config.burn_in + 1) % config.thin == 0:
                kept = (sweep - config.burn_in) // config.thin
                dev = self.monitored_deviance()
                finite = np.isfinite(dev)
                if not finite.all():
                    raise NumericError(
                        f"sweep {sweep}: non-finite monitored deviance "
                        f"{dev[~finite][0]}"
                    )
                draws[:, kept] = self.v
                devs[:, kept] = dev
                if self.mode is LikelihoodMode.DINTERVAL:
                    exact_devs[:, kept] = dev - 2.0 * _row_sums(self.censored_log_mass)
        if self.mode is LikelihoodMode.EXACT:
            exact_devs[:] = devs
        return kept_accepts / (config.n_keep * config.thin)


def _kept_arrays(batch: ChainBatch, n_params: int):
    """Empty kept draws (chains, n_keep, params) and monitored and exact
    deviances (chains, n_keep).  Raises DataError when numpy refuses their
    size."""
    shape = (batch.n_chains, batch.configs[0].n_keep)
    try:
        return np.empty((*shape, n_params)), np.empty(shape), np.empty(shape)
    except (MemoryError, ValueError):  # more than memory, or than an array, holds
        raise DataError(f'"chains": {shape[0]} chains x {shape[1]} kept draws '
                        "are too many to allocate") from None


def run(
    model: Model,
    data: CensoredDataset,
    mode: LikelihoodMode,
    config: ChainBatch,
) -> list[PosteriorSamples]:
    """Sample the model's posterior on ``data`` under the given mode.

    The configs of the :class:`ChainBatch` ``config`` are sampled as one
    state; the result is the list of their samples in order.  They sample
    the batch's ``models`` where it names them; a named model whose
    ``layout_key`` differs from ``model``'s raises SchemaError.
    Deterministic per config: chain c of a config starts from the c-th
    child of that config's seed sequence and sweeps on the three streams
    spawned from it, and its results are bit for bit those of that config,
    with its model, in a batch of its own, whatever the chunk length.
    """
    models = config.models or (model,) * len(config.configs)
    for named in models:
        if named is not model and named.layout_key != model.layout_key:
            raise SchemaError(f"{named.label} and {model.label} differ in more than "
                              "their link, so they cannot share a chain batch")
    draws, devs, exact_devs = _kept_arrays(config, len(model.params))
    rngs = [
        np.random.default_rng(child)
        for cfg in config.configs
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)
    ]
    chain_models = [m for m, cfg in zip(models, config.configs) for _ in range(cfg.n_chains)]
    state = _ChainBatch(data, mode, rngs, chain_models)
    with np.errstate(all="ignore"):
        state.initialize()
        rates = state.sample(config.configs[0], draws, devs, exact_devs)

    bounds = np.cumsum([cfg.n_chains for cfg in config.configs])[:-1]
    arrays = (draws, devs, rates, exact_devs)
    parts = zip(config.configs, *(np.split(a, bounds) for a in arrays))
    return [PosteriorSamples(
        param_names=model.param_names,
        draws=chain_draws.reshape(-1, state.n_params),
        deviance_trace=chain_devs.reshape(-1),
        exact_deviance_trace=chain_exact.reshape(-1),
        chain_ids=np.repeat(np.arange(cfg.n_chains), cfg.n_keep),
        acceptance_rates=chain_rates,
        mode=mode,
        config=cfg,
    ) for cfg, chain_draws, chain_devs, chain_rates, chain_exact in parts]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSummary:
    name: str
    mean: float
    sd: float
    q025: float
    q500: float
    q975: float
    rhat: float  # NaN when the trace is degenerate
    accept: float  # kept-phase acceptance rate, averaged over chains


def split_rhat(traces: np.ndarray) -> float:
    """Split-chain potential scale reduction over ``traces`` [n_chains, n].

    Each chain is halved before the classic between/within comparison.  A
    zero within-chain variance yields NaN rather than an error.
    """
    traces = np.asarray(traces, dtype=float)
    half = traces.shape[1] // 2
    if half < 2:
        return float("nan")
    seqs = np.vstack([traces[:, :half], traces[:, half : 2 * half]])
    w = seqs.var(axis=1, ddof=1).mean()
    if w == 0.0:
        return float("nan")
    b = half * seqs.mean(axis=1).var(ddof=1)
    var_plus = (half - 1.0) / half * w + b / half
    return float(math.sqrt(var_plus / w))


def summarize(samples: PosteriorSamples) -> list[ParamSummary]:
    """Deterministic per-parameter summaries of the kept draws."""
    out = []
    for j, name in enumerate(samples.param_names):
        col = samples.draws[:, j]
        per_chain = col.reshape(samples.n_chains, samples.n_keep)
        q = np.percentile(col, [2.5, 50.0, 97.5])
        out.append(
            ParamSummary(
                name=name,
                mean=float(col.mean()),
                sd=float(col.std(ddof=1)) if col.size > 1 else 0.0,
                q025=float(q[0]),
                q500=float(q[1]),
                q975=float(q[2]),
                rhat=split_rhat(per_chain),
                accept=float(samples.acceptance_rates[:, j].mean()),
            )
        )
    return out


def _kde_windows(xs: np.ndarray, grid: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds [lo, hi) of the sorted draws ``xs`` in each grid point's
    window of :func:`export_density`, for bandwidth ``h``."""
    nearest = np.searchsorted(xs, grid)
    below = np.abs(grid - xs[np.maximum(nearest - 1, 0)])
    above = np.abs(xs[np.minimum(nearest, xs.size - 1)] - grid)
    with np.errstate(over="ignore"):  # a far draw or a window past +-max: the cap holds
        d = np.minimum(below, above) / h
        reach = np.minimum(np.sqrt(d * d + 2.0 * math.log(xs.size / _KDE_EPS)), _KDE_REACH) * h
        return (np.searchsorted(xs, grid - reach, side="left"),
                np.searchsorted(xs, grid + reach, side="right"))


def export_density(
    trace: np.ndarray,
    grid_size: int = 512,
    bandwidth_rule: str | float = "scott",
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density of a trace on an evenly spaced grid.

    The grid spans [min - 3h, max + 3h]; the trapezoid integral of the
    result is 1 within 1e-3 for any non-degenerate trace.

    Each grid point g sums the kernel terms exp(-z * z / 2), z = (g - x) / h,
    of the draws x of the sorted trace within its window (:func:`_kde_windows`):
    r = sqrt(d^2 + 2 ln(n / eps)) bandwidths of g, where d is the distance
    from g to its nearest draw in bandwidths, n the trace length and eps =
    ``_KDE_EPS`` = 2^-52, capped at ``_KDE_REACH`` = 38.61, past which every
    term is exactly 0.0 in binary64.  Fewer than n terms are left out and
    each is below exp(-r^2 / 2) = (eps / n) exp(-d^2 / 2), while the nearest
    draw, kept, alone adds exp(-d^2 / 2): the left-out terms total less than
    eps times the kept sum.  Where d > 38.61 the density is exactly 0.0.
    Each term summed is bit for bit the one a full grid-by-draws matrix
    would hold; only the summation order differs.  Grid rows are evaluated
    in chunks of at most ``_KDE_CHUNK`` = 2^18 terms (a single row longer
    than that is its own chunk) in one reused buffer, so memory does not
    grow with the grid, and no term is formed outside a window, so none
    overflows whatever the bandwidth.

    Raises DataError for an empty trace, a non-finite draw, a grid_size
    below 2 or too large to allocate, an unknown rule, a bandwidth that is
    not a finite positive number and a grid whose endpoints are not finite;
    DegenerateDensityError for a zero-variance trace.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise DataError("cannot estimate a density from an empty trace")
    if grid_size < 2:
        raise DataError(f"density grid needs at least 2 points, got {grid_size}")
    if not np.isfinite(trace).all():
        raise DataError("cannot estimate a density from a trace with non-finite draws")
    with np.errstate(over="ignore", invalid="ignore"):  # huge draws: h is checked below
        sd = float(trace.std(ddof=1)) if trace.size > 1 else 0.0
        if sd == 0.0:
            raise DegenerateDensityError("zero-variance trace has no density estimate")
        if isinstance(bandwidth_rule, str):
            iqr = float(np.subtract(*np.percentile(trace, [75, 25])))
            spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
            n_fac = trace.size ** -0.2
            if bandwidth_rule == "scott":
                h = 1.06 * spread * n_fac
            elif bandwidth_rule == "silverman":
                h = 0.9 * spread * n_fac
            else:
                raise DataError(f"unknown bandwidth rule {bandwidth_rule!r}")
        else:
            h = float(bandwidth_rule)
    if not (math.isfinite(h) and h > 0.0):
        raise DataError(f"bandwidth must be a finite positive number, got {h!r}")
    xs = np.sort(trace)
    start, stop = float(xs[0]) - 3.0 * h, float(xs[-1]) + 3.0 * h
    if not math.isfinite(stop - start):
        raise DataError(f"density grid [{start!r}, {stop!r}] is not finite; "
                        f"bandwidth {h!r} is too wide for the trace")
    norm = 1.0 / (trace.size * h * math.sqrt(2.0 * math.pi))
    if not math.isfinite(norm * trace.size):
        raise DataError(f"bandwidth {h!r} is too narrow: the density overflows")
    try:  # the arrays and lists of this block are grid-sized
        grid = np.linspace(start, stop, grid_size)
        lo, hi = _kde_windows(xs, grid, h)
        counts = hi - lo
        ends = np.cumsum(counts)
        points, lo, hi = grid.tolist(), lo.tolist(), hi.tolist()
        sums = np.zeros(grid_size)
    except (MemoryError, ValueError):  # more than memory, or than an array, holds
        raise DataError(f"a density grid of {grid_size} points (--grid-size) "
                        "is too large to allocate") from None
    buf = np.empty(min(int(ends[-1]), max(_KDE_CHUNK, int(counts.max()))))
    first = 0
    while first < grid_size:
        done = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _KDE_CHUNK, side="right")))
        rows, starts, filled = [], [], 0
        for i in range(first, last):
            if hi[i] > lo[i]:
                rows.append(i)
                starts.append(filled)
                filled += hi[i] - lo[i]
                np.subtract(points[i], xs[lo[i]:hi[i]], out=buf[starts[-1]:filled])
        z = buf[:filled]
        np.divide(z, h, out=z)
        np.multiply(z, z, out=z)
        np.multiply(z, -0.5, out=z)
        np.exp(z, out=z)
        sums[rows] = np.add.reduceat(z, starts)
        first = last
    return grid, norm * sums
