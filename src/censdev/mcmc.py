"""Adaptive random-walk Metropolis-within-Gibbs posterior sampler.

Each parameter component is updated on an unbounded working scale (log for
positive supports, logit for unit-interval supports) with a Jacobian
correction, so one proposal mechanism serves every model.  Proposal scales
adapt toward a 0.44 acceptance rate during burn-in and are frozen afterwards
so the kept portion of each chain is Markov.

Two likelihood bookkeeping modes are supported.  EXACT targets the censored
log-likelihood directly and monitors the matching deviance.  DINTERVAL
emulates latent-imputation samplers: censored rows carry latent outcome
values that are Gibbs-refreshed from their truncated outcome distribution
every sweep, the parameter target conditions on those values, and the
deviance monitor sums observed rows only (censored rows contribute log 1).

The likelihood is kept as a per-row contribution array.  A sweep visits
the components in order, in Metropolis blocks.  A model's levels (one
parameter per level of a categorical index column, e.g. one incidence per
study) form one block: given the other components their priors factorize
and their row sets are disjoint, so each level keeps its own Metropolis
accept and the block has the stationary law of the level-by-level
single-site updates it replaces (the chromatic Gibbs argument).  The block
draws one proposal vector, scores the union of its rows with one
vectorized kernel call and sums the change per level.  Every other
component is a block of one that scores the precomputed row block its
value reaches.  Acceptance rates, and so the adaptation, stay per
component.

Chains are independent, each owning a child random generator spawned
deterministically from the run seed, so results are reproducible bit for
bit and identical whether chains execute serially or concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from .exceptions import (
    DataError,
    DegenerateDensityError,
    DegenerateRegionError,
    InitializationError,
    NumericError,
    SchemaError,
)
from .likelihood import KIND_OBSERVED, CensoredDataset, DataColumns, LikelihoodMode
from .models import Model

__all__ = [
    "ChainConfig",
    "PosteriorSamples",
    "ParamSummary",
    "run",
    "to_unbounded",
    "to_natural",
    "adapt_step_sizes",
    "summarize",
    "split_rhat",
    "mcse",
    "export_density",
]

_NEG_INF = float("-inf")
TARGET_ACCEPTANCE = 0.44
MAX_INIT_RETRIES = 100


@dataclass(frozen=True)
class ChainConfig:
    """Run geometry: chains, burn-in, kept draws, thinning, seed."""

    n_chains: int = 3
    burn_in: int = 1000
    n_keep: int = 1000
    thin: int = 1
    seed: int = 0
    adapt_window: int = 50

    def __post_init__(self):
        if self.n_chains < 1 or self.n_keep < 1 or self.thin < 1:
            raise DataError("n_chains, n_keep and thin must be positive")
        if self.burn_in < 0 or self.adapt_window < 1:
            raise DataError("burn_in must be >= 0 and adapt_window positive")
        if self.seed < 0:
            raise DataError("seed must be a non-negative integer")

    @property
    def total_iterations(self) -> int:
        return self.burn_in + self.n_keep * self.thin


@dataclass
class PosteriorSamples:
    """Kept draws with the per-draw monitored deviance.

    ``draws`` holds natural-scale values, chain-major: the first ``n_keep``
    rows belong to chain 0.  ``deviance_trace`` is the active mode's
    monitored deviance per kept draw.  ``latent_trace`` (DINTERVAL only)
    stores the imputed values for the rows listed in ``latent_rows``.
    """

    param_names: tuple[str, ...]
    supports: tuple[str, ...]
    draws: np.ndarray
    deviance_trace: np.ndarray
    chain_ids: np.ndarray
    acceptance_rates: np.ndarray  # [n_chains, n_params], kept phase
    mode: LikelihoodMode
    config: ChainConfig
    latent_rows: tuple[int, ...] = ()
    latent_trace: Optional[np.ndarray] = None

    @property
    def n_chains(self) -> int:
        return self.config.n_chains

    @property
    def n_keep(self) -> int:
        return self.config.n_keep

    def chain(self, c: int) -> np.ndarray:
        return self.draws[self.chain_ids == c]

    def param(self, name: str) -> np.ndarray:
        return self.draws[:, self.param_names.index(name)]


# ---------------------------------------------------------------------------
# Working-scale transforms
# ---------------------------------------------------------------------------


# Per support: natural -> unbounded, unbounded -> natural, and the log
# Jacobian log |dv/dx| of the latter.  Elementwise, so one set serves a single
# component and whole columns of draws alike.
_TRANSFORMS = {
    "real": (lambda v: v, lambda x: x, lambda x: 0.0 * x),
    "positive": (
        np.log,
        lambda x: np.exp(np.minimum(x, 700.0)),
        lambda x: np.minimum(x, 700.0),
    ),
    # logistic: log v + log(1 - v), stable in both tails
    "unit": (
        special.logit,
        special.expit,
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


# ---------------------------------------------------------------------------
# Adaptation
# ---------------------------------------------------------------------------


def adapt_step_sizes(
    scales: np.ndarray,
    accept_rates: np.ndarray,
    adapt_round: int,
    target: float = TARGET_ACCEPTANCE,
) -> np.ndarray:
    """Robbins-Monro rescaling of proposal step sizes toward ``target``.

    The gain decays as adapt_round^(-1/2) so adjustments vanish over a long
    burn-in; scales are left untouched when the observed rate hits the
    target exactly.
    """
    gain = min(0.5, float(adapt_round) ** -0.5)
    return scales * np.exp(gain * (np.asarray(accept_rates) - target))


# ---------------------------------------------------------------------------
# Single-chain state
# ---------------------------------------------------------------------------


class _Block(NamedTuple):
    """Components that one Metropolis step moves, each with its own accept.

    ``comps`` is a component index, for a block of one, or the slice of a
    model's levels; numpy indexing then hands the update scalars or vectors
    alike.  ``transform`` is their working-scale transform triple.
    ``rows`` are the rows they reach (a slice when that is every row) and
    ``cols`` the columnar block of those rows, None when there are none.
    ``owner`` is None for a single component; for levels it maps each row
    of the block to the position of its level in ``comps``.
    """

    comps: int | slice
    transform: tuple
    rows: slice | np.ndarray
    cols: Optional[DataColumns]
    owner: Optional[np.ndarray]


class _ChainState:
    """Mutable sampler state for one chain.

    Keeps the per-row log-likelihood contribution array in sync with the
    current parameters (and latents in DINTERVAL mode).  ``blocks`` lists
    the Metropolis blocks of a sweep in component order: the model's levels
    form one block at the position of the first level, every other
    component is a block of its own.
    """

    def __init__(self, model, data, mode, rng):
        self.model = model
        self.family = model.family
        self.mode = mode
        self.rng = rng
        self.supports = model.supports
        self.n_params = len(model.params)
        cols = data.columns
        self.observed_mask = cols.kind == KIND_OBSERVED
        self.censored_rows = np.flatnonzero(~self.observed_mask)
        self.censored_block = cols.take(self.censored_rows)
        self.all_rows = (slice(None), cols)
        levels = tuple(model.levels)
        self.blocks = []
        for j in range(self.n_params):
            if j not in levels:
                self.blocks.append(self._single_block(j, data))
            elif j == levels[0]:
                self.blocks.append(self._level_block(levels, data))
        # Observed outcomes, with the latents in the censored rows (DINTERVAL).
        self.values = cols.value.copy()

        self.x = np.empty(self.n_params)
        self.v = np.empty(self.n_params)
        self.jac = np.empty(self.n_params)
        self.contribs = np.empty(len(cols))
        self.log_prior = _NEG_INF

    def _single_block(self, j: int, data) -> _Block:
        rows = self.model.rows_for_param(j, data)
        if rows is None:
            rows, cols = self.all_rows
        else:
            cols = data.columns.take(rows) if len(rows) else None
        transform = _TRANSFORMS[self.supports[j]]
        return _Block(j, transform, rows, cols, None)

    def _level_block(self, levels: tuple[int, ...], data) -> _Block:
        """One block for the model's levels.  Moving them together keeps the
        target only if, given the other components, their priors factorize
        (``level_log_prior``) and no row depends on two of them."""
        name = type(self.model).__name__
        if levels != tuple(range(levels[0], levels[0] + len(levels))):
            raise SchemaError(f"{name}: levels must be consecutive components")
        if len({self.supports[j] for j in levels}) != 1:
            raise SchemaError(f"{name}: levels must share one support")
        n_rows = len(data.columns)
        level_rows = [self.model.rows_for_param(j, data) for j in levels]
        level_rows = [np.arange(n_rows) if r is None else r for r in level_rows]
        rows = np.concatenate(level_rows)
        if len(np.unique(rows)) != len(rows):
            raise SchemaError(f"{name}: levels share rows, so they cannot move as a block")
        owner = np.repeat(np.arange(len(levels)), [len(r) for r in level_rows])
        cols = data.columns.take(rows) if len(rows) else None
        comps = slice(levels[0], levels[0] + len(levels))
        return _Block(comps, _TRANSFORMS[self.supports[levels[0]]], rows, cols, owner)

    # -- contribution bookkeeping ------------------------------------------
    def _contributions(self, theta: np.ndarray, rows, block) -> np.ndarray:
        params = self.model.row_params(theta, block)
        if self.mode is LikelihoodMode.EXACT:
            return self.family.log_contrib(block, *params)
        return self.family.log_pdf_v(self.values[rows], *params)

    def _draw_latents(self, theta: np.ndarray) -> np.ndarray:
        """One truncated draw per censored row, in row order."""
        block = self.censored_block
        *params, _ = np.broadcast_arrays(*self.model.row_params(theta, block), block.lo)
        return np.array([
            self.family(*(p[k] for p in params)).sample_truncated(
                block.lo[k], block.hi[k], self.rng
            )
            for k in range(len(block))
        ])

    # -- initialization ------------------------------------------------------
    def initialize(self) -> None:
        x0 = to_unbounded(self.model.initial_theta(), self.supports)
        for attempt in range(MAX_INIT_RETRIES + 1):
            x = x0 if attempt == 0 else x0 + self.rng.normal(size=self.n_params)
            if self._try_state(x):
                return
        raise InitializationError(
            f"no finite posterior found after {MAX_INIT_RETRIES} jittered restarts"
        )

    def _try_state(self, x: np.ndarray) -> bool:
        v = to_natural(x, self.supports)
        lp = self.model.log_prior(v)
        if not math.isfinite(lp):
            return False
        if self.mode is LikelihoodMode.DINTERVAL:
            try:
                self.values[self.censored_rows] = self._draw_latents(v)
            except DegenerateRegionError:
                return False
        contribs = self._contributions(v, *self.all_rows)
        if not np.isfinite(contribs.sum()):
            return False
        self.x, self.v, self.contribs, self.log_prior = x, v, contribs, lp
        self.jac = _columnwise(2, x, self.supports)
        return True

    # -- updates --------------------------------------------------------------
    def update_block(self, block: _Block, scales):
        """One random-walk Metropolis step for each component of ``block``,
        accepted or rejected on its own; returns the accept flag(s).

        A single component is scored by the joint log prior and the summed
        contributions of its rows.  Levels are scored per level, from one
        proposal vector and one likelihood call: their ``level_log_prior``
        terms plus their rows' contributions summed by owner.  Uniforms are
        drawn only when some log ratio is below 0.  A proposal outside the
        prior's support has log ratio -inf (or NaN) and is rejected.
        """
        comps, (_, to_nat, log_jac), rows, cols, owner = block
        size = None if owner is None else len(scales)
        x_new = self.x[comps] + scales * self.rng.standard_normal(size)
        v_new = to_nat(x_new)
        jac_new = log_jac(x_new)

        theta_prop = self.v.copy()
        theta_prop[comps] = v_new
        if owner is None:
            lp_new = self.model.log_prior(theta_prop)
            delta_prior = lp_new - self.log_prior
        else:
            level_log_prior = self.model.level_log_prior
            delta_prior = level_log_prior(theta_prop) - level_log_prior(self.v)
        log_ratio = delta_prior
        if cols is not None:
            new_contribs = self._contributions(theta_prop, rows, cols)
            old_contribs = self.contribs[rows]
            if owner is None:
                log_ratio = log_ratio + (new_contribs.sum() - old_contribs.sum())
            else:
                log_ratio = log_ratio + (
                    np.bincount(owner, new_contribs, size)
                    - np.bincount(owner, old_contribs, size)
                )
        log_ratio = log_ratio + (jac_new - self.jac[comps])

        accept = log_ratio >= 0.0
        # A single site's flag is a numpy scalar, whose .all() is slow.
        if not (accept if size is None else accept.all()):
            # log u < 0 <= log_ratio keeps every level accepted above.
            accept = np.log(self.rng.uniform(size=size)) < log_ratio
        if owner is None:
            if accept:
                self.x[comps], self.v[comps], self.jac[comps] = x_new, v_new, jac_new
                self.log_prior = lp_new
                if cols is not None:
                    self.contribs[rows] = new_contribs
        elif accept.any():
            np.copyto(self.x[comps], x_new, where=accept)
            np.copyto(self.v[comps], v_new, where=accept)
            np.copyto(self.jac[comps], jac_new, where=accept)
            self.log_prior += float(delta_prior[accept].sum())
            if cols is not None:
                moved = accept[owner]
                self.contribs[rows[moved]] = new_contribs[moved]
        return accept

    def refresh_latents(self, sweep: int) -> None:
        try:
            latents = self._draw_latents(self.v)
        except DegenerateRegionError as exc:
            raise NumericError(
                f"sweep {sweep}: degenerate censoring region: {exc}"
            ) from exc
        rows = self.censored_rows
        self.values[rows] = latents
        self.contribs[rows] = self._contributions(self.v, rows, self.censored_block)

    def monitored_deviance(self) -> float:
        if self.mode is LikelihoodMode.EXACT:
            return -2.0 * float(self.contribs.sum())
        return -2.0 * float(self.contribs[self.observed_mask].sum())


def _run_chain(model, data, mode, config, rng):
    state = _ChainState(model, data, mode, rng)
    state.initialize()
    n_params = state.n_params

    scales = np.full(n_params, 0.5)
    window_accepts = np.zeros(n_params)
    window_count = 0
    adapt_round = 0

    kept_accepts = np.zeros(n_params)
    kept_proposals = 0

    draws = np.empty((config.n_keep, n_params))
    devs = np.empty(config.n_keep)
    latent_rows = tuple(int(r) for r in state.censored_rows)
    lat_trace = (
        np.empty((config.n_keep, len(latent_rows)))
        if mode is LikelihoodMode.DINTERVAL
        else None
    )

    kept = 0
    for sweep in range(config.total_iterations):
        in_burn = sweep < config.burn_in
        accepts = window_accepts if in_burn else kept_accepts
        for block in state.blocks:
            accepts[block.comps] += state.update_block(block, scales[block.comps])
        if not in_burn:
            kept_proposals += 1
        if mode is LikelihoodMode.DINTERVAL:
            state.refresh_latents(sweep)

        if in_burn:
            window_count += 1
            if window_count == config.adapt_window:
                adapt_round += 1
                rates = window_accepts / config.adapt_window
                scales = adapt_step_sizes(scales, rates, adapt_round)
                window_accepts[:] = 0.0
                window_count = 0
        elif (sweep - config.burn_in + 1) % config.thin == 0:
            dev = state.monitored_deviance()
            if not math.isfinite(dev):
                raise NumericError(
                    f"sweep {sweep}: non-finite monitored deviance {dev}"
                )
            draws[kept] = state.v
            devs[kept] = dev
            if lat_trace is not None:
                lat_trace[kept] = state.values[state.censored_rows]
            kept += 1

    rates = kept_accepts / max(kept_proposals, 1)
    return draws, devs, rates, latent_rows, lat_trace


def run(
    model: Model,
    data: CensoredDataset,
    mode: LikelihoodMode,
    config: ChainConfig,
) -> PosteriorSamples:
    """Sample the model's posterior on ``data`` under the given mode.

    Deterministic for a fixed config: chain c uses the c-th child of the
    seed sequence regardless of execution order.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    all_draws, all_devs, all_rates, all_lat = [], [], [], []
    latent_rows: tuple[int, ...] = ()
    for c in range(config.n_chains):
        rng = np.random.default_rng(children[c])
        draws, devs, rates, latent_rows, lat = _run_chain(
            model, data, mode, config, rng
        )
        all_draws.append(draws)
        all_devs.append(devs)
        all_rates.append(rates)
        if lat is not None:
            all_lat.append(lat)
    chain_ids = np.repeat(np.arange(config.n_chains), config.n_keep)
    return PosteriorSamples(
        param_names=model.param_names,
        supports=model.supports,
        draws=np.vstack(all_draws),
        deviance_trace=np.concatenate(all_devs),
        chain_ids=chain_ids,
        acceptance_rates=np.vstack(all_rates),
        mode=mode,
        config=config,
        latent_rows=latent_rows,
        latent_trace=np.vstack(all_lat) if all_lat else None,
    )


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


def mcse(trace: np.ndarray) -> float:
    """Monte Carlo standard error of the mean via batch means."""
    trace = np.asarray(trace, dtype=float)
    n = trace.size
    if n < 4:
        return float(trace.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    b = max(2, int(math.sqrt(n)))
    m = n // b
    batch_means = trace[: m * b].reshape(m, b).mean(axis=1)
    return float(math.sqrt(batch_means.var(ddof=1) / m))


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


def export_density(
    trace: np.ndarray,
    grid_size: int = 512,
    bandwidth_rule: str | float = "scott",
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density of a trace on an evenly spaced grid.

    The grid spans [min - 3h, max + 3h]; the trapezoid integral of the
    result is 1 within 1e-3 for any non-degenerate trace.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise DataError("cannot estimate a density from an empty trace")
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
        if h <= 0.0:
            raise DataError("bandwidth must be positive")
    grid = np.linspace(trace.min() - 3.0 * h, trace.max() + 3.0 * h, grid_size)
    density = np.empty(grid_size)
    norm = 1.0 / (trace.size * h * math.sqrt(2.0 * math.pi))
    chunk = max(1, int(2_000_000 // max(trace.size, 1)))
    for start in range(0, grid_size, chunk):
        g = grid[start : start + chunk, None]
        z = (g - trace[None, :]) / h
        density[start : start + chunk] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return grid, density
