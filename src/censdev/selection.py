"""Deviance-based model selection: Dbar, pD, DIC, p_opt and PED.

All selection quantities are computed from EXACT-mode deviance monitors;
latent-imputation (DINTERVAL) traces are refused outright because their
monitored deviance silently drops every censored row and is therefore not a
valid basis for model comparison.

* ``Dbar`` is the posterior mean deviance.
* ``pD`` is the classic plug-in Dbar - D(theta_bar), with theta_bar formed
  by averaging draws on the sampler's unbounded working scale so the
  plug-in point always lies inside the parameter supports.
* ``p_opt`` (optimism) is estimated by cross-evaluating paired draws from
  two independent runs.  For each row the penalty at a draw pair is the
  symmetrized Kullback-Leibler divergence between the row's predictive
  distribution at the two draws: the expected extra deviance a replicate
  generated under one plausible parameter value suffers when scored under
  another.  Pairs are importance-weighted by the inverse of the row's own
  likelihood at both draws, which retargets the average onto the
  leave-that-row-out posterior; without this reweighting the penalty would
  be judged by parameters that already saw the row.  Censored rows enter
  through their Bernoulli indicator distribution, whose success probability
  is the censoring-region probability, matching how those rows appear in
  the likelihood.  In the well-identified regime the penalty approaches
  2 * pD; for weakly identified rows (one parameter per observation) the
  reweighting inflates it sharply, which is the signature of overfitting.
  PED = Dbar + p_opt.

The plug-in deviance and p_opt score all rows at once from the dataset's
columns; p_opt runs over (draw pairs x rows) arrays in chunks of draws, so
memory stays bounded however long the chains are.  Each of the two enters
``np.errstate(all="ignore")`` once around its kernel calls (extreme draws
meet overflow and log(0) by design), so a report raises no floating-point
warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import bernoulli_kl_v
from .exceptions import (
    ComparabilityError,
    DataError,
    InsufficientReplicationError,
    PluginError,
)
from .likelihood import KIND_OBSERVED, CensoredDataset, LikelihoodMode
from .mcmc import PosteriorSamples, to_natural, to_unbounded
from .models import Model

__all__ = [
    "SelectionReport",
    "compute_dbar",
    "compute_popt_ped",
    "make_selection_report",
    "compare",
    "OVERFIT_RATIO",
]

# A model is flagged as overfitting when optimism dwarfs the plug-in
# parameter count by this factor.
OVERFIT_RATIO = 5.0

# Draw pairs x rows evaluated at once by the optimism estimator.
POPT_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SelectionReport:
    """One model's deviance summary; dic and ped satisfy their identities exactly."""

    label: str
    dbar: float
    pd: float
    dic: float
    p_opt: float
    ped: float
    mode: LikelihoodMode
    dataset_id: str = ""
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dic != self.dbar + self.pd:
            raise DataError("dic must equal dbar + pd exactly")
        if self.ped != self.dbar + self.p_opt:
            raise DataError("ped must equal dbar + p_opt exactly")

    @property
    def overfit(self) -> bool:
        return self.pd > 0 and self.p_opt > OVERFIT_RATIO * self.pd


def _require_exact(samples: PosteriorSamples) -> None:
    if samples.mode is not LikelihoodMode.EXACT:
        raise ComparabilityError(
            "selection statistics require EXACT-mode deviance monitors; "
            "latent-imputation monitors drop censored rows and are not usable"
        )


def compute_dbar(deviance_trace: np.ndarray) -> float:
    """Posterior mean deviance."""
    trace = np.asarray(deviance_trace, dtype=float)
    if trace.size == 0:
        raise DataError("empty deviance trace")
    if not np.all(np.isfinite(trace)):
        raise DataError("deviance trace contains non-finite entries")
    return float(trace.mean())


def plugin_deviance(model: Model, data: CensoredDataset, draws: np.ndarray) -> float:
    """Exact deviance at the transformed-scale posterior mean."""
    supports = model.supports
    theta_bar = to_natural(to_unbounded(draws, supports).mean(axis=0), supports)
    cols = data.columns
    try:
        with np.errstate(all="ignore"):
            value = -2.0 * float(model.family.log_contrib(
                cols, *model.row_params(theta_bar, cols)
            ).sum())
    except Exception as exc:  # parameter/domain failures at the plug-in point
        raise PluginError(f"plug-in deviance failed at posterior mean: {exc}") from exc
    if not math.isfinite(value):
        raise PluginError("plug-in deviance is non-finite at the posterior mean")
    return value


def _penalty_terms(family, censored, params_a, params_b, contrib_a, contrib_b):
    """(symmetric predictive KL, log importance weight) per draw pair and row.

    An observed row compares the outcome distributions at the two draws; a
    censored row compares its Bernoulli indicator, whose success
    probability is the row's likelihood term.
    """
    p_a, p_b = np.exp(contrib_a), np.exp(contrib_b)
    ksym = np.where(
        censored,
        bernoulli_kl_v(p_a, p_b) + bernoulli_kl_v(p_b, p_a),
        family.kl_v(params_a, params_b) + family.kl_v(params_b, params_a),
    )
    return ksym, -(contrib_a + contrib_b)


def compute_popt_ped(
    samples_a: PosteriorSamples,
    samples_b: Optional[PosteriorSamples],
    model: Model,
    data: CensoredDataset,
    method: str = "paired-kl",
) -> tuple[float, float]:
    """Optimism and penalized expected deviance from two independent runs.

    Draw t of run A is paired with draw t of run B, and the summed per-row
    symmetric predictive divergences are averaged over the pairs.
    ``"paired-kl"`` is the only ``method``; the parameter stays because the
    benchmark's tracer (``perfbench/tracing.py``) reads it by name.
    """
    _require_exact(samples_a)
    if method != "paired-kl":
        raise DataError(f"unknown optimism method {method!r}")
    if samples_b is None or samples_b is samples_a:
        raise InsufficientReplicationError(
            "paired optimism estimation needs two runs with disjoint seeds"
        )
    _require_exact(samples_b)
    if samples_a.config.seed == samples_b.config.seed:
        raise InsufficientReplicationError(
            "the two runs must use disjoint seeds to be independent"
        )
    n = min(samples_a.draws.shape[0], samples_b.draws.shape[0])
    if n == 0:
        raise InsufficientReplicationError("no draws to pair")
    cols = data.columns
    family = model.family
    censored = cols.kind != KIND_OBSERVED
    # Per row, over the pairs seen so far: the largest log weight, and the
    # sums of weights and of weighted penalties scaled by its exponential.
    log_w_max = np.full(len(cols), -np.inf)
    weight_sum = np.zeros(len(cols))
    penalty_sum = np.zeros(len(cols))
    chunk = max(1, POPT_CHUNK_ELEMENTS // len(cols))
    with np.errstate(all="ignore"):
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            params_a = model.row_params(samples_a.draws[start:stop], cols)
            params_b = model.row_params(samples_b.draws[start:stop], cols)
            contrib_a = family.log_contrib(cols, *params_a)
            contrib_b = family.log_contrib(cols, *params_b)
            ksym, log_w = _penalty_terms(
                family, censored, params_a, params_b, contrib_a, contrib_b
            )
            new_max = np.maximum(log_w_max, log_w.max(axis=0))
            rescale = np.exp(log_w_max - new_max)
            weights = np.exp(log_w - new_max)
            weight_sum = weight_sum * rescale + weights.sum(axis=0)
            penalty_sum = penalty_sum * rescale + (weights * ksym).sum(axis=0)
            log_w_max = new_max
    p_opt = float((penalty_sum / weight_sum).sum())
    dbar = compute_dbar(
        np.concatenate([samples_a.deviance_trace[:n], samples_b.deviance_trace[:n]])
    )
    return p_opt, dbar + p_opt


def make_selection_report(
    label: str,
    model: Model,
    data: CensoredDataset,
    samples_a: PosteriorSamples,
    samples_b: PosteriorSamples,
    dataset_id: str = "",
) -> SelectionReport:
    """Assemble the full report for one model fitted as two independent runs.

    Dbar and the plug-in pool both runs, so the DIC and PED columns share
    one posterior-mean deviance.
    """
    _require_exact(samples_a)
    _require_exact(samples_b)
    warnings: list[str] = []
    dbar = compute_dbar(np.concatenate([samples_a.deviance_trace, samples_b.deviance_trace]))
    pd = float(dbar - plugin_deviance(model, data, np.vstack([samples_a.draws, samples_b.draws])))
    if pd < 0.0:
        warnings.append(
            f"negative effective parameter count pd={pd:.3f}; "
            "reported unclamped (posterior mean may sit in a low-density region)"
        )
    p_opt, _ = compute_popt_ped(samples_a, samples_b, model, data)
    return SelectionReport(
        label=label,
        dbar=dbar,
        pd=pd,
        dic=dbar + pd,
        p_opt=p_opt,
        ped=dbar + p_opt,
        mode=LikelihoodMode.EXACT,
        dataset_id=dataset_id,
        warnings=tuple(warnings),
    )


def compare(reports: Sequence[SelectionReport]) -> list[SelectionReport]:
    """Rank reports by DIC ascending; ties break by PED, then label.

    All reports must describe the same dataset (matching ``dataset_id``).
    """
    if len(reports) < 2:
        raise DataError("comparison needs at least two reports")
    ids = {r.dataset_id for r in reports}
    if len(ids) > 1:
        raise ComparabilityError(
            f"reports computed on different datasets: {sorted(ids)}"
        )
    return sorted(reports, key=lambda r: (r.dic, r.ped, r.label))
