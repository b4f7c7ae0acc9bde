"""Bayesian inference for censored outcomes with correctly specified deviance.

Latent-imputation model specifications sample the right posterior but
monitor a deviance that silently drops every censored observation, which
corrupts DIC/PED model selection.  This package implements both that
bookkeeping (for demonstration and comparison) and the exact censored
likelihood, in which each censored row enters as a Bernoulli indicator
whose success probability is a CDF value, so deviance-based selection is
computed from the full likelihood.
"""

from .datasets import (
    aml_dataset,
    dataset_fingerprint,
    ingest,
    serialize,
    synthetic_ae_dataset,
)
from .distributions import Binomial, Exponential, Normal
from .likelihood import (
    CensoredDataset,
    LikelihoodMode,
    deviance,
    exact_contributions,
    loglik_bernoulli_reform,
    loglik_dinterval_style,
    loglik_exact,
)
from .mcmc import (
    ChainBatch,
    ChainConfig,
    PosteriorSamples,
    export_density,
    run,
    summarize,
)
from .models import MODELS, Model, ModelSpec
from .selection import (
    SelectionReport,
    compare,
    compute_dbar,
    compute_popt_ped,
    make_selection_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "aml_dataset",
    "dataset_fingerprint",
    "ingest",
    "serialize",
    "synthetic_ae_dataset",
    "Binomial",
    "Exponential",
    "Normal",
    "CensoredDataset",
    "LikelihoodMode",
    "deviance",
    "exact_contributions",
    "loglik_bernoulli_reform",
    "loglik_dinterval_style",
    "loglik_exact",
    "ChainConfig",
    "ChainBatch",
    "PosteriorSamples",
    "export_density",
    "run",
    "summarize",
    "MODELS",
    "Model",
    "ModelSpec",
    "SelectionReport",
    "compare",
    "compute_dbar",
    "compute_popt_ped",
    "make_selection_report",
]
