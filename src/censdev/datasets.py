"""Dataset ingestion, serialization, bundled data and synthetic generation.

File format: comma-delimited UTF-8 with a mandatory header.  The first five
columns are fixed -- ``outcome, censor, cut1, cut2, trials`` -- and any
further columns are numeric covariates.  ``censor`` is one of ``none``,
``left``, ``right`` or ``interval``; censored rows leave ``outcome`` empty
(the missing-value encoding) and carry their cutoff(s) in the cut columns.
A single trailing empty field per row is tolerated, so files written with a
trailing comma still parse.

The bundled survival dataset is the classical acute myeloid leukemia
maintenance-chemotherapy series (23 patients, 5 right-censored follow-up
times; ``group`` = 1 for the maintained arm).  It ships verbatim from the
published table.  The rare-adverse-event binomial data used in drug-safety
meta-analyses are not publicly printed, so :func:`synthetic_ae_dataset`
generates a stand-in with the same shape: study-level counts for five drugs
in two drug classes, with small counts left-censored at study-specific
reporting cutoffs (a count below cutoff k is only known to be <= k - 1).
"""

from __future__ import annotations

import hashlib
import math
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import ParseError
from .likelihood import KIND_LEFT, KIND_OBSERVED, KIND_RIGHT, CensoredDataset

__all__ = [
    "ingest",
    "parse_dataset",
    "serialize",
    "dataset_fingerprint",
    "aml_dataset",
    "synthetic_ae_dataset",
    "AE_COVARIATES",
    "DRUG_CLASSES",
]

FIXED_COLUMNS = ("outcome", "censor", "cut1", "cut2", "trials")
# The censor column's words, indexed by censor-kind code.
CENSOR_KINDS = ("none", "left", "right", "interval")

AE_COVARIATES = ("drug", "drug_class", "study")
# Five drugs in two mechanism classes (two in class 0, three in class 1).
DRUG_CLASSES = (0, 0, 1, 1, 1)
# The synthetic AE data's incidence of a drug with no effect, and each
# drug's effect on the logit scale.
BASE_INCIDENCE = 0.025
DRUG_EFFECTS = (-0.9, 0.7, -0.6, 0.2, 1.0)


def _num(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan  # reported below, as a NaN cell is
    if math.isnan(value):
        raise ParseError(f"expected a number, got {cell!r}", line, column)
    return value


def _finite(cell: str, line: int, column: str) -> float:
    value = _num(cell, line, column)
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {cell!r}", line, column)
    return value


def _opt_num(cell: str, line: int, column: str) -> Optional[float]:
    return None if cell == "" else _num(cell, line, column)


def _parse_row(cells: list[str], names: tuple[str, ...], line: int) -> tuple:
    """One row's (kind, lo, hi, value, trials, covariates) in the column layout."""
    fixed = dict(zip(FIXED_COLUMNS, cells[:5]))
    censor = fixed["censor"]
    if censor not in CENSOR_KINDS:
        raise ParseError(
            f"censor must be one of {CENSOR_KINDS}, got {censor!r}", line, "censor"
        )
    outcome_cell = fixed["outcome"]
    cut1 = _opt_num(fixed["cut1"], line, "cut1")
    cut2 = _opt_num(fixed["cut2"], line, "cut2")
    lo, hi, value = -math.inf, math.inf, math.nan

    if censor == "none":
        if outcome_cell == "":
            raise ParseError("censor=none requires an outcome value", line, "outcome")
        if cut1 is not None or cut2 is not None:
            raise ParseError("censor=none requires empty cut columns", line, "cut1")
        value = _finite(outcome_cell, line, "outcome")
    else:
        if outcome_cell != "":
            raise ParseError("censored rows must leave the outcome empty", line, "outcome")
        if cut1 is None:
            raise ParseError(f"censor={censor} requires cut1", line, "cut1")
        if censor != "interval":
            if cut2 is not None:
                raise ParseError(f"censor={censor} takes no cut2", line, "cut2")
            # A left cutoff of -inf or a right cutoff of inf holds no value.
            if cut1 == (-math.inf if censor == "left" else math.inf):
                raise ParseError(
                    f"censor={censor} cutoff {cut1} leaves an empty region", line, "cut1"
                )
            lo, hi = (lo, cut1) if censor == "left" else (cut1, hi)
        else:
            if cut2 is None:
                raise ParseError("censor=interval requires cut2", line, "cut2")
            if not cut1 < cut2:
                raise ParseError(
                    f"interval cutoffs out of order: {cut1} >= {cut2}", line, "cut1"
                )
            lo, hi = cut1, cut2

    trials_cell = fixed["trials"]
    trials = None
    if trials_cell != "":
        # An integer literal is read exactly: as a float, counts above 2**53
        # would round.
        try:
            count = int(trials_cell)
        except ValueError:
            count = _num(trials_cell, line, "trials")
        # The range test goes first: int() of inf raises.  Trial counts are
        # stored as int64.
        if not (1 <= count < 2**63 and count == int(count)):
            raise ParseError(f"trials must be a positive integer below 2**63, "
                             f"got {trials_cell!r}", line, "trials")
        trials = int(count)

    covariates = tuple(_finite(cell, line, name) for cell, name in zip(cells[5:], names))
    return CENSOR_KINDS.index(censor), lo, hi, value, trials, covariates


def parse_dataset(text: str) -> CensoredDataset:
    """Parse dataset file contents; raises :class:`ParseError` with line context."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = [h.strip() for h in lines[0].split(",")]
    if tuple(header[:5]) != FIXED_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(FIXED_COLUMNS)}, got {lines[0]!r}", 1
        )
    for position, name in enumerate(header, start=1):
        # A model binds a covariate by name, so each name must pick one column.
        if not name:
            raise ParseError(f"column {position} has no name", 1)
        if name in header[:position - 1]:
            raise ParseError(f"duplicate column name {name!r}", 1, name)
    covariate_names = tuple(header[5:])
    n_cols = len(header)

    rows = []
    for offset, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            continue
        cells = [c.strip() for c in raw.split(",")]
        # Tolerate one trailing empty field (files written with a trailing comma).
        if len(cells) == n_cols + 1 and cells[-1] == "":
            cells = cells[:-1]
        if len(cells) != n_cols:
            raise ParseError(f"expected {n_cols} fields, got {len(cells)}", offset)
        rows.append(_parse_row(cells, covariate_names, offset))
    if not rows:
        raise ParseError("no data rows", len(lines))
    return CensoredDataset(*zip(*rows), covariate_names=covariate_names)


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; ParseError naming the file when it is not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def ingest(path: str | Path) -> CensoredDataset:
    """Read a dataset file from disk, preserving row order."""
    return parse_dataset(read_utf8(path))


def serialize(data: CensoredDataset) -> str:
    """Render a dataset in the file format; re-ingesting reproduces it exactly."""
    lines = [",".join(FIXED_COLUMNS + data.covariate_names)]
    for kind, lo, hi, value, trials, covariates in zip(
        data.kind.tolist(), data.lo.tolist(), data.hi.tolist(), data.value.tolist(),
        data.trials.tolist(), data.covariates.tolist(),
    ):
        if kind == KIND_OBSERVED:
            outcome, cut1, cut2 = repr(value), "", ""
        elif kind == KIND_LEFT:
            outcome, cut1, cut2 = "", repr(hi), ""
        elif kind == KIND_RIGHT:
            outcome, cut1, cut2 = "", repr(lo), ""
        else:
            outcome, cut1, cut2 = "", repr(lo), repr(hi)
        fixed = [outcome, CENSOR_KINDS[kind], cut1, cut2, str(trials) if trials else ""]
        lines.append(",".join(fixed + [repr(c) for c in covariates]))
    return "\n".join(lines) + "\n"


def dataset_fingerprint(data: CensoredDataset) -> str:
    """Stable content hash used to guard report comparability."""
    return hashlib.sha256(serialize(data).encode("utf-8")).hexdigest()[:16]


def aml_dataset() -> CensoredDataset:
    """The bundled acute myeloid leukemia maintenance series."""
    text = (
        resources.files("censdev").joinpath("data/aml.csv").read_text(encoding="utf-8")
    )
    return parse_dataset(text)


def synthetic_ae_dataset(n_studies: int = 25, seed: int = 20260801) -> CensoredDataset:
    """Synthetic study-level adverse-event counts with reporting cutoffs.

    Each study tests one of five drugs; the true incidence sits on the logit
    scale at logit(BASE_INCIDENCE) + the drug's entry of DRUG_EFFECTS.  A
    study reports its count only when the count reaches its cutoff; smaller
    counts appear as left-censored at cutoff - 1, the non-ignorable pattern
    of rare-event reporting.

    The incidences are 1 / (1 + exp(-x)), computed with numpy so that
    making the dataset does not load ``scipy.special``; they equal scipy's
    ``expit`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    n_drugs = len(DRUG_EFFECTS)
    base = math.log(BASE_INCIDENCE) - math.log1p(-BASE_INCIDENCE)
    incidences = 1.0 / (1.0 + np.exp(-(base + np.asarray(DRUG_EFFECTS))))

    kind, hi, value, trials, covariates = [], [], [], [], []
    for study in range(n_studies):
        drug = study % n_drugs
        trials.append(int(np.clip(np.round(rng.lognormal(4.8, 0.55)), 30, 800)))
        count = int(rng.binomial(trials[-1], incidences[drug]))
        cutoff = int(rng.integers(2, 6))
        covariates.append((drug, DRUG_CLASSES[drug], study))
        censored = count < cutoff
        kind.append(KIND_LEFT if censored else KIND_OBSERVED)
        hi.append(cutoff - 1 if censored else math.inf)
        value.append(math.nan if censored else count)
    return CensoredDataset(kind, [-math.inf] * n_studies, hi, value, trials, covariates,
                           AE_COVARIATES)
