"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run at the same geometry as the bundled survival demo
(3 chains, 30000 burn-in, 10000 kept draws per chain) via the shared
session fixture.  Criterion 6's numeric reproduction of the published
drug-safety table needs the original dataset, which is not redistributable;
that check runs only when CENSDEV_PNEUMONITIS_DATA points at a local copy,
and the structural properties are verified unconditionally on the bundled
synthetic analogue.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import oracle
from censdev import (
    deviance,
    exact_contributions,
    loglik_bernoulli_reform,
    loglik_dinterval_style,
    loglik_exact,
)
from censdev.cli import main
from censdev.datasets import serialize, synthetic_ae_dataset
from censdev.likelihood import KIND_OBSERVED
from censdev.mcmc import summarize
from conftest import censored_rows, family_params, mcse, outcome_specs, random_dataset

# Expected exact-minus-monitored mean deviance gap on the bundled survival
# data, derived independently of the sampler: with near-flat coefficient
# priors the per-arm rate posteriors are Gamma(events, exposure), so
#   E[gap] = 2 * (16 * 11/255 + 247 * 7/423)
# (censored follow-up time in each arm times that arm's posterior mean rate).
DERIVED_SURVIVAL_GAP = 9.5553330552079
GAP_TOLERANCE = 0.5  # Monte Carlo noise plus the tiny prior-shrinkage bias

PUBLISHED_TABLE = {
    # model: (Dbar, pD, DIC, p_opt, PED)
    "A": (380.85, 0.99, 381.84, 2.05, 382.90),
    "B": (371.11, 1.99, 373.10, 4.26, 375.37),
    "C": (343.14, 4.61, 347.75, 10.65, 353.79),
    "D": (343.35, 4.56, 347.91, 11.02, 354.37),
    "E": (343.39, 4.54, 347.93, 13.19, 356.58),
    "F": (343.38, 4.61, 347.99, 10.28, 353.66),
    "G": (269.30, 94.60, 363.90, 865.69, 1134.99),
}


def _criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number}] {status}: {description} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {description} {detail}"


def _pooled_mcse(samples, name):
    traces = samples.param(name).reshape(samples.n_chains, samples.n_keep)
    per_chain = [mcse(trace) for trace in traces]
    return math.sqrt(sum(m * m for m in per_chain)) / samples.n_chains


class TestCriterion1BernoulliEquivalence:
    def test_exact_equals_bernoulli_reform_over_randomized_datasets(self):
        """1000 randomized censored datasets, relative agreement 1e-10, <10s;
        the columnar exact and reform likelihoods each agree with their
        per-row scalar reference to 1e-12."""
        rng = np.random.default_rng(20260810)
        start = time.perf_counter()
        worst = worst_oracle = 0.0
        rel = lambda a, b: abs(a - b) / max(1.0, abs(b))
        for _ in range(1000):
            data, fams = random_dataset(rng)
            family, params = family_params(fams)
            a = loglik_exact(data, family, params)
            b = loglik_bernoulli_reform(data, family, params)
            worst = max(worst, rel(b, a))
            worst_oracle = max(worst_oracle, rel(a, oracle.loglik_exact(data, fams)),
                               rel(b, oracle.loglik_bernoulli_reform(data, fams)))
            assert worst < 1e-10 and worst_oracle < 1e-12, (outcome_specs(data), fams)
        elapsed = time.perf_counter() - start
        _criterion(
            1,
            "Bernoulli reformulation equals the exact likelihood",
            worst < 1e-10 and worst_oracle < 1e-12 and elapsed < 10.0,
            f"(worst rel diff {worst:.2e}, against the scalar reference "
            f"{worst_oracle:.2e}, {elapsed:.2f}s for 1000 datasets)",
        )


class TestCriterion2GapAccounting:
    def test_monitored_gap_is_sum_of_censored_terms(self, aml, survival_model):
        """Exact deviance minus monitored deviance = -2 * censored terms,
        verified term by term at arbitrary parameter draws."""
        rng = np.random.default_rng(7)
        max_err = 0.0
        for _ in range(200):
            data, fams = random_dataset(rng)
            family, params = family_params(fams)
            contribs = exact_contributions(data, family, params)
            rows = censored_rows(data)
            latents = []
            ok = True
            for i in rows:
                try:
                    latents.append(fams[i].sample_truncated(data.lo[i], data.hi[i], rng))
                except Exception:
                    ok = False
            if not ok or not np.isfinite(contribs.sum()):
                continue
            monitored = loglik_dinterval_style(data, family, params, latents).monitored_loglik
            gap = deviance(monitored) - deviance(contribs.sum())
            expected = -2.0 * (-contribs[rows].sum())
            max_err = max(max_err, abs(gap - expected))
            # The monitor reads the observed rows' exact terms, bit for bit.
            assert monitored == contribs[data.kind == KIND_OBSERVED].sum()
        # and on the bundled survival data at a fixed parameter point
        theta = np.array([-3.1, -0.9])
        params = survival_model.row_params(theta, aml)
        contribs = exact_contributions(aml, survival_model.family, params)
        rows = censored_rows(aml)
        censored_sum = contribs[rows].sum()
        monitored = loglik_dinterval_style(
            aml, survival_model.family, params, aml.lo[rows]).monitored_loglik
        aml_err = abs(
            (deviance(monitored) - deviance(contribs.sum())) - 2.0 * censored_sum
        )
        _criterion(
            2,
            "deviance gap equals -2 x censored-row contributions, term-verified",
            max_err < 1e-9 and aml_err < 1e-9,
            f"(max abs error {max(max_err, aml_err):.2e})",
        )


class TestCriterion3ModeAgreement:
    def test_parameter_posteriors_agree_across_modes(self, survival_runs):
        """Survival demo geometry: means within 3 combined MCSE and pooled
        two-sample KS statistic < 0.05 for both coefficients."""
        exact, dint = survival_runs
        details = []
        ok = True
        for name in ("b0", "b1"):
            a, b = exact.param(name), dint.param(name)
            diff = abs(a.mean() - b.mean())
            tol = 3.0 * math.hypot(_pooled_mcse(exact, name), _pooled_mcse(dint, name))
            ks = ks_2samp(a, b).statistic
            ok = ok and diff < tol and ks < 0.05
            details.append(f"{name}: |dmean|={diff:.4f} (3*mcse={tol:.4f}) KS={ks:.4f}")
        _criterion(3, "exact and latent-imputation posteriors agree", ok,
                   "(" + "; ".join(details) + ")")


class TestCriterion4BiasDirection:
    def test_monitored_deviance_biased_low_by_derived_gap(self, survival_runs):
        """The latent-imputation monitor understates the mean deviance by
        exactly the censored contributions; checked against the closed-form
        derived value for the bundled data."""
        exact, dint = survival_runs
        gap = float(exact.deviance_trace.mean() - dint.deviance_trace.mean())
        direction = dint.deviance_trace.mean() < exact.deviance_trace.mean()
        magnitude = abs(gap - DERIVED_SURVIVAL_GAP) < GAP_TOLERANCE
        _criterion(
            4,
            "monitored deviance strictly understates the exact deviance",
            direction and magnitude,
            f"(gap {gap:.3f}, derived {DERIVED_SURVIVAL_GAP:.3f} +- {GAP_TOLERANCE})",
        )


class TestCriterion5ConjugateOracles:
    def test_conjugate_posteriors_and_convergence(self, conjugate_bb_runs,
                                                  conjugate_ge_run):
        _, _, bb, _ = conjugate_bb_runs
        ge_model, ge_data, ge = conjugate_ge_run

        bb_trace = bb.param("p_pool")
        bb_oracle = 8.0 / 22.0
        bb_ok = abs(bb_trace.mean() - bb_oracle) < 3 * mcse(bb_trace)

        total = sum(ge_data.value.tolist())
        ge_oracle = (ge_model.shape + len(ge_data)) / (ge_model.rate + total)
        ge_trace = ge.param("lambda")
        ge_ok = abs(ge_trace.mean() - ge_oracle) < 3 * mcse(ge_trace)

        rhats = [s.rhat for s in summarize(bb)] + [s.rhat for s in summarize(ge)]
        rhat_ok = all(r < 1.05 for r in rhats)
        _criterion(
            5,
            "conjugate posterior means within 3 MCSE and split R-hat < 1.05",
            bb_ok and ge_ok and rhat_ok,
            f"(BB mean {bb_trace.mean():.4f} vs {bb_oracle:.4f}; "
            f"GE mean {ge_trace.mean():.4f} vs {ge_oracle:.4f}; "
            f"max R-hat {max(rhats):.4f})",
        )


@pytest.fixture(scope="module")
def ae_demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ae-demo")
    code = main(["demo", "ae-synthetic", "--output-dir", str(out)])
    assert code == 0
    return out


class TestCriterion6SelectionStructure:
    def test_synthetic_demo_structure(self, ae_demo_dir):
        """Seven-row report, exact identities, saturated model flagged as
        overfit, hierarchical variants ahead of no-pooling by PED."""
        ranked = json.loads((ae_demo_dir / "comparison.json").read_text())["ranked"]
        rows = {r["model"]: r for r in ranked}
        seven = len(ranked) == 7 and set(rows) == set("ABCDEFG")
        identities = all(
            r["DIC"] == r["Dbar"] + r["pD"] and r["PED"] == r["Dbar"] + r["p_opt"]
            for r in ranked
        )
        g = rows["G"]
        overfit = g["overfit"] and g["p_opt"] > 5.0 * g["pD"]
        hierarchy = all(rows[m]["PED"] < g["PED"] for m in "CDEF")
        csv_lines = (ae_demo_dir / "comparison.csv").read_text().splitlines()
        table_ok = (
            csv_lines[0] == "model,Dbar,pD,DIC,p_opt,PED" and len(csv_lines) == 8
        )
        _criterion(
            6,
            "synthetic comparison satisfies the structural selection properties",
            seven and identities and overfit and hierarchy and table_ok,
            f"(G p_opt/pD = {g['p_opt'] / g['pD']:.2f})",
        )

    def test_published_table_reproduction_if_dataset_supplied(self, tmp_path):
        """Numeric reproduction of the published drug-safety comparison;
        requires the original (non-redistributable) dataset."""
        path = os.environ.get("CENSDEV_PNEUMONITIS_DATA")
        if not path:
            pytest.skip(
                "set CENSDEV_PNEUMONITIS_DATA to the study-level dataset to "
                "run the published-table reproduction"
            )
        config = {
            "dataset": path,
            "variants": list("ABCDEFG"),
            "chains": {"n_chains": 3, "burn_in": 5000, "n_keep": 10000, "seed": 1},
            "output_dir": str(tmp_path / "table"),
        }
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["compare", "--config", str(cfg)]) == 0
        ranked = json.loads((tmp_path / "table" / "comparison.json").read_text())[
            "ranked"
        ]
        rows = {r["model"]: r for r in ranked}
        for label, (dbar, pd, dic, p_opt, ped) in PUBLISHED_TABLE.items():
            r = rows[label]
            assert abs(r["Dbar"] - dbar) < 1.0, label
            assert abs(r["DIC"] - dic) < 1.0, label
            assert abs(r["pD"] - pd) < 0.3, label
            assert abs(r["p_opt"] - p_opt) / p_opt < 0.15, label
            assert abs(r["PED"] - ped) / ped < 0.15, label


class TestCriterion7Determinism:
    def test_identical_seed_and_config_byte_identical_outputs(self, tmp_path):
        dataset = tmp_path / "d.csv"
        dataset.write_text(serialize(synthetic_ae_dataset(seed=17)), "utf-8")
        config = {
            "label": "det",
            "dataset": str(dataset),
            "model": {"family": "censored-binomial", "variant": "B"},
            "chains": {"n_chains": 2, "burn_in": 200, "n_keep": 200, "seed": 99},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["fit", "--config", str(cfg)]) == 0
        watched = ["samples_a.csv", "samples_b.csv", "report.csv", "report.json",
                   "summary.csv", "manifest.json"]
        first = {n: (tmp_path / "out" / n).read_bytes() for n in watched}
        assert main(["fit", "--config", str(cfg)]) == 0
        identical = all(
            (tmp_path / "out" / n).read_bytes() == first[n] for n in watched
        )
        _criterion(
            7,
            "same seed and config reproduce sample and report files byte for byte",
            identical,
            f"({len(watched)} files compared)",
        )
