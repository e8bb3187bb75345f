"""Golden report rows: (id, verdict, witness) of ``run_checks`` at probe
seeds 1 and 7, on every corpus scenario, on heis6 with the five
negative controls of ``conftest`` and on darboux of types (2,0), (0,2)
and (2,2).  The controls give failing witnesses for most derived
identities, so a rewrite of a check that changes a witness shows here;
the darboux types cover an empty H1 or H2 and the largest type.

The file ``data/report_rows.json`` is written by ``golden_rows()``; every
row is compared byte for byte.
"""

import json
import os
from fractions import Fraction

import pytest

from contact_pair_lab import (CORPUS_NAMES, ScalarExpr, corpus_build,
                              run_checks)

from conftest import (mixed_phi_structure, perturbed_phi_structure,
                      scaled_metric, skew_metric, twisted_phi_structure)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "report_rows.json")
SEEDS = (1, 7)
CONTROLS = {
    "heis6-twisted-phi": ("phi", twisted_phi_structure),
    "heis6-perturbed-phi": ("phi", perturbed_phi_structure),
    "heis6-scaled-metric": ("metric", scaled_metric),
    "heis6-mixed-phi": ("phi", mixed_phi_structure),
    "heis6-skew-metric": ("metric", skew_metric),
}
DARBOUX_TYPES = {"darboux-2-0": (2, 0), "darboux-0-2": (0, 2),
                 "darboux-2-2": (2, 2)}
LABELS = CORPUS_NAMES + tuple(CONTROLS) + tuple(DARBOUX_TYPES)


def build(label):
    if label in CONTROLS:
        key, make = CONTROLS[label]
        scenario = corpus_build("heis6")
        scenario._cache[key] = make(scenario)
        return scenario
    if label in DARBOUX_TYPES:
        return corpus_build("darboux", DARBOUX_TYPES[label])
    return corpus_build(label)


def rows(label, seed):
    return [[r.id, r.verdict, r.witness]
            for r in run_checks(build(label), seed=seed).rows]


def golden_rows():
    """Every label's rows at every seed, as stored in the data file."""
    return {label: {str(seed): rows(label, seed) for seed in SEEDS}
            for label in LABELS}


@pytest.fixture(scope="module")
def golden():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", LABELS)
def test_report_rows_match_the_golden_file(golden, label, seed):
    assert rows(label, seed) == golden[label][str(seed)]


def test_the_certified_pipeline_evaluates_no_float(golden, monkeypatch):
    # the float evaluator of a ScalarExpr is a test helper in conftest; a
    # float evaluation at a base or probe point, whose coordinates are
    # Fractions, would go through Fraction.__float__
    def refuse(self):
        raise AssertionError("float of an exact value in run_checks")

    assert not hasattr(ScalarExpr, "evaluate_float")
    monkeypatch.setattr(Fraction, "__float__", refuse)
    for label in CORPUS_NAMES:
        assert rows(label, 1) == golden[label]["1"], label


def test_the_golden_file_covers_failing_witnesses_of_rewritten_checks(golden):
    failing = {row[0] for label in CONTROLS for seed in golden[label].values()
               for row in seed if row[1] == "fail"}
    for row_id in ("structure.decomposable",
                   "metric.compatible",
                   "metric.associated",
                   "metric.orthogonal_splitting",
                   "normality.N1",
                   "normality.NJ",
                   "normality.NT",
                   "normality.normal_mcp",
                   "connection.covariant_phi_pairing",
                   "connection.reeb_derivative",
                   "connection.curvature_h_tensor",
                   "curvature.reeb_identity",
                   "connection.covariant_phi_projection",
                   "hermitian.projections_commute",
                   "hermitian.covariant_identity",
                   "hermitian.closed_form"):
        assert row_id in failing
    assert any("shape-operator-pairing-identity-on-horizontal" in r
               for r in failing)
    assert any("shape-operator-pairing-identity-on-fields-orthogonal" in r
               for r in failing)
    assert any("induced-metric-is-associated" in r for r in failing)
    assert any("complex-shape-identity" in r for r in failing)
