"""Check registry and the scenario check runner.

Checks run in dependency order: pair -> structure -> metric ->
{normality, connection, curvature, hermitian} -> submanifolds.  A failed
prerequisite short-circuits its dependents with verdict "skipped".

Scenario expectations invert the polarity of a row: an expected "fail"
passes exactly when the raw check fails, so scenarios built around
known-negative facts still report an overall pass.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .contact import (Finding, ValidationError, check_connection_identities,
                      check_curvature_identity, hermitian_data, normality,
                      validate_contact_pair, validate_metric,
                      validate_structure)
from .corpus import Scenario
from .frames import ChartDomainWarning, seeded_probe_points
from .submanifolds import (SubframeError, classify, restrict_structure,
                           shape_data, verify_theorems)

STAGES = ("pair", "structure", "metric", "normality", "connection",
          "curvature", "hermitian", "submanifolds")

_STAGE_DEPS = {
    "pair": (),
    "structure": ("pair",),
    "metric": ("structure",),
    "normality": ("metric",),
    "connection": ("metric",),
    "curvature": ("metric",),
    "hermitian": ("metric",),
    "submanifolds": ("metric",),
}

_CONNECTION_IDS = ("connection.covariant_phi_pairing",
                   "connection.reeb_derivative",
                   "connection.covariant_phi_projection",
                   "connection.curvature_h_tensor",
                   "connection.reeb_derivative_h",
                   "connection.h_vanishes",
                   "connection.reeb_killing")
# check_connection_identities certifies these only on a normal bundle
_NORMAL_ONLY_IDS = _CONNECTION_IDS[-2:]
_CURVATURE_IDS = ("curvature.reeb_identity",
                  "curvature.normality_equivalence")
_HERMITIAN_IDS = ("hermitian.form_pullback",
                  "hermitian.projections_commute",
                  "hermitian.covariant_identity",
                  "hermitian.closed_form",
                  "hermitian.fundamental_form_not_closed")

CHECK_IDS = (("pair.valid", "structure.axioms", "structure.decomposable",
              "metric.compatible", "metric.associated",
              "metric.orthogonal_splitting",
              "normality.N1", "normality.NJ", "normality.NT",
              "normality.normal_mcp")
             + _CONNECTION_IDS + _CURVATURE_IDS + _HERMITIAN_IDS)

_SKIP_IDS = {
    "structure": ("structure.axioms",),
    "metric": ("metric.compatible",),
    "normality": ("normality.N1",),
    "connection": ("connection.covariant_phi_pairing",),
    "curvature": ("curvature.reeb_identity",),
    "hermitian": ("hermitian.form_pullback",),
}


@dataclass
class CheckRow:
    id: str
    verdict: str
    witness: str
    ms: float

    def to_dict(self) -> dict:
        return {"id": self.id, "verdict": self.verdict,
                "witness": self.witness, "ms": self.ms}


@dataclass
class CheckReport:
    scenario: str
    rows: List[CheckRow] = field(default_factory=list)
    seed: int = 1

    @property
    def overall(self) -> str:
        return "fail" if any(r.verdict == "fail" for r in self.rows) \
            else "pass"

    def to_dict(self) -> dict:
        return {"scenario": self.scenario,
                "checks": [r.to_dict() for r in self.rows],
                "overall": self.overall, "seed": self.seed}


def slugify(text: str) -> str:
    out = []
    for ch in text.strip().lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-")


def _resolve_selection(selection: Optional[Sequence[str]]) -> List[str]:
    if not selection or "all" in selection:
        wanted = set(STAGES)
    else:
        unknown = set(selection) - set(STAGES)
        if unknown:
            raise ValueError(f"unknown check selection: {sorted(unknown)}")
        wanted = set(selection)
        changed = True
        while changed:
            changed = False
            for stage in list(wanted):
                for dep in _STAGE_DEPS[stage]:
                    if dep not in wanted:
                        wanted.add(dep)
                        changed = True
    return [s for s in STAGES if s in wanted]


class _Runner:
    def __init__(self, scenario: Scenario, seed: int,
                 reported: Sequence[str]):
        self.scenario = scenario
        self.seed = seed
        self.reported = set(reported)
        self.report = CheckReport(scenario.name, seed=seed)
        self.failed_stages: set = set()

    def add(self, stage: str, check_id: str, ok: bool, witness: str,
            ms: float, warned: bool = False) -> None:
        if stage not in self.reported:
            return
        expected = self.scenario.expectations.get(check_id, "pass")
        raw = "fail" if not ok else ("warn" if warned else "pass")
        if expected == "fail":
            if raw == "fail":
                verdict = "pass"
                witness = "expected failure confirmed" + \
                    (f": {witness}" if witness else "")
            else:
                verdict = "fail"
                witness = "expected a failure but the check passed"
        elif expected == "warn":
            verdict = "pass" if raw in ("pass", "warn") else "fail"
        else:
            verdict = raw
        self.report.rows.append(CheckRow(check_id, verdict, witness,
                                         round(ms, 3)))

    def skip(self, stage: str, ids: Sequence[str]) -> None:
        if stage not in self.reported:
            return
        for check_id in ids:
            self.report.rows.append(CheckRow(check_id, "skipped", "", 0.0))


def run_checks(scenario: Scenario, selection: Optional[Sequence[str]] = None,
               seed: int = 1) -> CheckReport:
    reported = _resolve_selection(selection)
    needed = set(reported)
    runner = _Runner(scenario, seed, reported)

    presentation = scenario.presentation()
    probes = seeded_probe_points(presentation, seed=seed)
    alpha1, alpha2 = scenario.forms()
    h, k = scenario.pair_type

    # pair
    t0 = time.perf_counter()
    pair = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ChartDomainWarning)
            pair = validate_contact_pair(presentation, alpha1, alpha2,
                                         h, k, probes=probes)
        warned = any(issubclass(w.category, ChartDomainWarning)
                     for w in caught)
        runner.add("pair", "pair.valid", True, "", _ms(t0), warned)
    except ValidationError as exc:
        runner.add("pair", "pair.valid", False, str(exc), _ms(t0))

    structure = None
    if pair is not None and needed & {"structure", "metric", "normality",
                                      "connection", "curvature",
                                      "hermitian", "submanifolds"}:
        t0 = time.perf_counter()
        try:
            structure = validate_structure(pair, scenario.phi_endo(),
                                           probes=probes,
                                           metric=scenario.metric_field())
            runner.add("structure", "structure.axioms", True, "", _ms(t0))
            runner.add("structure", "structure.decomposable",
                       structure.decomposable.ok,
                       "; ".join(structure.decomposable.witnesses), _ms(t0))
        except ValidationError as exc:
            runner.add("structure", "structure.axioms", False, str(exc),
                       _ms(t0))
            runner.skip("structure", ("structure.decomposable",))
    elif pair is None:
        runner.skip("structure", ("structure.axioms",
                                  "structure.decomposable"))

    mcp = None
    if structure is not None:
        t0 = time.perf_counter()
        mcp = validate_metric(structure, scenario.metric_field(),
                              probes=probes)
        ms = _ms(t0)
        runner.add("metric", "metric.compatible", mcp.compatible.ok,
                   _first(mcp.compatible.witnesses), ms)
        runner.add("metric", "metric.associated", mcp.associated.ok,
                   _first(mcp.associated.witnesses), ms)
        runner.add("metric", "metric.orthogonal_splitting",
                   mcp.orthogonal_splitting.ok,
                   _first(mcp.orthogonal_splitting.witnesses), ms)
    else:
        runner.skip("metric", ("metric.compatible", "metric.associated",
                               "metric.orthogonal_splitting"))

    if mcp is not None:
        if needed & {"normality", "curvature", "connection"}:
            t0 = time.perf_counter()
            rep = normality(mcp)
            ms = _ms(t0)
            runner.add("normality", "normality.N1", rep.n1_zero,
                       _first(rep.witnesses), ms)
            runner.add("normality", "normality.NJ", rep.nj_zero, "", ms)
            runner.add("normality", "normality.NT", rep.nt_zero, "", ms)
            runner.add("normality", "normality.normal_mcp", rep.normal_mcp,
                       _first(rep.witnesses), ms)
        if "connection" in needed:
            t0 = time.perf_counter()
            findings = check_connection_identities(mcp)
            ms = _ms(t0)
            for check_id, finding in zip(_CONNECTION_IDS, findings):
                runner.add("connection", check_id, finding.ok,
                           finding.witness, ms)
            if not normality(mcp).normal_mcp:
                runner.skip("connection", _NORMAL_ONLY_IDS)
        if "curvature" in needed:
            t0 = time.perf_counter()
            findings = check_curvature_identity(mcp)
            ms = _ms(t0)
            for check_id, finding in zip(_CURVATURE_IDS, findings):
                runner.add("curvature", check_id, finding.ok,
                           finding.witness, ms)
        if "hermitian" in needed:
            t0 = time.perf_counter()
            findings = hermitian_data(mcp)
            ms = _ms(t0)
            for check_id, finding in zip(_HERMITIAN_IDS, findings):
                runner.add("hermitian", check_id, finding.ok,
                           finding.witness, ms)
        if "submanifolds" in needed:
            _run_submanifolds(runner, scenario, mcp)
    else:
        for stage, ids in _SKIP_IDS.items():
            if stage != "structure":
                runner.skip(stage, ids)
        for name in sorted(scenario.submanifolds):
            runner.skip("submanifolds", (f"submanifold.{name}.analysis",))

    return runner.report


def _run_submanifolds(runner: _Runner, scenario: Scenario, mcp) -> None:
    for name in sorted(scenario.submanifolds):
        prefix = f"submanifold.{name}"
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ChartDomainWarning)
                sub = scenario.subframe(name)
                profile = classify(sub, mcp)
                shape = shape_data(sub, mcp.connection)
                restricted = restrict_structure(sub, mcp, profile)
                theorems = verify_theorems(sub, mcp, profile)
            warned = any(issubclass(w.category, ChartDomainWarning)
                         for w in caught)
        except SubframeError as exc:
            runner.add("submanifolds", f"{prefix}.analysis", False,
                       str(exc), _ms(t0))
            continue
        ms = _ms(t0)
        runner.add("submanifolds", f"{prefix}.invariant-phi",
                   profile.phi_invariant, "", ms, warned)
        runner.add("submanifolds", f"{prefix}.invariant-J",
                   profile.j_invariant, "", ms)
        runner.add("submanifolds", f"{prefix}.invariant-T",
                   profile.t_invariant, "", ms)
        runner.add("submanifolds", f"{prefix}.invariant-rho",
                   profile.rho_invariant, "", ms)
        runner.add("submanifolds", f"{prefix}.reeb-position",
                   profile.reeb_position != "mixed/unknown",
                   profile.reeb_position, ms)
        runner.add("submanifolds", f"{prefix}.minimal", shape.minimal,
                   "" if shape.minimal
                   else f"H = {shape.mean_curvature}", ms)
        seen = set()
        for finding in restricted + theorems:
            check_id = f"{prefix}.{slugify(finding.condition)}"
            if check_id in seen:
                continue
            seen.add(check_id)
            runner.add("submanifolds", check_id, finding.ok,
                       finding.witness, ms)


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _first(items: Sequence[str]) -> str:
    return items[0] if items else ""
