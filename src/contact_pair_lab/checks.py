"""Check registry and the scenario check runner.

Every report row is registered in ``CHECKS``: an entry gives the row id,
the stage that computes it and how to read the row's one ``Finding``
from that stage's result.  Each stage runs once, in dependency order:
pair -> structure -> metric -> {normality, connection, curvature,
hermitian, submanifolds}; a selection also runs the stages it depends on.
The runner emits exactly the registered ids of the stages it reports, in
table order.  A row is "skipped" when its stage did not run because a
prerequisite failed, or when the stage did not produce its finding (the
two normal-bundle connection identities on a bundle that is not normal).
A stage that rejects its input (pair, structure) fails its first row
with the error and skips the others.  A row's verdict comes from its own
finding: "fail" when it fails, else "warn" when it names a probe point
where a quantity it needs nonzero vanishes (``Finding.probe``), else
"pass"; the probe text follows the witness, if any, after "; ".

Submanifold ids are registered with ``{}`` for the submanifold name.
After those rows each submanifold gets one row per finding of its induced
structure and of the minimality theorems, named after the finding's
condition.  A span that cannot be analysed gets a failing
``submanifold.<name>.analysis`` row instead, skipped when the ambient
structure failed.  Two rows with one id raise ``ValueError``.

Scenario expectations invert the polarity of a row: an expected "fail"
passes exactly when the raw check fails, so scenarios built around
known-negative facts still report an overall pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .contact import (Finding, ValidationError, check_connection_identities,
                      check_curvature_identity, hermitian_data, normality,
                      validate_contact_pair, validate_metric,
                      validate_structure)
from .corpus import Scenario
from .frames import seeded_probe_points
from .scalars import cancellation_table
from .submanifolds import (InvarianceProfile, ShapeData, SubframeError,
                           classify, restrict_structure, shape_data,
                           verify_theorems)

# stage -> (the stage it needs, compute(scenario, probes, needed result));
# the submanifold stage runs once per submanifold, in _run_submanifolds
_STAGES: Dict[str, Tuple[Optional[str], Optional[Callable]]] = {
    "pair": (None, lambda sc, probes, _: validate_contact_pair(
        sc.presentation(), *sc.forms(), *sc.pair_type, probes=probes)),
    "structure": ("pair", lambda sc, probes, pair: validate_structure(
        pair, sc.phi_endo(), probes=probes)),
    "metric": ("structure", lambda sc, probes, structure: validate_metric(
        structure, sc.metric_field(), probes=probes)),
    "normality": ("metric", lambda sc, probes, mcp: normality(mcp)),
    "connection": ("metric",
                   lambda sc, probes, mcp: check_connection_identities(mcp)),
    "curvature": ("metric",
                  lambda sc, probes, mcp: check_curvature_identity(mcp)),
    "hermitian": ("metric", lambda sc, probes, mcp: hermitian_data(mcp)),
    "submanifolds": ("metric", None),
}
STAGES = tuple(_STAGES)


@dataclass(frozen=True)
class Check:
    id: str
    stage: str
    read: Callable[[Any], Optional[Finding]]


class _Analysis(NamedTuple):
    profile: InvarianceProfile
    shape: ShapeData


def _condition(text: str) -> Callable[[List[Finding]], Optional[Finding]]:
    return lambda findings: next(
        (f for f in findings if f.condition == text), None)


CHECKS = (
    Check("pair.valid", "pair", lambda pair: pair.valid),
    Check("structure.axioms", "structure", lambda _: Finding("", True)),
    Check("structure.decomposable", "structure", lambda s: s.decomposable),
    Check("metric.compatible", "metric", lambda m: m.compatible),
    Check("metric.associated", "metric", lambda m: m.associated),
    Check("metric.orthogonal_splitting", "metric",
          lambda m: m.orthogonal_splitting),
    Check("normality.N1", "normality", lambda r: r.n1),
    Check("normality.NJ", "normality", lambda r: r.nj),
    Check("normality.NT", "normality", lambda r: r.nt),
    Check("normality.normal_mcp", "normality", lambda r: r.normal),
    Check("connection.covariant_phi_pairing", "connection",
          _condition("covariant phi pairing identity")),
    Check("connection.reeb_derivative", "connection",
          _condition("Reeb sum derivative identity")),
    Check("connection.covariant_phi_projection", "connection",
          _condition("covariant phi projection identity")),
    Check("connection.curvature_h_tensor", "connection",
          _condition("curvature h-tensor identity")),
    Check("connection.reeb_derivative_h", "connection",
          _condition("Reeb derivative with h-tensor")),
    Check("connection.h_vanishes", "connection",
          _condition("h-tensor vanishes on the normal bundle")),
    Check("connection.reeb_killing", "connection",
          _condition("Reeb sum is Killing")),
    Check("curvature.reeb_identity", "curvature",
          _condition("Reeb curvature identity")),
    Check("curvature.normality_equivalence", "curvature",
          _condition("curvature identity is equivalent to normality")),
    Check("hermitian.form_pullback", "hermitian",
          _condition("second form pulls back to the first under J")),
    Check("hermitian.projections_commute", "hermitian",
          _condition("projections commute with J")),
    Check("hermitian.covariant_identity", "hermitian",
          _condition("Hermitian covariant identity")),
    Check("hermitian.closed_form", "hermitian",
          _condition("closed form of the covariant derivative of J")),
    Check("hermitian.fundamental_form_not_closed", "hermitian",
          _condition("fundamental 2-form is not closed")),
    Check("submanifold.{}.invariant-phi", "submanifolds",
          lambda a: Finding("", a.profile.phi_invariant)),
    Check("submanifold.{}.invariant-J", "submanifolds",
          lambda a: Finding("", a.profile.j_invariant)),
    Check("submanifold.{}.invariant-T", "submanifolds",
          lambda a: Finding("", a.profile.t_invariant)),
    Check("submanifold.{}.invariant-rho", "submanifolds",
          lambda a: Finding("", a.profile.rho_invariant)),
    Check("submanifold.{}.reeb-position", "submanifolds",
          lambda a: Finding("", a.profile.reeb_position != "mixed/unknown",
                            a.profile.reeb_position,
                            a.profile.position_probe)),
    Check("submanifold.{}.minimal", "submanifolds",
          lambda a: Finding("", a.shape.minimal, "" if a.shape.minimal
                            else f"H = {a.shape.mean_curvature}")),
)

CHECK_IDS = tuple(c.id for c in CHECKS if c.stage != "submanifolds")


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
    """A scenario's rows.  ``counters`` holds the run's kernel counters
    (``scalars.COUNTERS``); they describe the work, not the result, so
    ``to_dict`` leaves them out."""

    scenario: str
    rows: List[CheckRow] = field(default_factory=list)
    seed: int = 1
    counters: Dict[str, int] = field(default_factory=dict)

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
        return list(STAGES)
    unknown = set(selection) - set(STAGES)
    if unknown:
        raise ValueError(f"unknown check selection: {sorted(unknown)}")
    wanted = set()
    for stage in selection:
        while stage is not None:
            wanted.add(stage)
            stage = _STAGES[stage][0]
    return [s for s in STAGES if s in wanted]


class _Runner:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.report = CheckReport(scenario.name, seed=seed)
        self.ids: set = set()

    def add(self, check_id: str, finding: Optional[Finding],
            ms: float) -> None:
        """Reconcile one row with the scenario's expectation; a missing
        finding is a skipped row."""
        if check_id in self.ids:
            raise ValueError(f"check id {check_id} is reported twice")
        self.ids.add(check_id)
        if finding is None:
            self.report.rows.append(CheckRow(check_id, "skipped", "", 0.0))
            return
        witness = "; ".join(t for t in (finding.witness, finding.probe) if t)
        expected = self.scenario.expectations.get(check_id, "pass")
        raw = ("warn" if finding.probe else "pass") if finding.ok else "fail"
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

    def emit(self, checks: Sequence[Check], result, ms: float = 0.0,
             name: str = "") -> None:
        """One row per check, read from ``result``.  All are skipped when
        ``result`` is None; when it is the error the stage raised, the
        first row fails with it and the others are skipped."""
        for i, check in enumerate(checks):
            if result is None:
                finding = None
            elif isinstance(result, Exception):
                finding = Finding("", False, str(result)) if i == 0 else None
            else:
                finding = check.read(result)
            self.add(check.id.format(name), finding, ms)


def run_checks(scenario: Scenario, selection: Optional[Sequence[str]] = None,
               seed: int = 1) -> CheckReport:
    """The report of one run.  The run holds one cancellation table open
    (``scalars.cancellation_table``), whose counters become the report's
    ``counters``; the table is dropped on return or on error."""
    runner = _Runner(scenario, seed)
    with cancellation_table() as table:
        probes = seeded_probe_points(scenario.presentation(), seed=seed)
        results: Dict[str, Any] = {}
        for stage in _resolve_selection(selection):
            needed, compute = _STAGES[stage]
            prior = results.get(needed)
            if stage == "submanifolds":
                _run_submanifolds(runner, scenario, prior)
                continue
            checks = [c for c in CHECKS if c.stage == stage]
            if needed and prior is None:
                runner.emit(checks, None)
                continue
            result, ms = _timed(
                lambda: compute(scenario, probes, prior), ValidationError)
            if not isinstance(result, ValidationError):
                results[stage] = result
            runner.emit(checks, result, ms)
    runner.report.counters = table.counters
    return runner.report


def _run_submanifolds(runner: _Runner, scenario: Scenario, mcp) -> None:
    checks = [c for c in CHECKS if c.stage == "submanifolds"]
    for name in sorted(scenario.submanifolds):
        if mcp is None:
            runner.add(f"submanifold.{name}.analysis", None, 0.0)
            continue
        result, ms = _timed(
            lambda: _analyse(scenario.subframe(name), mcp), SubframeError)
        if isinstance(result, SubframeError):
            runner.add(f"submanifold.{name}.analysis",
                       Finding("", False, str(result)), ms)
            continue
        analysis, findings = result
        runner.emit(checks, analysis, ms, name)
        for finding in findings:
            runner.add(f"submanifold.{name}.{slugify(finding.condition)}",
                       finding, ms)


def _analyse(sub, mcp) -> Tuple[_Analysis, List[Finding]]:
    profile = classify(sub, mcp)
    shape = shape_data(sub, mcp.connection)
    findings = (restrict_structure(sub, mcp, profile)
                + verify_theorems(sub, mcp, profile))
    return _Analysis(profile, shape), findings


def _timed(compute: Callable[[], Any], rejected: type) -> Tuple[Any, float]:
    """``compute()``'s result or the ``rejected`` error it raised, and its
    time in ms."""
    t0 = time.perf_counter()
    try:
        result = compute()
    except rejected as exc:
        result = exc
    return result, (time.perf_counter() - t0) * 1000.0
