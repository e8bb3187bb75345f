"""A pole of the structure's endomorphism at a probe point, or of the
splitting or a submanifold's span at the base point, is a failing row, not
an error that loses the report.  A probe point where a quantity that must
be nonzero vanishes is named on the row of the check it qualifies, also
when two runs interleave."""

import io
import threading

from contact_pair_lab import (contact, corpus_build, run_checks,
                              save_scenario)
from contact_pair_lab.cli import main as cli_main
from contact_pair_lab.frames import seeded_probe_points
from contact_pair_lab.submanifolds import _induced_pair_verdict
from conftest import build_mcp, volume_probe_heis6


def _killed_at(label, point):
    return (f"{label} vanishes at probe {dict(point)}; verdict holds only "
            "off this locus")


def test_a_pole_of_phi_fails_the_structure_rows():
    scenario = corpus_build("heis6")
    # x = -5/9 is the first coordinate of the first probe point at seed 1
    scenario.phi[0][0] = "1/(x + 5/9)"
    report = run_checks(scenario, seed=1)
    rows = {row.id: row for row in report.rows}
    assert rows["pair.valid"].verdict == "pass"
    axioms = rows["structure.axioms"]
    assert axioms.verdict == "fail"
    assert "rank of phi: pole at {'x': Fraction(-5, 9)" in axioms.witness
    later = report.rows[[r.id for r in report.rows].index("structure.axioms")
                        + 1:]
    assert later and all(r.verdict == "skipped" for r in later)
    assert report.overall == "fail"


def test_a_pole_of_a_span_at_the_base_point_fails_its_analysis_row():
    scenario = corpus_build("heis6")
    # x = 0 at the base point; a new list, as builds share the span lists
    scenario.submanifolds["factor"] = [["1/x", "0", "0", "0", "0", "0"],
                                       *scenario.submanifolds["factor"][1:]]
    report = run_checks(scenario, seed=1)
    failing = [row for row in report.rows if row.verdict == "fail"]
    assert [row.id for row in failing] == ["submanifold.factor.analysis"]
    assert failing[0].witness.startswith(
        "factor: span has a pole at the base point (pole at {'x': ")
    assert any(row.id.startswith("submanifold.heis6-n4.")
               and row.verdict == "pass" for row in report.rows)
    assert report.overall == "fail"


def test_a_pole_of_the_splitting_at_the_base_point_fails_the_pair_row(
        tmp_path):
    scenario = corpus_build("heis6")
    # alpha1 gains the factor x + 1, so Z1 has a pole at x = -1
    scenario.alpha1 = [text if text == "0" else f"({text})*(x + 1)"
                       for text in scenario.alpha1]
    scenario.base_point = dict(scenario.base_point, x="-1")
    report = run_checks(scenario, seed=1)
    pair = report.rows[0]
    assert (pair.id, pair.verdict) == ("pair.valid", "fail")
    assert ("pointwise splitting spans the tangent space: splitting has a "
            "pole at the base point (pole at {'x': Fraction(-1, 1)"
            in pair.witness)
    assert all(row.verdict == "skipped" for row in report.rows[1:])
    path = tmp_path / "pole.json"
    save_scenario(scenario, str(path))
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(["verify", "--input", str(path)], out=out, err=err) == 1
    assert err.getvalue() == ""


def test_a_chart_domain_warning_reaches_its_row_and_its_expectation():
    scenario = volume_probe_heis6()
    probe = _killed_at("volume form",
                       seeded_probe_points(scenario.presentation())[0])
    report = run_checks(scenario, seed=1)
    assert [(row.id, row.verdict, row.witness) for row in report.rows
            if row.verdict == "warn"] == [("pair.valid", "warn", probe)]
    scenario.expectations["pair.valid"] = "warn"
    rows = {row.id: row for row in run_checks(scenario, seed=1).rows}
    assert (rows["pair.valid"].verdict, rows["pair.valid"].witness) \
        == ("pass", probe)


def test_a_probe_stays_on_its_own_run_when_two_runs_interleave(
        monkeypatch):
    """Thread W's pair stage is held until thread P has entered its own,
    and P's until W has probed its volume form; each pair.valid row still
    reads its own run's probe."""
    entered, probed = threading.Event(), threading.Event()
    type_findings = contact.pair_type_findings
    certificate = contact.nonvanishing_certificate

    def held_type_findings(*args):
        if threading.current_thread().name == "W":
            entered.wait(timeout=60)
        else:
            entered.set()
            probed.wait(timeout=60)
        return type_findings(*args)

    def spied_certificate(*args):
        try:
            return certificate(*args)
        finally:
            if threading.current_thread().name == "W":
                probed.set()

    monkeypatch.setattr(contact, "pair_type_findings", held_type_findings)
    monkeypatch.setattr(contact, "nonvanishing_certificate",
                        spied_certificate)
    scenarios = {"W": volume_probe_heis6(), "P": corpus_build("heis6")}
    reports = {}
    threads = [threading.Thread(name=label, target=lambda label=label:
                                reports.update({label: run_checks(
                                    scenarios[label], seed=1)}))
               for label in scenarios]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert entered.is_set() and probed.is_set()
    pair = {label: report.rows[0] for label, report in reports.items()}
    assert (pair["W"].verdict, pair["W"].witness) == ("warn", _killed_at(
        "volume form", seeded_probe_points(scenarios["W"].presentation())[0]))
    assert (pair["P"].verdict, pair["P"].witness) == ("pass", "")


def test_an_induced_cartan_class_probe_lands_on_the_induced_pair_row():
    """The factor span's third field scaled by x + 5/9: the induced first
    form's Cartan-class witness vanishes at the first probe point.  The
    span is still phi-invariant, and the probe is named on the induced
    pair's row, after its expected failure."""
    scenario = corpus_build("heis6")
    span = scenario.submanifolds["factor"]
    scenario.submanifolds["factor"] = [
        *span[:2], [text if text == "0" else f"({text})*(x + 5/9)"
                    for text in span[2]], *span[3:]]
    rows = {row.id: row for row in run_checks(scenario, seed=1).rows}
    assert (rows["submanifold.factor.invariant-phi"].verdict,
            rows["submanifold.factor.invariant-phi"].witness) == ("pass", "")
    assert not any(row.verdict == "warn" for row in rows.values())
    mcp = build_mcp(scenario)
    probe = _killed_at("Cartan-class witness of first induced form",
                       mcp.probes[0])
    induced = rows["submanifold.factor.induced-pair-is-a-contact-pair"]
    assert (induced.verdict, induced.witness) == (
        "pass", "expected failure confirmed: dimension 3 is odd; classes "
        f"(3, 0); {probe}")
    sub = scenario.subframe("factor")
    finding = _induced_pair_verdict(
        sub, *(sub.pullback(alpha) for alpha in mcp.pair.alphas()),
        [sub.base_point, *mcp.probes])
    assert (finding.ok, finding.probe) == (False, probe)


def test_a_norm_that_vanishes_at_the_base_point_is_named_on_the_position():
    """darboux-J-noninvariant with the base point on x1 = 0, where the
    squared norm x1^2/(x1^2 + 1) of Z1's tangential part vanishes."""
    scenario = corpus_build("darboux-J-noninvariant")
    scenario.base_point = dict(scenario.base_point, x1="0")
    base = scenario.presentation().base_point
    rows = {row.id: row for row in run_checks(scenario, seed=1).rows}
    position = rows["submanifold.darboux-J-noninvariant.reeb-position"]
    assert (position.verdict, position.witness) == (
        "fail", "mixed/unknown; " + _killed_at(
            "tangential part of Z1 of darboux-J-noninvariant", base))


def test_a_metric_with_a_pole_at_the_base_point_is_named(tmp_path):
    scenario = corpus_build("heis6")
    # x = 0 at the base point
    scenario.metric[0][0] = "1 + 1/x"
    path = tmp_path / "metric-pole.json"
    save_scenario(scenario, str(path))
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(["verify", "--input", str(path)], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(
        "error: metric has a pole at the base point (pole at {")
    assert "'x': Fraction(0, 1)" in err.getvalue()
