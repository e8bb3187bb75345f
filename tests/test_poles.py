"""A pole of the structure's endomorphism at a probe point, or of the
splitting or a submanifold's span at the base point, is a failing row, not
an error that loses the report."""

import io

from contact_pair_lab import corpus_build, run_checks, save_scenario
from contact_pair_lab.cli import main as cli_main


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
    scenario = corpus_build("heis6")
    # the volume form gains the factor x + 5/9, which vanishes at the first
    # probe point at seed 1
    scenario.alpha1 = [text if text == "0" else f"({text})*(x + 5/9)"
                       for text in scenario.alpha1]
    rows = {row.id: row for row in run_checks(scenario, seed=1).rows}
    assert (rows["pair.valid"].verdict, rows["pair.valid"].witness) \
        == ("warn", "")
    scenario.expectations["pair.valid"] = "warn"
    rows = {row.id: row for row in run_checks(scenario, seed=1).rows}
    assert (rows["pair.valid"].verdict, rows["pair.valid"].witness) \
        == ("pass", "")


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
