"""A pole of the structure's endomorphism at a probe point, or of a
submanifold's span at the base point, is a failing row, not an error that
loses the report."""

from contact_pair_lab import corpus_build, run_checks


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
