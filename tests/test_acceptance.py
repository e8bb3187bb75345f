"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
lines; each test also prints an ``ACCEPTANCE`` line when it passes.
"""

import copy
import io
import json
import warnings

from contact_pair_lab import (cartan_class, check_connection_identities,
                              check_curvature_identity, classify,
                              corpus_build, normality,
                              numeric_oracle, restrict_structure, run_checks,
                              shape_data, validate_metric,
                              validate_structure, verify_theorems)
from contact_pair_lab.cli import main as cli_main
from contact_pair_lab.frames import ChartDomainWarning, bracket
from contact_pair_lab.frames import exterior_derivative
from conftest import (build_mcp, perturbed_phi_structure, scaled_metric,
                      twisted_phi_structure)


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_darboux_family_is_normal():
    for h, k in ((1, 0), (0, 1), (1, 1), (2, 1)):
        scenario = corpus_build("darboux", (h, k))
        mcp = build_mcp(scenario)
        alpha1, alpha2 = scenario.forms()
        assert cartan_class(alpha1) == 2 * h + 1, (h, k)
        assert cartan_class(alpha2) == 2 * k + 1, (h, k)
        assert mcp.associated.ok and mcp.compatible.ok, (h, k)
        assert mcp.structure.decomposable.ok, (h, k)
        report = normality(mcp)
        assert report.n1.ok and report.nj.ok and report.nt.ok, (h, k)
    _report(1, "darboux (1,0)/(0,1)/(1,1)/(2,1): classes, associated "
               "metric, decomposability and normality certified exactly")


def test_criterion_02_heis6_full_suite(heis6_mcp):
    assert heis6_mcp.compatible.ok and heis6_mcp.associated.ok
    assert heis6_mcp.orthogonal_splitting.ok
    report = normality(heis6_mcp)
    assert report.normal.ok
    connection = {f.condition: f.ok
                  for f in check_connection_identities(heis6_mcp)}
    for name in ("covariant phi pairing identity",
                 "Reeb sum derivative identity",
                 "covariant phi projection identity",
                 "curvature h-tensor identity",
                 "Reeb derivative with h-tensor",
                 "h-tensor vanishes on the normal bundle",
                 "Reeb sum is Killing"):
        assert connection[name], name
    holds, agreement = check_curvature_identity(heis6_mcp)
    assert holds.ok and agreement.ok
    _report(2, "heis6: full validation suite, covariant and curvature "
               "characterizations, vanishing h-tensor and Killing Reeb "
               "sum certified exactly")


def test_criterion_03_negative_control(heis6_scenario, heis6_mcp):
    # sign flip of the endomorphism on the second horizontal block
    phi = perturbed_phi_structure(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair, phi,
                                   metric=heis6_scenario.metric_field())
    mcp = validate_metric(structure, heis6_scenario.metric_field())
    report = normality(mcp)
    assert not report.normal.ok and report.normal.witness
    assert "(-1)" in report.normal.witness

    connection = {f.condition: f
                  for f in check_connection_identities(mcp)}
    projection = connection["covariant phi projection identity"]
    assert not projection.ok and "residual" in projection.witness

    holds, agreement = check_curvature_identity(mcp)
    # the raw curvature identity does not depend on the sign of the
    # endomorphism; the certified equivalence with normality is what
    # fails, and it carries the nonzero witness
    assert holds.ok
    assert not agreement.ok and "(-1)" in agreement.witness

    # a non-associated metric breaks the raw curvature identity itself
    metric = scaled_metric(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair,
                                   heis6_scenario.phi_endo(), metric=metric)
    mcp2 = validate_metric(structure, metric)
    holds2, agreement2 = check_curvature_identity(mcp2)
    assert not holds2.ok and "residual" in holds2.witness
    assert agreement2.ok
    assert not normality(mcp2).normal.ok
    _report(3, "negative controls: sign flip fails normality, the "
               "covariant projection identity and the curvature "
               "equivalence with nonzero witnesses; a scaled metric "
               "fails the raw curvature identity")


def test_criterion_04_sasakian_leaf(heis6_scenario, heis6_mcp):
    sub = heis6_scenario.subframe("factor")
    profile = classify(sub, heis6_mcp)
    assert profile.reeb_position == "tangent-Z1-orthogonal-Z2"
    assert profile.phi_invariant and profile.dimension % 2 == 1
    shape = shape_data(sub, heis6_mcp.connection)
    assert shape.minimal and shape.mean_curvature.is_zero()
    findings = restrict_structure(sub, heis6_mcp, profile)
    sasakian = [f for f in findings if "Sasakian" in f.condition]
    assert sasakian and all(f.ok for f in sasakian)
    theorem = {f.condition: f.ok
               for f in verify_theorems(sub, heis6_mcp, profile)}
    assert theorem["mean curvature vanishes"]
    assert theorem["shape operator annihilates the tangent Reeb field"]
    _report(4, "heis6 factor leaf: tangent-Z1/orthogonal-Z2, "
               "phi-invariant, odd dimension, H = 0 exactly, induced "
               "Sasakian structure certified")


def test_criterion_05_diagonal_leaf(heis6_scenario, heis6_mcp):
    sub = heis6_scenario.subframe("heis6-leaf3")
    profile = classify(sub, heis6_mcp)
    assert profile.reeb_position == "nowhere-tangent-nowhere-orthogonal"
    norm = heis6_mcp.metric.norm_squared(profile.z1_tangential)
    assert norm == heis6_mcp.presentation.scalar("1/2")
    from contact_pair_lab import angle_constancy
    assert angle_constancy(sub, heis6_mcp, profile)
    shape = shape_data(sub, heis6_mcp.connection)
    assert shape.minimal and shape.mean_curvature.is_zero()
    _report(5, "heis6 diagonal 3-leaf: nowhere tangent/orthogonal, "
               "|Z1 tangential|^2 = 1/2 exactly, constant angle, "
               "H = 0 exactly")


def test_criterion_06_four_dimensional_leaf(heis6_scenario, heis6_mcp):
    sub = heis6_scenario.subframe("heis6-n4")
    profile = classify(sub, heis6_mcp)
    assert profile.reeb_position == "tangent-both"
    assert profile.phi_invariant and profile.j_invariant \
        and profile.t_invariant
    assert profile.dimension == 4
    shape = shape_data(sub, heis6_mcp.connection)
    assert shape.minimal and shape.mean_curvature.is_zero()
    findings = restrict_structure(sub, heis6_mcp, profile)
    induced = next(f for f in findings
                   if f.condition == "induced pair is a contact pair")
    assert not induced.ok and "(3, 3)" in induced.witness
    _report(6, "heis6 4-dimensional leaf: tangent-both, fully invariant, "
               "H = 0 exactly, induced forms of class 3 so not a "
               "contact pair")


def test_criterion_07_noninvariant_graph():
    scenario = corpus_build("darboux-J-noninvariant")
    mcp = build_mcp(scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChartDomainWarning)
        sub = scenario.subframe("darboux-J-noninvariant")
        profile = classify(sub, mcp)
    assert profile.j_invariant and not profile.phi_invariant
    assert profile.reeb_position == "nowhere-tangent-nowhere-orthogonal"
    h = shape_data(sub, mcp.connection).mean_curvature
    assert not h.is_zero()
    residual = numeric_oracle(
        scenario, "submanifold.darboux-J-noninvariant.minimal",
        probe_count=8)
    assert residual > 1e-3
    _report(7, "graph example: J-invariant but not phi-invariant, "
               "nowhere tangent on the chart, nonzero mean curvature "
               f"confirmed numerically (residual {residual:.3e})")


def test_criterion_08_complex_shape_identity(heis6_scenario, heis6_mcp):
    cases = []
    sub = heis6_scenario.subframe("heis6-n4")
    cases.append((sub, heis6_mcp, classify(sub, heis6_mcp)))
    scenario = corpus_build("darboux-J-noninvariant")
    mcp = build_mcp(scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChartDomainWarning)
        sub = scenario.subframe("darboux-J-noninvariant")
        cases.append((sub, mcp, classify(sub, mcp)))
    for sub, case_mcp, profile in cases:
        findings = {f.condition: f
                    for f in verify_theorems(sub, case_mcp, profile)}
        for condition in ("complex shape identity on span fields",
                          "normalized mean curvature probe residual below "
                          "tolerance"):
            assert findings[condition].ok, (sub.name, condition)
    _report(8, "complex shape identity and orthonormal mean curvature "
               "formula certified exactly on both J-invariant subframes")


def test_criterion_09_property_suites(heis6_mcp, heis6_scenario):
    presentation = heis6_mcp.presentation
    # form convention self-consistency: the metric pairs the structure
    # with the sum of the two differentials
    pair = heis6_mcp.pair
    d_sum = pair.d_alpha1 + pair.d_alpha2
    from contact_pair_lab.frames import eval_form
    phi = heis6_mcp.structure.phi
    for a in range(presentation.dim):
        for b in range(presentation.dim):
            x = presentation.frame_field(a)
            y = presentation.frame_field(b)
            assert heis6_mcp.metric.pair(x, phi.apply(y)) \
                == eval_form(d_sum, x, y)
    # second differential vanishes
    assert exterior_derivative(exterior_derivative(pair.alpha1)).is_zero()
    # torsion-free connection
    conn = heis6_mcp.connection
    x, y = presentation.frame_field(0), presentation.frame_field(3)
    assert (conn.nabla(x, y) - conn.nabla(y, x) - bracket(x, y)).is_zero()
    # profile constraint: phi kills both Reeb parts of the factor leaf
    sub = heis6_scenario.subframe("factor")
    for z in (pair.z1, pair.z2):
        assert phi.apply(sub.tangent(z)).is_zero()
    # invariance flags collapse on tangent-both subframes
    profile = classify(heis6_scenario.subframe("heis6-n4"), heis6_mcp)
    assert profile.phi_invariant == profile.j_invariant \
        == profile.t_invariant == profile.rho_invariant
    _report(9, "property suites: convention self-consistency, vanishing "
               "second differential, torsion-freeness and profile "
               "constraints (full suites in the dedicated test modules)")


def test_criterion_10_determinism():
    def strip(report):
        cleaned = copy.deepcopy(report)
        for row in cleaned["checks"]:
            row.pop("ms")
        return cleaned

    library = [strip(run_checks(corpus_build("heis6"), seed=1).to_dict())
               for _ in range(2)]
    assert library[0] == library[1]

    cli_runs = []
    for _ in range(2):
        out = io.StringIO()
        code = cli_main(["corpus", "run", "heis6", "--format", "json",
                         "--seed", "1"], out=out, err=io.StringIO())
        assert code == 0
        cli_runs.append(strip(json.loads(out.getvalue())))
    assert cli_runs[0] == cli_runs[1]
    _report(10, "two seeded runs produce identical reports apart from "
                "timing fields")
