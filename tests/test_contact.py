import dataclasses
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact_pair_lab import (CHECK_IDS, CORPUS_NAMES, EndoField,
                              ScalarExpr, ValidationError, cartan_class,
                              check_connection_identities,
                              check_curvature_identity, contact,
                              corpus_build, eval_form, exterior_derivative,
                              frames, hermitian_data, linalg, normality,
                              one_form, run_checks, seeded_probe_points,
                              solve_reeb, submanifolds,
                              validate_contact_pair, validate_metric,
                              validate_structure)
from contact_pair_lab.frames import FramePresentation, interior
from conftest import (FOUR_FIELD_GAUGE, build_mcp, cartan_class_reference,
                      gauged_heis6, induced_pair_reference, is_type_reference,
                      perturbed_phi_structure, scaled_metric,
                      twisted_phi_structure)


# -- Reeb fields --------------------------------------------------------

def test_reeb_fields_are_the_distinguished_frame_columns(heis6_mcp,
                                                         darboux_mcp):
    for mcp, (i1, i2) in ((heis6_mcp, (2, 5)), (darboux_mcp, (2, 5))):
        presentation = mcp.presentation
        assert mcp.pair.z1 == presentation.frame_field(i1)
        assert mcp.pair.z2 == presentation.frame_field(i2)


def test_reeb_duality_and_insertion(heis6_mcp):
    pair = heis6_mcp.pair
    presentation = heis6_mcp.presentation
    zero, one = presentation.zero, presentation.one
    for i, alpha in enumerate(pair.alphas()):
        for j, z in enumerate((pair.z1, pair.z2)):
            value = eval_form(alpha, z)
            assert value == (one if i == j else zero)
    d_sum = pair.d_alpha1 + pair.d_alpha2
    for z in (pair.z1, pair.z2):
        for a in range(presentation.dim):
            assert eval_form(d_sum, z,
                             presentation.frame_field(a)).is_zero()


def test_reeb_fields_commute(heis6_mcp):
    from contact_pair_lab.frames import bracket
    assert bracket(heis6_mcp.pair.z1, heis6_mcp.pair.z2).is_zero()


def test_reeb_fields_are_orthonormal(heis6_mcp):
    g = heis6_mcp.metric
    pair = heis6_mcp.pair
    presentation = heis6_mcp.presentation
    assert g.pair(pair.z1, pair.z1) == presentation.one
    assert g.pair(pair.z2, pair.z2) == presentation.one
    assert g.pair(pair.z1, pair.z2).is_zero()


# -- the splitting ---------------------------------------------------------

SPLIT_CASES = {
    **{name: lambda name=name: corpus_build(name) for name in CORPUS_NAMES},
    **{f"darboux-{h}-{k}": lambda h=h, k=k: corpus_build("darboux", (h, k))
       for h in range(3) for k in range(3) if h + k >= 1},
    "heis6-gauged4": lambda: gauged_heis6(corpus_build("heis6"),
                                          FOUR_FIELD_GAUGE),
}


@pytest.mark.parametrize("label", SPLIT_CASES)
def test_the_splitting_has_the_dimensions_and_classes_of_its_type(label):
    """What ``validate_contact_pair`` no longer certifies: H_i and TF_i are
    the kernels they stand for, with the dimensions of type (h, k), and
    alpha_1, alpha_2 have Cartan classes 2h + 1, 2k + 1."""
    scenario = SPLIT_CASES[label]()
    pair = validate_contact_pair(scenario.presentation(), *scenario.forms(),
                                 *scenario.pair_type)
    n, h, k = pair.presentation.dim, pair.h, pair.k
    for name, d_alpha, alphas, dim in (
            ("H1", pair.d_alpha1, pair.alphas(), 2 * k),
            ("H2", pair.d_alpha2, pair.alphas(), 2 * h),
            ("TF1", pair.d_alpha1, (pair.alpha1,), 2 * k + 1),
            ("TF2", pair.d_alpha2, (pair.alpha2,), 2 * h + 1)):
        fields = pair.splitting[name]
        assert len(fields) == dim, name
        for f in fields:
            assert interior(d_alpha, f).is_zero(), name
            assert all(eval_form(alpha, f).is_zero() for alpha in alphas)
        # independent, and the whole kernel of the rows that cut it out
        if fields:
            assert len(linalg.rref([[f.components[a] for f in fields]
                                    for a in range(n)])[1]) == dim, name
        rows = [[d_alpha.get((a, b)) for a in range(n)] for b in range(n)]
        rows += [[alpha.get((a,)) for a in range(n)] for alpha in alphas]
        assert len(linalg.kernel_basis(rows)) == dim, name
    assert cartan_class(pair.alpha1) == 2 * h + 1
    assert cartan_class(pair.alpha2) == 2 * k + 1


def test_a_contact_pair_reduces_two_kernels_and_no_cartan_class(
        monkeypatch):
    scenario = corpus_build("heis6")
    presentation, forms = scenario.presentation(), scenario.forms()
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "kernel_basis",
                        counted("kernel_basis", linalg.kernel_basis))
    for module in (frames, contact):
        monkeypatch.setattr(module, "cartan_class",
                            counted("cartan_class", frames.cartan_class),
                            raising=False)
    pair = validate_contact_pair(presentation, *forms, *scenario.pair_type)
    assert calls == ["kernel_basis", "kernel_basis"]
    assert set(pair.splitting) == {"H1", "H2", "TF1", "TF2"}


def test_the_reeb_fields_come_from_one_reduction(monkeypatch):
    """``solve_reeb`` reduces the 2n + 2 Reeb rows once, beside both
    right-hand sides, and ``validate_contact_pair`` reduces nothing else
    over the scalar field but the two kernels of the splitting."""
    scenario = corpus_build("heis6")
    presentation, forms = scenario.presentation(), scenario.forms()
    row_reduce, reduced = linalg.row_reduce, []

    def counted(matrix, width):
        if isinstance(matrix[0][0], ScalarExpr):
            reduced.append(len(matrix))
        return row_reduce(matrix, width)

    monkeypatch.setattr(linalg, "row_reduce", counted)
    solve_reeb(presentation, *forms, *map(exterior_derivative, forms))
    assert reduced == [14]
    reduced.clear()
    validate_contact_pair(presentation, *forms, *scenario.pair_type)
    assert reduced == [14, 8, 8]


def test_a_negative_type_fails_the_pair_row():
    """(-1, 3) fits heis6's dimension, 2(-1) + 2*3 + 2 = 6, but is no type:
    the type test and ``validate_contact_pair`` reject it, and a run fails
    ``pair.valid`` with it and skips every later row."""
    scenario = corpus_build("heis6")
    presentation, forms = scenario.presentation(), scenario.forms()
    message = r"type \(-1,3\) has a negative entry"
    with pytest.raises(ValidationError, match=message):
        contact.pair_type_findings(*forms, *map(exterior_derivative, forms),
                                   -1, 3)
    with pytest.raises(ValidationError, match=message):
        validate_contact_pair(presentation, *forms, -1, 3)
    scenario.pair_type = (-1, 3)
    rows = run_checks(scenario, seed=1).rows
    assert (rows[0].id, rows[0].verdict, rows[0].witness) == (
        "pair.valid", "fail", "type (-1,3) has a negative entry")
    assert {row.verdict for row in rows[1:]} == {"skipped"}


@pytest.mark.parametrize("name, params, budget", [
    ("heis6", None, 13), ("heis6-n4", None, 10), ("darboux", (2, 2), 8)])
def test_one_verify_pass_stays_within_its_wedge_budget(monkeypatch, name,
                                                       params, budget):
    """One seed-1 ``run_checks`` builds each wedge power once, on one
    ladder per 2-form (``frames.form_powers``), and reads an induced
    pair's type off its two Cartan classes.  heis6, heis6-n4 and darboux
    (2, 2) take 13, 10 and 8 ``wedge`` calls; they took 27, 20 and 10
    while the type, each class and each (h, k) tried for an induced pair
    climbed their own powers."""
    wedge, calls = frames.wedge, []

    def counted(a, b):
        calls.append(None)
        return wedge(a, b)

    for key, module in list(sys.modules.items()):
        if (key.startswith("contact_pair_lab")
                and getattr(module, "wedge", None) is wedge):
            monkeypatch.setattr(module, "wedge", counted)
    report = run_checks(corpus_build(name, params), seed=1)
    assert report.overall == "pass"
    assert 0 < len(calls) <= budget


@pytest.mark.parametrize("texts", [
    # the Reeb rows have rank n, and no field has alpha_1(Z_1) = 1
    (["x2", "x3", "0", "0"], ["x1", "0", "0", "0"]),
    # closed forms: the rows have rank 2, and every right-hand side is
    # met by a plane of fields
    (["1", "0", "0", "0"], ["0", "1", "0", "0"]),
])
def test_a_reeb_system_without_one_solution_is_rejected(texts):
    presentation, alpha1, alpha2 = coordinate_forms(4, *texts)
    with pytest.raises(ValidationError, match="no unique solution"):
        solve_reeb(presentation, alpha1, alpha2,
                   exterior_derivative(alpha1), exterior_derivative(alpha2))


# -- the Reeb reduction and the splitting, against the type -----------------

# a dense 1-form on R^5 whose class takes milliseconds by wedge powers and
# did not finish in 100 s as a rank over the scalar field; with one more
# coordinate and DENSE_PARTNER, a pair on R^6 of no type whose Reeb
# reduction did not finish in 120 s
DENSE_R5 = ["x1*x2 - 2*x3", "-x2 - x1*x0 + 2*x1", "2*x1*x2 - x3*x0 + x4*x3",
            "x1*x0 - x0 - 2*x1*x4", "-2*x4*x3 - 2*x1*x2"]
DENSE_PARTNER = ["x0", "x1*x3", "1", "x2*x2", "x4 - x5", "x0*x1"]


@st.composite
def form_pairs(draw):
    """Two 1-forms on the coordinate frame of R^n, 2 <= n <= 6, as their
    coefficient texts: integer polynomials of degree at most 2, sparse or
    dense.  Half the draws put the forms on complementary blocks of
    coordinates, as on a product of two contact manifolds, so that
    contact pairs of every type occur."""
    n = draw(st.integers(2, 6))
    split = draw(st.integers(1, n - 1)) if draw(st.booleans()) else None
    dense = draw(st.booleans())

    def coefficient(block):
        terms = draw(st.lists(
            st.tuples(st.sampled_from([-2, -1, 1, 2]),
                      st.lists(st.sampled_from(list(block)), max_size=2)),
            min_size=int(dense), max_size=3))
        return " + ".join(f"({c})" + "".join(f"*x{i}" for i in factors)
                          for c, factors in terms) or "0"

    blocks = ((range(n), range(n)) if split is None
              else (range(split), range(split, n)))
    return n, *([coefficient(block) if a in block else "0"
                 for a in range(n)] for block in blocks)


def coordinate_forms(n, texts1, texts2):
    names = [f"x{i}" for i in range(n)]
    presentation = FramePresentation(
        names, [["1" if i == j else "0" for j in range(n)]
                for i in range(n)], {name: 0 for name in names})
    return presentation, *(one_form(presentation, [presentation.scalar(t)
                                                   for t in texts])
                           for texts in (texts1, texts2))


@settings(max_examples=60, deadline=None)
@given(form_pairs())
# types (1,1) and (2,0); no volume form; Reeb fields, but H1 = H2 = 0;
# dim H1 = 0 and dim H2 = 2 as for type (1,0), but no Reeb fields; the
# dense forms
@example((6, ["-x1", "0", "1", "0", "0", "0"],
          ["0", "0", "0", "-x4", "0", "1"]))
@example((6, ["-x1", "0", "-x3", "0", "1", "0"],
          ["0", "0", "0", "0", "0", "1"]))
@example((4, ["-x1", "0", "1", "x0*x3"], ["-x1", "0", "1", "x0*x3"]))
@example((4, ["-x1", "0", "1", "0"], ["-x1", "0", "0", "1"]))
@example((4, ["x2", "x3", "0", "0"], ["x1", "0", "0", "0"]))
@example((5, DENSE_R5, DENSE_R5[::-1]))
@example((6, DENSE_R5 + ["x5*x0 - x2"], DENSE_PARTNER))
def test_the_reeb_fields_and_kernels_have_the_shape_of_the_type(drawn):
    """For each type (h, k) that the wedge powers accept, the one Reeb
    reduction gives fields with alpha_i(Z_j) = delta_ij and i_{Z_j}
    d(alpha_i) = 0, H1 and H2 have dimensions 2k and 2h, the classes are
    2h + 1 and 2k + 1, and the induced-pair verdict on the whole frame
    finds that type; when none is accepted, the verdict fails and
    ``validate_contact_pair`` rejects every type.  Each draw, the dense
    forms among them, finishes within seconds."""
    start = time.perf_counter()
    presentation, alpha1, alpha2 = coordinate_forms(*drawn)
    n, zero, one = presentation.dim, presentation.zero, presentation.one
    d1, d2 = exterior_derivative(alpha1), exterior_derivative(alpha2)
    classes = (cartan_class(alpha1), cartan_class(alpha2))
    verdict = submanifolds._induced_pair_verdict(presentation, alpha1,
                                                 alpha2, [])
    accepted = []
    for h in range(n // 2) if n % 2 == 0 else ():
        k = n // 2 - 1 - h
        findings, _ = contact.pair_type_findings(alpha1, alpha2, d1, d2,
                                                 h, k)
        if not all(f.ok for f in findings):
            with pytest.raises(ValidationError, match="not a contact pair"):
                validate_contact_pair(presentation, alpha1, alpha2, h, k,
                                      probes=[])
            continue
        accepted.append((h, k))
        z1, z2 = solve_reeb(presentation, alpha1, alpha2, d1, d2)
        for alpha, d_alpha in ((alpha1, d1), (alpha2, d2)):
            for z in (z1, z2):
                assert eval_form(alpha, z) == (
                    one if (alpha, z) in ((alpha1, z1), (alpha2, z2))
                    else zero)
                assert interior(d_alpha, z).is_zero()
        split = contact._splitting(presentation, alpha1, alpha2, d1, d2,
                                   z1, z2)
        assert (len(split["H1"]), len(split["H2"])) == (2 * k, 2 * h)
        assert classes == (2 * h + 1, 2 * k + 1)
        assert verdict.witness == f"type ({h},{k}); classes {classes}"
    assert len(accepted) <= 1
    assert verdict.ok == bool(accepted)
    assert time.perf_counter() - start < 10


@settings(max_examples=60, deadline=None)
@given(form_pairs())
@example((6, ["-x1", "0", "1", "0", "0", "0"],
          ["0", "0", "0", "-x4", "0", "1"]))
@example((4, ["-x1", "0", "1", "x0*x3"], ["-x1", "0", "1", "x0*x3"]))
@example((4, ["x2", "x3", "0", "0"], ["x1", "0", "0", "0"]))
# odd classes summing to n whose witnesses wedge to zero; closed forms of
# class 1 on R^4; classes 2 and 2 on R^4, whose witnesses wedge to nonzero
@example((2, ["1", "0"], ["1", "0"]))
@example((4, ["1", "0", "0", "0"], ["0", "1", "0", "0"]))
@example((4, ["0", "x0", "0", "0"], ["0", "0", "0", "x2"]))
@example((5, DENSE_R5, DENSE_R5[::-1]))
@example((6, DENSE_R5 + ["x5*x0 - x2"], DENSE_PARTNER))
def test_the_ladders_match_the_climbing_references(drawn):
    """Each Cartan class (class, probe), the type test for every (h, k)
    of the dimension and the induced-pair verdict (ok, witness, probe),
    read off one ladder of powers per 2-form, agree with the references
    that climb every power by its own wedges and search every (h, k).
    The origin, the base point, is among the probes, and there many
    witness coefficients vanish."""
    presentation, alpha1, alpha2 = coordinate_forms(*drawn)
    n = presentation.dim
    points = [presentation.base_point, *seeded_probe_points(presentation)]
    d1, d2 = exterior_derivative(alpha1), exterior_derivative(alpha2)
    for alpha, d_alpha in ((alpha1, d1), (alpha2, d2)):
        cls, witness, probe = frames._cartan_class(alpha, d_alpha, points,
                                                   "alpha")
        assert (cls, probe) == cartan_class_reference(alpha, d_alpha,
                                                      points, "alpha")
        assert witness.degree == cls and not witness.is_zero()
    for h in range(n // 2) if n % 2 == 0 else ():
        k = n // 2 - 1 - h
        findings, _ = contact.pair_type_findings(alpha1, alpha2, d1, d2,
                                                 h, k)
        assert all(f.ok for f in findings) == is_type_reference(
            alpha1, alpha2, d1, d2, h, k)
    verdict = submanifolds._induced_pair_verdict(presentation, alpha1,
                                                 alpha2, points)
    assert (verdict.ok, verdict.witness, verdict.probe) == \
        induced_pair_reference(presentation, alpha1, alpha2, points)


def test_a_warm_verify_pass_evaluates_no_more_than_it_did(monkeypatch):
    """One warm seed-1 ``run_checks`` on the gauged heis6 makes 99
    ``ScalarExpr.evaluate`` calls, as it did before the Reeb system was
    reduced once; a change that evaluates more shows here."""
    def make():
        return gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE)

    run_checks(make(), seed=1)
    scenario, evaluate, calls = make(), ScalarExpr.evaluate, []

    def counted(self, point):
        calls.append(None)
        return evaluate(self, point)

    monkeypatch.setattr(ScalarExpr, "evaluate", counted)
    run_checks(scenario, seed=1)
    assert 0 < len(calls) <= 99


# -- the two almost complex structures ----------------------------------

def test_complex_structures_square_to_minus_identity(heis6_mcp):
    presentation = heis6_mcp.presentation
    identity = EndoField.identity(presentation)
    for endo in (heis6_mcp.structure.j, heis6_mcp.structure.t):
        assert (endo.compose(endo) + identity).is_zero()


def test_structure_decomposition_into_j_and_t(heis6_mcp):
    presentation = heis6_mcp.presentation
    half = presentation.scalar("1/2")
    j = heis6_mcp.structure.j
    t = heis6_mcp.structure.t
    phi = heis6_mcp.structure.phi
    rho = heis6_mcp.structure.rho
    assert ((j + t).scale(half) - phi).is_zero()
    assert ((t - j).scale(half) - rho).is_zero()


def test_phi_squared_identity(heis6_mcp):
    from contact_pair_lab.frames import PForm
    presentation = heis6_mcp.presentation
    pair = heis6_mcp.pair
    phi = heis6_mcp.structure.phi
    expected = (EndoField.outer(pair.alpha1, pair.z1)
                + EndoField.outer(pair.alpha2, pair.z2)
                - EndoField.identity(presentation))
    assert (phi.compose(phi) - expected).is_zero()


def test_decomposability_certified(heis6_mcp, darboux_mcp):
    assert heis6_mcp.structure.decomposable.ok
    assert darboux_mcp.structure.decomposable.ok


# -- validation guards ---------------------------------------------------

def test_wrong_type_rejected(heis6_scenario):
    presentation = heis6_scenario.presentation()
    alpha1, alpha2 = heis6_scenario.forms()
    with pytest.raises(ValidationError):
        validate_contact_pair(presentation, alpha1, alpha2, 2, 0)


def test_identity_endomorphism_rejected(heis6_scenario, heis6_mcp):
    with pytest.raises(ValidationError):
        validate_structure(heis6_mcp.pair,
                           EndoField.identity(heis6_scenario.presentation()))


def test_structure_axioms_name_their_first_nonzero_residuals(
        heis6_scenario, heis6_mcp):
    presentation = heis6_scenario.presentation()
    rows = [[presentation.scalar(text) for text in row]
            for row in heis6_scenario.phi]
    rows[2][0] = presentation.one  # phi e_0 gains a Z1 component
    rows[0][2] = presentation.one  # phi Z1 = e_0
    with pytest.raises(ValidationError) as caught:
        validate_structure(heis6_mcp.pair, EndoField(presentation, rows))
    assert str(caught.value) == (
        "not a contact pair structure ["
        "phi squared identity: component (0,0) = (1); "
        "phi kills Z1: phi(Z1) = "
        "VectorField(['(1)', '(0)', '(0)', '(0)', '(0)', '(0)']); "
        "first form annihilates the image of phi: alpha(phi e_0) = (1)]")


# the structure's endomorphism and metric on every corpus scenario and on
# heis6 with the twisted phi and with the scaled metric
STRUCTURES = {name: (name, None, None) for name in CORPUS_NAMES}
STRUCTURES["heis6-twisted-phi"] = ("heis6", twisted_phi_structure, None)
STRUCTURES["heis6-scaled-metric"] = ("heis6", None, scaled_metric)


@pytest.mark.parametrize("label", STRUCTURES)
def test_phi_has_rank_n_minus_2_wherever_the_axioms_pass(label):
    # "rank of phi" is read from the certified identities, not evaluated;
    # this evaluates it at the base point and every probe of two seeds
    name, make_phi, make_metric = STRUCTURES[label]
    scenario = corpus_build(name)
    presentation = scenario.presentation()
    phi = make_phi(scenario) if make_phi else scenario.phi_endo()
    metric = make_metric(scenario) if make_metric else \
        scenario.metric_field()
    pair = validate_contact_pair(presentation, *scenario.forms(),
                                 *scenario.pair_type)
    # raises unless the algebraic axioms pass
    validate_structure(pair, phi, metric=metric)
    n = presentation.dim
    for seed in (1, 7):
        for point in [presentation.base_point,
                      *seeded_probe_points(presentation, seed=seed)]:
            values = [[entry.evaluate(point) for entry in row]
                      for row in phi.matrix]
            assert linalg.rational_rank(values) == n - 2, (label, point)


# -- normality: both directions -----------------------------------------

def test_normality_on_the_flat_bundles(heis6_mcp, darboux_mcp):
    for mcp in (heis6_mcp, darboux_mcp):
        report = normality(mcp)
        assert report.n1.ok and report.nj.ok and report.nt.ok
        assert report.normal.ok


def test_vertical_twist_breaks_normality(heis6_scenario, heis6_mcp):
    twisted = twisted_phi_structure(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair, twisted,
                                   metric=heis6_scenario.metric_field())
    mcp = validate_metric(structure, heis6_scenario.metric_field())
    report = normality(mcp)
    assert not report.n1.ok
    assert not report.nj.ok
    assert not report.nt.ok
    assert not report.normal.ok
    assert report.normal.witness


def test_normality_tensor_iff_both_integrable(heis6_scenario, heis6_mcp,
                                              darboux_mcp):
    """N1 = 0 exactly when both J and T are integrable, across the
    normal bundles and the twisted counterexample."""
    reports = [normality(heis6_mcp), normality(darboux_mcp)]
    twisted = twisted_phi_structure(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair, twisted,
                                   metric=heis6_scenario.metric_field())
    reports.append(normality(
        validate_metric(structure, heis6_scenario.metric_field())))
    for report in reports:
        assert report.n1.ok == (report.nj.ok and report.nt.ok)


# -- connection and curvature characterizations -------------------------

def test_connection_identities_on_normal_bundle(heis6_mcp):
    findings = check_connection_identities(heis6_mcp)
    by_name = {f.condition: f for f in findings}
    for name in ("covariant phi pairing identity",
                 "Reeb sum derivative identity",
                 "covariant phi projection identity",
                 "curvature h-tensor identity",
                 "Reeb derivative with h-tensor",
                 "h-tensor vanishes on the normal bundle",
                 "Reeb sum is Killing"):
        assert by_name[name].ok, name


def test_non_normal_bundle_reports_every_connection_row():
    scenario = corpus_build("heis6")
    scenario._cache["phi"] = twisted_phi_structure(scenario)
    report = run_checks(scenario, selection=["connection"])
    rows = {r.id: r.verdict for r in report.rows
            if r.id.startswith("connection.")}
    assert list(rows) == [i for i in CHECK_IDS
                          if i.startswith("connection.")]
    assert len(rows) == 7
    assert rows["connection.h_vanishes"] == "skipped"
    assert rows["connection.reeb_killing"] == "skipped"


def test_curvature_identity_on_normal_bundle(heis6_mcp):
    holds, agreement = check_curvature_identity(heis6_mcp)
    assert holds.ok and agreement.ok


def test_sign_flip_breaks_association_and_projection(heis6_scenario,
                                                     heis6_mcp):
    phi = perturbed_phi_structure(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair, phi,
                                   metric=heis6_scenario.metric_field())
    mcp = validate_metric(structure, heis6_scenario.metric_field())
    assert mcp.compatible.ok
    assert not mcp.associated.ok and mcp.associated.witness
    report = normality(mcp)
    assert report.n1.ok and not report.normal.ok

    by_name = {f.condition: f for f in check_connection_identities(mcp)}
    assert not by_name["covariant phi projection identity"].ok
    assert by_name["covariant phi projection identity"].witness
    assert not by_name["Reeb sum derivative identity"].ok

    holds, agreement = check_curvature_identity(mcp)
    assert holds.ok  # the raw curvature identity does not see the sign
    assert not agreement.ok and "(-1)" in agreement.witness


def test_metric_scaling_breaks_curvature_identity(heis6_scenario,
                                                  heis6_mcp):
    metric = scaled_metric(heis6_scenario)
    structure = validate_structure(heis6_mcp.pair,
                                   heis6_scenario.phi_endo(), metric=metric)
    mcp = validate_metric(structure, metric)
    assert not mcp.associated.ok
    holds, agreement = check_curvature_identity(mcp)
    assert not holds.ok and holds.witness
    assert agreement.ok  # identity and normality fail together


# -- Hermitian identities ------------------------------------------------

def test_hermitian_identities(heis6_mcp, darboux_mcp):
    for mcp in (heis6_mcp, darboux_mcp):
        findings = hermitian_data(mcp)
        assert all(f.ok for f in findings), \
            [f.condition for f in findings if not f.ok]


def test_form_pullback_names_the_first_failing_frame_field(heis6_mcp):
    structure = heis6_mcp.structure
    doubled = dataclasses.replace(heis6_mcp, structure=dataclasses.replace(
        structure, j=structure.j.scale(heis6_mcp.presentation.scalar(2))))
    by_name = {f.condition: f for f in hermitian_data(doubled)}
    pullback = by_name["second form pulls back to the first under J"]
    assert not pullback.ok and pullback.witness == "residual on e_2 = (1)"
