import dataclasses

import pytest

from contact_pair_lab import (CHECK_IDS, CORPUS_NAMES, EndoField,
                              ValidationError, cartan_class,
                              check_connection_identities,
                              check_curvature_identity, contact,
                              corpus_build, eval_form, frames,
                              hermitian_data, linalg, normality,
                              run_checks, seeded_probe_points,
                              validate_contact_pair, validate_metric,
                              validate_structure)
from contact_pair_lab.frames import interior
from conftest import (FOUR_FIELD_GAUGE, build_mcp, gauged_heis6,
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
