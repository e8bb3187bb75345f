import dataclasses
from fractions import Fraction

import pytest

from contact_pair_lab import (MetricField, Subframe, SubframeError,
                              angle_constancy, classify, corpus_build,
                              restrict_structure, second_fundamental_form,
                              shape_data, verify_theorems)
from conftest import build_mcp


@pytest.fixture(scope="module")
def heis6_subframes(heis6_scenario):
    return {name: heis6_scenario.subframe(name)
            for name in heis6_scenario.submanifolds}


@pytest.fixture(scope="module")
def noninvariant():
    scenario = corpus_build("darboux-J-noninvariant")
    mcp = build_mcp(scenario)
    sub = scenario.subframe("darboux-J-noninvariant")
    profile = classify(sub, mcp)
    return scenario, mcp, sub, profile


# -- second fundamental form --------------------------------------------

def test_shape_operator_is_symmetric(heis6_mcp, heis6_subframes):
    conn = heis6_mcp.connection
    for sub in heis6_subframes.values():
        for a in range(sub.dim):
            for b in range(sub.dim):
                lhs = second_fundamental_form(sub, conn, sub.fields[a],
                                              sub.fields[b])
                rhs = second_fundamental_form(sub, conn, sub.fields[b],
                                              sub.fields[a])
                assert (lhs - rhs).is_zero()


def test_shape_operator_values_are_normal(heis6_mcp, heis6_subframes):
    g = heis6_mcp.metric
    conn = heis6_mcp.connection
    for sub in heis6_subframes.values():
        shape = shape_data(sub, conn)
        for value in shape.table.values():
            for field in sub.fields:
                assert g.pair(value, field).is_zero()


def test_shape_operator_is_function_bilinear(heis6_mcp, heis6_subframes):
    presentation = heis6_mcp.presentation
    conn = heis6_mcp.connection
    u = presentation.scalar("x^2 + 3*y")
    sub = heis6_subframes["factor"]
    x, y = sub.fields[0], sub.fields[1]
    lhs = second_fundamental_form(sub, conn, x.scale(u), y)
    rhs = second_fundamental_form(sub, conn, x, y).scale(u)
    assert (lhs - rhs).is_zero()


def test_shape_operator_rejects_non_tangent_arguments(heis6_mcp,
                                                      heis6_subframes):
    sub = heis6_subframes["factor"]
    outside = heis6_mcp.presentation.frame_field(3)
    with pytest.raises(SubframeError):
        second_fundamental_form(sub, heis6_mcp.connection, sub.fields[0],
                                outside)


def test_ambient_manifold_is_totally_geodesic_in_itself(heis6_mcp):
    presentation = heis6_mcp.presentation
    fields = [presentation.frame_field(a) for a in range(presentation.dim)]
    sub = Subframe(presentation, fields, heis6_mcp.metric, "ambient")
    shape = shape_data(sub, heis6_mcp.connection)
    assert all(value.is_zero() for value in shape.table.values())
    assert shape.minimal


# -- mean curvature invariance ------------------------------------------

def test_mean_curvature_is_span_intrinsic(noninvariant):
    scenario, mcp, sub, _ = noninvariant
    presentation = mcp.presentation
    h_original = shape_data(sub, mcp.connection).mean_curvature
    assert not h_original.is_zero()
    two = presentation.scalar("2")
    y1, jy1 = sub.fields
    recombined = Subframe(presentation, [y1.scale(two), jy1 + y1],
                          mcp.metric, "recombined")
    h_recombined = shape_data(recombined, mcp.connection).mean_curvature
    assert (h_original - h_recombined).is_zero()


def test_characteristic_foliation_leaves_are_minimal(heis6_mcp):
    presentation = heis6_mcp.presentation
    split = heis6_mcp.pair.splitting
    vertical = [heis6_mcp.pair.z1, heis6_mcp.pair.z2]
    # TG_i = ker d(alpha_i) = H_i + [Z1, Z2]
    spans = {"TF1": split["TF1"], "TF2": split["TF2"],
             "TG1": split["H1"] + vertical, "TG2": split["H2"] + vertical}
    for name, span in spans.items():
        sub = Subframe(presentation, list(span), heis6_mcp.metric, name)
        assert shape_data(sub, heis6_mcp.connection).minimal, name


# -- invariance profiles --------------------------------------------------

def test_phi_kills_reeb_parts_on_invariant_subframes(heis6_mcp,
                                                     heis6_subframes):
    phi = heis6_mcp.structure.phi
    g = heis6_mcp.metric
    for name, sub in heis6_subframes.items():
        profile = classify(sub, heis6_mcp)
        assert profile.phi_invariant, name
        for z in (heis6_mcp.pair.z1, heis6_mcp.pair.z2):
            tangential = sub.tangent(z)
            assert phi.apply(tangential).is_zero()
            assert phi.apply(z - tangential).is_zero()


def test_two_invariances_imply_all_four(heis6_mcp, heis6_subframes):
    profile = classify(heis6_subframes["heis6-n4"], heis6_mcp)
    flags = (profile.phi_invariant, profile.j_invariant,
             profile.t_invariant, profile.rho_invariant)
    assert all(flags)
    assert profile.reeb_position == "tangent-both"


def test_profiles_match_the_construction(heis6_mcp, heis6_subframes):
    expected = {
        "factor": ("tangent-Z1-orthogonal-Z2", 3),
        "heis6-leaf3": ("nowhere-tangent-nowhere-orthogonal", 3),
        "heis6-n4": ("tangent-both", 4),
    }
    for name, (position, dim) in expected.items():
        profile = classify(heis6_subframes[name], heis6_mcp)
        assert profile.reeb_position == position, name
        assert profile.dimension == dim, name


def test_noninvariant_profile(noninvariant):
    _, _, _, profile = noninvariant
    assert profile.j_invariant
    assert not profile.phi_invariant
    assert not profile.t_invariant
    assert not profile.rho_invariant
    assert profile.reeb_position == "nowhere-tangent-nowhere-orthogonal"


# -- angle constancy -------------------------------------------------------

def test_angle_constancy_on_the_diagonal_leaf(heis6_mcp, heis6_subframes):
    sub = heis6_subframes["heis6-leaf3"]
    profile = classify(sub, heis6_mcp)
    norm = heis6_mcp.metric.norm_squared(profile.z1_tangential)
    assert norm == heis6_mcp.presentation.scalar("1/2")
    assert angle_constancy(sub, heis6_mcp, profile)


def test_angle_constancy_guards_its_precondition(heis6_mcp,
                                                 heis6_subframes):
    sub = heis6_subframes["heis6-n4"]
    with pytest.raises(SubframeError):
        angle_constancy(sub, heis6_mcp, classify(sub, heis6_mcp))


def test_angle_constancy_is_scale_invariant(heis6_mcp, heis6_subframes):
    presentation = heis6_mcp.presentation
    sub = heis6_subframes["heis6-leaf3"]
    scaled = Subframe(presentation,
                      [f.scale(presentation.scalar("2"))
                       for f in sub.fields],
                      heis6_mcp.metric, "scaled-leaf")
    assert angle_constancy(scaled, heis6_mcp, classify(scaled, heis6_mcp)) \
        == angle_constancy(sub, heis6_mcp, classify(sub, heis6_mcp))


# -- theorem dispatch -------------------------------------------------------

def test_theorem_reports_pass_on_corpus_subframes(heis6_mcp,
                                                  heis6_subframes):
    for name, sub in heis6_subframes.items():
        profile = classify(sub, heis6_mcp)
        findings = verify_theorems(sub, heis6_mcp, profile)
        bad = [f.condition for f in findings if not f.ok]
        assert not bad, (name, bad)


def test_induced_identities_name_their_first_nonzero_residuals(
        heis6_scenario, heis6_mcp):
    """The factor span measured with the first factor's block doubled: the
    ambient pair stays normal, so the Sasakian identity is certified, and
    it fails together with the induced association."""
    presentation = heis6_scenario.presentation()
    gram = [[Fraction(0)] * 6 for _ in range(6)]
    for a, value in enumerate((1, 1, 1, Fraction(1, 2), Fraction(1, 2), 1)):
        gram[a][a] = Fraction(value)
    fields = [presentation.vector(v)
              for v in heis6_scenario.submanifolds["factor"]]
    sub = Subframe(presentation, fields,
                   MetricField(presentation, gram), "factor")
    by_name = {f.condition: f for f in restrict_structure(
        sub, heis6_mcp, classify(sub, heis6_mcp))}
    associated = by_name["induced metric is associated to the induced "
                         "contact form"]
    assert not associated.ok
    assert associated.witness == "residual at (0,1) = ((1/2))"
    sasakian = by_name["induced structure satisfies the Sasakian "
                       "covariant identity"]
    assert not sasakian.ok
    assert sasakian.witness == \
        "residual at (0,0) = VectorField(['(0)', '(0)', '((-1/2))'])"


def test_involutivity_is_required():
    scenario = corpus_build("heis6")
    presentation = scenario.presentation()
    metric = scenario.metric_field()
    # [X1, X2] = -X3 falls outside span{X1, X2}
    fields = [presentation.frame_field(0), presentation.frame_field(1)]
    with pytest.raises(SubframeError):
        Subframe(presentation, fields, metric, "open-span")


def test_shape_data_is_computed_once_per_subframe(monkeypatch):
    import contact_pair_lab.submanifolds as submanifolds
    from contact_pair_lab import LeviCivita, run_checks
    from conftest import scaled_metric

    built = []
    original = submanifolds.ShapeData

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(submanifolds, "ShapeData", counting)
    scenario = corpus_build("heis6")
    run_checks(scenario, ["submanifolds"])
    assert len(built) == len(scenario.submanifolds) == 3

    # the cache answers only for the connection it was computed with
    sub = scenario.subframe("factor")
    connection = build_mcp(scenario).connection
    first = shape_data(sub, connection)
    assert shape_data(sub, connection) is first and len(built) == 4
    other = shape_data(sub, LeviCivita(scaled_metric(scenario)))
    assert other is not first and len(built) == 5


def test_the_mean_curvature_identity_fails_with_the_reeb_fields_swapped(
        noninvariant):
    _, mcp, sub, profile = noninvariant
    pair = dataclasses.replace(mcp.pair, z1=mcp.pair.z2, z2=mcp.pair.z1)
    swapped = dataclasses.replace(
        mcp, structure=dataclasses.replace(mcp.structure, pair=pair))
    condition = "normalized mean curvature probe residual below tolerance"
    row = next(f for f in verify_theorems(sub, mcp, profile)
               if f.condition == condition)
    assert row.ok and row.witness == ""
    row = next(f for f in verify_theorems(sub, swapped,
                                          classify(sub, swapped))
               if f.condition == condition)
    assert not row.ok and row.witness.startswith("residual = ")


# each finding below compares two exact quantities through ``certify``, so
# its failing witness names the compared quantity
_CERTIFIED_LABELS = {
    "induced endomorphism squares correctly": "residual along e_",
    "shape operator annihilates the tangent Reeb field": "b(Z",
    "mean curvature vanishes": "H = ",
    "shape trace concentrates on the vertical tangent direction":
        "shape trace = ",
    "vertical direction derivative has no tangential part":
        "tangential part = ",
    "vertical direction derivative is normal along the rotated vertical "
    "direction": "minor (",
    "endomorphism kills the tangential part of Z1": "phi(Z1T) = ",
    "endomorphism kills the tangential part of Z2": "phi(Z2T) = ",
    "endomorphism kills the normal part of Z1": "phi(Z1perp) = ",
    "endomorphism kills the normal part of Z2": "phi(Z2perp) = ",
}


@pytest.mark.parametrize("name", ["factor", "heis6-leaf3"])
def test_the_certified_submanifold_identities_witness_their_label(
        heis6_mcp, heis6_subframes, name):
    """A tangential part of Z1 moved off the span by e_0 breaks the
    identities that read it; each failing one names what it compared."""
    sub = heis6_subframes[name]
    profile = classify(sub, heis6_mcp)
    moved = dataclasses.replace(
        profile, z1_tangential=profile.z1_tangential
        + heis6_mcp.presentation.frame_field(0))
    findings = (restrict_structure(sub, heis6_mcp, moved)
                + verify_theorems(sub, heis6_mcp, moved))
    failed = [f for f in findings
              if f.condition in _CERTIFIED_LABELS and not f.ok]
    assert failed
    for f in failed:
        assert f.witness.startswith(_CERTIFIED_LABELS[f.condition]), f
