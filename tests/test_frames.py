import warnings

import pytest

from contact_pair_lab import linalg
from contact_pair_lab.frames import (ChartDomainWarning, FrameError,
                                     FramePresentation, MetricField,
                                     cartan_class, eval_form,
                                     exterior_derivative, form_power,
                                     is_killing, levi_civita,
                                     nonvanishing_certificate, one_form,
                                     seeded_probe_points, wedge)
from contact_pair_lab.frames import bracket
from conftest import gauged_heis6, sample_fields, twisted_phi_structure


@pytest.fixture(scope="module")
def heis6(heis6_scenario):
    presentation = heis6_scenario.presentation()
    alpha1, alpha2 = heis6_scenario.forms()
    metric = heis6_scenario.metric_field()
    return presentation, alpha1, alpha2, metric


def coordinate_bracket(presentation, x, y):
    """[X, Y] by the coordinate formula, converted back with the coframe."""
    n, names = presentation.dim, presentation.coordinates
    zero = presentation.zero
    coframe = linalg.invert(presentation.frame)

    def coordinates(v):
        return [sum((presentation.frame[i][a] * v.components[a]
                     for a in range(n)), zero) for i in range(n)]

    xc, yc = coordinates(x), coordinates(y)
    coords = [sum((xc[j] * yc[i].differentiate(names[j])
                   - yc[j] * xc[i].differentiate(names[j])
                   for j in range(n)), zero) for i in range(n)]
    return presentation.vector([sum((coframe[a][i] * coords[i]
                                     for i in range(n)), zero)
                                for a in range(n)])


# -- frame-component bracket ---------------------------------------------

def test_bracket_matches_the_coordinate_formula(heis6_scenario):
    for presentation in (heis6_scenario.presentation(),
                         gauged_heis6(heis6_scenario).presentation()):
        fields = list(sample_fields(presentation)) + [
            presentation.frame_field(a) for a in range(presentation.dim)]
        for x in fields:
            for y in fields:
                assert bracket(x, y) == coordinate_bracket(presentation,
                                                           x, y)


def test_bracket_leibniz_rule(heis6_scenario):
    presentation = gauged_heis6(heis6_scenario).presentation()
    x, y = sample_fields(presentation)
    f = presentation.scalar("x*y + z^2")
    assert bracket(x, y.scale(f)) == (y.scale(x.apply(f))
                                      + bracket(x, y).scale(f))


def test_bracket_on_a_subframe_context(heis6_scenario):
    sub = heis6_scenario.subframe("heis6-n4")
    x = sub.frame_field(0).scale(sub.scalar("1 + x^2")) + sub.frame_field(2)
    y = sub.frame_field(2) + sub.frame_field(3).scale(sub.scalar("y"))
    assert not bracket(x, y).is_zero()
    assert sub.ambient_field(bracket(x, y)) == \
        bracket(sub.ambient_field(x), sub.ambient_field(y))


def test_jacobi_certificate_rejects_a_corrupted_table():
    # e_3 = x d/dw: the cyclic sum on (0, 1, 2) cancels only between the
    # derivative term e_1(C^3_20) = -1/x and the product C^3_12 C^3_03 = 1/x,
    # so building this frame already needs both kinds of term
    coords = ["x", "y", "z", "w"]
    presentation = FramePresentation(
        coords, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "x*y", "x"]],
        {"x": 1, "y": 0, "z": 0, "w": 0})
    comps = list(presentation.bracket_coeffs(1, 2))
    assert comps[3] == presentation.one
    comps[3] = presentation.scalar("2")
    presentation._structure[(1, 2)] = tuple(comps)
    presentation._structure[(2, 1)] = tuple(-c for c in comps)
    with pytest.raises(FrameError, match="Jacobi"):
        presentation._certify_jacobi()


def test_sparse_endomorphism_apply_matches_the_dense_product(
        heis6_scenario):
    presentation = heis6_scenario.presentation()
    n = presentation.dim
    twisted = twisted_phi_structure(heis6_scenario)
    fields = list(sample_fields(presentation)) + [
        presentation.vector(["0"] * n),
        presentation.vector(["x", "1", "z^2", "-2", "v", "y*w"])]
    for endo in (twisted, heis6_scenario.phi_endo()):
        for x in fields:
            dense = tuple(sum((endo.matrix[c][a] * x.components[a]
                               for a in range(n)), presentation.zero)
                          for c in range(n))
            assert endo.apply(x).components == dense


# -- exterior calculus -------------------------------------------------

def test_d_squared_is_zero(heis6):
    presentation, alpha1, alpha2, _ = heis6
    f = presentation.scalar("x*y + z^2")
    for form in (alpha1, alpha2, alpha1.scale(f)):
        assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_derivative_convention_carries_one_half(heis6):
    presentation, alpha1, _, _ = heis6
    d_alpha = exterior_derivative(alpha1)
    half = presentation.scalar("1/2")
    for a in range(presentation.dim):
        for b in range(presentation.dim):
            x = presentation.frame_field(a)
            y = presentation.frame_field(b)
            direct = half * (x.apply(eval_form(alpha1, y))
                             - y.apply(eval_form(alpha1, x))
                             - eval_form(alpha1, bracket(x, y)))
            assert eval_form(d_alpha, x, y) == direct


def test_wedge_antisymmetry_and_square(heis6):
    presentation, alpha1, alpha2, _ = heis6
    assert (wedge(alpha1, alpha2) + wedge(alpha2, alpha1)).is_zero()
    assert wedge(alpha1, alpha1).is_zero()


def test_wedge_associativity(heis6):
    presentation, alpha1, alpha2, _ = heis6
    d1 = exterior_derivative(alpha1)
    lhs = wedge(wedge(alpha1, alpha2), d1)
    rhs = wedge(alpha1, wedge(alpha2, d1))
    assert (lhs - rhs).is_zero()


def test_eval_form_is_alternating(heis6):
    presentation, alpha1, _, _ = heis6
    d_alpha = exterior_derivative(alpha1)
    x = presentation.frame_field(0) + presentation.frame_field(3)
    assert eval_form(d_alpha, x, x).is_zero()


def test_cartan_class_and_degeneracy(heis6):
    presentation, alpha1, alpha2, _ = heis6
    assert cartan_class(alpha1) == 3
    assert cartan_class(alpha2) == 3
    assert form_power(exterior_derivative(alpha1), 2).is_zero()


# -- Levi-Civita connection --------------------------------------------

def test_connection_is_torsion_free(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    for a in range(presentation.dim):
        for b in range(a + 1, presentation.dim):
            x = presentation.frame_field(a)
            y = presentation.frame_field(b)
            torsion = conn.nabla(x, y) - conn.nabla(y, x) - bracket(x, y)
            assert torsion.is_zero()


def test_connection_is_metric(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    for a in range(presentation.dim):
        x = presentation.frame_field(a)
        for b in range(presentation.dim):
            for c in range(b, presentation.dim):
                y = presentation.frame_field(b)
                w = presentation.frame_field(c)
                residual = (x.apply(metric.pair(y, w))
                            - metric.pair(conn.nabla(x, y), w)
                            - metric.pair(y, conn.nabla(x, w)))
                assert residual.is_zero()


def test_first_bianchi_identity(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    fields = [presentation.frame_field(a) for a in (0, 1, 2, 4)]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            for k in range(j + 1, len(fields)):
                x, y, w = fields[i], fields[j], fields[k]
                total = (conn.curvature(x, y, w) + conn.curvature(y, w, x)
                         + conn.curvature(w, x, y))
                assert total.is_zero()


def test_curvature_is_tensorial(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    f = presentation.scalar("x^2 + 3")
    x = presentation.frame_field(0)
    y = presentation.frame_field(1)
    w = presentation.frame_field(4)
    assert conn.curvature(x.scale(f), y, w) \
        == conn.curvature(x, y, w).scale(f)
    assert conn.curvature(x, y, w.scale(f)) \
        == conn.curvature(x, y, w).scale(f)


def test_curvature_antisymmetry(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    x = presentation.frame_field(0)
    y = presentation.frame_field(2)
    w = presentation.frame_field(3)
    assert (conn.curvature(x, y, w) + conn.curvature(y, x, w)).is_zero()


def test_reeb_field_is_killing(heis6):
    presentation, _, _, metric = heis6
    conn = levi_civita(metric)
    assert is_killing(presentation.frame_field(2), conn)
    assert not is_killing(presentation.frame_field(0), conn)


# -- presentation guards and probes ------------------------------------

def test_singular_frame_rejected():
    with pytest.raises(FrameError):
        FramePresentation(["x", "y"], [["1", "1"], ["1", "1"]],
                          {"x": 0, "y": 0})


def test_frame_singular_at_base_rejected():
    with pytest.raises(FrameError):
        FramePresentation(["x", "y"], [["x", "0"], ["0", "1"]],
                          {"x": 0, "y": 0})


def test_missing_base_coordinate_rejected():
    with pytest.raises(FrameError):
        FramePresentation(["x", "y"], [["1", "0"], ["0", "1"]], {"x": 0})


def test_probe_points_are_deterministic_and_regular(heis6):
    presentation, _, _, _ = heis6
    first = seeded_probe_points(presentation, seed=3)
    second = seeded_probe_points(presentation, seed=3)
    assert first == second
    assert all(presentation.is_regular_at(p) for p in first)
    assert seeded_probe_points(presentation, seed=4) != first


def test_nonvanishing_certificate(heis6):
    presentation, _, _, _ = heis6
    points = seeded_probe_points(presentation)
    constant = presentation.scalar("2")
    positive = presentation.scalar("x^2 + 1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nonvanishing_certificate("const", [constant], points)
        assert nonvanishing_certificate("positive", [positive], points)
    # a value engineered to vanish at the first probe point
    x0 = points[0]["x"]
    killed = presentation.scalar("x") - presentation.scalar(x0)
    with pytest.warns(ChartDomainWarning):
        assert not nonvanishing_certificate("killed", [killed], points)


def test_poles_are_irregular_and_other_errors_propagate():
    presentation = FramePresentation(["x", "y"], [["1/(x - 1)", "0"],
                                                  ["0", "1"]],
                                     {"x": 0, "y": 0})
    assert presentation.is_regular_at({"x": 2, "y": 0})
    assert not presentation.is_regular_at({"x": 1, "y": 0})
    with pytest.raises(ValueError):
        presentation.is_regular_at({"x": "not a number", "y": 0})
    values = [presentation.scalar("x - 1"), presentation.scalar("1/(x - 1)")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a pole skips the probe: neither a vanishing nor an error, and a
        # family checked at no probe point is not certified nonzero
        assert not nonvanishing_certificate("pole", values,
                                            [{"x": 1, "y": 0}])
        assert nonvanishing_certificate("pole", values,
                                        [{"x": 1, "y": 0}, {"x": 2, "y": 0}])
    with pytest.raises(ValueError):
        nonvanishing_certificate("malformed", values,
                                 [{"x": "not a number", "y": 0}])
