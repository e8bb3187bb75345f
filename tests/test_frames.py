import json
import os
import warnings
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contact_pair_lab import (CORPUS_NAMES, Subframe, corpus_build, linalg,
                              run_checks)
from contact_pair_lab import frames
from contact_pair_lab.frames import (ChartDomainWarning, EndoField,
                                     FrameError, FramePresentation,
                                     LeviCivita, MetricField, _polynomial,
                                     cartan_class, eval_form,
                                     exterior_derivative, form_power,
                                     is_killing, nonvanishing_certificate,
                                     one_form, pole_polynomial,
                                     seeded_probe_points, wedge)
from contact_pair_lab.frames import bracket
from contact_pair_lab.scalars import ScalarError, ScalarExpr, parse_expr
from conftest import (FOUR_FIELD_GAUGE, ambient_field, certify_jacobi,
                      curvature, gauged_heis6, sample_fields,
                      twisted_heis6, twisted_phi_structure)


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
    assert ambient_field(sub, bracket(x, y)) == \
        bracket(ambient_field(sub, x), ambient_field(sub, y))


def _presentation_scenarios(heis6_scenario):
    return [corpus_build(name) for name in CORPUS_NAMES] + [
        gauged_heis6(heis6_scenario)]


def test_a_presentation_reduces_its_frame_once(heis6_scenario, monkeypatch):
    widths = []
    reduce_rows = linalg.row_reduce

    def counted(matrix, width):
        widths.append(width)
        return reduce_rows(matrix, width)

    monkeypatch.setattr(linalg, "row_reduce", counted)
    for scenario in _presentation_scenarios(heis6_scenario):
        widths.clear()
        presentation = scenario.presentation()
        assert widths == [presentation.dim], scenario.name


def test_the_regularity_polynomial_is_the_determinant_times_the_poles(
        heis6_scenario):
    # the determinant of the frame reduced alone: the pivots of
    # [frame | I] depend only on the frame
    for scenario in _presentation_scenarios(heis6_scenario):
        presentation = scenario.presentation()
        frame = presentation.frame
        expected = _polynomial(linalg.determinant(frame).num,
                               presentation.coordinates) \
            * pole_polynomial(frame)
        assert presentation._regularity == expected, scenario.name
        assert presentation.coframe == linalg.invert(frame), scenario.name


def test_jacobi_certificate_rejects_a_corrupted_table():
    # e_3 = x d/dw: the cyclic sum on (0, 1, 2) cancels only between the
    # derivative term e_1(C^3_20) = -1/x and the product C^3_12 C^3_03 = 1/x,
    # so building this frame already needs both kinds of term
    coords = ["x", "y", "z", "w"]
    presentation = FramePresentation(
        coords, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "x*y", "x"]],
        {"x": 1, "y": 0, "z": 0, "w": 0})
    comps = list(presentation.frame_bracket(1, 2).components)
    assert comps[3] == presentation.one
    comps[3] = presentation.scalar("2")
    presentation._structure[(1, 2)] = presentation.vector(comps)
    presentation._structure[(2, 1)] = -presentation.vector(comps)
    with pytest.raises(FrameError, match="Jacobi"):
        certify_jacobi(presentation)


# every corpus scenario, the two larger Darboux products and heis6 in the
# four-field gauge, whose bracket coefficients are not constant
PRESENTATIONS = CORPUS_NAMES + ("darboux-2-1", "darboux-2-2",
                                "heis6-gauged4")


@pytest.fixture(scope="module")
def presentations(heis6_scenario):
    built = {name: corpus_build(name) for name in CORPUS_NAMES}
    built["darboux-2-1"] = corpus_build("darboux", (2, 1))
    built["darboux-2-2"] = corpus_build("darboux", (2, 2))
    built["heis6-gauged4"] = gauged_heis6(heis6_scenario, FOUR_FIELD_GAUGE)
    return {name: scenario.presentation() for name, scenario in built.items()}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_the_bracket_table_satisfies_jacobi(presentations, name):
    certify_jacobi(presentations[name])


WHOLE_FRAME = {
    "heis6": lambda heis6: heis6,
    "heis6-gauged4": lambda heis6: gauged_heis6(heis6, FOUR_FIELD_GAUGE),
    "darboux-2-1": lambda heis6: corpus_build("darboux", (2, 1)),
}


@pytest.mark.parametrize("name", WHOLE_FRAME)
def test_a_subframe_of_every_frame_field_shares_the_table(heis6_scenario,
                                                          name):
    # the presentation's C is read back from chart brackets with the
    # coframe, the subframe's from presentation brackets by span
    # membership; both must give one table
    scenario = WHOLE_FRAME[name](heis6_scenario)
    presentation = scenario.presentation()
    n = presentation.dim
    sub = Subframe(presentation,
                   [presentation.frame_field(a) for a in range(n)],
                   scenario.metric_field(), "whole frame")
    assert all(sub.frame_bracket(a, b).components
               == presentation.frame_bracket(a, b).components
               for a in range(n) for b in range(n))
    certify_jacobi(sub)


def test_sparse_endomorphism_apply_matches_the_dense_product(
        heis6_scenario):
    presentation = heis6_scenario.presentation()
    n = presentation.dim
    twisted = twisted_phi_structure(heis6_scenario)
    fields = list(sample_fields(presentation)) + [
        presentation.vector(["0"] * n),
        presentation.vector(["x", "1", "z^2", "-2", "v", "y*w"])]
    # a frame field's products are unit shortcuts; a single non-unit
    # component goes through the general product
    frame_fields = [presentation.frame_field(a) for a in range(n)] + [
        presentation.frame_field(0).scale(presentation.scalar("2*x"))]
    for endo in (twisted, heis6_scenario.phi_endo()):
        for x in fields + frame_fields:
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

@pytest.fixture(params=["heis6", "gauged"])
def connection_metric(request, heis6_scenario):
    """heis6's metric, and the default-gauged one, whose Gram matrix is not
    constant: there the derivative terms e_a(g_bc) of the Koszul formula do
    not vanish."""
    if request.param == "gauged":
        return gauged_heis6(heis6_scenario).metric_field()
    return heis6_scenario.metric_field()


def test_connection_is_torsion_free(connection_metric):
    metric = connection_metric
    presentation = metric.frame
    conn = LeviCivita(metric)
    for a in range(presentation.dim):
        for b in range(a + 1, presentation.dim):
            x = presentation.frame_field(a)
            y = presentation.frame_field(b)
            torsion = conn.nabla(x, y) - conn.nabla(y, x) - bracket(x, y)
            assert torsion.is_zero()


def test_connection_is_metric(connection_metric):
    metric = connection_metric
    presentation = metric.frame
    conn = LeviCivita(metric)
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
    conn = LeviCivita(metric)
    fields = [presentation.frame_field(a) for a in (0, 1, 2, 4)]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            for k in range(j + 1, len(fields)):
                x, y, w = fields[i], fields[j], fields[k]
                total = (curvature(conn, x, y, w) + curvature(conn, y, w, x)
                         + curvature(conn, w, x, y))
                assert total.is_zero()


def test_curvature_is_tensorial(heis6):
    presentation, _, _, metric = heis6
    conn = LeviCivita(metric)
    f = presentation.scalar("x^2 + 3")
    x = presentation.frame_field(0)
    y = presentation.frame_field(1)
    w = presentation.frame_field(4)
    assert curvature(conn, x.scale(f), y, w) \
        == curvature(conn, x, y, w).scale(f)
    assert curvature(conn, x, y, w.scale(f)) \
        == curvature(conn, x, y, w).scale(f)


def test_curvature_antisymmetry(heis6):
    presentation, _, _, metric = heis6
    conn = LeviCivita(metric)
    x = presentation.frame_field(0)
    y = presentation.frame_field(2)
    w = presentation.frame_field(3)
    assert (curvature(conn, x, y, w) + curvature(conn, y, x, w)).is_zero()


def test_reeb_field_is_killing(heis6):
    presentation, _, _, metric = heis6
    conn = LeviCivita(metric)

    def nabla(z):
        return EndoField.from_fields(presentation, [
            conn.nabla(presentation.frame_field(a), z)
            for a in range(presentation.dim)])

    assert is_killing(nabla(presentation.frame_field(2)), metric)
    assert not is_killing(nabla(presentation.frame_field(0)), metric)


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


# points drawn while regularity was the rank of the evaluated frame; a
# change to the point test must keep every candidate's verdict
PINNED_PROBES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data", "probe_points.json")


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("name", ("heis6", "darboux-2-2", "heis6-gauged4"))
def test_probe_points_are_pinned(presentations, name, seed):
    with open(PINNED_PROBES, encoding="utf-8") as fh:
        pinned = json.load(fh)[f"{name}/{seed}"]
    assert seeded_probe_points(presentations[name], seed=seed) == [
        {coord: Fraction(value) for coord, value in point.items()}
        for point in pinned]


def _evaluated_frame_is_regular(frame, point):
    """Reference regularity: every entry defined at the point, and the
    evaluated matrix of full rank."""
    try:
        values = [[entry.evaluate(point) for entry in row] for row in frame]
    except ScalarError:
        return False
    return linalg.rational_rank(values) == len(frame)


_COORDS = ("x", "y", "z")
_small = st.integers(-2, 2)


def _frame_case(n):
    # three-dimensional frames depend on x alone: with poles in all three
    # coordinates, building the coframe and the bracket table can take
    # minutes, and the property is about the point test only
    coords = st.sampled_from(_COORDS[:2] if n == 2 else _COORDS[:1])
    numerator = st.builds(lambda a, b, v: f"{a} + {b}*{v}", _small, _small,
                          coords)
    denominator = st.one_of(st.just("1"), st.builds(
        lambda k, v: f"({v} - {k})", _small, coords))
    entry = st.builds(lambda num, den: f"({num})/{den}", numerator,
                      denominator)
    square = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    points = st.lists(st.lists(_small, min_size=n, max_size=n),
                      min_size=2, max_size=6)
    return st.tuples(square, points)


@settings(max_examples=80, deadline=None)
@given(case=st.integers(2, 3).flatmap(_frame_case))
@example(case=([["1/(x - 1)", "0"], ["0", "x - 1"]], [[2, 0], [1, 0]]))
def test_regularity_matches_the_evaluated_rank(case):
    # [[1/(x - 1), 0], [0, x - 1]] has determinant 1, yet its entries have
    # a pole at x = 1
    rows, raw_points = case
    coords = _COORDS[:len(rows)]
    frame = [[parse_expr(text, coords) for text in row] for row in rows]
    assume(not linalg.determinant(frame).is_zero())
    points = [dict(zip(coords, map(Fraction, p))) for p in raw_points]
    regular = [_evaluated_frame_is_regular(frame, p) for p in points]
    if not regular[0]:
        with pytest.raises(FrameError, match="at the base point"):
            FramePresentation(coords, rows, points[0])
        return
    presentation = FramePresentation(coords, rows, points[0])
    assert [presentation.is_regular_at(p) for p in points] == regular


def _leading_minors_are_positive(gram):
    """Sylvester's criterion, each leading minor by the Leibniz formula."""
    def det(m):
        total = Fraction(0)
        for perm in permutations(range(len(m))):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(m))
                               for j in range(i + 1, len(m)))
            term = Fraction(sign)
            for i, j in enumerate(perm):
                term *= m[i][j]
            total += term
        return total
    return all(det([row[:k] for row in gram[:k]]) > 0
               for k in range(1, len(gram) + 1))


# name: (Gram matrix, whether it is positive definite at the base point)
GRAMS = {
    "positive definite": (
        [["2", "1", "0"], ["1", "2", "1"], ["0", "1", "2"]], True),
    "x-dependent, positive definite at the base point": (
        [["2 + x", "x", "0"], ["x", "1 + x^2", "0"], ["0", "0", "1"]], True),
    "D1 > 0 > D2": (
        [["1", "2", "0"], ["2", "1", "0"], ["0", "0", "1"]], False),
    "zero leading pivot": (
        [["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]], False),
    "negative last pivot": (
        [["1", "0", "0"], ["0", "1", "2"], ["0", "2", "1"]], False),
}


@pytest.mark.parametrize("name", GRAMS)
def test_positive_definiteness_matches_the_leading_minors(name):
    presentation = FramePresentation(
        _COORDS, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        {"x": 0, "y": 0, "z": 0})
    gram, definite = GRAMS[name]
    values = [[parse_expr(text, _COORDS).evaluate(presentation.base_point)
               for text in row] for row in gram]
    assert _leading_minors_are_positive(values) == definite
    if definite:
        MetricField(presentation, gram)
    else:
        with pytest.raises(FrameError, match="metric is not positive "
                                             "definite at the base point"):
            MetricField(presentation, gram)


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


def test_a_nonzero_constant_member_certifies_without_probing(heis6,
                                                            monkeypatch):
    presentation, _, _, _ = heis6
    points = seeded_probe_points(presentation)
    family = [presentation.scalar("x"), presentation.scalar("2")]

    def unreachable(self, point):
        raise AssertionError("a family with a nonzero constant was probed")

    monkeypatch.setattr(ScalarExpr, "evaluate", unreachable)
    assert nonvanishing_certificate("constant member", family, points)
    assert nonvanishing_certificate("constant member", family[::-1], points)


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
        # a nonzero constant member certifies the family in either order,
        # also where every other member has a pole
        with_constant = [values[1], presentation.scalar("3")]
        for family in (with_constant, with_constant[::-1]):
            assert nonvanishing_certificate("pole", family,
                                            [{"x": 1, "y": 0}])
    with pytest.raises(ValueError):
        nonvanishing_certificate("malformed", values,
                                 [{"x": "not a number", "y": 0}])


@pytest.mark.parametrize("make", [
    lambda: gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE),
    twisted_heis6], ids=["heis6-gauged4", "heis6-twisted"])
def test_each_direction_is_differentiated_once(monkeypatch, make):
    """A verify pass asks for the same e_a(f) again and again (about 4.4
    times each on the nonconstant workload); each frame keeps what it
    computed, so the chart differentiates at most once per distinct
    (context, a, f) that some context was asked for."""
    run_checks(make(), seed=1)
    asked, differentiated = set(), []
    for cls in (frames.FrameContext, frames._Chart):
        def spy(self, a, f, _direction=cls.direction):
            if not f.is_constant():
                asked.add((id(self), a, f))
            return _direction(self, a, f)
        monkeypatch.setattr(cls, "direction", spy)
    differentiate = ScalarExpr.differentiate

    def counted(self, coord):
        differentiated.append((self, coord))
        return differentiate(self, coord)

    monkeypatch.setattr(ScalarExpr, "differentiate", counted)
    run_checks(make(), seed=1)
    assert asked and len(differentiated) <= len(asked), \
        (len(differentiated), len(asked))
