import dataclasses
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest

from contact_pair_lab import (EndoField, MetricField, corpus_build,
                              scenario_to_dict, validate_contact_pair,
                              validate_metric, validate_structure)
from contact_pair_lab.corpus import _cells
from contact_pair_lab.frames import (FrameError, PForm, bracket,
                                     exterior_derivative,
                                     nonvanishing_certificate, wedge)
from contact_pair_lab.scalars import (PoleError, ScalarError, _grlex_key,
                                      parse_expr)


# -- helpers that only the tests read ----------------------------------

def evaluate_float(expr, point):
    """The value of a ScalarExpr at a point of floats, in floating point."""
    values = [float(point[v]) for v in expr.vars]

    def ev(terms):
        total = 0.0
        for exp, coeff in terms.items():
            term = float(coeff)
            for val, e in zip(values, exp):
                if e:
                    term *= val ** e
            total += term
        return total

    den = ev(expr.den)
    if den == 0.0:
        raise PoleError(f"pole at {dict(point)}")
    return ev(expr.num) / den


def exact_div_reference(a, b):
    """The quotient a / b in Z[x] by the plain division loop, which finds
    the remainder's leading term by a scan at every step; raises
    ScalarError unless b divides a with an integer quotient."""
    lead_b = max(b, key=_grlex_key)
    lc_b = b[lead_b]
    tail = [(exp, coeff) for exp, coeff in b.items() if exp != lead_b]
    quotient = {}
    rem = dict(a)
    while rem:
        lead_r = max(rem, key=_grlex_key)
        exp = tuple(e - f for e, f in zip(lead_r, lead_b))
        coeff, inexact = divmod(rem.pop(lead_r), lc_b)
        if inexact or any(e < 0 for e in exp):
            raise ScalarError("inexact polynomial division")
        quotient[exp] = coeff
        for eb, cb in tail:
            key = tuple(e + f for e, f in zip(exp, eb))
            new = rem.get(key, 0) - coeff * cb
            if new:
                rem[key] = new
            else:
                del rem[key]
    return quotient


def constant_value(expr):
    """The Fraction a constant ScalarExpr stands for."""
    if not expr.is_constant():
        raise ScalarError("not a constant expression")
    if not expr.num:
        return Fraction(0)
    zero = (0,) * len(expr.vars)
    return Fraction(expr.num[zero], expr.den[zero])


def canonical_equal(scenario, other):
    """Equality of two scenarios up to canonical form of every
    expression."""
    if (scenario.name, scenario.pair_type, scenario.coordinates,
            sorted(scenario.submanifolds), scenario.expectations) != \
            (other.name, other.pair_type, other.coordinates,
             sorted(other.submanifolds), other.expectations):
        return False
    if {k: Fraction(v) for k, v in scenario.base_point.items()} != \
            {k: Fraction(v) for k, v in other.base_point.items()}:
        return False
    variables = tuple(scenario.coordinates)
    # a path missing on one side pairs with None, so shapes must match
    return all(
        mine[0] == theirs[0] and parse_expr(str(mine[1]), variables)
        == parse_expr(str(theirs[1]), variables)
        for mine, theirs in zip_longest(
            _cells(scenario_to_dict(scenario)),
            _cells(scenario_to_dict(other)), fillvalue=(None, None)))


def ambient_field(sub, v):
    """Ambient components of a field given in the components of the
    subframe ``sub``."""
    out = None
    for a, fa in enumerate(sub.fields):
        term = fa.scale(v.components[a])
        out = term if out is None else out + term
    return out


def curvature(conn, x, y, w):
    """R_{XY}W = nabla_X nabla_Y W - nabla_Y nabla_X W - nabla_[X,Y] W."""
    return (conn.nabla(x, conn.nabla(y, w))
            - conn.nabla(y, conn.nabla(x, w))
            - conn.nabla(bracket(x, y), w))


def nabla_endo_reference(conn, a, endo):
    """(nabla_{e_a} A) e_b for every b, as nabla_{e_a}(A e_b) - A(nabla_{e_a}
    e_b): one covariant derivative and one application per b."""
    ea = conn.frame.frame_field(a)
    return [conn.nabla(ea, endo.column(b)) - endo.apply(conn.gamma[a][b])
            for b in range(conn.frame.dim)]


def nijenhuis_reference(endo):
    """Nijenhuis tensor of an endomorphism field on frame pairs a < b, by
    its brackets: [A, A](X, Y) = A^2 [X, Y] - A [AX, Y] - A [X, AY]
    + [AX, AY]."""
    frame = endo.frame
    fields = [frame.frame_field(a) for a in range(frame.dim)]
    images = [endo.column(a) for a in range(frame.dim)]
    out = {}
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            ea, eb = fields[a], fields[b]
            a_ea, a_eb = images[a], images[b]
            e_ab = frame.frame_bracket(a, b)
            out[(a, b)] = (endo.apply(endo.apply(e_ab))
                           - endo.apply(bracket(a_ea, eb))
                           - endo.apply(bracket(ea, a_eb))
                           + bracket(a_ea, a_eb))
    return out


def row_reduce_reference(matrix, width):
    """Gauss-Jordan elimination over the first ``width`` columns on dense
    rows, with the pivot rule of ``linalg.row_reduce``: the reduced rows,
    the pivot columns, the pivot values and the number of swaps."""
    m = [list(row) for row in matrix]
    rows = len(m)
    pivots, values, swaps = [], [], 0
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        value = m[r][c]
        m[r] = [entry / value for entry in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        values.append(value)
    return m, pivots, values, swaps


def form_power_reference(form, p):
    """F^p by p wedges onto the 0-form 1."""
    power = PForm(form.context, 0, {(): form.context.one})
    for _ in range(p):
        power = wedge(power, form)
    return power


def is_type_reference(alpha1, alpha2, d1, d2, h, k):
    """Whether forms with exterior derivatives d1, d2 have type (h, k):
    alpha1 ^ d1^h ^ alpha2 ^ d2^k is nonzero, and d1^(h+1) and d2^(k+1)
    vanish where their degree fits."""
    n = alpha1.context.dim
    volume = wedge(wedge(wedge(alpha1, form_power_reference(d1, h)), alpha2),
                   form_power_reference(d2, k))
    return not volume.is_zero() and all(
        2 * (p + 1) > n or form_power_reference(d, p + 1).is_zero()
        for d, p in ((d1, h), (d2, k)))


def cartan_class_reference(alpha, d_alpha, points, label):
    """The Cartan class of alpha by climbing the powers of d alpha one
    wedge at a time, and the probe text of its witness, alpha ^ (d alpha)^r
    for class 2r + 1 and (d alpha)^r for class 2r."""
    context = alpha.context
    n = context.dim
    power = PForm(context, 0, {(): context.one})
    r = 0
    while 2 * (r + 1) <= n and not wedge(power, d_alpha).is_zero():
        power = wedge(power, d_alpha)
        r += 1
    top = wedge(alpha, power) if 2 * r + 1 <= n else PForm(context, 0, {})
    cls, witness = (2 * r + 1, top) if not top.is_zero() else (2 * r, power)
    return cls, nonvanishing_certificate(
        f"Cartan-class witness of {label}", list(witness.coeffs.values()),
        points)[1]


def induced_pair_reference(sub, alpha1, alpha2, points):
    """(ok, witness, probe) of the induced-pair verdict by trying every
    type (h, k) of the span's dimension."""
    r = sub.dim
    d1, d2 = exterior_derivative(alpha1), exterior_derivative(alpha2)
    (c1, probe1), (c2, probe2) = (
        cartan_class_reference(alpha1, d1, points, "first induced form"),
        cartan_class_reference(alpha2, d2, points, "second induced form"))
    classes, probe = (c1, c2), "; ".join(t for t in (probe1, probe2) if t)
    if r % 2 == 1 or r < 2:
        return False, f"dimension {r} is odd; classes {classes}", probe
    for h in range((r - 2) // 2 + 1):
        k = (r - 2) // 2 - h
        if is_type_reference(alpha1, alpha2, d1, d2, h, k):
            return True, f"type ({h},{k}); classes {classes}", probe
    return False, f"no admissible type; classes {classes}", probe


def build_mcp(scenario):
    presentation = scenario.presentation()
    alpha1, alpha2 = scenario.forms()
    pair = validate_contact_pair(presentation, alpha1, alpha2,
                                 *scenario.pair_type)
    structure = validate_structure(pair, scenario.phi_endo(),
                                   metric=scenario.metric_field())
    return validate_metric(structure, scenario.metric_field())


def certify_jacobi(context):
    """Certify sum_cyc [e_x, [e_y, e_z]] = 0 on the structure table.

    In frame components the d-th component of [e_x, [e_y, e_z]] is
    e_x(C^d_yz) + sum_e C^e_yz C^d_xe, so this holds exactly when the
    table C agrees with the derivations e_a that every stage uses together
    with it.  Any frame context will do: C comes from the one bracket of
    its fields, taken in the parent's components, so only a fault in that
    arithmetic makes this fail.
    """
    n = context.dim
    for a, b, c in combinations(range(n), 3):
        total = [context.zero] * n
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = context.frame_bracket(y, z).components
            for d in range(n):
                total[d] = total[d] + context.direction(x, inner[d])
            for e, coeff in enumerate(inner):
                if coeff.is_zero():
                    continue
                outer = context.frame_bracket(x, e).components
                for d in range(n):
                    total[d] = total[d] + coeff * outer[d]
        if any(not t.is_zero() for t in total):
            raise FrameError(
                f"Jacobi identity fails on frame triple ({a},{b},{c})")


@pytest.fixture(scope="session")
def heis6_scenario():
    return corpus_build("heis6")


@pytest.fixture(scope="session")
def heis6_mcp(heis6_scenario):
    return build_mcp(heis6_scenario)


@pytest.fixture(scope="session")
def darboux_scenario():
    return corpus_build("darboux", (1, 1))


@pytest.fixture(scope="session")
def darboux_mcp(darboux_scenario):
    return build_mcp(darboux_scenario)


def perturbed_phi_structure(scenario):
    """heis6 with the sign of the endomorphism flipped on the second
    horizontal block; still a valid contact pair structure, but the
    corpus metric is no longer associated."""
    presentation = scenario.presentation()
    rows = [[presentation.scalar(text) for text in row]
            for row in scenario.phi]
    rows[3][4] = -rows[3][4]
    rows[4][3] = -rows[4][3]
    return EndoField(presentation, rows)


def twisted_phi_structure(scenario):
    """heis6 with the first horizontal block rotated by a matrix that
    depends on the vertical coordinate; the structure axioms still hold
    but the normality tensor no longer vanishes."""
    presentation = scenario.presentation()
    z = presentation.scalar("z")
    one = presentation.one
    rows = [[presentation.scalar(text) for text in row]
            for row in scenario.phi]
    rows[0][0] = z
    rows[1][0] = one
    rows[0][1] = -(one + z * z)
    rows[1][1] = -z
    return EndoField(presentation, rows)


def twisted_heis6():
    """heis6 with the twisted phi of ``twisted_phi_structure``, as texts."""
    scenario = corpus_build("heis6")
    phi = twisted_phi_structure(scenario)
    scenario.phi = [[str(entry) for entry in row] for row in phi.matrix]
    scenario._cache.clear()
    return scenario


def volume_probe_heis6():
    """heis6 with alpha_1 scaled by x + 5/9: the volume form vanishes at
    the first probe point at seed 1, where the pair is not a contact pair."""
    scenario = corpus_build("heis6")
    scenario.alpha1 = [text if text == "0" else f"({text})*(x + 5/9)"
                       for text in scenario.alpha1]
    return scenario


def scaled_metric(scenario):
    """heis6 Gram matrix with the first horizontal block scaled by 2;
    the result is a Riemannian metric that is not associated."""
    presentation = scenario.presentation()
    values = (Fraction(1), Fraction(1), Fraction(1),
              Fraction(1, 2), Fraction(1, 2), Fraction(1))
    gram = [[Fraction(0)] * 6 for _ in range(6)]
    for a, value in enumerate(values):
        gram[a][a] = value
    return MetricField(presentation, gram)


def mixed_phi_structure(scenario):
    """heis6 with an endomorphism that pairs e_0 with e_4 and e_1 with
    e_3, across the two factors; phi squared is still -1 on the
    horizontal fields, but TF1 and TF2 are no longer phi-invariant."""
    presentation = scenario.presentation()
    one = presentation.one
    rows = [[presentation.zero] * 6 for _ in range(6)]
    rows[4][0] = one
    rows[0][4] = -one
    rows[3][1] = one
    rows[1][3] = -one
    return EndoField(presentation, rows)


def skew_metric(scenario):
    """heis6 Gram matrix with g(e_0, e_3) = 1/4; still Riemannian, but
    H1 and H2 are no longer orthogonal."""
    gram = [[Fraction(0)] * 6 for _ in range(6)]
    for a, value in enumerate((Fraction(1, 2), Fraction(1, 2), Fraction(1),
                               Fraction(1, 2), Fraction(1, 2), Fraction(1))):
        gram[a][a] = value
    gram[0][3] = gram[3][0] = Fraction(1, 4)
    return MetricField(scenario.presentation(), gram)


def darboux_perturbed_phi(scenario):
    """darboux (2,2) with the sign of phi flipped on the block of e_0 and
    e_2, as ``perturbed_phi_structure`` does on heis6: still a contact pair
    structure, but the metric is no longer associated."""
    presentation = scenario.presentation()
    rows = [[presentation.scalar(text) for text in row]
            for row in scenario.phi]
    rows[2][0] = -rows[2][0]
    rows[0][2] = -rows[0][2]
    return EndoField(presentation, rows)


def darboux_mixed_phi(scenario):
    """darboux (2,2) with a phi that pairs each horizontal field of one
    factor with one of the other, as ``mixed_phi_structure`` does on
    heis6."""
    presentation = scenario.presentation()
    rows = [[presentation.zero] * 10 for _ in range(10)]
    for a, b in ((7, 0), (8, 1), (5, 2), (6, 3)):
        rows[a][b] = presentation.one
        rows[b][a] = -presentation.one
    return EndoField(presentation, rows)


def darboux_skew_metric(scenario):
    """darboux (2,2) with g(e_0, e_5) = 1/8 across the factors; still
    Riemannian, but H1 and H2 are no longer orthogonal."""
    gram = [[Fraction(0)] * 10 for _ in range(10)]
    for a in range(10):
        gram[a][a] = Fraction(1) if a in (4, 9) else Fraction(1, 4)
    gram[0][5] = gram[5][0] = Fraction(1, 8)
    return MetricField(scenario.presentation(), gram)


# the four horizontal heis6 fields rescaled by 1 + c t^2, each in its own
# coordinate; unlike e_1 alone, this frame has gcds that no trial division
# settles
FOUR_FIELD_GAUGE = {0: "1 + 2*x^2", 1: "1 + 1/4*y^2", 3: "1 + 1/4*u^2",
                    4: "1 + v^2"}


def gauged_heis6(scenario, factors={1: "1 + x^2"}):
    """heis6 in the frame e'_a = s_a e_a, with the factors s_a given by
    field index (by default e_1 rescaled by 1 + x^2), where
    phi'^a_b = phi^a_b s_b / s_a and g'_ab = s_a s_b g_ab.  Its bracket
    coefficients are not constant and [e_0, e_1] leaves the Reeb
    directions."""
    s = ["1"] * len(scenario.frame)
    for a, factor in factors.items():
        s[a] = f"({factor})"

    def scaled(rows, factor):
        return [[entry if entry == "0" else f"({entry})*{factor(a, b)}"
                 for b, entry in enumerate(row)]
                for a, row in enumerate(rows)]

    frame = scaled(scenario.frame, lambda i, a: s[a])
    phi = scaled(scenario.phi, lambda a, b: f"{s[b]}/{s[a]}")
    metric = scaled(scenario.metric, lambda a, b: f"{s[a]}*{s[b]}")
    return dataclasses.replace(scenario, name="heis6-gauged", frame=frame,
                               phi=phi, metric=metric, submanifolds={},
                               expectations={})


def sample_fields(presentation):
    """Two fields with non-constant components and some zero ones."""
    x = presentation.vector(["1 + x^2", "0", "0", "y", "0", "1"])
    y = presentation.vector(["0", "z", "(1 + x^2)*w", "0", "u*v", "0"])
    return x, y
