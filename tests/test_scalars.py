import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contact_pair_lab import scalars
from contact_pair_lab.scalars import (DivisionByZero, ParseError, PoleError,
                                      ScalarError, ScalarExpr, parse_expr)
from conftest import (constant_value, differentiate_reference, evaluate_float,
                      exact_div_reference)

VARS = ("x", "y")


def sx(text):
    return parse_expr(text, VARS)


# -- strategies --------------------------------------------------------

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_atoms = st.one_of(
    _fractions.map(lambda q: ScalarExpr.constant(q, VARS)),
    st.sampled_from(VARS).map(lambda n: ScalarExpr.variable(n, VARS)))


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: ab[0] + ab[1]),
        pairs.map(lambda ab: ab[0] - ab[1]),
        pairs.map(lambda ab: ab[0] * ab[1]))


def _polys(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars),
                           st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3)


exprs = st.recursive(_atoms, _combine, max_leaves=8)
points = st.fixed_dictionaries({name: _fractions for name in VARS})

# Factors drawn into the numerator and the denominator of both operands,
# so that the operands of a product or a sum share nontrivial factors.
_SHARED = ("1", "x + 1", "1 + y^2", "(x + 1)*(1 + y^2)")
_factors = st.sampled_from(_SHARED).map(lambda text: parse_expr(text, VARS))
rationals = st.builds(lambda n, d, f, g: (n * f) / (d * g),
                      exprs, exprs.filter(lambda d: not d.is_zero()),
                      _factors, _factors)


# -- canonical form ----------------------------------------------------

def test_like_terms_collapse():
    assert sx("x + x") == sx("2*x")
    assert sx("x*y - y*x") == sx("0")
    assert sx("(x + y)^2") == sx("x^2 + 2*x*y + y^2")


def test_common_factors_cancel():
    assert sx("(x^2 - 1)/(x - 1)") == sx("x + 1")
    assert sx("(x^2*y + x*y^2)/(x*y)") == sx("x + y")


def test_monic_denominator_normalization():
    assert sx("1/(2*x)") == sx("(1/2)/x")
    assert sx("y/(-x)") == sx("-y/x")


def test_zero_and_constants():
    assert sx("0").is_zero()
    assert not sx("x").is_zero()
    assert constant_value(sx("3/4")) == Fraction(3, 4)
    with pytest.raises(Exception):
        constant_value(sx("x"))


# -- field axioms ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(exprs, exprs, exprs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(exprs)
def test_multiplicative_inverse(a):
    assume(not a.is_zero())
    one = ScalarExpr.constant(1, VARS)
    assert (a * (one / a)) == one


def _raw(a, b, op):
    """The cross-multiplied numerator and denominator of ``a op b``."""
    mul, add, neg = scalars._terms_mul, scalars._terms_add, scalars._terms_neg
    if op == "+":
        return add(mul(a.num, b.den), mul(b.num, a.den)), mul(a.den, b.den)
    if op == "-":
        return (add(mul(a.num, b.den), neg(mul(b.num, a.den))),
                mul(a.den, b.den))
    if op == "*":
        return mul(a.num, b.num), mul(a.den, b.den)
    return mul(a.num, b.den), mul(a.den, b.num)


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


# The operands that the operators return without arithmetic: zero on
# either side, and the unit 1 as a factor or divisor.
_TRIVIAL = ("0", "1")
_NONTRIVIAL = "-(x + 1)/(2 + 2*y^2)"


def _with_trivial_operands(test):
    """``test`` with an @example of every operator between a zero or unit
    operand and a nontrivial one, on each side."""
    for op in sorted(_OPERATORS):
        for trivial in _TRIVIAL:
            for a, b in ((trivial, _NONTRIVIAL), (_NONTRIVIAL, trivial)):
                if op != "/" or b != "0":
                    test = example(sx(a), sx(b), op)(test)
    return test


@_with_trivial_operands
@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.sampled_from(sorted(_OPERATORS)))
def test_arithmetic_matches_general_reduction(a, b, op):
    assume(op != "/" or not b.is_zero())
    results = [_OPERATORS[op](a, b)]
    # with a run's table open; the second time, an operation with an
    # operand of nonconstant denominator is answered by the table
    with scalars.cancellation_table():
        results += [_OPERATORS[op](a, b), _OPERATORS[op](a, b)]
    reference = ScalarExpr(VARS, *_raw(a, b, op))
    for result in results:
        assert result == reference
        assert hash(result) == hash(reference)
        assert str(result) == str(reference)


def test_trivial_operands_return_the_other_operand_itself():
    a, zero, one = sx(_NONTRIVIAL), sx("0"), sx("1")
    assert a + zero is a and zero + a is a and a - zero is a
    assert a * one is a and one * a is a and a / one is a
    assert a * zero is zero and zero * a is zero and zero / a is zero
    assert zero - a == -a


@pytest.mark.parametrize("op", sorted(_OPERATORS))
@pytest.mark.parametrize("left, right", [(t, _NONTRIVIAL) for t in _TRIVIAL]
                         + [(_NONTRIVIAL, t) for t in _TRIVIAL],
                         ids=["0-left", "1-left", "0-right", "1-right"])
def test_mixed_coordinates_raise_also_with_trivial_operands(op, left, right):
    a, b = sx(left), parse_expr(right, VARS + ("z",))
    with pytest.raises(ScalarError, match="mixed coordinate systems"):
        _OPERATORS[op](a, b)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        sx("x") / sx("0")


# -- evaluation --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(exprs, exprs, points)
def test_evaluate_is_a_homomorphism(a, b, point):
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_evaluate_reads_int_coordinates_as_fractions():
    expr = sx("(x^2 - 3*y)/(2*x + 1)")
    value = expr.evaluate({"x": 2, "y": 1})
    assert type(value) is Fraction
    assert value == expr.evaluate({"x": Fraction(2), "y": Fraction(1)}) \
        == Fraction(1, 5)
    assert type(sx("3").evaluate({"x": 2, "y": 1})) is Fraction


def test_evaluate_needs_every_coordinate():
    with pytest.raises(ScalarError, match="does not assign coordinate 'y'"):
        sx("x + y").evaluate({"x": Fraction(1)})


def test_evaluate_at_pole_raises():
    expr = sx("1/x")
    with pytest.raises(PoleError):
        expr.evaluate({"x": Fraction(0), "y": Fraction(1)})


@settings(max_examples=30, deadline=None)
@given(exprs, points)
def test_evaluate_float_matches_exact(a, point):
    exact = float(a.evaluate(point))
    approx = evaluate_float(a, {k: float(v) for k, v in point.items()})
    assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))


# -- differentiation ---------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_leibniz_rule(a, b):
    lhs = (a * b).differentiate("x")
    rhs = a.differentiate("x") * b + a * b.differentiate("x")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_mixed_partials_commute(a):
    assert a.differentiate("x").differentiate("y") \
        == a.differentiate("y").differentiate("x")


def test_quotient_rule():
    expr = sx("x/(y + 2)")
    assert expr.differentiate("y") == sx("-x/(y^2 + 4*y + 4)")


VARS3 = ("x", "y", "z")
_SYMBOLS = dict(zip(VARS3, sympy.symbols(VARS3)))


def _sympy_terms(terms):
    return sympy.Poly.from_dict(terms, *_SYMBOLS.values(),
                                domain=sympy.ZZ).as_expr()


@settings(max_examples=80, deadline=None)
@given(_polys(3), _polys(3), st.sampled_from(VARS3))
# a denominator free of the variable
@example({(1, 1, 0): 2, (0, 0, 1): -1}, {(0, 2, 1): 1, (0, 0, 0): 3}, "x")
# a scalar free of the variable
@example({(0, 1, 0): 1, (0, 0, 2): 1}, {(0, 1, 1): 2, (0, 0, 0): -1}, "x")
# a constant
@example({(0, 0, 0): -3}, {(0, 0, 0): 2}, "z")
def test_derivatives_match_sympy(num, den, var):
    a = ScalarExpr(VARS3, num, den)
    result = a.differentiate(var)
    assert result == differentiate_reference(a, var)
    expected = sympy.cancel(sympy.diff(
        _sympy_terms(num) / _sympy_terms(den), _SYMBOLS[var]))
    value = _sympy_terms(result.num) / _sympy_terms(result.den)
    assert sympy.cancel(value - expected) == 0


def test_a_derivative_free_of_its_variable_multiplies_nothing(monkeypatch):
    free, denominator_free, expected = (parse_expr(text, VARS3) for text in (
        "(y^2 + 1)/(z - 2)", "(x*y + 1)/(z^2 + 1)", "y/(z^2 + 1)"))
    calls = []
    terms_mul = scalars._terms_mul
    monkeypatch.setattr(scalars, "_terms_mul",
                        lambda a, b: calls.append(1) or terms_mul(a, b))
    zero = free.differentiate("x")
    assert zero.is_zero() and zero.const == (0, 1)
    # n'/d: no product, and the denominator is not squared
    assert denominator_free.differentiate("x") == expected
    assert calls == []


# -- parser ------------------------------------------------------------

def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        sx("x + ")
    assert isinstance(info.value.position, int)


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        sx("x + q")


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ParseError):
        sx("(x + y")


@settings(max_examples=80, deadline=None)
@given(exprs)
def test_print_parse_roundtrip(a):
    assert parse_expr(str(a), VARS) == a


def test_printing_special_forms_roundtrip():
    for text in ("x", "-x", "-1", "x - y", "1/2", "-x*y + 1", "x^3/y"):
        expr = sx(text)
        assert parse_expr(str(expr), VARS) == expr


def test_power_matches_repeated_product():
    expr = sx("x + y")
    assert expr ** 3 == expr * expr * expr
    assert expr ** 0 == ScalarExpr.constant(1, VARS)


# -- gcd certificates --------------------------------------------------

def _sympy_gcd(a, b):
    """The reference: sympy's gcd over ZZ, led by a positive grlex term."""
    gens = sympy.symbols(f"g0:{len(next(iter(a)))}")
    pa = sympy.Poly.from_dict(a, *gens, domain=sympy.ZZ)
    pb = sympy.Poly.from_dict(b, *gens, domain=sympy.ZZ)
    g = {e: int(c) for e, c in pa.gcd(pb).as_dict().items()}
    _, lc = scalars._leading(g)
    return g if lc > 0 else {e: -c for e, c in g.items()}


def _refuse_sympy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy gcd called")

    monkeypatch.setattr(sympy.Poly, "gcd", refuse)


_CERTIFIED = (("1 + x^2", "1 + y^2"),
              ("1 + x^2", "(1 + x^2)*(1 + y^2)"),
              ("x^2*(1 + x^2)", "x*(1 + x^2)"))


@pytest.mark.parametrize("pair", _CERTIFIED)
def test_gcd_certificates_skip_sympy(pair, monkeypatch):
    a, b = (sx(text).num for text in pair)
    expected = _sympy_gcd(a, b)
    _refuse_sympy(monkeypatch)
    assert scalars._terms_gcd(a, b) == expected
    assert scalars._terms_gcd(b, a) == expected


def test_gcd_of_a_non_divisor_pair_needs_no_sympy(monkeypatch):
    pairs = [(sx(a).num, sx(b).num) for a, b in (
        ("x^2 + 1", "x + 1"),
        ("(x + 1)*(x - y)", "(x + 1)*(y + 2)"),
        ("(x*y - 2)*(x^2 + y)", "(x*y - 2)*(x + y^2)*3"),
        # the shape of every general gcd of heis6 in FOUR_FIELD_GAUGE
        ("(1 + 2*x^2)*(4 + y^2)", "(4 + y^2)^2"))]
    expected = [_sympy_gcd(a, b) for a, b in pairs]
    assert expected[0] == {(0, 0): 1}
    assert expected[-1] == sx("4 + y^2").num
    _refuse_sympy(monkeypatch)
    for (a, b), gcd in zip(pairs, expected):
        with pytest.raises(ScalarError):
            scalars._exact_div(a, b)
        with pytest.raises(ScalarError):
            scalars._exact_div(b, a)
        assert scalars._terms_gcd(a, b) == scalars._terms_gcd(b, a) == gcd


# f1, f2, g, h in 2 or 3 variables; the gcd of f1*f2*g and f1*f2*h is
# f1*f2 times gcd(g, h), and a factor f1 free of the main variable lands
# in the content
_shared_factor_cases = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*[_polys(n)] * 4))


@settings(max_examples=80, deadline=None)
@given(_shared_factor_cases)
# pairs where neither product divides the other
@example(({(0, 1): 1, (0, 0): 2}, {(1, 0): 1, (0, 0): 1},
          {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 0): -1}))
@example(({(0, 1, 1): 1, (0, 0, 0): -2}, {(1, 1, 0): 2, (0, 0, 1): -1},
          {(2, 0, 0): 1, (0, 1, 1): 3},
          {(0, 2, 0): 1, (1, 0, 1): -1, (0, 0, 0): 1}))
def test_gcd_matches_sympy_on_products_with_a_common_factor(case):
    f1, f2, g, h = case
    f = scalars._terms_mul(f1, f2)
    a, b = scalars._terms_mul(f, g), scalars._terms_mul(f, h)
    expected = _sympy_gcd(a, b)
    assert scalars._terms_gcd(a, b) == expected
    assert scalars._terms_gcd(b, a) == expected


def test_corpus_runs_without_sympy():
    # a None entry in sys.modules makes `import sympy` raise ImportError
    code = ("import io, sys\n"
            "sys.modules['sympy'] = None\n"
            "from contact_pair_lab import corpus_build, run_checks\n"
            "from contact_pair_lab.cli import main\n"
            "from conftest import (FOUR_FIELD_GAUGE, gauged_heis6, "
            "twisted_phi_structure)\n"
            "gauged = gauged_heis6(corpus_build('heis6'), FOUR_FIELD_GAUGE)\n"
            "assert run_checks(gauged).overall == 'pass'\n"
            "twisted = corpus_build('heis6')\n"
            "twisted._cache['phi'] = twisted_phi_structure(twisted)\n"
            "run_checks(twisted)\n"
            "sys.exit(main(['corpus', 'run'], out=io.StringIO()))\n")
    env = dict(os.environ)
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(tests), "src"), tests]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# -- integer canonical form --------------------------------------------

def _content(terms):
    return math.gcd(*terms.values())


@settings(max_examples=80, deadline=None)
@given(rationals)
def test_canonical_form_has_integer_coprime_contents(a):
    assert all(type(c) is int for c in (*a.num.values(), *a.den.values()))
    lead = max(a.den, key=lambda exp: (sum(exp), exp))
    assert a.den[lead] > 0
    if a.is_zero():
        assert a.num == {} and a.den == {(0,) * len(VARS): 1}
    else:
        assert math.gcd(_content(a.num), _content(a.den)) == 1


def test_constants_hold_integer_coefficients():
    for value in (3, -2, Fraction(3, 4), Fraction(-5, 6)):
        expr = ScalarExpr.constant(value, VARS)
        assert all(type(c) is int
                   for c in (*expr.num.values(), *expr.den.values()))
        assert constant_value(expr) == value


@pytest.mark.parametrize("text, printed", [
    ("(3*x + 1)/(2*x + 4)", "((3/2)*x + (1/2))/(x + 2)"),
    ("(x + 1/3)/(x/2 + 1/5)", "(2*x + (2/3))/(x + (2/5))"),
    ("1/(2*x)", "((1/2))/(x)"),
    ("-3/(6*x*y - 4)", "((-1/2))/(x*y + (-2/3))"),
    ("(x^2 - y/3)/(-7*y + 14)", "((-1/7)*x^2 + (1/21)*y)/(y + -2)"),
])
def test_printing_divides_by_the_leading_denominator_coefficient(text,
                                                                 printed):
    assert str(sx(text)) == printed


def test_integer_contents_cancel():
    assert sx("(6*x + 4)/(9*x + 6)") == sx("2/3")


def test_content_and_factor_cancel_without_sympy(monkeypatch):
    _refuse_sympy(monkeypatch)
    assert sx("(2*x + 2)*(y + 1)/(4*x + 4)") == sx("(y + 1)/2")


def test_constant_value_is_a_fraction():
    for text in ("3/4", "2", "0"):
        assert type(constant_value(sx(text))) is Fraction


# -- constants ---------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(_fractions, _fractions, st.sampled_from(sorted(_OPERATORS)))
@example(Fraction(2, 4), Fraction(6, 9), "*")
@example(Fraction(-3, 5), Fraction(3, 5), "+")
@example(Fraction(-1, 2), Fraction(-1, 3), "/")
@example(Fraction(3, 4), Fraction(-9, 8), "/")
def test_constant_results_are_the_general_reduction(p, q, op):
    assume(op != "/" or q)
    a, b = ScalarExpr.constant(p, VARS), ScalarExpr.constant(q, VARS)
    result = _OPERATORS[op](a, b)
    num, den = ScalarExpr._normalize(*_raw(a, b, op), len(VARS))
    assert (result.num, result.den) == (num, den)
    assert result == ScalarExpr.constant(_OPERATORS[op](p, q), VARS)
    assert all(type(c) is int
               for c in (*result.num.values(), *result.den.values()))


def _constant_reference(x):
    """(p, q) when x is the constant p/q, read off its Terms; else None.
    Zero is (0)/(1) in canonical form."""
    num, den = x.num, x.den
    if not num:
        assert den == {(0,) * len(x.vars): 1}
        return 0, 1
    if len(num) == 1 and len(den) == 1:
        (e, p), = num.items()
        (f, q), = den.items()
        if not any(e) and not any(f):
            return p, q
    return None


def _assert_constant_slot(x):
    reference = _constant_reference(x)
    assert x.const == reference
    assert x.is_constant() == (reference is not None)
    assert x.is_one() == (reference == (1, 1))


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, st.integers(0, 3))
@example(sx("0"), sx("0"), 0)
@example(sx("3/4"), sx("-2"), 2)
@example(sx("-1/3"), sx("x/(1 + y^2)"), 3)
@example(sx("1"), sx("-1"), 1)
def test_every_result_carries_its_constant_value(a, b, k):
    results = [a, b, a + b, a - b, a * b, -a, -b, a ** k,
               a.differentiate("x"), parse_expr(str(a), VARS)]
    if b:
        results.append(a / b)
    for result in results:
        _assert_constant_slot(result)


_constants = st.recursive(
    _fractions.map(lambda q: ScalarExpr.constant(q, VARS)), _combine,
    max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(_constants, points)
@example(sx("0"), {"x": Fraction(1), "y": Fraction(2)})
@example(sx("-5/3"), {"x": Fraction(1), "y": Fraction(2)})
def test_evaluate_of_a_constant_is_its_value(a, point):
    reference = _constant_reference(a)
    value = a.evaluate(point)
    assert type(value) is Fraction and value == Fraction(*reference)
    with pytest.raises(ScalarError, match="does not assign coordinate 'y'"):
        a.evaluate({"x": Fraction(1)})


class _ReadPoint(dict):
    """A point that records the coordinates whose values are read."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = []

    def __getitem__(self, name):
        self.reads.append(name)
        return super().__getitem__(name)


def test_a_constant_reads_no_coordinate_of_the_point():
    point = _ReadPoint({"x": Fraction(1, 3), "y": 2})
    assert sx("-5/3").evaluate(point) == Fraction(-5, 3)
    assert point.reads == []
    assert sx("x + y").evaluate(point) == Fraction(7, 3)
    assert point.reads == ["x", "y"]
    with pytest.raises(ScalarError, match="does not assign coordinate 'y'"):
        sx("-5/3").evaluate(_ReadPoint({"x": Fraction(1)}))


def test_a_constant_one_term_factor_keeps_the_exponents():
    a = sx("x^2*y - 3*y + 1").num
    assert scalars._terms_mul(a, {(0, 0): 1}) is a
    assert scalars._terms_mul({(0, 0): -2}, a) == scalars._terms_scale(a, -2)


# -- evaluation on integers --------------------------------------------

def _evaluate_reference(expr, point):
    """The value at a point, term by term in Fractions."""
    def ev(terms):
        total = Fraction(0)
        for exp, coeff in terms.items():
            term = Fraction(coeff)
            for name, e in zip(expr.vars, exp):
                term *= Fraction(point[name]) ** e
            total += term
        return total

    den = ev(expr.den)
    if den == 0:
        raise PoleError(f"pole at {dict(point)}")
    return ev(expr.num) / den


_points_16 = st.fixed_dictionaries(
    {name: st.fractions(min_value=-4, max_value=4, max_denominator=16)
     for name in VARS})
_int_points = st.fixed_dictionaries(
    {name: st.integers(-5, 5) for name in VARS})


@settings(max_examples=100, deadline=None)
@given(rationals, st.one_of(_points_16, _int_points))
@example(sx("(x^2 + y)/(4*x^2 - 1)"), {"x": Fraction(1, 2), "y": 3})
@example(sx("(x*y - 1)/(3*y + 1)"), {"x": Fraction(7, 16),
                                     "y": Fraction(-1, 3)})
@example(sx("(x + y)/((2*x - 1)*(y^2 + 1))"), {"x": Fraction(1, 2),
                                              "y": Fraction(5, 16)})
@example(sx("(x + y)/((2*x - 1)*(y^2 + 1))"), {"x": Fraction(1, 4), "y": 0})
def test_integer_evaluation_matches_fractions(a, point):
    try:
        expected = _evaluate_reference(a, point)
    except PoleError:
        with pytest.raises(PoleError):
            a.evaluate(point)
        return
    value = a.evaluate(point)
    assert type(value) is Fraction and value == expected


# -- exact division ----------------------------------------------------

_divisions = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*[_polys(n)] * 3))


@settings(max_examples=120, deadline=None)
@given(_divisions)
# x^3 - y^3 by x - y: the dividend's y^3 cancels only at the last step
@example(({(2, 0): 1, (1, 1): 1, (0, 2): 1}, {(1, 0): 1, (0, 1): -1},
          {(0, 0): 1}))
# a divisor led by a term whose multiples cancel against later products
@example(({(1, 1, 0): 1, (0, 0, 2): -1}, {(1, 0, 1): 2, (0, 1, 0): 1,
                                          (0, 0, 0): -3},
          {(0, 1, 1): 1}))
def test_heap_division_matches_the_reference(case):
    q, b, r = case
    a = scalars._terms_mul(q, b)
    quotient = scalars._exact_div(a, b)
    assert list(quotient.items()) == list(exact_div_reference(a, b).items())
    assert quotient == q
    # a plus a remainder term: divisible exactly when the reference says so
    inexact = scalars._terms_add(a, r)
    try:
        expected = exact_div_reference(inexact, b)
    except ScalarError:
        with pytest.raises(ScalarError):
            scalars._exact_div(inexact, b)
    else:
        assert scalars._exact_div(inexact, b) == expected


# -- associates, unit cofactors and the run's table ---------------------

def _refuse_division(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a polynomial was divided")

    monkeypatch.setattr(scalars, "_exact_div", refuse)


def test_associates_and_unit_cofactors_divide_nothing(monkeypatch):
    p = sx("y^2 + 4").num
    minus_p = scalars._terms_neg(p)
    unit = {(0, 0): 1}
    _refuse_division(monkeypatch)
    with scalars.cancellation_table() as table:
        assert scalars._terms_gcd(minus_p, p) == p
        assert scalars._cancel(p, p) == (unit, unit)
        assert scalars._cancel(minus_p, p) == ({(0, 0): -1}, unit)
    assert table.counters["gcd.associates"] == 3
    assert sx("(-y^2 - 4)/(y^2 + 4)") == sx("-1")


@pytest.mark.parametrize("text", ["x*y", "2*x^2*y - 4*x*y", "-3*y^2 - 6",
                                  "x^3 - 2*x*y + 5"])
def test_equal_and_negated_operands_take_nothing_apart(monkeypatch, text):
    a = sx(text).num
    positive = a if scalars._leading(a)[1] > 0 else scalars._terms_neg(a)
    calls = []
    for name in ("_monomial_content", "_primitive", "_exact_div",
                 "_prs_gcd"):
        _spy(monkeypatch, scalars, name, calls)
    with scalars.cancellation_table() as table:
        for b in (dict(a), scalars._terms_neg(a)):
            assert scalars._terms_gcd(a, b) == positive
            assert scalars._terms_gcd(b, a) == positive
    assert calls == []
    assert table.counters["gcd.associates"] == 4


def test_the_table_answers_a_repeated_cancellation(monkeypatch):
    """a * b and a / (1/b) are two operations, each remembered on its
    own, that take the same two cancellations."""
    a, b = sx("x/(1 + y^2)"), sx("(1 + y^2)^2/(x + 1)")
    reciprocal = sx("(x + 1)/(1 + y^2)^2")
    with scalars.cancellation_table() as table:
        first = a * b
        calls = []
        gcd = scalars._terms_gcd
        monkeypatch.setattr(scalars, "_terms_gcd",
                            lambda p, q: calls.append(1) or gcd(p, q))
        assert a / reciprocal == first and calls == []
    asked, answered = (table.counters["cancel.asked"],
                       table.counters["cancel.from_table"])
    assert asked and answered == asked / 2
    assert table.counters["result.from_table"] == 0
    assert scalars._TABLE.get() is None
    # without a table nothing is looked up or counted
    assert a * b == first and len(calls) > 0
    assert table.counters["cancel.asked"] == asked


# -- the run's results -------------------------------------------------

def _spy(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("op", sorted(_OPERATORS))
def test_a_repeated_rational_operation_is_taken_from_the_table(op,
                                                               monkeypatch):
    a, b = sx("x/(1 + y^2)"), sx("(y - 1)/(x + 2)")
    equal_a, equal_b = sx("x/(1 + y^2)"), sx("(y - 1)/(x + 2)")
    with scalars.cancellation_table() as table:
        first = _OPERATORS[op](a, b)
        calls = []
        for name in ("_sum", "_product"):
            _spy(monkeypatch, ScalarExpr, name, calls)
        _spy(monkeypatch, scalars, "_terms_mul", calls)
        # the same object for the same operation on equal operands
        assert _OPERATORS[op](a, b) is first
        assert _OPERATORS[op](equal_a, equal_b) is first
        assert calls == []
        if op in "+*":
            # sums and products are remembered in both orders
            assert _OPERATORS[op](b, a) is first and calls == []
    assert table.counters["result.asked"] == (4 if op in "+*" else 3)
    assert table.counters["result.from_table"] == \
        table.counters["result.asked"] - 1
    assert first == ScalarExpr(VARS, *_raw(a, b, op))


def test_outside_a_table_nothing_is_remembered(monkeypatch):
    a, b = sx("x/(1 + y^2)"), sx("(y - 1)/(x + 2)")
    with scalars.cancellation_table() as table:
        inside = a * b
    calls = []
    _spy(monkeypatch, ScalarExpr, "_product", calls)
    outside = [a * b, a * b]
    assert calls == ["_product", "_product"]
    assert outside[0] == outside[1] == inside
    assert outside[0] is not outside[1] and outside[0] is not inside
    assert len(table.results) == 2
    assert table.counters["result.asked"] == 1


def test_constants_and_polynomials_never_enter_the_results(monkeypatch):
    hashed = []
    _spy(monkeypatch, ScalarExpr, "__hash__", hashed)
    polynomials = [sx(text) for text in ("x + y^2", "2*x*y - 1", "3/4",
                                         "-2", "x/3")]
    with scalars.cancellation_table() as table:
        for op in _OPERATORS.values():
            for a in polynomials:
                for b in polynomials:
                    if op is not operator.truediv or b.is_constant():
                        op(a, b)
    assert table.results == {} and hashed == []
    assert table.counters["result.asked"] == 0


def test_a_scalar_is_hashed_once(monkeypatch):
    frozen = []

    def counted(items):
        frozen.append(items)
        return frozenset(items)

    monkeypatch.setattr(scalars, "frozenset", counted, raising=False)
    a = sx("x/(1 + y^2)")
    assert hash(a) == hash(a) == hash(sx("x/(1 + y^2)"))
    assert len(frozen) == 4  # num and den of each of the two scalars
