import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contact_pair_lab import scalars
from contact_pair_lab.scalars import (DivisionByZero, ParseError, PoleError,
                                      ScalarError, ScalarExpr, parse_expr)

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
    assert sx("3/4").constant_value() == Fraction(3, 4)
    with pytest.raises(Exception):
        sx("x").constant_value()


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


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.sampled_from(sorted(_OPERATORS)))
def test_arithmetic_matches_general_reduction(a, b, op):
    assume(op != "/" or not b.is_zero())
    result = _OPERATORS[op](a, b)
    reference = ScalarExpr(VARS, *_raw(a, b, op))
    assert result == reference
    assert hash(result) == hash(reference)
    assert str(result) == str(reference)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        sx("x") / sx("0")


# -- evaluation --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(exprs, exprs, points)
def test_evaluate_is_a_homomorphism(a, b, point):
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_evaluate_at_pole_raises():
    expr = sx("1/x")
    with pytest.raises(PoleError):
        expr.evaluate({"x": Fraction(0), "y": Fraction(1)})


@settings(max_examples=30, deadline=None)
@given(exprs, points)
def test_evaluate_float_matches_exact(a, point):
    exact = float(a.evaluate(point))
    approx = a.evaluate_float({k: float(v) for k, v in point.items()})
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
    gens = sympy.symbols("g0:2")
    pa = sympy.Poly.from_dict({e: sympy.Rational(c) for e, c in a.items()},
                              *gens, domain=sympy.QQ)
    pb = sympy.Poly.from_dict({e: sympy.Rational(c) for e, c in b.items()},
                              *gens, domain=sympy.QQ)
    g = pa.gcd(pb).monic()
    return {e: Fraction(c.numerator, c.denominator)
            for e, c in g.as_dict().items()}


_CERTIFIED = (("1 + x^2", "1 + y^2"),
              ("1 + x^2", "(1 + x^2)*(1 + y^2)"),
              ("x^2*(1 + x^2)", "x*(1 + x^2)"))


@pytest.mark.parametrize("pair", _CERTIFIED)
def test_gcd_certificates_skip_sympy(pair, monkeypatch):
    a, b = (sx(text).num for text in pair)
    expected = _sympy_gcd(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("sympy gcd called")

    monkeypatch.setattr(sympy.Poly, "gcd", refuse)
    assert scalars._terms_gcd(a, b, len(VARS)) == expected
    assert scalars._terms_gcd(b, a, len(VARS)) == expected


def test_gcd_falls_through_to_sympy_on_a_non_divisor(monkeypatch):
    a, b = sx("x^2 + 1").num, sx("x + 1").num
    with pytest.raises(ScalarError):
        scalars._exact_div(a, b)
    expected = _sympy_gcd(a, b)
    calls = []
    original = sympy.Poly.gcd

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "gcd", counted)
    assert scalars._terms_gcd(a, b, len(VARS)) == expected == {(0, 0): 1}
    assert len(calls) == 1


def test_corpus_runs_without_sympy():
    code = ("import sys\n"
            "from contact_pair_lab import CORPUS_NAMES, corpus_build, "
            "run_checks\n"
            "for name in CORPUS_NAMES:\n"
            "    run_checks(corpus_build(name))\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
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
        assert expr.constant_value() == value


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
    def refuse(*args, **kwargs):
        raise AssertionError("sympy gcd called")

    monkeypatch.setattr(sympy.Poly, "gcd", refuse)
    assert sx("(2*x + 2)*(y + 1)/(4*x + 4)") == sx("(y + 1)/2")


def test_constant_value_is_a_fraction():
    for text in ("3/4", "2", "0"):
        assert type(sx(text).constant_value()) is Fraction
