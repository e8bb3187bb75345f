"""Exact multivariate rational functions over the rationals.

ScalarExpr is the coefficient field for the whole library: every tensor
component is a canonical fraction of multivariate polynomials with
integer coefficients.  Equality of canonical forms is the only notion of
identity used by the symbolic certifiers; "equals zero" literally means
"normalizes to the unique zero representation", and ``bool(x)`` is false
exactly then, as for ``Fraction`` and ``int``.

Canonical form: numerator and denominator lie in Z[x] over the declared
coordinate tuple and are coprime there, so both their polynomial gcd and
the gcd of their integer contents (the gcd of a polynomial's
coefficients) are 1; the denominator's leading coefficient in the
graded-lexicographic order is positive; zero is (0)/(1).  Z[x] has unique
factorization and its only units are +1 and -1 (Gauss's lemma), so this
form is unique.  The rational content of the value is implicit, as
cont(num)/cont(den).  Printing divides both by the denominator's leading
coefficient, so text shows a monic denominator.

Arithmetic relies on that invariant: every operand a/b, c/d already has
gcd(a, b) = gcd(c, d) = 1 in Z[x] and a positively leading denominator, so
most results are built reduced without asking for the gcd of the whole
numerator and denominator (Henrici's cancellation, Knuth TAOCP vol. 2,
4.5.1, which holds in Z[x] as in any unique factorization domain):

- a/b + c/1 = (a + c*b)/b, and symmetrically, because
  gcd(a + c*b, b) = gcd(a, b) = 1.  With a constant denominator k other
  than 1, a/b + c/k = (a*k + c*b)/(b*k): a nonconstant common factor of
  a*k + c*b and b*k would divide b and a*k, hence a, so only an integer
  can be common, and one math.gcd over the coefficients removes it.  A
  sum of two nonconstant denominators, equal or not, goes through the
  general reduction.
- (a/b) * (c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d) and
  g2 = gcd(c, b): a/g1 is coprime to b (it divides a) and to d/g1, and
  likewise for c/g2, so the product is reduced.  A gcd whose arguments
  include a constant is the gcd of the integer contents.  Division
  multiplies by d/c; either way the signs are then fixed so that the
  denominator leads positively.

Scalars are immutable: nothing writes ``num`` or ``den`` after
construction, nor a Terms dict that a helper returns, since that may be an
operand returned unchanged or a result shared through the run's table
(below).  So an operator whose other operand is zero, or the unit 1
as a factor or divisor, returns an existing operand instead of building a
scalar; ``0 - b`` returns ``-b``.  The operands' coordinate tuples are
checked first.

``_terms_gcd`` settles most of the gcds that remain by shortcuts: two
operands equal up to sign are their own gcd before anything is taken
apart; otherwise it splits off the monomial content and the integer
content; two primitive cofactors in disjoint variables are coprime, and
when trial division of one primitive cofactor by the other leaves no
remainder the divisor is the gcd.  By Gauss's lemma a primitive
polynomial that divides another over Q does so over Z, so the trial
division runs on integers.  The rest go to ``_prs_gcd``, the generalized
Euclidean algorithm over a unique factorization domain (Knuth, TAOCP
vol. 2, 4.6.1, Algorithm E; Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, ch. 7): in a variable common to both, as polynomials
over Z[other variables], the gcd is the gcd of the contents times the
last nonzero primitive pseudo-remainder, and the contents are gcds of
fewer variables taken by ``_terms_gcd`` again.  Every gcd is then certified: ``_cancel`` divides by it with
``_exact_div``, which raises unless the quotient is exact.  Two primitive
cofactors equal up to sign (associates, such as -u^2 - 4 and u^2 + 4) are
each other's gcd without a division, and an operand equal to the gcd, or
to its negative, has the unit cofactor 1 or -1, so no polynomial is
divided by itself.  ``_exact_div`` keeps the remainder's terms in a heap on
the graded-lexicographic order, so each step pops the leading term
instead of scanning the whole remainder (the heap of Monagan and Pearce,
"Sparse polynomial division using a heap", 2011, here over the remainder's
terms only).

A verification run asks for the same cancellation many times: the same
denominators meet in every component of a tensor.  ``cancellation_table()``
opens a table for the duration of a ``with`` block, and ``checks.run_checks``
holds one open for exactly one run.  While it is open, ``_cancel`` of two
nonconstant polynomials looks the pair up by value (its frozen terms) and
computes each distinct pair once, in either order; so does every gcd of
two nonconstant polynomials, the PRS's inner ones included.  A run also
repeats whole operations, since the same tensors are rebuilt for every
probe field: a sum, difference, product or quotient of two nonzero
operands, one of which has a nonconstant denominator, is looked up by
(operation, left, right), the operands compared by value, and computed
once; a sum or product is also recorded with its operands swapped.  A
scalar hashes its terms once and keeps the hash.  Two constants, or two
operands whose denominators are both constant, take the arithmetic below
and neither hash nor look anything up: remembering those cost more than
it saved.  The table counts the operations and cancellations asked and
answered, and the gcds by the path that settled them (``COUNTERS``).  It
keeps every result it holds until the run ends.  The table lives in a
``contextvars.ContextVar``, so two threads, or two runs, never share one,
and it is dropped when the block ends, normally or by an exception.  It is
deliberately not process-wide: a memo that outlived one run would grow
without bound and would make the second run of a scenario a different,
cheaper program than the first.  Outside such a block, for instance in a
direct call of a validation stage, nothing is looked up or counted, and
every result is computed as it is inside one.  Results returned from the
table are shared between the scalars that receive them.

A partial derivative of n/d along x_i is n'/d, cancelled once, when d is
free of x_i, and the zero constant, with no product built, when n is free
of it too; otherwise it is the quotient rule (n'd - nd')/d^2.

Constants take a path of their own: a scalar carries its value p/q as
``const = (p, q)``, set once when it is built, so no predicate reads the
Terms.  Two constants combine by integer arithmetic on their four
coefficients and one ``math.gcd``, into the one scalar that an open table
holds for the value, as a constant's negation does; a product with a
constant one-term factor builds no exponent tuples.  ``evaluate`` checks
that the point assigns every coordinate and returns a constant's value
without reading them; any other scalar is evaluated with the point's
denominators cleared: with each coordinate p_i/q_i and D_i the largest
degree of x_i in the numerator or the denominator, both are evaluated
times prod q_i^D_i, on integers, and one ``Fraction`` is built from the
two values at the end.  The common factor cancels, so the value, and
where a pole is reported, are those of evaluating with fractions.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, prod
from operator import add, neg, sub
from typing import (Dict, Iterable, Iterator, Mapping, Optional, Sequence,
                    Tuple)

Exponents = Tuple[int, ...]
Terms = Dict[Exponents, int]

Rational = Fraction  # arbitrary-precision, always reduced, positive denominator


class ScalarError(Exception):
    """Base class for scalar-algebra errors."""


class ParseError(ScalarError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DivisionByZero(ScalarError):
    pass


class PoleError(ScalarError):
    pass


class UnknownVariable(ScalarError):
    pass


def _grlex_key(exponents: Exponents) -> Tuple[int, Exponents]:
    return (sum(exponents), exponents)


def _terms_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, 0) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def _terms_neg(a: Terms) -> Terms:
    return {exp: -coeff for exp, coeff in a.items()}


def _terms_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # one term: monomial products are distinct and nothing cancels
        (eb, cb), = b.items()
        if not any(eb):
            return a if cb == 1 else {ea: ca * cb for ea, ca in a.items()}
        return {tuple(map(add, ea, eb)): ca * cb for ea, ca in a.items()}
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(map(add, ea, eb))
            new = out.get(exp, 0) + ca * cb
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def _terms_scale(a: Terms, c: int) -> Terms:
    return {exp: coeff * c for exp, coeff in a.items()}


def _terms_divide(a: Terms, c: int) -> Terms:
    """a with every coefficient divided by c, which divides them all."""
    return {exp: coeff // c for exp, coeff in a.items()}


def _leading(a: Terms) -> Tuple[Exponents, int]:
    exp = max(a, key=_grlex_key)
    return exp, a[exp]


def _is_constant(a: Terms) -> bool:
    return not a or (len(a) == 1 and not any(next(iter(a))))


def _monomial_content(a: Terms) -> Exponents:
    it = iter(a)
    content = list(next(it))
    for exp in it:
        content = [min(c, e) for c, e in zip(content, exp)]
        if not any(content):
            break
    return tuple(content)


def _terms_shift(a: Terms, shift: Exponents) -> Terms:
    """Divide every monomial by the given (componentwise smaller) monomial."""
    return {tuple(map(sub, exp, shift)): c for exp, c in a.items()}


def _primitive(a: Terms) -> Terms:
    """a divided by its (positive) integer content."""
    content = gcd(*a.values())
    return a if content == 1 else _terms_divide(a, content)


def _heap_key(exponents: Exponents) -> Tuple[int, Exponents, Exponents]:
    """A heap entry that pops the graded-lexicographically largest
    exponents first."""
    return -sum(exponents), tuple(map(neg, exponents)), exponents


def _exact_div(a: Terms, b: Terms) -> Terms:
    """The quotient a / b in Z[x]; raises ScalarError unless b divides a
    with an integer quotient.

    The remainder's exponents wait in a heap; an entry whose term has
    since cancelled is skipped when it is popped.  Every term that
    division adds lies below the current leading term, so each exponent
    leads at most once."""
    lead_b, lc_b = _leading(b)
    tail = [(exp, coeff) for exp, coeff in b.items() if exp != lead_b]
    quotient: Terms = {}
    rem = dict(a)
    heap = [_heap_key(exp) for exp in rem]
    heapify(heap)
    while heap:
        lead_r = heappop(heap)[2]
        if lead_r not in rem:
            continue
        exp = tuple(map(sub, lead_r, lead_b))
        coeff, inexact = divmod(rem.pop(lead_r), lc_b)
        if inexact or any(e < 0 for e in exp):
            raise ScalarError("inexact polynomial division")
        quotient[exp] = coeff
        for eb, cb in tail:
            key = tuple(map(add, exp, eb))
            old = rem.get(key, 0)
            new = old - coeff * cb
            if not old:
                rem[key] = new
                heappush(heap, _heap_key(key))
            elif new:
                rem[key] = new
            else:
                del rem[key]
    return quotient


def _support(a: Terms) -> set:
    """The indices of the variables that occur in a."""
    return {i for exp in a for i, e in enumerate(exp) if e}


def _degree(a: Terms) -> int:
    return max(sum(exp) for exp in a)


def _degree_in(a: Terms, v: int) -> int:
    """The degree of a in x_v."""
    return max(exp[v] for exp in a)


def _is_negation(a: Terms, b: Terms) -> bool:
    return len(a) == len(b) and all(b.get(exp) == -c for exp, c in a.items())


def _terms_gcd(a: Terms, b: Terms) -> Terms:
    """Gcd in Z[x] of two nonzero polynomials: content gcd times
    primitive gcd times monomial gcd, with a positive leading
    coefficient."""
    if a == b or _is_negation(a, b):
        # associates as given: the gcd is a up to sign, with nothing shifted
        _count("gcd.associates")
        return a if _leading(a)[1] > 0 else _terms_neg(a)
    shift_a = _monomial_content(a)
    shift_b = _monomial_content(b)
    shift = tuple(min(x, y) for x, y in zip(shift_a, shift_b))
    mono = {shift: gcd(*a.values(), *b.values())}
    if any(shift_a):
        a = _terms_shift(a, shift_a)
    if any(shift_b):
        b = _terms_shift(b, shift_b)
    if _is_constant(a) or _is_constant(b):
        _count("gcd.content")
        return mono
    if not _support(a) & _support(b):
        # a divisor of a involves only a's variables
        _count("gcd.disjoint")
        return mono
    a, b = _primitive(a), _primitive(b)
    if a == b or _is_negation(a, b):
        _count("gcd.associates")
        g = a
    else:
        big, small = (a, b) if _degree(a) >= _degree(b) else (b, a)
        try:
            _exact_div(big, small)
            _count("gcd.divisor")
            g = small
        except ScalarError:
            _count("gcd.prs")
            g = _prs_gcd(a, b)
            if _is_constant(g):
                return mono
    g = _terms_mul(g, mono)
    _, lc = _leading(g)
    return g if lc > 0 else _terms_neg(g)


def _split(a: Terms, v: int) -> Tuple[Terms, Terms]:
    """a's content and primitive part as a polynomial in x_v, whose
    coefficients are polynomials in the other variables."""
    coeffs: Dict[int, Terms] = {}
    for exp, c in a.items():
        coeffs.setdefault(exp[v], {})[exp[:v] + (0,) + exp[v + 1:]] = c
    it = iter(coeffs.values())
    content = next(it)
    for coeff in it:
        content = _gcd(content, coeff)
    return content, _exact_div(a, content)


def _prs_gcd(a: Terms, b: Terms) -> Terms:
    """Gcd of two primitive polynomials with a variable x_v in common:
    Euclid's algorithm on primitive pseudo-remainders in x_v over
    Z[other variables], whose contents come from _terms_gcd."""
    v = min(_support(a) & _support(b))
    content_a, a = _split(a, v)
    content_b, b = _split(b, v)
    content = _gcd(content_a, content_b)
    if _degree_in(a, v) < _degree_in(b, v):
        a, b = b, a
    while True:
        r = _pseudo_remainder(a, b, v)
        if not r:
            return _terms_mul(content, b)
        if not any(e[v] for e in r):
            # a nonzero remainder free of x_v: the primitive parts are coprime
            return content
        a, b = b, _split(r, v)[1]


def _pseudo_remainder(a: Terms, b: Terms, v: int) -> Terms:
    """A remainder of a by b in x_v, of lower degree than b there: each
    step multiplies by b's leading coefficient in x_v and cancels the top
    degree."""
    n = _degree_in(b, v)
    lc_b = {e[:v] + (0,) + e[v + 1:]: c for e, c in b.items() if e[v] == n}
    while a:
        m = _degree_in(a, v)
        if m < n:
            break
        top = {e[:v] + (m - n,) + e[v + 1:]: c
               for e, c in a.items() if e[v] == m}
        a = _terms_add(_terms_mul(a, lc_b), _terms_neg(_terms_mul(top, b)))
    return a


# The counters of a run's cancellation table, in report order: the
# operations with an operand of nonconstant denominator asked for, those
# answered from the table, the cancellations of two nonconstant
# polynomials asked for and answered, and the gcds by the path that
# settled them.
COUNTERS = ("result.asked", "result.from_table", "cancel.asked",
            "cancel.from_table", "gcd.content", "gcd.disjoint",
            "gcd.associates", "gcd.divisor", "gcd.prs")


class CancellationTable:
    """The gcds and cancellations of nonconstant polynomials in one
    verification run, by the values of the two operands, the results of
    the operations with an operand of nonconstant denominator, by
    (operation, left, right), the one scalar of each constant built by
    arithmetic, by (p, q, coordinates), and the run's kernel counters."""

    __slots__ = ("gcds", "quotients", "results", "constants", "counters")

    def __init__(self) -> None:
        self.gcds: Dict[Tuple[frozenset, frozenset], Terms] = {}
        self.quotients: Dict[Tuple[frozenset, frozenset],
                             Tuple[Terms, Terms]] = {}
        self.results: Dict[tuple, "ScalarExpr"] = {}
        self.constants: Dict[tuple, "ScalarExpr"] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)


_TABLE: ContextVar[Optional[CancellationTable]] = ContextVar(
    "cancellation_table", default=None)


@contextmanager
def cancellation_table() -> Iterator[CancellationTable]:
    """Open a cancellation table for the duration of the block, in the
    current context only; it is dropped when the block ends."""
    table = CancellationTable()
    token = _TABLE.set(table)
    try:
        yield table
    finally:
        _TABLE.reset(token)


def _count(name: str) -> None:
    table = _TABLE.get()
    if table is not None:
        table.counters[name] += 1


def _result(operation, a: "ScalarExpr", b: "ScalarExpr") -> "ScalarExpr":
    """``operation(a, b)``; where an operand has a nonconstant
    denominator, taken once per run by the values of a and b while a
    table is open."""
    if _is_constant(a.den) and _is_constant(b.den):
        return operation(a, b)
    table = _TABLE.get()
    if table is None:
        return operation(a, b)
    table.counters["result.asked"] += 1
    key = (operation, a, b)
    found = table.results.get(key)
    if found is None:
        found = table.results[key] = operation(a, b)
        if operation is ScalarExpr._plus or operation is ScalarExpr._times:
            table.results[operation, b, a] = found
    else:
        table.counters["result.from_table"] += 1
    return found


def _gcd(a: Terms, b: Terms, key=None) -> Terms:
    """_terms_gcd(a, b), taken once per run for two nonconstant operands
    while a table is open, under ``key`` if the caller froze the pair: a
    gcd inside the PRS can repeat one that a cancellation took, and the
    other way round.  With a constant operand it is the content gcd."""
    if _is_constant(a) or _is_constant(b):
        return {(0,) * len(next(iter(a))): gcd(*a.values(), *b.values())}
    table = _TABLE.get()
    if table is None:
        return _terms_gcd(a, b)
    key = key or (frozenset(a.items()), frozenset(b.items()))
    g = table.gcds.get(key)
    if g is None:
        # the gcd is symmetric, so the swapped pair is settled too
        g = table.gcds[key] = table.gcds[key[::-1]] = _terms_gcd(a, b)
    return g


def _cancel(a: Terms, b: Terms) -> Tuple[Terms, Terms]:
    """a and b divided by their gcd."""
    if _is_constant(a) or _is_constant(b):
        # _terms_gcd would return the content gcd too, after shifting both
        content = gcd(*a.values(), *b.values())
        if content == 1:
            return a, b
        return _terms_divide(a, content), _terms_divide(b, content)
    table = _TABLE.get()
    if table is None:
        return _cancel_polynomials(a, b)
    table.counters["cancel.asked"] += 1
    key = (frozenset(a.items()), frozenset(b.items()))
    found = table.quotients.get(key)
    if found is None:
        found = table.quotients[key] = _cancel_polynomials(a, b, key)
        table.quotients[key[::-1]] = found[::-1]
    else:
        table.counters["cancel.from_table"] += 1
    return found


def _cancel_polynomials(a: Terms, b: Terms, key=None) -> Tuple[Terms, Terms]:
    """a and b, both nonconstant, divided by their gcd (``_gcd``'s key)."""
    g = _gcd(a, b, key)
    if _is_constant(g):
        (content,) = g.values()
        if content == 1:
            return a, b
        return _terms_divide(a, content), _terms_divide(b, content)
    return _cofactor(a, g), _cofactor(b, g)


def _cofactor(a: Terms, g: Terms) -> Terms:
    """a / g for a divisor g of a: the unit 1 or -1 when a is g or -g."""
    if a == g:
        return {(0,) * len(next(iter(g))): 1}
    if _is_negation(a, g):
        return {(0,) * len(next(iter(g))): -1}
    return _exact_div(a, g)


def _sign_fix(num: Terms, den: Terms) -> Tuple[Terms, Terms]:
    """num/den with both negated if den leads negatively."""
    _, lc = _leading(den)
    if lc > 0:
        return num, den
    return _terms_neg(num), _terms_neg(den)


def _constant_value(num: Terms, den: Terms) -> Optional[Tuple[int, int]]:
    """(p, q) when the canonical num/den is the constant p/q, else None."""
    if len(den) == 1 and len(num) <= 1:
        (f, q), = den.items()
        (e, p), = num.items() if num else ((f, 0),)
        if not any(e) and not any(f):
            return p, q
    return None


def _constant(like: "ScalarExpr", p: int, q: int) -> "ScalarExpr":
    """The constant p/q, q nonzero, over the coordinates of the constant
    ``like``, whose exponent tuple it reuses.  While a run's table is open
    it is the one scalar the table holds for that value."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    p, q = p // g, q // g
    table, key = _TABLE.get(), (p, q, like.vars)
    found = None if table is None else table.constants.get(key)
    if found is not None:
        return found
    zero = next(iter(like.den))
    value = ScalarExpr(like.vars, {zero: p} if p else {}, {zero: q},
                       _canonical=True, _const=(p, q))
    if table is not None:
        table.constants[key] = value
    return value


class ScalarExpr:
    """Canonical rational function in a fixed tuple of coordinate names.

    ``num`` and ``den`` are integer-coefficient Terms; the constructor
    brings any such pair with a nonzero ``den`` to canonical form.  ``const``
    is (p, q) for the constant p/q in lowest terms, q > 0, else None."""

    __slots__ = ("vars", "num", "den", "const", "_hash")

    def __init__(self, vars: Tuple[str, ...], num: Terms, den: Terms,
                 _canonical: bool = False,
                 _const: Optional[Tuple[int, int]] = None):
        self.vars = vars
        if not _canonical:
            num, den = self._normalize(num, den, len(vars))
        self.num, self.den = num, den
        self.const = _const or _constant_value(num, den)

    @staticmethod
    def _normalize(num: Terms, den: Terms, nvars: int) -> Tuple[Terms, Terms]:
        if not den:
            raise DivisionByZero("denominator is identically zero")
        if not num:
            return {}, {(0,) * nvars: 1}
        return _sign_fix(*_cancel(num, den))

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value, vars: Tuple[str, ...]) -> "ScalarExpr":
        if type(value) is int:
            numerator, denominator = value, 1
        else:
            q = Fraction(value)
            numerator, denominator = q.numerator, q.denominator
        zero = (0,) * len(vars)
        num = {zero: numerator} if numerator else {}
        return cls(tuple(vars), num, {zero: denominator}, _canonical=True,
                   _const=(numerator, denominator))

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "ScalarExpr":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariable(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in vars)
        unit = {(0,) * len(vars): 1}
        return cls(vars, {exp: 1}, unit, _canonical=True)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.const == (1, 1)

    def is_constant(self) -> bool:
        return self.const is not None

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "ScalarExpr") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise ScalarError("mixed coordinate systems")

    def _sum(self, c: Terms, d: Terms) -> "ScalarExpr":
        """self + c/d, where c/d is canonical."""
        a, b = self.num, self.den
        if not _is_constant(d):
            if not _is_constant(b):
                if b == d:
                    return ScalarExpr(self.vars, _terms_add(a, c), b)
                return ScalarExpr(
                    self.vars, _terms_add(_terms_mul(a, d), _terms_mul(c, b)),
                    _terms_mul(b, d))
            a, b, c, d = c, d, a, b
        (k,) = d.values()  # the constant denominator
        if k == 1:
            num, den = _terms_add(a, _terms_mul(c, b)), b
        else:
            num = _terms_add(_terms_scale(a, k), _terms_mul(c, b))
            den = _terms_scale(b, k)
            content = gcd(*num.values(), *den.values())
            if content != 1:
                num = _terms_divide(num, content)
                den = _terms_divide(den, content)
        if not num:
            return ScalarExpr.constant(0, self.vars)
        return ScalarExpr(self.vars, num, den, _canonical=True)

    def _product(self, c: Terms, d: Terms) -> "ScalarExpr":
        """self * c/d, where self and c/d are nonzero and c and d are
        coprime."""
        a, b = self.num, self.den
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        num, den = _sign_fix(_terms_mul(a, c), _terms_mul(b, d))
        return ScalarExpr(self.vars, num, den, _canonical=True)

    # A zero operand, or a unit factor or divisor, returns the other
    # operand itself, so sums and products over sparse tensors build no
    # scalar for their trivial terms.

    # Two nonzero constants p/q and r/s combine on their coefficients.

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        x, y = self.const, other.const
        if x and y:
            return _constant(self, x[0] * y[1] + y[0] * x[1], x[1] * y[1])
        return _result(ScalarExpr._plus, self, other)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return -other
        x, y = self.const, other.const
        if x and y:
            return _constant(self, x[0] * y[1] - y[0] * x[1], x[1] * y[1])
        return _result(ScalarExpr._minus, self, other)

    def __mul__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        if not self.num or other.is_one():
            return self
        if not other.num or self.is_one():
            return other
        x, y = self.const, other.const
        if x and y:
            return _constant(self, x[0] * y[0], x[1] * y[1])
        return _result(ScalarExpr._times, self, other)

    def __truediv__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        if not other.num:
            raise DivisionByZero("division by the zero expression")
        if not self.num or other.is_one():
            return self
        x, y = self.const, other.const
        if x and y:
            return _constant(self, x[0] * y[1], x[1] * y[0])
        return _result(ScalarExpr._over, self, other)

    # The four operations of two nonzero operands that are not both
    # constant, which ``_result`` computes or takes from the run's table.

    def _plus(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._sum(other.num, other.den)

    def _minus(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._sum(_terms_neg(other.num), other.den)

    def _times(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._product(other.num, other.den)

    def _over(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._product(other.den, other.num)

    def __neg__(self) -> "ScalarExpr":
        c = self.const
        if c:
            return _constant(self, -c[0], c[1])
        return ScalarExpr(self.vars, _terms_neg(self.num), self.den,
                          _canonical=True)

    def __pow__(self, n: int) -> "ScalarExpr":
        if n < 0:
            raise ScalarError("negative exponent")
        result = ScalarExpr.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, ScalarExpr) and self.vars == other.vars
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first hash of this scalar
            self._hash = hash((self.vars, frozenset(self.num.items()),
                               frozenset(self.den.items())))
            return self._hash

    # -- calculus --------------------------------------------------------

    def differentiate(self, coord: str) -> "ScalarExpr":
        if coord not in self.vars:
            raise UnknownVariable(f"unknown coordinate {coord!r}")
        i = self.vars.index(coord)

        def d(terms: Terms) -> Terms:
            out: Terms = {}
            for exp, coeff in terms.items():
                if exp[i]:
                    new = list(exp)
                    new[i] -= 1
                    key = tuple(new)
                    val = out.get(key, 0) + coeff * exp[i]
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
            return out

        dn, dd = d(self.num), d(self.den)
        if not dd:
            # (n/d)' = n'/d, the zero constant when n is free of x_i too
            return ScalarExpr(self.vars, dn, self.den)
        # quotient rule: (n/d)' = (n'd - nd')/d^2
        num = _terms_add(_terms_mul(dn, self.den),
                         _terms_neg(_terms_mul(self.num, dd)))
        return ScalarExpr(self.vars, num, _terms_mul(self.den, self.den))

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        for v in self.vars:
            if v not in point:
                raise ScalarError(f"point does not assign coordinate {v!r}")
        if self.const is not None:
            return Fraction(*self.const)
        numerators, denominators = [], []
        for v in self.vars:
            # a Fraction or an int is read as given; Fraction() rejects a
            # non-number
            val = point[v]
            if type(val) is not Fraction and type(val) is not int:
                val = Fraction(val)
            numerators.append(val.numerator)
            denominators.append(val.denominator)
        # x_i = p_i/q_i: a monomial times prod q_i^D_i is the integer
        # prod p_i^e_i q_i^(D_i - e_i), D_i the largest degree of x_i
        tops = map(max, zip(*self.num, *self.den))
        powers = [[p ** e * q ** (top - e) for e in range(top + 1)]
                  for p, q, top in zip(numerators, denominators, tops)]

        def ev(terms: Terms) -> int:
            return sum(coeff * prod(map(list.__getitem__, powers, exp))
                       for exp, coeff in terms.items())

        den = ev(self.den)
        if den == 0:
            raise PoleError(f"pole at {dict(point)}")
        return Fraction(ev(self.num), den)

    # -- printing --------------------------------------------------------

    def _terms_text(self, terms: Terms) -> str:
        if not terms:
            return "0"
        parts = []
        for exp in sorted(terms, key=_grlex_key, reverse=True):
            coeff = terms[exp]
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if coeff == 1 and factors:
                pass
            elif coeff == -1 and factors:
                factors[0] = "-" + factors[0]
            elif coeff.denominator == 1:
                factors.insert(0, str(coeff.numerator))
            else:
                factors.insert(0, f"({coeff.numerator}/{coeff.denominator})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        num, den = self.num, self.den
        _, lc = _leading(den)
        if lc != 1:
            num = {exp: Fraction(c, lc) for exp, c in num.items()}
            den = {exp: Fraction(c, lc) for exp, c in den.items()}
        text = self._terms_text(num)
        if _is_constant(den):
            return f"({text})"
        return f"({text})/({self._terms_text(den)})"

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


# -- parser ---------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append((ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((("int", text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((("name", text[i:j]), i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, vars: Tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol: str):
        tok, at = self.next()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}", at)

    def parse(self) -> ScalarExpr:
        expr = self.expr()
        tok, at = self.next()
        if tok != "end":
            raise ParseError("trailing input", at)
        return expr

    def expr(self) -> ScalarExpr:
        value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ScalarExpr:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, at = self.next()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by the zero expression", at)
                value = value / rhs
        return value

    def factor(self) -> ScalarExpr:
        negate = False
        while self.peek() == "-":
            self.next()
            negate = not negate
        value = self.atom()
        if self.peek() == "^":
            _, at = self.next()
            tok, eat = self.next()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise ParseError("exponent must be a nonnegative integer", eat)
            value = value ** int(tok[1])
        return -value if negate else value

    def atom(self) -> ScalarExpr:
        tok, at = self.next()
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if isinstance(tok, tuple):
            kind, text = tok
            if kind == "int":
                return ScalarExpr.constant(int(text), self.vars)
            if text not in self.vars:
                raise ParseError(f"unknown variable {text!r}", at)
            return ScalarExpr.variable(text, self.vars)
        raise ParseError("expected a value", at)


def parse_expr(text: str, vars: Iterable[str]) -> ScalarExpr:
    """Parse expression text over the declared coordinate names."""
    return _Parser(text, tuple(vars)).parse()


class ParseTable(dict):
    """Expressions by text over one coordinate tuple: a lookup parses a
    text the first time it is asked for and keeps the result, which is
    immutable, for every later lookup."""

    def __init__(self, coordinates: Iterable[str]):
        super().__init__()
        self.coordinates = tuple(coordinates)

    def __missing__(self, text: str) -> ScalarExpr:
        expr = self[text] = parse_expr(text, self.coordinates)
        return expr
