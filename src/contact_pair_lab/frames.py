"""Differential geometry over an explicit frame presentation.

A manifold is modeled by a chart plus a matrix of frame vector fields
with rational-function coefficients, invertible over the scalar field.
Vector fields, forms, endomorphism fields and metrics are stored in frame
components, so every geometric identity reduces to canonical-form
equality of scalars.  The frame is regular at the points where one
polynomial, kept from its determinant and the entries' denominators,
does not vanish; probe points are drawn there.

Frames nest: the coordinate chart is the root context, whose fields d/dx_i
commute; a ``FramePresentation`` is a ``FrameContext`` over the chart, and
an involutive ``Subframe`` (in ``submanifolds``) is one over the
presentation.  There is one Lie bracket, ``bracket``, taken in the
components of any context from its table C.  Each context builds its own
C once, from the bracket of its fields in the parent's components.

There is one index lowering, ``MetricField.lower``: the orthogonal
projector, the Killing test and the Levi-Civita connection all contract
with the Gram matrix through it, and ``pair`` reads the same Gram rows.
The connection reads the Koszul formula from two tables built once,
e_a(g_bc) and g([e_a, e_b], e_c).  nabla_{e_a} A of an endomorphism field
is the commutator e_a(A) + Gamma_a A - A Gamma_a with the row Gamma_a of
connection matrices, and, the connection being torsion-free, the
Nijenhuis tensor of A is read off those nabla tables, bracket-free.

Every frame tensor carries its support, computed once: the nonzero
entries of a vector field, of each column of an endomorphism field, of
each Gram row and of each bracket [e_a, e_b] = sum_c C^c_ab e_c, as
ascending (index, scalar) pairs (Gram rows as maps in the same order).
An index absent from a support is exactly zero, so every contraction --
the pairing, the lowering, the bracket, the connection, the action and
composition of endomorphisms, the interior product behind form
evaluation and the exterior derivative -- loops over supports only and
skips no nonzero term; the Koszul sum and dF are taken only at the keys
that some nonzero entry reaches.  Supports ascend, so sums accumulate in
the same index order as a loop over all indices would (Gustavson, "Two
fast algorithms for sparse matrices", ACM TOMS 1978).

Convention ledger (fixed once, asserted by tests):
  * wedge products multiply coefficients with the determinant convention
    on strictly increasing index tuples (no 1/p!q! factor);
  * form evaluation carries the 1/p! factor, so that
    (a ^ b)(X, Y) = (a(X)b(Y) - a(Y)b(X)) / 2 and
    d(alpha)(X, Y) = (X alpha(Y) - Y alpha(X) - alpha([X, Y])) / 2;
  * the curvature operator is R_{XY} = [nabla_X, nabla_Y] - nabla_[X,Y].
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .scalars import ScalarError, ScalarExpr, parse_expr

Point = Mapping[str, Fraction]


class FrameError(Exception):
    pass


class ChartDomainWarning(UserWarning):
    """A symbolically nonzero quantity vanished at a probe point.  Nothing
    raises it: probes report in ``Finding.probe``.  It stays exported only
    because the benchmark's child process (``bench/child.py``) imports it."""


def _perm_sign(indices: Sequence[int]) -> int:
    sign = 1
    seq = list(indices)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class _Chart:
    """The coordinate chart, the root frame context.  Its fields d/dx_i
    commute, so every bracket coefficient is zero."""

    def __init__(self, coordinates: Sequence[str]):
        self.coordinates = tuple(coordinates)
        self.dim = len(self.coordinates)
        self.zero = ScalarExpr.constant(0, self.coordinates)
        self.one = ScalarExpr.constant(1, self.coordinates)
        self.zero_field = VectorField.from_support(self, ())

    def scalar(self, value) -> ScalarExpr:
        if isinstance(value, ScalarExpr):
            if value.vars != self.coordinates:
                raise FrameError("scalar declared over different coordinates")
            return value
        if isinstance(value, str):
            return parse_expr(value, self.coordinates)
        return ScalarExpr.constant(value, self.coordinates)

    def direction(self, i: int, f: ScalarExpr) -> ScalarExpr:
        if f.is_constant():
            return self.zero
        return f.differentiate(self.coordinates[i])

    def frame_bracket(self, a: int, b: int) -> "VectorField":
        return self.zero_field


class FrameContext:
    """A frame of vector fields e_a over a parent context, ``ambient``.

    ``fields[a]`` is e_a in the parent's components, and its derivation is
    e_a(f).  The brackets [e_a, e_b] = sum_c C^c_ab e_c are built once, at
    construction time, as fields of this frame with their supports: the
    one bracket takes [e_a, e_b] in the parent's components, and the
    subclass's ``_coefficients(v, a, b)`` reads that bracket v back in this
    frame.  So C agrees with the derivations whenever the parent's table
    does, and every later bracket is taken in frame components from C.
    """

    def __init__(self, ambient, fields: Sequence["VectorField"]):
        self.ambient = ambient
        self.fields = list(fields)
        self.coordinates = ambient.coordinates
        self.dim = len(self.fields)
        self.zero = ambient.zero
        self.one = ambient.one
        self.zero_field = VectorField.from_support(self, ())
        self._frame_fields = tuple(
            VectorField.from_support(self, ((a, self.one),))
            for a in range(self.dim))
        self._directions: Dict[Tuple[int, ScalarExpr], ScalarExpr] = {}
        r = self.dim
        self._structure: Dict[Tuple[int, int], VectorField] = {}
        for a in range(r):
            self._structure[(a, a)] = self.zero_field
            for b in range(a + 1, r):
                field = self._coefficients(
                    bracket(self.fields[a], self.fields[b]), a, b)
                self._structure[(a, b)] = field
                self._structure[(b, a)] = -field

    def scalar(self, value) -> ScalarExpr:
        return self.ambient.scalar(value)

    def vector(self, components: Sequence) -> "VectorField":
        return VectorField(self, tuple(self.scalar(c) for c in components))

    def frame_field(self, a: int) -> "VectorField":
        """e_a, one shared field per index."""
        return self._frame_fields[a]

    def direction(self, a: int, f: ScalarExpr) -> ScalarExpr:
        """e_a(f), computed once per non-constant f and kept with the
        frame."""
        if f.is_constant():
            return self.zero
        key = (a, f)
        if key not in self._directions:
            self._directions[key] = self.fields[a].apply(f)
        return self._directions[key]

    def frame_bracket(self, a: int, b: int) -> "VectorField":
        """[e_a, e_b], whose components are C^c_ab."""
        return self._structure[(a, b)]

    def pullback(self, alpha: "PForm") -> "PForm":
        """The 1-form alpha of the parent on this frame: alpha(e_a)."""
        return one_form(self, [eval_form(alpha, f) for f in self.fields])


class FramePresentation(FrameContext):
    """A frame over the coordinate chart: an invertible matrix of vector
    fields with rational-function coefficients.

    ``frame[i][a]`` is the coefficient of d/dx_i in the frame field e_a, so
    the fields are the columns of ``frame``.  An entry is a `ScalarExpr`
    over the coordinates, as a scenario passes from its parse table, or
    a text parsed here; so is each Gram entry of `MetricField`.  C is
    read back from the coordinate bracket with the dual coframe.  One
    reduction of [frame | I] gives both the coframe and, from its pivots,
    the determinant that the regularity polynomial keeps.
    """

    def __init__(self, coordinates: Sequence[str], frame: Sequence[Sequence],
                 base_point: Mapping[str, object]):
        chart = _Chart(coordinates)
        n = chart.dim
        if len(frame) != n or any(len(row) != n for row in frame):
            raise FrameError("frame matrix must be square of the chart dimension")
        self.frame = [[chart.scalar(entry) for entry in row] for row in frame]
        self.base_point = {name: Fraction(value)
                           for name, value in base_point.items()}
        missing = set(chart.coordinates) - set(self.base_point)
        if missing:
            raise FrameError(f"base point does not assign {sorted(missing)}")
        try:
            self.coframe, det = linalg.inverse_and_determinant(self.frame)
        except linalg.LinearAlgebraError:
            raise FrameError("frame matrix is singular over the scalar field")
        # det's denominator divides a power of the entries' denominators, so
        # this product vanishes exactly where an entry has a pole or the
        # frame matrix is singular
        self._regularity = _polynomial(det.num, chart.coordinates) \
            * pole_polynomial(self.frame)
        if not self.is_regular_at(self.base_point):
            raise FrameError("frame matrix is singular at the base point")
        # the support of column i of the coframe: d/dx_i in the frame
        self._coframe_columns = [_nonzeros(column)
                                 for column in zip(*self.coframe)]
        super().__init__(chart, [VectorField(chart, column)
                                 for column in zip(*self.frame)])

    def _coefficients(self, v: "VectorField", a: int, b: int
                      ) -> "VectorField":
        sums: Dict[int, ScalarExpr] = {}
        for i, vi in v.support:
            _accumulate(sums, vi, self._coframe_columns[i])
        return VectorField.from_sums(self, sums)

    def is_regular_at(self, point: Point) -> bool:
        """Whether every frame entry is defined at ``point`` and the frame
        matrix is invertible there."""
        return self._regularity.evaluate(point) != 0


def _polynomial(terms, coordinates: Tuple[str, ...]) -> ScalarExpr:
    """The polynomial with integer-coefficient ``terms``."""
    return ScalarExpr(coordinates, terms, {(0,) * len(coordinates): 1})


def pole_polynomial(matrix: Sequence[Sequence[ScalarExpr]]) -> ScalarExpr:
    """The product of the distinct denominators of the entries of
    ``matrix``, which vanishes exactly where an entry has a pole."""
    coordinates = matrix[0][0].vars
    poles: List[ScalarExpr] = []
    for row in matrix:
        for entry in row:
            if entry.const:
                continue
            pole = _polynomial(entry.den, coordinates)
            if not pole.is_constant() and pole not in poles:
                poles.append(pole)
    product = ScalarExpr.constant(1, coordinates)
    for pole in poles:
        product = product * pole
    return product


def _nonzeros(entries: Sequence[ScalarExpr]
              ) -> Tuple[Tuple[int, ScalarExpr], ...]:
    """The support of ``entries``: its nonzero (index, entry) pairs."""
    return tuple((a, entry) for a, entry in enumerate(entries) if entry)


def add_term(sums: dict, key, value: ScalarExpr,
             negate: bool = False) -> None:
    """sums[key] += value, or -= value when ``negate``; an absent key is
    zero."""
    if key in sums:
        sums[key] = sums[key] - value if negate else sums[key] + value
    else:
        sums[key] = -value if negate else value


def _accumulate(sums: Dict[int, ScalarExpr], factor: ScalarExpr,
                support, negate: bool = False) -> None:
    """sums[c] += factor * v for every pair (c, v) of ``support``, or -=
    when ``negate``."""
    for c, v in support:
        add_term(sums, c, factor * v, negate)


class VectorField:
    """A vector field in frame components; ``support`` holds the nonzero
    components as ascending (index, scalar) pairs."""

    __slots__ = ("frame", "components", "support")

    def __init__(self, frame: FramePresentation, components: Tuple[ScalarExpr, ...]):
        if len(components) != frame.dim:
            raise FrameError("component count must equal the frame dimension")
        self.frame = frame
        self.components = tuple(components)
        self.support = _nonzeros(self.components)

    @classmethod
    def from_support(cls, frame, support) -> "VectorField":
        """The field whose nonzero components are the ascending pairs of
        ``support``."""
        field = object.__new__(cls)
        components = [frame.zero] * frame.dim
        for a, value in support:
            components[a] = value
        field.frame = frame
        field.components = tuple(components)
        field.support = tuple(support)
        return field

    @classmethod
    def from_sums(cls, frame, sums: Mapping[int, ScalarExpr]
                  ) -> "VectorField":
        """The field with components ``sums``, by index; an absent index
        and a sum that cancelled are zero, and a field with no nonzero
        component is the context's shared zero field."""
        support = [(a, sums[a]) for a in sorted(sums) if sums[a]]
        return cls.from_support(frame, support) if support \
            else frame.zero_field

    @classmethod
    def zero(cls, frame) -> "VectorField":
        """The zero field of ``frame``, one shared per context."""
        return frame.zero_field

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        if not other.support:
            return self
        if not self.support:
            return other
        sums = dict(self.support)
        for a, value in other.support:
            add_term(sums, a, value)
        return VectorField.from_sums(self.frame, sums)

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        if not other.support:
            return self
        sums = dict(self.support)
        for a, value in other.support:
            add_term(sums, a, value, negate=True)
        return VectorField.from_sums(self.frame, sums)

    def __neg__(self) -> "VectorField":
        return VectorField.from_support(
            self.frame, [(a, -value) for a, value in self.support])

    def scale(self, factor: ScalarExpr) -> "VectorField":
        # a product of nonzero rational functions is nonzero
        if not factor:
            return VectorField.zero(self.frame)
        return VectorField.from_support(
            self.frame, [(a, factor * value) for a, value in self.support])

    def is_zero(self) -> bool:
        return not self.support

    def _check(self, other: "VectorField") -> None:
        if self.frame is not other.frame:
            raise FrameError("mismatched frame presentations")

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative of a scalar along this field."""
        if f.is_constant():
            return self.frame.zero
        acc = None
        for a, comp in self.support:
            derivative = self.frame.direction(a, f)
            if derivative:
                term = comp * derivative
                acc = term if acc is None else acc + term
        return self.frame.zero if acc is None else acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField) and self.frame is other.frame
                and self.support == other.support)

    def __hash__(self):
        return hash(self.support)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def combination(frame, terms) -> VectorField:
    """sum c X over the (c, X, negated) of ``terms``, -c X where negated,
    over the supports of the X; a zero or None c adds nothing."""
    sums: Dict[int, ScalarExpr] = {}
    for factor, field, negate in terms:
        if factor:
            _accumulate(sums, factor, field.support, negate)
    return VectorField.from_sums(frame, sums)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Exact Lie bracket in frame components.

    [X, Y]^c = X(Y^c) - Y(X^c) + sum_ab X^a Y^b C^c_ab, with C the bracket
    coefficients of the context, so this works on any frame context.  A
    constant component has no derivative, and only the supports of X, Y
    and [e_a, e_b] enter the sum.
    """
    x._check(y)
    context = x.frame
    sums: Dict[int, ScalarExpr] = {}
    for c, yc in y.support:
        derivative = x.apply(yc)
        if derivative:
            sums[c] = derivative
    for c, xc in x.support:
        derivative = y.apply(xc)
        if derivative:
            add_term(sums, c, derivative, negate=True)
    for a, xa in x.support:
        for b, yb in y.support:
            if a != b:
                structure = context.frame_bracket(a, b).support
                if structure:
                    _accumulate(sums, xa * yb, structure)
    return VectorField.from_sums(context, sums)


class PForm:
    """Alternating p-form stored on strictly increasing coframe tuples."""

    __slots__ = ("context", "degree", "coeffs")

    def __init__(self, context, degree: int, coeffs: Mapping[Tuple[int, ...], ScalarExpr]):
        if degree > context.dim:
            raise FrameError("form degree exceeds the frame dimension")
        self.context = context
        self.degree = degree
        self.coeffs = {}
        for key, value in coeffs.items():
            if list(key) != sorted(key) or len(set(key)) != len(key):
                raise FrameError("form keys must be strictly increasing tuples")
            if len(key) != degree:
                raise FrameError("form key length must match the degree")
            if not value.is_zero():
                self.coeffs[tuple(key)] = value

    def get(self, key: Sequence[int]) -> ScalarExpr:
        """Coefficient on an arbitrary tuple, resolved by sign-sorting."""
        if len(set(key)) != len(key):
            return self.context.zero
        ordered = tuple(sorted(key))
        coeff = self.coeffs.get(ordered)
        if coeff is None:
            return self.context.zero
        return coeff if _perm_sign(key) == 1 else -coeff

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PForm") -> "PForm":
        if self.degree != other.degree or self.context is not other.context:
            raise FrameError("cannot add forms of different degree or context")
        keys = set(self.coeffs) | set(other.coeffs)
        return PForm(self.context, self.degree,
                     {k: self.get(k) + other.get(k) for k in keys})

    def __sub__(self, other: "PForm") -> "PForm":
        return self + other.scale(self.context.scalar(-1))

    def scale(self, factor: ScalarExpr) -> "PForm":
        return PForm(self.context, self.degree,
                     {k: factor * v for k, v in self.coeffs.items()})

    def nonzero_witness(self) -> Optional[Tuple[Tuple[int, ...], ScalarExpr]]:
        for key in sorted(self.coeffs):
            return key, self.coeffs[key]
        return None

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"PForm(deg={self.degree}, {{{inner}}})"


def one_form(context, components: Sequence[ScalarExpr]) -> PForm:
    return PForm(context, 1, {(a,): c for a, c in enumerate(components)})


def wedge(a: PForm, b: PForm) -> PForm:
    if a.context is not b.context:
        raise FrameError("wedge operands live on different contexts")
    degree = a.degree + b.degree
    if degree > a.context.dim:
        raise FrameError("wedge degree exceeds the frame dimension")
    coeffs: Dict[Tuple[int, ...], ScalarExpr] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            if set(ka) & set(kb):
                continue
            merged = ka + kb
            ordered = tuple(sorted(merged))
            term = va * vb
            if _perm_sign(merged) == -1:
                term = -term
            if ordered in coeffs:
                coeffs[ordered] = coeffs[ordered] + term
            else:
                coeffs[ordered] = term
    return PForm(a.context, degree, coeffs)


def form_power(a: PForm, n: int) -> PForm:
    if n == 0:
        return PForm(a.context, 0, {(): a.context.one})
    result = a
    for _ in range(n - 1):
        result = wedge(result, a)
    return result


def eval_form(form: PForm, *fields) -> ScalarExpr:
    """Contract a p-form with p vector fields (1/p! convention), one
    interior product per field: F(X, Y, ...) = (i_X F)(Y, ...)."""
    if len(fields) != form.degree:
        raise FrameError("wrong number of arguments for the form degree")
    for field in fields:
        form = interior(form, field)
    return form.coeffs.get((), form.context.zero)


def interior(form: PForm, x: VectorField) -> PForm:
    """The (p-1)-form i_X F with (i_X F)(Y, ...) = F(X, Y, ...): under the
    1/p! evaluation its coefficient on L is (1/p) sum_k X^k F_kL, taken
    over the nonzero coefficients of F and the support of x."""
    if form.degree == 0:
        raise FrameError("interior product of a 0-form")
    sums: Dict[Tuple[int, ...], ScalarExpr] = {}
    components = x.components
    for key, value in form.coeffs.items():
        for i, k in enumerate(key):
            if components[k]:
                add_term(sums, key[:i] + key[i + 1:], components[k] * value,
                         negate=i % 2 == 1)
    if form.degree > 1:
        factor = form.context.scalar(Fraction(1, form.degree))
        sums = {key: factor * value for key, value in sums.items()}
    return PForm(form.context, form.degree - 1, sums)


def form_rows(form: PForm) -> List[List[ScalarExpr]]:
    """The linear conditions F(X) = 0 of a 1-form, one row, or i_X F = 0
    of a 2-form, the rows [F(e_a, e_b)]_a for each b, from the nonzero
    coefficients."""
    n, zero = form.context.dim, form.context.zero
    if form.degree == 1:
        return [[form.coeffs.get((a,), zero) for a in range(n)]]
    rows = [[zero] * n for _ in range(n)]
    for (a, b), value in form.coeffs.items():
        rows[b][a], rows[a][b] = value, -value
    return rows


def exterior_derivative(form: PForm) -> PForm:
    """Frame-formula exterior derivative, matched to the 1/p! evaluation:

    dF(e_k0, ..., e_kp) = sum_i (-1)^i e_ki(F(..., ^k_i, ...))
        + sum_{i<j} (-1)^(i+j) sum_c C^c_kikj F(e_c, ..., ^k_i, ^k_j, ...),

    summed in that order at the keys where some term is nonzero: those
    that the nonzero non-constant coefficients of F and the supports of
    the brackets [e_p, e_q] reach."""
    context = form.context
    n = context.dim
    if form.degree >= n:
        raise FrameError("cannot take d of a top-degree form")
    # the keys where some term is nonzero
    keys = set()
    for rest, f in form.coeffs.items():
        if not f.is_constant():
            keys.update(tuple(sorted(rest + (a,)))
                        for a in range(n) if a not in rest)
    for p in range(n):
        for q in range(p + 1, n):
            for c, _ in context.frame_bracket(p, q).support:
                for key in form.coeffs:
                    rest = tuple(k for k in key if k != c)
                    if c in key and p not in rest and q not in rest:
                        keys.add(tuple(sorted(rest + (p, q))))
    zero = context.zero
    coeffs: Dict[Tuple[int, ...], ScalarExpr] = {}
    for key in sorted(keys):
        acc = zero
        for i, a in enumerate(key):
            term = context.direction(a, form.get(key[:i] + key[i + 1:]))
            acc = acc + term if i % 2 == 0 else acc - term
        for i in range(len(key)):
            for j in range(i + 1, len(key)):
                rest = tuple(k for t, k in enumerate(key) if t not in (i, j))
                inner = zero
                for c, cij in context.frame_bracket(key[i], key[j]).support:
                    inner = inner + cij * form.get((c,) + rest)
                acc = acc - inner if (i + j) % 2 == 1 else acc + inner
        coeffs[key] = acc
    return PForm(context, form.degree + 1, coeffs)


PROBE_COUNT = 8
PROBE_ATTEMPTS = 100


def seeded_probe_points(presentation, seed: int = 1
                        ) -> List[Dict[str, Fraction]]:
    """``PROBE_COUNT`` deterministic rational probe points where the frame
    stays invertible, drawn in at most ``PROBE_ATTEMPTS`` tries.

    Coordinates get nonzero numerators and denominators at most 16, keeping
    exact cross-checks cheap.
    """
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < PROBE_COUNT:
        attempts += 1
        if attempts > PROBE_ATTEMPTS:
            raise FrameError("could not sample regular probe points")
        point = {}
        for name in presentation.coordinates:
            num = rng.randint(1, 16) * rng.choice((-1, 1))
            den = rng.randint(1, 16)
            point[name] = Fraction(num, den)
        if presentation.is_regular_at(point):
            points.append(point)
    return points


def nonvanishing_certificate(label: str, values: Sequence[ScalarExpr],
                             points: Sequence[Point]) -> Tuple[bool, str]:
    """Probe a symbolically nonzero family: whether it is certified, and
    the text naming the first probe point that kills it, or "".

    It is certified when it is nonzero at every probe point where it is
    defined (a pole skips the point) and at least one was evaluated.  A
    family with a nonzero constant member vanishes nowhere, so it is
    certified without probing, even when the others have poles there.
    """
    if any(v.is_constant() and not v.is_zero() for v in values):
        return True, ""
    checked = False
    for point in points:
        try:
            vanishes = all(v.evaluate(point) == 0 for v in values)
        except ScalarError:
            continue
        if vanishes:
            return False, (f"{label} vanishes at probe {dict(point)}; "
                           "verdict holds only off this locus")
        checked = True
    return checked, ""


def cartan_class(alpha: PForm) -> int:
    """Elie Cartan class of a 1-form on its context.

    The class is 2p+1 when alpha ^ (d alpha)^p is nonzero and (d alpha)^{p+1}
    vanishes identically, and 2p+2 when (d alpha)^{p+1} is nonzero while
    alpha ^ (d alpha)^{p+1} vanishes.  Nonvanishing means a nonzero canonical
    coefficient; no point is probed.  Wedge powers, not a rank over the
    scalar field: on dense nonconstant forms the gcds of a row reduction
    grow far beyond them.
    """
    if alpha.degree != 1:
        raise FrameError("Cartan class is defined for 1-forms")
    return _cartan_class(alpha, exterior_derivative(alpha), (), "")[0]


def _cartan_class(alpha: PForm, d_alpha: PForm, probe_points: Sequence[Point],
                  label: str) -> Tuple[int, str]:
    """``cartan_class`` of alpha with exterior derivative d_alpha, and the
    probe text of the class's witness form (``nonvanishing_certificate``)."""
    context = alpha.context
    n = context.dim
    power = PForm(context, 0, {(): context.one})
    r = 0
    while 2 * (r + 1) <= n:
        candidate = wedge(power, d_alpha)
        if candidate.is_zero():
            break
        power = candidate
        r += 1
    if 2 * r + 1 > n:
        top = PForm(context, 0, {})
    elif r == 0:
        top = alpha
    else:
        top = wedge(alpha, power)
    if not top.is_zero():
        cls = 2 * r + 1
        witness = top
    else:
        cls = 2 * r
        witness = power
    return cls, nonvanishing_certificate(
        f"Cartan-class witness of {label}", list(witness.coeffs.values()),
        probe_points)[1]


class EndoField:
    """Endomorphism field on the frame basis, stored by columns: column a is
    phi(e_a), a field with its support."""

    __slots__ = ("frame", "columns")

    def __init__(self, frame: FramePresentation, matrix: Sequence[Sequence[ScalarExpr]]):
        n = frame.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise FrameError("endomorphism matrix must be n x n")
        self.frame = frame
        self.columns = tuple(VectorField(frame, column)
                             for column in zip(*matrix))

    @classmethod
    def from_fields(cls, frame, fields: Sequence[VectorField]) -> "EndoField":
        """The endomorphism with image ``fields[a]`` of e_a."""
        endo = object.__new__(cls)
        endo.frame = frame
        endo.columns = tuple(fields)
        return endo

    @classmethod
    def identity(cls, frame: FramePresentation) -> "EndoField":
        return cls.from_fields(frame, [frame.frame_field(a)
                                       for a in range(frame.dim)])

    @classmethod
    def outer(cls, alpha: PForm, z: VectorField) -> "EndoField":
        """Tensor product alpha (x) Z as an endomorphism field."""
        frame = z.frame
        return cls.from_fields(frame, [z.scale(alpha.get((a,)))
                                       for a in range(frame.dim)])

    @property
    def matrix(self) -> List[List[ScalarExpr]]:
        """The frame-basis matrix, row c holding the e_c components."""
        return [list(row) for row in
                zip(*(column.components for column in self.columns))]

    def _image(self, support) -> VectorField:
        """sum_a x^a phi(e_a) over the pairs (a, x^a) of ``support`` and
        the supports of the columns."""
        sums: Dict[int, ScalarExpr] = {}
        for a, xa in support:
            _accumulate(sums, xa, self.columns[a].support)
        return VectorField.from_sums(self.frame, sums)

    def apply(self, x: VectorField) -> VectorField:
        return self._image(x.support)

    def column(self, a: int) -> VectorField:
        """The image of the frame field e_a."""
        return self.columns[a]

    def compose(self, other: "EndoField") -> "EndoField":
        return EndoField.from_fields(self.frame, [
            self._image(column.support) for column in other.columns])

    def __add__(self, other: "EndoField") -> "EndoField":
        return EndoField.from_fields(self.frame, [
            a + b for a, b in zip(self.columns, other.columns)])

    def __sub__(self, other: "EndoField") -> "EndoField":
        return EndoField.from_fields(self.frame, [
            a - b for a, b in zip(self.columns, other.columns)])

    def __neg__(self) -> "EndoField":
        return EndoField.from_fields(self.frame, [-a for a in self.columns])

    def scale(self, factor: ScalarExpr) -> "EndoField":
        return EndoField.from_fields(self.frame, [a.scale(factor)
                                                  for a in self.columns])

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.columns)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EndoField) and self.frame is other.frame
                and self.columns == other.columns)


class MetricField:
    """Riemannian metric as a symmetric Gram matrix on the frame; ``lower``
    is the one contraction of a vector with it, and ``pair`` reads the
    same rows.  Each Gram row is kept as a map from index to nonzero
    entry, ascending."""

    def __init__(self, frame: FramePresentation, gram: Sequence[Sequence]):
        n = frame.dim
        self.frame = frame
        self.gram = [[frame.scalar(entry) for entry in row] for row in gram]
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise FrameError("Gram matrix must be n x n")
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise FrameError("Gram matrix must be symmetric")
        try:
            self.inverse = linalg.invert(self.gram)
        except linalg.LinearAlgebraError:
            raise FrameError("Gram matrix is singular over the scalar field")
        try:
            at_base = [[entry.evaluate(frame.base_point) for entry in row]
                       for row in self.gram]
        except ScalarError as exc:
            raise FrameError(f"metric has a pole at the base point ({exc})")
        # Sylvester's criterion: the k-th pivot of elimination without row
        # swaps is D_k / D_{k-1}, so all leading minors D_k are positive
        # exactly when no row is swapped, the pivots sit on the diagonal and
        # every pivot is positive
        _, pivots, values, swaps = linalg.row_reduce(at_base, n)
        if swaps or pivots != list(range(n)) or any(v <= 0 for v in values):
            raise FrameError("metric is not positive definite at the base point")
        self.rows = [dict(_nonzeros(row)) for row in self.gram]

    def lowered(self, x: VectorField) -> Dict[int, ScalarExpr]:
        """g(x, e_c) by index c, over the Gram rows of the support of x;
        an absent index is zero.  g is symmetric, so row a of the Gram
        matrix is its column a."""
        sums: Dict[int, ScalarExpr] = {}
        for a, xa in x.support:
            _accumulate(sums, xa, self.rows[a].items())
        return sums

    def lower(self, x: VectorField) -> List[ScalarExpr]:
        """g(x, e_c) for every frame index c: x with its index lowered."""
        sums = self.lowered(x)
        zero = self.frame.zero
        return [sums.get(c, zero) for c in range(self.frame.dim)]

    def pair(self, x: VectorField, y: VectorField) -> ScalarExpr:
        """sum_b (sum_a x^a g_ab) y^b over the supports of x and y."""
        acc = None
        for b, yb in y.support:
            row = self.rows[b]
            inner = None
            for a, xa in x.support:
                g_ab = row.get(a)
                if g_ab is not None:
                    term = xa * g_ab
                    inner = term if inner is None else inner + term
            if inner is not None:
                term = inner * yb
                acc = term if acc is None else acc + term
        return self.frame.zero if acc is None else acc

    def norm_squared(self, x: VectorField) -> ScalarExpr:
        return self.pair(x, x)


def orthogonal_projector(metric: MetricField, span: Sequence[VectorField],
                         gram_inverse: Sequence[Sequence[ScalarExpr]]
                         ) -> EndoField:
    """g-orthogonal projection onto a span, P = S G^-1 S^T g.

    S has the span fields s_i as columns and ``gram_inverse`` is the inverse
    of their Gram matrix G = S^T g S; S^T g is ``metric.lowered`` of each
    field.  Column a of P, the projection of e_a, is sum_j k_j s_j with
    k_j = sum_i (G^-1)_ji g(s_i, e_a); P is zero for an empty span.
    """
    frame = metric.frame
    lowered = [metric.lowered(s) for s in span]
    # G^-1 is symmetric, so row i of it is its column i
    inverse_rows = [_nonzeros(row) for row in gram_inverse]
    columns = []
    for a in range(frame.dim):
        coefficients: Dict[int, ScalarExpr] = {}
        for i, low in enumerate(lowered):
            if a in low:
                _accumulate(coefficients, low[a], inverse_rows[i])
        sums: Dict[int, ScalarExpr] = {}
        for j, k in sorted(coefficients.items()):
            if k:
                _accumulate(sums, k, span[j].support)
        columns.append(VectorField.from_sums(frame, sums))
    return EndoField.from_fields(frame, columns)


class LeviCivita:
    """Levi-Civita connection solved from the Koszul formula on the frame:

    2 g(nabla_{e_a} e_b, e_c) = e_a(g_bc) + e_b(g_ac) - e_c(g_ab)
        + g([e_a, e_b], e_c) - g([e_a, e_c], e_b) - g([e_b, e_c], e_a).

    Each nonzero e_a(g_bc) and g([e_a, e_b], e_c) is computed once, in a
    table, and the sum reads it three times, at the keys where some term is
    nonzero; a constant Gram entry has no derivative."""

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.frame = frame = metric.frame
        n = frame.dim
        half = ScalarExpr.constant(Fraction(1, 2), frame.coordinates)
        # derivative[(a, b, c)] = e_a(g_bc), nonzero entries only
        derivative: Dict[Tuple[int, int, int], ScalarExpr] = {}
        for b, row in enumerate(metric.rows):
            for c, g_bc in row.items():
                if not g_bc.is_constant():
                    for a in range(n):
                        value = frame.direction(a, g_bc)
                        if value:
                            derivative[(a, b, c)] = value
        # lowered[(a, b, c)] = g([e_a, e_b], e_c), nonzero entries only
        lowered: Dict[Tuple[int, int, int], ScalarExpr] = {
            (a, b, c): value for a in range(n) for b in range(n)
            for c, value in metric.lowered(frame.frame_bracket(a, b)).items()
            if value}
        # the keys (a, b, c) where some Koszul term is nonzero
        keys = set(derivative) | set(lowered)
        keys |= {(q, p, r) for p, q, r in derivative}
        keys |= {(q, r, p) for p, q, r in derivative}
        keys |= {(p, r, q) for p, q, r in lowered}
        keys |= {(r, p, q) for p, q, r in lowered}
        zero = frame.zero

        def e(a: int, b: int, c: int) -> ScalarExpr:
            return derivative.get((a, b, c), zero)

        def g(a: int, b: int, c: int) -> ScalarExpr:
            return lowered.get((a, b, c), zero)

        # g^-1 is symmetric, so row c of it is its column c
        inverse_rows = [_nonzeros(row) for row in metric.inverse]
        sums: Dict[Tuple[int, int], Dict[int, ScalarExpr]] = {}
        for a, b, c in sorted(keys):
            koszul = half * (e(a, b, c) + e(b, a, c) - e(c, a, b)
                             + g(a, b, c) - g(a, c, b) - g(b, c, a))
            if koszul:
                _accumulate(sums.setdefault((a, b), {}), koszul,
                            inverse_rows[c])
        # gamma[a][b] = nabla_{e_a} e_b
        self.gamma = [[VectorField.from_sums(frame, sums.get((a, b), {}))
                       for b in range(n)] for a in range(n)]

    def nabla(self, x: VectorField, y: VectorField) -> VectorField:
        """Covariant derivative, function-linear in x and Leibniz in y:
        (nabla_X Y)^c = X(Y^c) + sum_ab X^a Y^b Gamma^c_ab."""
        frame = self.frame
        sums: Dict[int, ScalarExpr] = {}
        for a, xa in x.support:
            for c, yc in y.support:
                derivative = frame.direction(a, yc)
                if derivative:
                    add_term(sums, c, xa * derivative)
            gamma = self.gamma[a]
            for b, yb in y.support:
                christoffel = gamma[b].support
                if christoffel:
                    _accumulate(sums, xa * yb, christoffel)
        return VectorField.from_sums(frame, sums)

    def nabla_endo(self, a: int, endo: EndoField) -> List[VectorField]:
        """(nabla_{e_a} A) e_b for every b: e_a(A) + Gamma_a A - A Gamma_a,
        Gamma_a being e_b -> nabla_{e_a} e_b, the row ``gamma[a]``."""
        frame, gamma, columns = self.frame, self.gamma[a], endo.columns
        out = []
        for b, column in enumerate(columns):
            # e_a(A e_b); a zero derivative adds nothing to the field
            sums = {c: frame.direction(a, value)
                    for c, value in column.support}
            for c, value in column.support:
                _accumulate(sums, value, gamma[c].support)
            for c, value in gamma[b].support:
                _accumulate(sums, value, columns[c].support, negate=True)
            out.append(VectorField.from_sums(frame, sums))
        return out


def lie_derivative_endo(z: VectorField, endo: EndoField) -> EndoField:
    """(L_Z phi)(X) = [Z, phi X] - phi [Z, X], assembled on the frame basis."""
    frame = z.frame
    return EndoField.from_fields(frame, [
        bracket(z, endo.column(a))
        - endo.apply(bracket(z, frame.frame_field(a)))
        for a in range(frame.dim)])


def is_killing(nabla: EndoField, metric: MetricField) -> bool:
    """Killing test of a field Z from nabla Z, whose column a is
    nabla_{e_a} Z: g(nabla_X Z, Y) + g(X, nabla_Y Z) vanishes on frame
    pairs.  Each column is lowered once, and a pair that is zero on both
    sides has no entry."""
    zero = metric.frame.zero
    # lowered[a][b] = g(nabla_{e_a} Z, e_b)
    lowered = [metric.lowered(column) for column in nabla.columns]
    return all(not value + lowered[b].get(a, zero)
               for a, row in enumerate(lowered) for b, value in row.items())


def nijenhuis(endo: EndoField, nabla: Sequence[Sequence[VectorField]]
              ) -> Dict[Tuple[int, int], VectorField]:
    """Nijenhuis tensor of an endomorphism field A on frame pairs a < b,
    from nabla[c][b] = (nabla_{e_c} A) e_b of a torsion-free connection
    (Kobayashi and Nomizu, Foundations of Differential Geometry II, ch. IX):

    [A, A](X, Y) = A^2 [X, Y] - A [AX, Y] - A [X, AY] + [AX, AY]
                 = (nabla_{AX} A) Y - (nabla_{AY} A) X
                   - A((nabla_X A) Y - (nabla_Y A) X).

    nabla_{AX} is function-linear in AX, so a pair sums over the supports
    of A e_a, A e_b and two table entries, and is the shared zero field
    when all four are zero."""
    frame, columns = endo.frame, endo.columns
    out = {}
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            ab, ba = nabla[a][b].support, nabla[b][a].support
            if not (columns[a].support or columns[b].support or ab or ba):
                out[(a, b)] = frame.zero_field
                continue
            sums: Dict[int, ScalarExpr] = {}
            for c, value in columns[a].support:
                _accumulate(sums, value, nabla[c][b].support)
            for c, value in columns[b].support:
                _accumulate(sums, value, nabla[c][a].support, negate=True)
            for c, value in ab:
                _accumulate(sums, value, columns[c].support, negate=True)
            for c, value in ba:
                _accumulate(sums, value, columns[c].support)
            out[(a, b)] = VectorField.from_sums(frame, sums)
    return out
