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

There is one index lowering, ``MetricField.lower``: the pairing, the
orthogonal projector, the Killing test and the Levi-Civita connection all
contract with the Gram matrix through it.  The connection reads the Koszul
formula from two tables built once, e_a(g_bc) and g([e_a, e_b], e_c).

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
import warnings
from fractions import Fraction
from itertools import combinations
from operator import add, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .linalg import dot
from .scalars import ScalarError, ScalarExpr, parse_expr

Point = Mapping[str, Fraction]


class FrameError(Exception):
    pass


class ChartDomainWarning(UserWarning):
    """A symbolically nonzero quantity vanished at a probe point."""


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
        self._commuting = (self.zero,) * self.dim

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

    def bracket_coeffs(self, a: int, b: int) -> Tuple[ScalarExpr, ...]:
        return self._commuting


class FrameContext:
    """A frame of vector fields e_a over a parent context, ``ambient``.

    ``fields[a]`` is e_a in the parent's components, and its derivation is
    e_a(f).  The bracket coefficients C^c_ab with
    [e_a, e_b] = sum_c C^c_ab e_c are built once, at construction time: the
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
        r = self.dim
        self._structure: Dict[Tuple[int, int], Tuple[ScalarExpr, ...]] = {}
        for a in range(r):
            self._structure[(a, a)] = (self.zero,) * r
            for b in range(a + 1, r):
                comps = tuple(self._coefficients(
                    bracket(self.fields[a], self.fields[b]), a, b))
                self._structure[(a, b)] = comps
                self._structure[(b, a)] = tuple(-c for c in comps)

    def scalar(self, value) -> ScalarExpr:
        return self.ambient.scalar(value)

    def vector(self, components: Sequence) -> "VectorField":
        return VectorField(self, tuple(self.scalar(c) for c in components))

    def frame_field(self, a: int) -> "VectorField":
        comps = tuple(self.one if b == a else self.zero for b in range(self.dim))
        return VectorField(self, comps)

    def direction(self, a: int, f: ScalarExpr) -> ScalarExpr:
        return self.fields[a].apply(f)

    def bracket_coeffs(self, a: int, b: int) -> Tuple[ScalarExpr, ...]:
        return self._structure[(a, b)]

    def pullback(self, alpha: "PForm") -> "PForm":
        """The 1-form alpha of the parent on this frame: alpha(e_a)."""
        return one_form(self, [eval_form(alpha, f) for f in self.fields])


class FramePresentation(FrameContext):
    """A frame over the coordinate chart: an invertible matrix of vector
    fields with rational-function coefficients.

    ``frame[i][a]`` is the coefficient of d/dx_i in the frame field e_a, so
    the fields are the columns of ``frame``.  C is read back from the
    coordinate bracket with the dual coframe.
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
        det = linalg.determinant(self.frame)
        if det.is_zero():
            raise FrameError("frame matrix is singular over the scalar field")
        # det's denominator divides a power of the entries' denominators, so
        # this product vanishes exactly where an entry has a pole or the
        # frame matrix is singular
        self._regularity = _polynomial(det.num, chart.coordinates) \
            * pole_polynomial(self.frame)
        if not self.is_regular_at(self.base_point):
            raise FrameError("frame matrix is singular at the base point")
        self.coframe = linalg.invert(self.frame)
        super().__init__(chart, [VectorField(chart, column)
                                 for column in zip(*self.frame)])

    def _coefficients(self, v: "VectorField", a: int, b: int
                      ) -> Sequence[ScalarExpr]:
        return [dot(row, v.components, self.zero) for row in self.coframe]

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
            pole = _polynomial(entry.den, coordinates)
            if not pole.is_constant() and pole not in poles:
                poles.append(pole)
    product = ScalarExpr.constant(1, coordinates)
    for pole in poles:
        product = product * pole
    return product


class VectorField:
    __slots__ = ("frame", "components")

    def __init__(self, frame: FramePresentation, components: Tuple[ScalarExpr, ...]):
        if len(components) != frame.dim:
            raise FrameError("component count must equal the frame dimension")
        self.frame = frame
        self.components = tuple(components)

    @classmethod
    def zero(cls, frame) -> "VectorField":
        return cls(frame, (frame.zero,) * frame.dim)

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.frame, tuple(map(add, self.components,
                                                 other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.frame, tuple(map(sub, self.components,
                                                 other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.frame, tuple(-a for a in self.components))

    def scale(self, factor: ScalarExpr) -> "VectorField":
        return VectorField(self.frame, tuple(factor * a
                                             for a in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _check(self, other: "VectorField") -> None:
        if self.frame is not other.frame:
            raise FrameError("mismatched frame presentations")

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative of a scalar along this field."""
        acc = self.frame.zero
        if f.is_constant():
            return acc
        for a, comp in enumerate(self.components):
            if not comp.is_zero():
                derivative = self.frame.direction(a, f)
                if not derivative.is_zero():
                    acc = acc + comp * derivative
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField) and self.frame is other.frame
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Exact Lie bracket in frame components.

    [X, Y]^c = X(Y^c) - Y(X^c) + sum_ab X^a Y^b C^c_ab, with C the bracket
    coefficients of the context, so this works on any frame context.
    """
    x._check(y)
    context = x.frame
    comps = [x.apply(yc) - y.apply(xc)
             for xc, yc in zip(x.components, y.components)]
    ys = [(b, yb) for b, yb in enumerate(y.components) if not yb.is_zero()]
    for a, xa in enumerate(x.components):
        if xa.is_zero():
            continue
        for b, yb in ys:
            if a == b:
                continue
            coeff = None
            for c, cab in enumerate(context.bracket_coeffs(a, b)):
                if cab.is_zero():
                    continue
                if coeff is None:
                    coeff = xa * yb
                comps[c] = comps[c] + coeff * cab
    return VectorField(context, tuple(comps))


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

    @classmethod
    def zero_form(cls, context, degree: int) -> "PForm":
        return cls(context, degree, {})

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


def _det(matrix: List[List[ScalarExpr]], zero: ScalarExpr) -> ScalarExpr:
    """Cofactor expansion along the first row, skipping zero entries."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = zero
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = _det([row[:j] + row[j + 1:] for row in matrix[1:]], zero)
        if minor.is_zero():
            continue
        term = matrix[0][j] * minor
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def eval_form(form: PForm, *fields) -> ScalarExpr:
    """Contract a p-form with p vector fields (1/p! convention)."""
    if len(fields) != form.degree:
        raise FrameError("wrong number of arguments for the form degree")
    zero = form.context.zero
    if form.degree == 0:
        return form.coeffs.get((), zero)
    comps = [f.components if isinstance(f, VectorField) else tuple(f)
             for f in fields]
    acc = zero
    for key, coeff in form.coeffs.items():
        matrix = [[comps[j][key[i]] for j in range(form.degree)]
                  for i in range(form.degree)]
        det = _det(matrix, zero)
        if not det.is_zero():
            acc = acc + coeff * det
    if acc.is_zero():
        return acc
    p_factorial = 1
    for i in range(2, form.degree + 1):
        p_factorial *= i
    return acc * form.context.scalar(Fraction(1, p_factorial))


def exterior_derivative(form: PForm) -> PForm:
    """Frame-formula exterior derivative, matched to the 1/p! evaluation."""
    context = form.context
    n = context.dim
    if form.degree >= n:
        raise FrameError("cannot take d of a top-degree form")
    zero = context.zero
    coeffs: Dict[Tuple[int, ...], ScalarExpr] = {}
    for key in combinations(range(n), form.degree + 1):
        acc = zero
        for i, a in enumerate(key):
            rest = key[:i] + key[i + 1:]
            term = context.direction(a, form.get(rest))
            acc = acc + term if i % 2 == 0 else acc - term
        for i in range(len(key)):
            for j in range(i + 1, len(key)):
                rest = tuple(k for t, k in enumerate(key) if t not in (i, j))
                cs = context.bracket_coeffs(key[i], key[j])
                inner = zero
                for c in range(n):
                    if not cs[c].is_zero():
                        coeff = form.get((c,) + rest)
                        if not coeff.is_zero():
                            inner = inner + cs[c] * coeff
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
                             points: Sequence[Point]) -> bool:
    """Probe a symbolically nonzero family; warn when a probe kills it.

    Returns True when the family is nonzero at every probe point where it
    is defined and at least one probe point was evaluated.  A family with a
    nonzero constant member vanishes nowhere, so it returns True without
    probing, even when another member has a pole at every probe point.
    """
    if any(v.is_constant() and not v.is_zero() for v in values):
        return True
    ok = True
    checked = False
    for point in points:
        try:
            vanishes = all(v.evaluate(point) == 0 for v in values)
        except ScalarError:
            continue
        checked = True
        if vanishes:
            warnings.warn(
                f"{label} vanishes at probe {dict(point)}; "
                "verdict holds only off this locus", ChartDomainWarning)
            ok = False
    return ok and checked


def cartan_class(alpha: PForm, probe_points: Optional[Sequence[Point]] = None,
                 label: str = "1-form") -> int:
    """Elie Cartan class of a 1-form on its context.

    The class is 2p+1 when alpha ^ (d alpha)^p is nonzero and (d alpha)^{p+1}
    vanishes identically, and 2p+2 when (d alpha)^{p+1} is nonzero while
    alpha ^ (d alpha)^{p+1} vanishes.  Nonvanishing means a nonzero canonical
    coefficient; probe points only feed constancy warnings.
    """
    if alpha.degree != 1:
        raise FrameError("Cartan class is defined for 1-forms")
    context = alpha.context
    n = context.dim
    d_alpha = exterior_derivative(alpha)
    power = PForm(context, 0, {(): context.one})
    r = 0
    while 2 * (r + 1) <= n:
        candidate = wedge(power, d_alpha)
        if candidate.is_zero():
            break
        power = candidate
        r += 1
    if 2 * r + 1 > n:
        top = PForm.zero_form(context, 0)
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
    if probe_points:
        nonvanishing_certificate(f"Cartan-class witness of {label}",
                                 list(witness.coeffs.values()), probe_points)
    return cls


class EndoField:
    """Endomorphism field as a frame-basis matrix; column a is phi(e_a)."""

    __slots__ = ("frame", "matrix")

    def __init__(self, frame: FramePresentation, matrix: Sequence[Sequence[ScalarExpr]]):
        n = frame.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise FrameError("endomorphism matrix must be n x n")
        self.frame = frame
        self.matrix = [list(row) for row in matrix]

    @classmethod
    def identity(cls, frame: FramePresentation) -> "EndoField":
        return cls(frame, [[frame.one if i == j else frame.zero
                            for j in range(frame.dim)] for i in range(frame.dim)])

    @classmethod
    def from_columns(cls, frame, columns: Sequence[Sequence[ScalarExpr]]
                     ) -> "EndoField":
        """The endomorphism with image ``columns[a]`` of e_a."""
        return cls(frame, [list(row) for row in zip(*columns)])

    @classmethod
    def outer(cls, alpha: PForm, z: VectorField) -> "EndoField":
        """Tensor product alpha (x) Z as an endomorphism field."""
        frame = z.frame
        return cls(frame, [[alpha.get((a,)) * z.components[c]
                            for a in range(frame.dim)] for c in range(frame.dim)])

    def apply(self, x: VectorField) -> VectorField:
        """Matrix times components, over the nonzero components of x only."""
        nonzero = [(a, xa) for a, xa in enumerate(x.components)
                   if not xa.is_zero()]
        zero = self.frame.zero
        comps = []
        for row in self.matrix:
            acc = zero
            for a, xa in nonzero:
                if not row[a].is_zero():
                    acc = acc + row[a] * xa
            comps.append(acc)
        return VectorField(self.frame, tuple(comps))

    def column(self, a: int) -> VectorField:
        """The image of the frame field e_a."""
        return VectorField(self.frame, tuple(row[a] for row in self.matrix))

    def compose(self, other: "EndoField") -> "EndoField":
        return EndoField(self.frame, linalg.matmul(self.matrix, other.matrix))

    def __add__(self, other: "EndoField") -> "EndoField":
        return EndoField(self.frame, [list(map(add, ra, rb))
                                      for ra, rb in zip(self.matrix, other.matrix)])

    def __sub__(self, other: "EndoField") -> "EndoField":
        return EndoField(self.frame, [list(map(sub, ra, rb))
                                      for ra, rb in zip(self.matrix, other.matrix)])

    def __neg__(self) -> "EndoField":
        return EndoField(self.frame, [[-a for a in row] for row in self.matrix])

    def scale(self, factor: ScalarExpr) -> "EndoField":
        return EndoField(self.frame, [[factor * a for a in row]
                                      for row in self.matrix])

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.matrix for a in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EndoField) and self.frame is other.frame
                and self.matrix == other.matrix)


class MetricField:
    """Riemannian metric as a symmetric Gram matrix on the frame; ``lower``
    is the one contraction of a vector with it, and ``pair`` builds on it."""

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
        # Sylvester's criterion: the k-th pivot of elimination without row
        # swaps is D_k / D_{k-1}, so all leading minors D_k are positive
        # exactly when no row is swapped, the pivots sit on the diagonal and
        # every pivot is positive
        _, pivots, values, swaps = linalg.row_reduce(
            [[entry.evaluate(frame.base_point) for entry in row]
             for row in self.gram], n)
        if swaps or pivots != list(range(n)) or any(v <= 0 for v in values):
            raise FrameError("metric is not positive definite at the base point")

    def lower(self, x: VectorField) -> List[ScalarExpr]:
        """g(x, e_c) for every frame index c: x with its index lowered.
        g is symmetric, so row c of the Gram matrix is its column c."""
        return [dot(x.components, row, self.frame.zero) for row in self.gram]

    def pair(self, x: VectorField, y: VectorField) -> ScalarExpr:
        return dot(self.lower(x), y.components, self.frame.zero)

    def norm_squared(self, x: VectorField) -> ScalarExpr:
        return self.pair(x, x)


def orthogonal_projector(metric: MetricField, span: Sequence[VectorField],
                         gram_inverse: Sequence[Sequence[ScalarExpr]]
                         ) -> EndoField:
    """g-orthogonal projection onto a span, P = S G^-1 S^T g.

    S has the span fields as columns and ``gram_inverse`` is the inverse of
    their Gram matrix G = S^T g S; S^T g is ``metric.lower`` of each field.
    Column a of P is the projection of e_a; P is zero for an empty span.
    """
    frame = metric.frame
    n, zero = frame.dim, frame.zero
    lowered = [metric.lower(s) for s in span]
    # pairings[a][i] = g(s_i, e_a)
    pairings = [[s_low[a] for s_low in lowered] for a in range(n)]
    # G^-1 is symmetric: coeffs[a][b] is the coefficient of s_b in P e_a
    coeffs = [[dot(row, pairings[a], zero) for row in gram_inverse]
              for a in range(n)]
    span_rows = [[s.components[c] for s in span] for c in range(n)]
    return EndoField(frame, [[dot(span_rows[c], coeffs[a], zero)
                              for a in range(n)] for c in range(n)])


class LeviCivita:
    """Levi-Civita connection solved from the Koszul formula on the frame:

    2 g(nabla_{e_a} e_b, e_c) = e_a(g_bc) + e_b(g_ac) - e_c(g_ab)
        + g([e_a, e_b], e_c) - g([e_a, e_c], e_b) - g([e_b, e_c], e_a).

    Each e_a(g_bc) and each g([e_a, e_b], e_c) is computed once, in a
    table, and the sum reads it three times."""

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.frame = frame = metric.frame
        n, zero = frame.dim, frame.zero
        half = ScalarExpr.constant(Fraction(1, 2), frame.coordinates)
        # derivative[a][b][c] = e_a(g_bc)
        derivative = [[[frame.direction(a, g_bc) for g_bc in row]
                       for row in metric.gram] for a in range(n)]
        # lowered[a][b][c] = g([e_a, e_b], e_c)
        lowered = [[metric.lower(VectorField(frame,
                                             frame.bracket_coeffs(a, b)))
                    for b in range(n)] for a in range(n)]
        # koszul[a][b][c] = g(nabla_{e_a} e_b, e_c)
        koszul = [[[half * (derivative[a][b][c] + derivative[b][a][c]
                            - derivative[c][a][b] + lowered[a][b][c]
                            - lowered[a][c][b] - lowered[b][c][a])
                    for c in range(n)] for b in range(n)] for a in range(n)]
        # g^-1 is symmetric, so row d of it is its column d
        self.gamma = [[tuple(dot(koszul[a][b], row, zero)
                             for row in metric.inverse)
                       for b in range(n)] for a in range(n)]

    def nabla_frame(self, a: int, b: int) -> VectorField:
        return VectorField(self.frame, self.gamma[a][b])

    def nabla(self, x: VectorField, y: VectorField) -> VectorField:
        """Covariant derivative, function-linear in x and Leibniz in y."""
        n = self.frame.dim
        comps = [self.frame.zero] * n
        for a in range(n):
            xa = x.components[a]
            if xa.is_zero():
                continue
            for c in range(n):
                derivative = self.frame.direction(a, y.components[c])
                if not derivative.is_zero():
                    comps[c] = comps[c] + xa * derivative
            for b in range(n):
                yb = y.components[b]
                if yb.is_zero():
                    continue
                coeff = xa * yb
                for c in range(n):
                    if not self.gamma[a][b][c].is_zero():
                        comps[c] = comps[c] + coeff * self.gamma[a][b][c]
        return VectorField(self.frame, tuple(comps))

    def curvature(self, x: VectorField, y: VectorField,
                  w: VectorField) -> VectorField:
        """R_{XY}W = nabla_X nabla_Y W - nabla_Y nabla_X W - nabla_[X,Y] W."""
        return (self.nabla(x, self.nabla(y, w))
                - self.nabla(y, self.nabla(x, w))
                - self.nabla(bracket(x, y), w))

    def nabla_endo(self, a: int, endo: EndoField) -> List[VectorField]:
        """(nabla_{e_a} phi) e_b for every frame index b."""
        ea = self.frame.frame_field(a)
        return [self.nabla(ea, endo.column(b))
                - endo.apply(self.nabla_frame(a, b))
                for b in range(self.frame.dim)]


def lie_derivative_endo(z: VectorField, endo: EndoField) -> EndoField:
    """(L_Z phi)(X) = [Z, phi X] - phi [Z, X], assembled on the frame basis."""
    frame = z.frame
    columns = []
    for a in range(frame.dim):
        value = (bracket(z, endo.column(a))
                 - endo.apply(bracket(z, frame.frame_field(a))))
        columns.append(value.components)
    return EndoField.from_columns(frame, columns)


def is_killing(nabla: EndoField, metric: MetricField) -> bool:
    """Killing test of a field Z from nabla Z, whose column a is
    nabla_{e_a} Z: g(nabla_X Z, Y) + g(X, nabla_Y Z) vanishes on frame
    pairs.  Each column is lowered once."""
    n = metric.frame.dim
    # lowered[a][b] = g(nabla_{e_a} Z, e_b)
    lowered = [metric.lower(nabla.column(a)) for a in range(n)]
    return all((lowered[a][b] + lowered[b][a]).is_zero()
               for a in range(n) for b in range(a, n))


def nijenhuis(endo: EndoField) -> Dict[Tuple[int, int], VectorField]:
    """Nijenhuis tensor of an endomorphism field, on frame pairs.

    [A, A](X, Y) = A^2 [X, Y] - A [AX, Y] - A [X, AY] + [AX, AY].
    """
    frame = endo.frame
    fields = [frame.frame_field(a) for a in range(frame.dim)]
    images = [endo.column(a) for a in range(frame.dim)]
    out = {}
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            ea, eb = fields[a], fields[b]
            a_ea, a_eb = images[a], images[b]
            # [e_a, e_b] read off the bracket coefficients
            e_ab = VectorField(frame, frame.bracket_coeffs(a, b))
            value = (endo.apply(endo.apply(e_ab))
                     - endo.apply(bracket(a_ea, eb))
                     - endo.apply(bracket(ea, a_eb))
                     + bracket(a_ea, a_eb))
            out[(a, b)] = value
    return out
