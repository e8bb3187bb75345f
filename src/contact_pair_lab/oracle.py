"""Independent floating-point oracles for the core identities.

Everything here is recomputed from the raw scenario text in coordinates:
the coordinate metric comes from the frame matrix and the Gram matrix, the
Reeb fields are solved pointwise by least squares, and every derivative is
exact up to rounding.  None of the exact symbolic machinery is reused (no
`ScalarExpr.differentiate`, nothing from `frames` or `contact`), so
agreement between the two pipelines is meaningful evidence.

The one exception is `pair.reeb`, whose exact side is the pair of fields
`contact.solve_reeb` returns for the scenario's forms and their exterior
derivatives; it is compared against the float solve, not reused by it.

Jets: a scenario's cells (the forms, the frame, the Gram matrix, phi and
every span) are compiled once into one `_FloatGrid`, its table, with one
column per distinct cell text: a table of monomials and a coefficient
matrix for the numerators and for the denominators.  The monomials are
differentiated exactly, d_c x^e = e_c x^(e - e_c): a table (`_Monomials`)
lists every distinct nonzero partial up to the order asked for once, as
exponents and integer scales, so one evaluation of the table at a stack
of points gives every entry's value, gradient and, at order 2, Hessian,
by the quotient rule, dividing once for all entries.  A block (the frame,
a span, ...) is cut from the table's jet by its columns.  Constant
denominators (those of every built-in scenario) are read off their
coefficients.  `_Jet` carries values and gradients through products and
inverses, d(F^-1) = -F^-1 (dF) F^-1 (forward-mode Taylor propagation;
Griewank and Walther, Evaluating Derivatives, 2nd ed., ch. 13).  No step
size enters anywhere.

Every stage runs once on the whole probe stack [p, ...], each product in
it one per point, so that a point's values do not depend on its stack:

- Sampling: candidates are drawn in blocks; each block is evaluated once,
  to order 2, and tested with one stacked regularity mask (poles of the
  forms, the frame, the Gram matrix or phi, |det F| < 1e-8, non-finite
  metric, phi or forms).  A pole drops its candidate before any division,
  so it neither raises nor warns for the rest of the block.  The spans
  reject no candidate: a span's entries are nan at its poles, and so is
  its residual.  The view's one jet of the table is formed from the
  accepted rows of those evaluations; nothing is evaluated again.
- Order 1: g, Gamma, phi and its gradient from one inversion of the frame
  F and one of g; the mean curvature of a submanifold, over [p, a, b, k]
  at once; the split of the tangent space into the two foliations and the
  split formula of `curvature.reeb_identity`.
- Order 2: the Hessians of alpha_1 and alpha_2, for d(d alpha) and for
  the derivative of the Reeb fields from the differentiated Reeb system
  M dZ = -(dM) Z; and R(., .)(Z_1 + Z_2) from d_a d_b (g z) and
  d_a (d_z g), z frozen, in which the frame's and the Gram matrix's
  Hessians enter only as Hessian-vector products (`_Hessian`; Pearlmutter,
  Neural Computation 6, 1994), so no n^4 array (R, g's Hessian) is formed.

Each scenario has one float view (`_View`) per probe count and seed, kept
in its `_cache` next to the exact objects.  Every identity reads it, so a
sweep over all identities compiles the table, samples and evaluates the
probes, inverts the frame and g and solves the Reeb system once.  The
table reads its expressions from the scenario's parse table, also in
`_cache`, so no cell text is parsed again for the oracle; `ScalarExpr`
is immutable, and the oracle reads only its terms.  A residual that is
not finite at some probe point is reported as inf, never as a pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .scalars import PoleError, ScalarExpr, Terms

_MAX_RESAMPLE = 100

ORACLE_IDS = ("d_squared", "pair.reeb", "metric.associated",
              "normality.N1", "connection.reeb_derivative",
              "curvature.reeb_identity")

Points = np.ndarray  # shape (k, n): one point per row, in coordinate order


class _Jet:
    """Truncated Taylor jet of a matrix field at a stack of points.

    value[p, i, j] is the field at point p, grad[p, a, i, j] its first
    partial d_a (order >= 1) and hess its second partials (order 2); the
    parts an order leaves out are None.  Products and inverses carry
    values and gradients, to the lower order of their operands."""

    def __init__(self, value: np.ndarray, grad: Optional[np.ndarray] = None,
                 hess=None):
        self.value, self.grad, self.hess = value, grad, hess

    @property
    def T(self) -> "_Jet":
        return _Jet(*(None if part is None else part.swapaxes(-1, -2)
                      for part in (self.value, self.grad)))

    def __matmul__(self, other: "_Jet") -> "_Jet":
        value = self.value @ other.value
        if self.grad is None or other.grad is None:
            return _Jet(value)
        return _Jet(value, self.grad @ other.value[:, None]
                    + self.value[:, None] @ other.grad)

    def inverse(self, inv: np.ndarray) -> "_Jet":
        """The jet of the inverse to order 1, from its value inv:
        d(F^-1) = -F^-1 (dF) F^-1."""
        return _Jet(inv, None if self.grad is None
                    else -inv[:, None] @ self.grad @ inv[:, None])


def _combine(part: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """part @ coeffs, the entries' parts from the monomials' parts, one
    product per point: one [p, t] @ [t, e] product of the values takes
    another BLAS routine for one row than for several, so they are
    multiplied as p products [1, t] @ [t, e]."""
    if part.ndim == 2:
        return (part[:, None] @ coeffs)[:, 0]
    return part @ coeffs


class _FloatGrid:
    """A vector or matrix of rational functions compiled for floats.

    Numerators and denominators are each a `_Monomials` table and a
    coefficient matrix (terms x entries), so a stack of points is
    evaluated in one pass; values have shape (k, *shape)."""

    def __init__(self, exprs: Sequence[ScalarExpr], shape: Tuple[int, ...],
                 coords: Tuple[str, ...]):
        if any(expr.vars != coords for expr in exprs):
            raise ValueError("grid entries must use the scenario coordinates")
        self.shape = shape
        self.num = self._compile([expr.num for expr in exprs], len(coords))
        self.den = self._compile([expr.den for expr in exprs], len(coords))

    @staticmethod
    def _compile(polys: Sequence[Terms], n: int
                 ) -> Tuple["_Monomials", np.ndarray]:
        monomials = sorted({exp for terms in polys for exp in terms})
        row = {exp: index for index, exp in enumerate(monomials)}
        coeffs = np.zeros((len(monomials), len(polys)))
        for col, terms in enumerate(polys):
            for exp, coeff in terms.items():
                coeffs[row[exp], col] = float(coeff)
        return _Monomials(monomials, n), coeffs

    def __call__(self, xs: Points) -> np.ndarray:
        """The entries at the points, [p, *shape]; PoleError at a pole."""
        values = self.evaluate(xs, 0)
        poles = self.poles(xs, values)
        if poles.any():
            raise PoleError(f"pole at {xs[np.argmax(poles)].tolist()}")
        return self.jet(xs, 0, values).value

    def evaluate(self, xs: Points, order: int) -> tuple:
        """The numerators' monomials and their partials up to the order at
        the points, and the denominators' unless they are constant (None):
        one evaluation, which every jet up to that order reads."""
        return (self.num[0].evaluate(xs, order), None if self.den[0].constant
                else self.den[0].evaluate(xs, order))

    @staticmethod
    def _parts(compiled: Tuple["_Monomials", np.ndarray],
               values: Optional[np.ndarray], order: int, count: int) -> list:
        """The entries' parts to order 1, [p, e] and [p, a, e], and at order
        2 the rows of the monomials' second partials, their values and the
        coefficients, for `_Hessian`; constant denominators are their
        coefficients alone."""
        monomials, coeffs = compiled
        if values is None:
            return [np.broadcast_to(coeffs.sum(axis=0),
                                    (count,) + coeffs.shape[1:])]
        out = [_combine(part, coeffs)
               for part in monomials.partials(values, min(order, 1))]
        return out + [(monomials.index[2], values, coeffs)] \
            if order == 2 else out

    def poles(self, xs: Points, values: tuple,
              columns: slice = slice(None)) -> np.ndarray:
        """Which points zero the denominator of an entry in the columns,
        [p], from the values `evaluate` gave there."""
        den = self._parts(self.den, values[1], 0, len(xs))[0]
        return (den[:, columns] == 0.0).any(axis=1)

    def jet(self, xs: Points, order: int, values: tuple = None) -> _Jet:
        """The entries' jet of the given order (0, 1 or 2) at each point:
        value [p, *shape], grad [p, a, *shape] and the `_Hessian`, read off
        the values `evaluate` gave there to at least that order, or off a
        new evaluation.  An entry is nan at its poles, without a warning."""
        if values is None:
            values = self.evaluate(xs, order)
        num, den = (self._parts(compiled, part, order, len(xs))
                    for compiled, part in zip((self.num, self.den), values))
        poles = den[0] == 0.0
        if poles.any():  # x / nan is nan, and warns nothing
            den[0] = np.where(poles, np.nan, den[0])
        # quotient rule for f = N / D, from N = f D differentiated
        value = num[0] / den[0]
        parts = [value]
        if order >= 1:
            grad = num[1]
            if len(den) > 1:
                grad -= value[:, None] * den[1]
            grad /= den[0][:, None]
            parts.append(grad)
        return _Jet(*(part.reshape(part.shape[:1 + rank] + self.shape)
                      for rank, part in enumerate(parts)),
                    hess=_Hessian(self.shape, num[2], value, grad, den)
                    if order == 2 else None)


class _Hessian(NamedTuple):
    """The second partials d_a d_b f of a grid's entries, formed only
    contracted, from the monomials' second partials [p, a, b, t] with the
    coefficients contracted first.  num and den[2] are (rows, values,
    coefficients): each contraction takes the second partials off the
    monomials' values (`_Monomials.evaluate`) by their rows
    (`_Monomials.index`) and drops them after, so a kept jet keeps no
    order-2 array.  A nonconstant denominator adds the quotient rule's
    D f_ab = N_ab - f_a D_b - f_b D_a - f D_ab.  value [p, e] and grad
    [p, a, e] are flat over the entries e."""

    shape: Tuple[int, ...]
    num: Tuple[np.ndarray, np.ndarray, np.ndarray]
    value: np.ndarray
    grad: np.ndarray
    den: list

    def cut(self, index: np.ndarray) -> _Jet:
        """The order-2 jet of the entries at the columns ``index``, a grid of
        its shape."""
        columns = index.ravel()
        den = [part[..., columns] for part in self.den[:2]]
        if len(self.den) > 2:
            den.append(self.den[2][:2] + (self.den[2][2][:, columns],))
        hess = _Hessian(index.shape, self.num[:2] + (self.num[2][:, columns],),
                        self.value[:, columns], self.grad[..., columns], den)
        return _Jet(hess.value.reshape(hess.value.shape[:1] + index.shape),
                    hess.grad.reshape(hess.grad.shape[:2] + index.shape), hess)

    def along(self, directions: np.ndarray) -> np.ndarray:
        """sum_b d_a d_b f dir[(p,) b, r] at [p, a, r, *shape]: along z for
        the directions z[:, :, None], the whole Hessian for the identity."""
        rows = directions.swapaxes(-1, -2)  # [(p,) r, b]

        def term(index, values, coeffs):  # [p, a, r, e]
            second = np.take(values, index, axis=1)  # [p, a, b, t]
            return rows[..., None, :, :] @ second @ coeffs

        out = term(*self.num)
        if len(self.den) > 1:
            out -= (self.grad[:, :, None] * (rows @ self.den[1])[:, None]
                    + (rows @ self.grad)[:, None] * self.den[1][:, :, None]
                    + self.value[:, None, None] * term(*self.den[2]))
        out /= self.den[0][:, None, None]
        return out.reshape(out.shape[:3] + self.shape)

    def apply(self, vector: np.ndarray, left: bool = False) -> np.ndarray:
        """sum_j d_a d_b f_ij w_j at [p, a, b, i] of a matrix field, or
        with left the row vector, sum_i w_i d_a d_b f_ij at [p, a, b, j]."""
        p, n = self.grad.shape[:2]

        def entries(part):  # [..., e] as [..., i, j], transposed for left
            part = part.reshape(part.shape[:-1] + self.shape)
            return part.swapaxes(-1, -2) if left else part

        def term(index, values, coeffs, weights):  # [p, a b, i]
            contracted = entries(coeffs).swapaxes(0, 1) @ weights[..., None]
            return np.take(values, index, axis=1).reshape(p, n * n, -1) \
                @ contracted[..., 0].swapaxes(1, 2)

        weights = vector[:, None] / entries(self.den[0])  # w_j / D_ij
        out = term(*self.num, weights)  # [p, a b, i]
        if len(self.den) > 1:
            # [p, i, a, b]: sum_j f_a,ij D_b,ij w_j / D_ij
            cross = (entries(self.grad) * weights[:, None]).swapaxes(1, 2) \
                @ entries(self.den[1]).transpose(0, 2, 3, 1)
            cross += cross.swapaxes(2, 3)
            out -= cross.reshape(p, -1, n * n).swapaxes(1, 2)
            out -= term(*self.den[2], entries(self.value) * weights)
        return out.reshape(p, n, n, -1)


class _Monomials:
    """The monomials x^e of a grid and their partials, compiled to an order.

    A partial of x^e along the coordinates (c, ...) is a product of one
    factor per coordinate: each c in turn multiplies its scale by its
    exponent and lowers the exponent by one, so d_a d_a x^e has the factor
    e_a (e_a - 1) x_a^(e_a - 2).  The table lists each distinct nonzero
    partial up to the highest order asked for so far once, as a row of
    exponents and a row of scales, [u, 2, n]; index[k][a, ..., t] is the
    row of the k-th partial of x^(e_t), or -1, the column of zeros after
    the table's values, where it vanishes.  A lower order reads the same
    table."""

    def __init__(self, monomials: Sequence[Tuple[int, ...]], n: int):
        self.monomials = monomials
        self.n = n
        self.constant = not any(map(any, monomials))
        self.order = -1

    def _compile(self, order: int) -> None:
        rows = {}
        self.index = [np.full((self.n,) * k + (len(self.monomials),), -1)
                      for k in range(order + 1)]
        for t, exp in enumerate(self.monomials):
            support = [c for c, e in enumerate(exp) if e]
            partials = [()]
            for axes in partials:  # the list grows as it is read
                if len(axes) < order:
                    partials += [(c,) + axes for c in support]
                exps, scales = list(exp), [1] * self.n
                for c in axes:
                    scales[c] *= exps[c]
                    exps[c] -= 1
                if all(scales):
                    self.index[len(axes)][axes + (t,)] = rows.setdefault(
                        (tuple(exps), tuple(scales)), len(rows))
        self.table = np.array(list(rows), dtype=float).reshape(-1, 2, self.n)
        self.order = order

    def evaluate(self, xs: Points, order: int) -> np.ndarray:
        """The table's rows at each point, [p, u + 1], with the table
        compiled to at least the order."""
        if self.order < order:
            self._compile(order)
        values = np.zeros((len(xs), len(self.table) + 1))
        np.prod(self.table[:, 1] * xs[:, None, :] ** self.table[:, 0],
                axis=-1, out=values[:, :-1])
        return values

    def partials(self, values: np.ndarray, order: int) -> List[np.ndarray]:
        """The monomials at each point, [p, t], with their first partials
        [p, c, t] and second partials [p, a, b, t] up to the order, read off
        the `evaluate` values, with p outermost in memory (values[:, rows]
        would put it innermost)."""
        return [np.take(values, rows, axis=1)
                for rows in self.index[:order + 1]]


# the regularity columns of a scenario's table, in table order
_REGULAR = ("alpha1", "alpha2", "frame", "gram", "phi")


class _Numeric:
    """Coordinate-level numeric view of a scenario: one table of its cells,
    a column per distinct text, first the regularity columns (the forms, the
    frame, the Gram matrix, phi), then the spans'.  `cells` maps a block (by
    name, or ("span", name)) to the columns of its cells, an index array of
    its shape.  It keeps no reference to the scenario."""

    def __init__(self, scenario):
        self.coords: List[str] = list(scenario.coordinates)
        self.n = len(self.coords)
        blocks = list(zip(_REGULAR, (scenario.alpha1, scenario.alpha2,
                                     scenario.frame, scenario.metric,
                                     scenario.phi)))
        blocks += [(("span", name), texts)
                   for name, texts in scenario.submanifolds.items()]
        columns, self.cells = {}, {}  # cell text: table column
        for key, texts in blocks:
            texts = np.asarray(texts, dtype=object)
            self.cells[key] = np.array(
                [columns.setdefault(text, len(columns))
                 for text in texts.flat]).reshape(texts.shape)
            if key == _REGULAR[-1]:
                self.regular = slice(0, len(columns))
        parsed = scenario.parse_table()
        self.table = _FloatGrid([parsed[text] for text in columns],
                                (len(columns),), tuple(self.coords))
        self.base = np.array([float(Fraction(scenario.base_point[coord]))
                              for coord in self.coords])

    def cut(self, jet: _Jet, key, order: int) -> _Jet:
        """One block's jet (the frame, a span, ...) to the order, gathered
        from the table's jet."""
        index = self.cells[key]
        if order == 2:
            return jet.hess.cut(index)
        return _Jet(*(part[..., index]
                      for part in (jet.value, jet.grad)[:order + 1]))

    # -- probe sampling -------------------------------------------------

    def sample(self, count: int, seed: int) -> "_View":
        """The view at the first ``count`` regular candidates base +
        U[-0.5, 0.5]^n of random.Random(seed), drawn in blocks of ``count``,
        each evaluated once and tested with one stacked mask; ValueError
        after _MAX_RESAMPLE consecutive rejections."""
        rng = random.Random(seed)
        taken, found, rejected = [], 0, 0
        while found < count:
            block = self.base + np.array(
                [[rng.uniform(-0.5, 0.5) for _ in self.coords]
                 for _ in range(count)]).reshape(count, self.n)
            ok, values, inverse = self._regular(block)
            take = np.zeros(count, dtype=bool)  # the candidates kept
            for index, regular in enumerate(ok):
                rejected = 0 if regular else rejected + 1
                if rejected == _MAX_RESAMPLE:
                    raise ValueError("could not sample a regular probe point")
                take[index], found = regular, found + regular
                if found == count:
                    break
            taken.append((block[take], inverse[take[ok]])
                         + _rows(values, take))
        xs, inverse, *values = (None if parts[0] is None
                                else np.concatenate(parts)
                                for parts in zip(*taken))
        return _View(self, xs, tuple(values), inverse)

    def probe_points(self, count: int, seed: int) -> Points:
        """The probe points of `sample`."""
        return self.sample(count, seed).xs

    def _regular(self, xs: Points) -> Tuple[np.ndarray, tuple, np.ndarray]:
        """Which points of the stack are regular, [p], with the table's
        values there (`_FloatGrid.evaluate`, to order 2) and the frame's
        inverse at the regular ones; one point [n] is a stack of one.
        Regular means: no pole in a regularity column, |det F| >= 1e-8, and
        finite metric, phi and forms; a pole's point is dropped before any
        division, so it neither raises nor warns for the rest."""
        xs = np.atleast_2d(xs)
        values = self.table.evaluate(xs, 2)
        ok = ~self.table.poles(xs, values, self.regular)
        jet = self.table.jet(xs[ok], 0, _rows(values, ok))
        frames = self.cut(jet, "frame", 0).value
        invertible = (~(np.abs(np.linalg.det(frames)) < 1e-8)
                      & np.isfinite(frames).all(axis=(1, 2)))
        ok[ok] = invertible
        inverse = np.linalg.inv(frames[invertible])

        def block(key):  # its values at the invertible points
            return _Jet(self.cut(jet, key, 0).value[invertible])

        finite = np.logical_and.reduce([
            np.isfinite(part.value).all(axis=tuple(range(1, part.value.ndim)))
            for part in _coordinate(block("frame"), _Jet(inverse), block)
            + (block("alpha1"), block("alpha2"))])
        ok[ok] = finite
        return ok, values, inverse[finite]


def _rows(values: tuple, rows: np.ndarray) -> tuple:
    """The rows of a table's values (`_FloatGrid.evaluate`)."""
    return tuple(None if part is None else part[rows] for part in values)


def _coordinate(frame: _Jet, inverse: _Jet, block: Callable[[str], _Jet]
                ) -> Tuple[_Jet, _Jet]:
    """g = F^-T G F^-1 and phi = F P F^-1 in coordinates, to the lower order
    of the jets: F is the frame matrix (column b is the field e_b), and G
    and P are the Gram and phi matrices, each cut by block(name) in turn."""
    metric = inverse.T @ block("gram") @ inverse
    return metric, frame @ block("phi") @ inverse


class _View:
    """One scenario's float view at one probe stack: the probe points (`xs`),
    the table's one jet there, the frame and its one inverse, and, on first
    use, what the identities read, cut from that jet (one inverse of g among
    it).  Like `_Numeric` it keeps no reference to the scenario, so no
    reference cycle runs through the scenario's cache."""

    def __init__(self, num: _Numeric, xs: Points, values: tuple = None,
                 inverse: np.ndarray = None):
        """``values`` (`_FloatGrid.evaluate`) and ``inverse`` as sampling
        found them at the points, or found here."""
        self.num = num
        self.xs = xs
        self.jet = num.table.jet(xs, 2, values)
        self.frame = num.cut(self.jet, "frame", 0).value
        self.frame_inverse = (np.linalg.inv(self.frame) if inverse is None
                              else inverse)

    @cached_property
    def alpha_jets(self) -> Tuple[_Jet, _Jet]:
        """Order-2 jets of alpha_1 and alpha_2 on the whole stack, value
        [p, k], grad [p, a, k] and the whole Hessian [p, a, b, k]."""
        jets = [self.num.cut(self.jet, key, 2) for key in ("alpha1", "alpha2")]
        return tuple(_Jet(jet.value, jet.grad,
                          jet.hess.along(np.eye(self.num.n))) for jet in jets)

    @cached_property
    def alpha(self) -> Tuple[np.ndarray, np.ndarray]:
        return tuple(jet.value for jet in self.alpha_jets)

    @cached_property
    def d_alpha(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exterior derivative with the 1/2 normalization, so that
        d(alpha)(X, Y) = (X alpha(Y) - Y alpha(X)) / 2 on coordinate
        fields."""
        return tuple(_half_curl(jet.grad) for jet in self.alpha_jets)

    @cached_property
    def reeb_solvers(self) -> Tuple[np.ndarray, np.ndarray]:
        """The least-squares solvers (M^T M)^-1 M^T [p, k, r] of the Reeb
        systems M of Z_1 and Z_2, one solve per point.  Where some M^T M
        is singular the system has no unique solution: the solver is nan,
        so every residual that reads it is inf."""
        solvers = []
        for i in (0, 1):
            rows = _reeb_rows(self.alpha, self.d_alpha, i)  # [p, r, k]
            try:
                solvers.append(np.linalg.solve(rows.swapaxes(1, 2) @ rows,
                                               rows.swapaxes(1, 2)))
            except np.linalg.LinAlgError:
                solvers.append(np.full(rows.swapaxes(1, 2).shape, np.nan))
        return tuple(solvers)

    @cached_property
    def reeb(self) -> Tuple[np.ndarray, np.ndarray]:
        """Z_1 and Z_2 at each point.  The right-hand side of each Reeb
        system is the first unit vector, so the field is the first column
        of its solver."""
        return tuple(solver[..., 0] for solver in self.reeb_solvers)

    @cached_property
    def reeb_gradient(self) -> np.ndarray:
        """d_a (Z_1 + Z_2)^k at [p, a, k], from each Reeb system M Z = e_0
        differentiated: M dZ = -(dM) Z, with dM read off the forms'
        gradients and Hessians."""
        d_alpha_grad = tuple(_half_curl(jet.hess) for jet in self.alpha_jets)
        alpha_grad = tuple(jet.grad for jet in self.alpha_jets)
        total = 0.0
        for i, (solver, z) in enumerate(zip(self.reeb_solvers, self.reeb)):
            d_rows = _reeb_rows(alpha_grad, d_alpha_grad, i)  # [p, a, r, k]
            total = total - solver[:, None] @ (d_rows @ z[:, None, :, None])
        return total[..., 0]

    @cached_property
    def _metric_and_phi(self) -> Tuple[_Jet, _Jet]:
        """The order-1 jets of g and phi."""
        frame = self.num.cut(self.jet, "frame", 1)
        return _coordinate(frame, frame.inverse(self.frame_inverse),
                           lambda key: self.num.cut(self.jet, key, 1))

    @property
    def metric(self) -> np.ndarray:
        return self._metric_and_phi[0].value

    @cached_property
    def metric_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.metric)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma[p, k, i, j] = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 in
        coordinates, by one matmul over the flattened (i, j)."""
        grad = self._metric_and_phi[0].grad
        lowered = grad + np.einsum("pjil->pijl", grad)  # [p, i, j, l]
        lowered -= np.einsum("plij->pijl", grad)
        p, n = self.xs.shape
        lowered = lowered.reshape(p, n * n, n).swapaxes(1, 2)
        return 0.5 * (self.metric_inverse @ lowered).reshape(p, n, n, n)

    def metric_along(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """d_a d_b (g z) at [p, a, b, m] and d_a (d_z g) at [p, a, i, j], for
        z [p, n] frozen at each point and G symmetric.  v = g z solves
        F^T v = G w with F w = z, each differentiated twice.  With P = F^-1
        and A = P dF, d_a (P^T X P) = P^T (d_a X - A_a^T X - X A_a) P, on
        X = G and then on the X of d_z g, where d_a A_z = P F_az - A_a A_z."""
        frame, gram = (self.num.cut(self.jet, key, 2)
                       for key in ("frame", "gram"))
        inv = self.frame_inverse
        inv_t, d_frame = inv.swapaxes(1, 2), frame.grad
        metric, d_metric = gram.value, gram.grad
        p, n = z.shape

        def pair(rows, dx):  # m_a dx_b + m_b dx_a, rows[p, a, j, i] = m_a,ij
            half = dx[:, None] @ rows
            return half + half.swapaxes(1, 2)

        def along(m):  # sum_c z_c d_c m, for d_c m at [p, c, i, j]
            return (z[:, None] @ m.reshape(p, n, n * n)).reshape(p, n, n)

        # vectors are rows: w [p, n], its partials dw [p, a, n]
        w = (z[:, None] @ inv_t)[:, 0]
        v = (w[:, None] @ metric @ inv)[:, 0]
        dw = -(w[:, None, None] @ d_frame.swapaxes(2, 3))[:, :, 0] @ inv_t
        dv = ((w[:, None, None] @ d_metric - v[:, None, None] @ d_frame)
              [:, :, 0] + dw @ metric) @ inv
        second = (gram.hess.apply(w) + pair(d_metric, dw)
                  - (frame.hess.apply(w) + pair(d_frame.swapaxes(2, 3), dw))
                  @ (inv_t @ metric)[:, None] - frame.hess.apply(v, left=True)
                  - pair(d_frame, dv)) @ inv[:, None]
        a_z, a = inv @ along(d_frame), inv[:, None] @ d_frame
        k = metric @ a_z
        k = along(d_metric) - k - k.swapaxes(1, 2)
        # G d_a A_z + d_a G A_z + K A_a, and its transpose
        sym = metric[:, None] @ (
            inv[:, None] @ frame.hess.along(z[..., None])[:, :, 0]
            - a @ a_z[:, None])
        sym += d_metric @ a_z[:, None]
        sym += k[:, None] @ a
        del a
        e = gram.hess.along(z[..., None])[:, :, 0] - sym - sym.swapaxes(2, 3)
        return second, inv_t[:, None] @ e @ inv[:, None]

    def reeb_curvature(self) -> np.ndarray:
        """R(e_a, e_b)(Z_1 + Z_2) at [p, a, b, l] by directional jets: with z
        frozen, u_b = Gamma_b z and v = g z, R(e_a, e_b) z = d_a u_b - d_b u_a
        + Gamma_a u_b - Gamma_b u_a, where 2 g u_b = S_b with S_bm = d_b v_m
        - d_m v_b + (d_z g)_bm; so d_a u_b = g^-1 (d_a S_b / 2 - (d_a g) u_b),
        whose part d_a d_b v is symmetric in (a, b) and drops out."""
        z = self.reeb[0] + self.reeb[1]
        second, half = self.metric_along(z)
        gamma = self.christoffel
        u = (gamma.transpose(0, 2, 1, 3) @ z[:, None, :, None])[..., 0]
        # u[p, b, l] = Gamma^l_bk z^k; half[p, a, b, m], d_a g symmetric
        half = 0.5 * (half - second.swapaxes(2, 3)) \
            - u[:, None] @ self._metric_and_phi[0].grad
        half = half @ self.metric_inverse[:, None] \
            + u[:, None] @ gamma.transpose(0, 2, 3, 1)
        return half - half.swapaxes(1, 2)

    @property
    def phi_jet(self) -> _Jet:
        return self._metric_and_phi[1]

    @property
    def phi(self) -> np.ndarray:
        return self.phi_jet.value

    def foliation_split(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The projections [p, k, m] onto the two integrable factors, each
        along the other: factor i is the joint kernel of the other contact
        form and its differential.  None when at some point the two
        kernels do not span the tangent space or overlap."""
        n = self.num.n
        bases, kernel = [], []
        for j in (1, 0):
            rows = np.concatenate([self.alpha[j][:, None, :],
                                   self.d_alpha[j].transpose(0, 2, 1)],
                                  axis=1)
            _, sigma, vt = np.linalg.svd(rows)
            rank = (sigma > 1e-8 * np.maximum(1.0, sigma[:, :1])).sum(axis=1)
            bases.append(vt)
            kernel.append(np.arange(n) >= rank[:, None])  # rows of vt
        dims = kernel[0].sum(axis=1)
        if not (dims + kernel[1].sum(axis=1) == n).all():
            return None
        # columns: factor 1's kernel vectors, then factor 2's
        basis = np.concatenate(bases, axis=1)[
            np.concatenate(kernel, axis=1)].reshape(-1, n, n).swapaxes(1, 2)
        try:
            coefficients = np.linalg.inv(basis)
        except np.linalg.LinAlgError:  # the two factors overlap
            return None
        first = (np.arange(n) < dims[:, None])[..., None]  # [p, m, 1]
        return (basis @ (first * coefficients),
                basis @ (~first * coefficients))


def _view(scenario, probe_count: int, seed: int) -> _View:
    """The scenario's float view at this probe count and seed, built on
    first use and kept in the scenario's cache."""
    key = ("oracle", probe_count, seed)
    if key not in scenario._cache:
        scenario._cache[key] = _Numeric(scenario).sample(probe_count, seed)
    return scenario._cache[key]


def _half_curl(grad: np.ndarray) -> np.ndarray:
    """(d_a w_b - d_b w_a) / 2 over the last two axes [..., a, b]."""
    return 0.5 * (grad - grad.swapaxes(-1, -2))


def _reeb_rows(alphas: Sequence[np.ndarray], d_alphas: Sequence[np.ndarray],
               i: int) -> np.ndarray:
    """The rows [..., r, k] of Z_i's Reeb system alpha_i(Z) = 1,
    alpha_j(Z) = 0, i_Z d alpha_i = 0 and i_Z d alpha_j = 0.  The rows
    are linear in the forms, so the same call on their derivatives gives
    the derivatives of the rows."""
    j = 1 - i
    return np.concatenate([alphas[i][..., None, :], alphas[j][..., None, :],
                           d_alphas[i].swapaxes(-1, -2),
                           d_alphas[j].swapaxes(-1, -2)], axis=-2)


# -- identity residuals ------------------------------------------------
#
# Each returns the residual's components at every probe point; the
# oracle's value is their largest magnitude.


def _residual_d_squared(view: _View) -> np.ndarray:
    """d(d alpha) = 0, read off the Hessians of the forms: the cyclic sum
    of d_a (d alpha)_bc."""
    values = []
    for jet in view.alpha_jets:
        s = _half_curl(jet.hess)  # [p, a, b, c] = d_a (d alpha)_bc
        values.append(s + np.einsum("pbca->pabc", s)
                      + np.einsum("pcab->pabc", s))
    return np.stack(values)


def _residual_reeb(view: _View, scenario) -> np.ndarray:
    """Compare the exact Reeb fields against pointwise least squares."""
    from .contact import solve_reeb
    from .frames import exterior_derivative

    alpha1, alpha2 = scenario.forms()
    fields = solve_reeb(scenario.presentation(), alpha1, alpha2,
                        exterior_derivative(alpha1),
                        exterior_derivative(alpha2))
    num = view.num
    exact = _FloatGrid([comp for z in fields for comp in z.components],
                       (2, num.n), tuple(num.coords))(view.xs)
    sym = np.einsum("pkj,pij->ipk", view.frame, exact)
    return sym - np.stack(view.reeb)


def _residual_associated(view: _View) -> np.ndarray:
    g = view.metric
    values = [g @ view.phi - view.d_alpha[0] - view.d_alpha[1]]
    for i in (0, 1):
        values.append(np.einsum("pkj,pj->pk", g, view.reeb[i])
                      - view.alpha[i])
    return np.concatenate([value.ravel() for value in values])


def _residual_n1(view: _View) -> np.ndarray:
    """N1(e_a, e_b) on coordinate fields, for every pair a, b at once.

    The value is antisymmetric in (a, b) term by term, so its maximum over
    all pairs is its maximum over a < b."""
    phi = view.phi
    dphi = view.phi_jet.grad  # dphi[p, c, k, a]
    # [phi e_a, phi e_b]: t[p, a, b] - t[p, b, a]
    t = np.einsum("pca,pckb->pabk", phi, dphi)
    # - phi [phi e_a, e_b] - phi [e_a, phi e_b]: u[p, a, b] - u[p, b, a]
    u = np.einsum("pkm,pbma->pabk", phi, dphi)
    value = t - t.swapaxes(1, 2) + u - u.swapaxes(1, 2)
    for i in (0, 1):
        value += (2 * view.d_alpha[i][..., None]
                  * view.reeb[i][:, None, None, :])
    return value


def _residual_reeb_derivative(view: _View) -> np.ndarray:
    """nabla (Z_1 + Z_2) = -phi on coordinate fields."""
    return (view.reeb_gradient
            + np.einsum("pkaj,pj->pak", view.christoffel,
                        view.reeb[0] + view.reeb[1])
            + view.phi.transpose(0, 2, 1))


def _residual_curvature(view: _View) -> np.ndarray:
    """R(X, Y)Z against the split formula, for every pair of coordinate
    fields at once; both sides are antisymmetric in (X, Y)."""
    split = view.foliation_split()
    if split is None:
        return np.array([np.inf])
    lhs = view.reeb_curvature()
    rhs = 0.0
    for alpha, part in zip(view.alpha, split):
        forms = np.einsum("pk,pkm->pm", alpha, part)  # alpha_i of columns
        columns = part.swapaxes(1, 2)  # [p, m, l]
        rhs = rhs + (forms[:, None, :, None] * columns[:, :, None, :]
                     - forms[:, :, None, None] * columns[:, None, :, :])
    return lhs - rhs


def _residual_minimal(view: _View, name: str) -> np.ndarray:
    """The numerically computed mean curvature vector at each point.

    The span fields, Christoffel symbols and tangential projections are
    all recomputed in floating point, so a small value independently
    certifies minimality and a large value certifies its failure."""
    # column b: field b in coordinates; grad[p, i, k, b] = d_i of its
    # component k
    tangents = view.num.cut(view.jet, "frame", 1) \
        @ view.num.cut(view.jet, ("span", name), 1).T
    t = tangents.value
    lowered = t.swapaxes(1, 2) @ view.metric  # [p, b, k]: g(T_b, .)
    gram = lowered @ t
    # nabla_{T_a} T_b = T_a^i (d_i T_b^k + Gamma^k_ij T_b^j), [p, a, b, k]
    covariant = tangents.grad + (view.christoffel @ t[:, None]).swapaxes(1, 2)
    nabla = np.einsum("pia,pikb->pabk", t, covariant)
    coeff = np.linalg.solve(gram[:, None, None],
                            lowered[:, None, None] @ nabla[..., None])
    normal = nabla - (t[:, None, None] @ coeff)[..., 0]
    return (np.einsum("pab,pabk->pk", np.linalg.inv(gram), normal)
            / t.shape[2])


_RESIDUALS = {
    "d_squared": _residual_d_squared,
    "metric.associated": _residual_associated,
    "normality.N1": _residual_n1,
    "connection.reeb_derivative": _residual_reeb_derivative,
    "curvature.reeb_identity": _residual_curvature,
}


def numeric_oracle(scenario, identity_id: str, probe_count: int = 8,
                   seed: int = 1) -> float:
    """Maximum residual of the named identity over seeded float probes;
    inf when a component at some probe point is not finite.

    Calls on one scenario with the same probe count and seed share one
    float view, kept in the scenario's cache: clear `scenario._cache`
    after mutating the scenario, as for its exact objects.  Clearing it
    also clears the scenario's parse table, so the mutated texts are
    parsed afresh."""
    if probe_count < 1:
        raise ValueError("the oracle needs at least one probe point")
    if identity_id.startswith("submanifold.") \
            and identity_id.endswith(".minimal"):
        name = identity_id[len("submanifold."):-len(".minimal")]
        if name not in scenario.submanifolds:
            raise ValueError(f"scenario {scenario.name!r} has no submanifold "
                             f"{name!r}; choose from "
                             f"{', '.join(scenario.submanifolds) or 'none'}")
        values = _residual_minimal(_view(scenario, probe_count, seed), name)
    elif identity_id == "pair.reeb":
        values = _residual_reeb(_view(scenario, probe_count, seed), scenario)
    elif identity_id in _RESIDUALS:
        values = _RESIDUALS[identity_id](_view(scenario, probe_count, seed))
    else:
        raise ValueError(f"unknown oracle identity {identity_id!r}; "
                         f"choose from {', '.join(ORACLE_IDS)} or "
                         "submanifold.<name>.minimal")
    values = np.abs(values)
    return float(values.max()) if np.isfinite(values).all() else float("inf")
