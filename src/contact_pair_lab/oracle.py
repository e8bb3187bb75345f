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

Jets: each grid of parsed entries (frame, Gram matrix, phi, the forms, a
span, the exact Reeb components) is compiled once into a `_FloatGrid`, a
table of monomials and a coefficient matrix for its numerators and for
its denominators.  The monomials are differentiated exactly,
d_c x^e = e_c x^(e - e_c): a table (`_Monomials`) lists every distinct
nonzero partial up to the order asked for once, as exponents and integer
scales, so one evaluation of the table at a stack of points gives every
entry's value, gradient and, at order 2, Hessian, by the quotient rule.
Constant denominators (those of the frame, the Gram matrix and the forms
of every built-in scenario) are read off their coefficients.  `_Jet`
carries these truncated Taylor expansions through products and inverses,
d(F^-1) = -F^-1 (dF) F^-1 and its second-order form (forward-mode Taylor
propagation; Griewank and Walther, Evaluating Derivatives, 2nd ed.,
ch. 13).  No step size enters anywhere.

Every stage below order 2 runs once on the whole probe stack [p, ...]:

- Order 0: probe sampling and the exact Reeb components.  Candidates are
  drawn in blocks and tested with one stacked regularity mask (poles,
  |det F| < 1e-8, non-finite metric, phi or forms); a pole drops its
  candidate before any division, so it neither raises nor warns for the
  rest of the block.
- Order 1: g, Gamma, phi and its gradient from one evaluation and
  inversion of the frame F; the mean curvature of a submanifold, over
  [p, a, b, k] at once; the split of the tangent space into the two
  foliations and the split formula of `curvature.reeb_identity`.

Order 2 runs on chunks of floor(_ORDER_2_ENTRIES / n^4) probe points, at
least one, so that its n^4 arrays keep a bounded size: all eight default
probes at n = 4, two at n = 6, one from n = 8 on.  On each chunk it forms
the metric chain g = F^-T G F^-1, then Gamma and its gradient, then R,
contracted with Z_1 + Z_2 before the next chunk; and alpha_1, alpha_2,
whose Hessians give d(d alpha) and the derivative of the Reeb fields
through the differentiated Reeb system M dZ = -(dM) Z.  The Hessians of
the chain are summed in place, and every summed product is formed
contiguously, since numpy buffers a transposed operand in an array of its
own: about five n^4 arrays of a chunk are alive at once.

Each scenario has one float view (`_View`) per probe count and seed, kept
in its `_cache` next to the exact objects: the compiled grids, the probe
stack and, computed on first use, the jets at the probe points.  Every
identity reads these, so a sweep over all identities compiles the grids,
samples the probes and solves the Reeb system at them once.  The grids
read their expressions from the scenario's parse table, also in
`_cache`, so no cell text is parsed again for the oracle; `ScalarExpr`
is immutable, and the oracle reads only its terms.  A residual
that is not finite at some probe point is reported as inf, never as a
pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scalars import PoleError, ScalarExpr, Terms

_MAX_RESAMPLE = 100
# Order 2 runs on chunks of floor(_ORDER_2_ENTRIES / n^4) probe points, at
# least one: no array of the Hessian chain holds much more than this many
# entries of an n^4 tensor.  Sized from measured memory: at n = 6 the
# chain of a two-point chunk peaks at about 120 KiB of arrays, no higher
# than the other identities of a pass go, and of a four-point chunk at
# about 210 KiB, which raised the nonconstant benchmark's peak RSS.
_ORDER_2_ENTRIES = 2592

ORACLE_IDS = ("d_squared", "pair.reeb", "metric.associated",
              "normality.N1", "connection.reeb_derivative",
              "curvature.reeb_identity")

Points = np.ndarray  # shape (k, n): one point per row, in coordinate order


class _Jet:
    """Truncated Taylor jet of a matrix field at a stack of points.

    value[p, i, j] is the field at point p, grad[p, a, i, j] its first
    partial d_a (order >= 1) and hess[p, a, b, i, j] its second partial
    d_a d_b (order 2); the parts an order leaves out are None.  Products
    and inverses keep the lower order of their operands."""

    def __init__(self, value: np.ndarray, grad: Optional[np.ndarray] = None,
                 hess: Optional[np.ndarray] = None):
        self.value, self.grad, self.hess = value, grad, hess

    @property
    def order(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    @property
    def T(self) -> "_Jet":
        return _Jet(*(None if part is None else part.swapaxes(-1, -2)
                      for part in (self.value, self.grad, self.hess)))

    def __matmul__(self, other: "_Jet") -> "_Jet":
        x, y = self, other
        value = x.value @ y.value
        if x.grad is None or y.grad is None:
            return _Jet(value)
        grad = x.grad @ y.value[:, None] + x.value[:, None] @ y.grad
        if x.hess is None or y.hess is None:
            return _Jet(value, grad)
        # the Hessian's terms are added in place, each formed contiguously
        # in one reused array, so one n^4 temporary is alive beside it: a
        # transposed operand would cost numpy a buffer of its own
        hess = x.hess @ y.value[:, None, None]
        term = x.grad[:, :, None] @ y.grad[:, None]  # [p, a, b]: dx_a dy_b
        hess += term
        hess += np.matmul(x.grad[:, None], y.grad[:, :, None], out=term)
        hess += np.matmul(x.value[:, None, None], y.hess, out=term)
        return _Jet(value, grad, hess)

    def inverse(self) -> "_Jet":
        inv = np.linalg.inv(self.value)
        if self.grad is None:
            return _Jet(inv)
        grad = -inv[:, None] @ self.grad @ inv[:, None]
        if self.hess is None:
            return _Jet(inv, grad)
        # d_a d_b F^-1 = -(d_b F^-1 dF_a F^-1 + F^-1 dF_ab F^-1
        #                  + F^-1 dF_a d_b F^-1); the outer two terms are
        # [a, b] and [b, a] of one array
        outer = grad[:, None] @ self.grad[:, :, None] @ inv[:, None, None]
        hess = outer + outer.swapaxes(1, 2)
        del outer
        hess += inv[:, None, None] @ self.hess @ inv[:, None, None]
        return _Jet(inv, grad, np.negative(hess, out=hess))


def _combine(part: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """part @ coeffs, the entries' parts from the monomials' parts, as the
    same BLAS product at every point.  The values [p, t] are multiplied as
    p products [1, t] @ [t, e]: one [p, t] @ [t, e] product takes another
    routine for one row than for several, so a point's values would depend
    on how many points share its stack.  Partials [p, ..., t] already are
    a product per point."""
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
        return self.jet(xs, 0).value

    def _denominator(self, xs: Points, order: int
                     ) -> Tuple[List[np.ndarray], np.ndarray]:
        """The denominators' jet parts to the order, and which points zero
        some denominator, [p].  Constant denominators are their
        coefficients, with no partials."""
        monomials, coeffs = self.den
        if monomials.constant:
            den = [np.broadcast_to(coeffs.sum(axis=0),
                                   (len(xs), coeffs.shape[1]))]
        else:
            den = [_combine(part, coeffs)
                   for part in monomials.jet(xs, order)]
        return den, (den[0] == 0.0).any(axis=1)

    def poles(self, xs: Points) -> np.ndarray:
        """Which points zero some denominator, [p]."""
        return self._denominator(xs, 0)[1]

    def jet(self, xs: Points, order: int) -> _Jet:
        """The entries' jet of the given order (0, 1 or 2) at each point:
        value [p, *shape], grad [p, a, *shape], hess [p, a, b, *shape]."""
        monomials, coeffs = self.num
        num = [_combine(part, coeffs) for part in monomials.jet(xs, order)]
        den, poles = self._denominator(xs, order)
        if poles.any():
            raise PoleError(f"pole at {xs[np.argmax(poles)].tolist()}")
        # quotient rule for f = N / D, from N = f D differentiated; the
        # partials are formed in place in N's, so that an order-2 jet has
        # at most one n^4 temporary beside its Hessian
        value = num[0] / den[0]
        parts = [value]
        if order >= 1:
            grad = num[1]
            if len(den) > 1:
                grad -= value[:, None] * den[1]
            grad /= den[0][:, None]
            parts.append(grad)
        if order >= 2:
            hess = num[2]
            if len(den) > 1:
                # [p, a, b]: f_a D_b
                cross = grad[:, :, None] * den[1][:, None]
                hess -= cross + cross.swapaxes(1, 2)
                del cross
                hess -= value[:, None, None] * den[2]
            hess /= den[0][:, None, None]
            parts.append(hess)
        return _Jet(*(part.reshape(part.shape[:1 + rank] + self.shape)
                      for rank, part in enumerate(parts)))


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

    def jet(self, xs: Points, order: int) -> List[np.ndarray]:
        """The monomials at each point, [p, t], with their first partials
        [p, c, t] and second partials [p, a, b, t] up to the order."""
        if self.order < order:
            self._compile(order)
        values = np.zeros((len(xs), len(self.table) + 1))
        np.prod(self.table[:, 1] * xs[:, None, :] ** self.table[:, 0],
                axis=-1, out=values[:, :-1])
        return [values[:, rows] for rows in self.index[:order + 1]]


class _Numeric:
    """Coordinate-level numeric view of a scenario: its compiled grids.

    It keeps no reference to the scenario."""

    def __init__(self, scenario):
        self.coords: List[str] = list(scenario.coordinates)
        self.n = len(self.coords)
        self.parsed = scenario.parse_table()
        self.alpha = (self.grid(scenario.alpha1), self.grid(scenario.alpha2))
        self.frame_at = self.grid(scenario.frame)
        self.gram_at = self.grid(scenario.metric)
        self.phi_grid = self.grid(scenario.phi)
        self.base = np.array([float(Fraction(scenario.base_point[coord]))
                              for coord in self.coords])

    def grid(self, texts) -> _FloatGrid:
        """Compile a vector or matrix of expression texts, read from the
        scenario's parse table."""
        cells = np.asarray(texts, dtype=object)
        return _FloatGrid([self.parsed[text] for text in cells.flat],
                          cells.shape, tuple(self.coords))

    # -- jets on stacks of points ---------------------------------------

    def metric(self, xs: Points, inverse: _Jet) -> _Jet:
        """g = F^-T G F^-1 in coordinates, from the jet of F^-1 at the
        points: F is the frame matrix (column b is the field e_b) and G the
        Gram matrix, evaluated to the order of that jet."""
        return inverse.T @ self.gram_at.jet(xs, inverse.order) @ inverse

    def phi(self, xs: Points, frame: _Jet, inverse: _Jet) -> _Jet:
        """phi = F P F^-1 in coordinates, from the jets of F and F^-1; P is
        phi's matrix in the frame."""
        return frame @ self.phi_grid.jet(xs, frame.order) @ inverse

    # -- probe sampling -------------------------------------------------

    def probe_points(self, count: int, seed: int) -> Points:
        """The first ``count`` regular candidates base + U[-0.5, 0.5]^n of
        random.Random(seed), drawn in blocks of ``count`` and tested with
        one stacked mask per block; ValueError after _MAX_RESAMPLE
        consecutive rejections."""
        rng = random.Random(seed)
        points, rejected = [], 0
        while len(points) < count:
            block = self.base + np.array(
                [[rng.uniform(-0.5, 0.5) for _ in self.coords]
                 for _ in range(count)]).reshape(count, self.n)
            for x, ok in zip(block, self._regular(block)):
                if ok:
                    points.append(x)
                    rejected = 0
                    if len(points) == count:
                        break
                else:
                    rejected += 1
                    if rejected == _MAX_RESAMPLE:
                        raise ValueError(
                            "could not sample a regular probe point")
        return np.array(points).reshape(count, self.n)

    def _regular(self, xs: Points) -> np.ndarray:
        """Which points of the stack are regular, [p]; one point [n] is a
        stack of one.  A point is regular when no entry has a pole there,
        |det F| >= 1e-8, and the metric, phi and the forms are finite.  A
        point with a pole is dropped before any entry is divided, so it
        neither raises nor warns for the rest."""
        xs = np.atleast_2d(xs)
        grids = (self.frame_at, self.gram_at, self.phi_grid) + self.alpha
        ok = ~np.any([grid.poles(xs) for grid in grids], axis=0)
        frames = self.frame_at(xs[ok])
        invertible = (~(np.abs(np.linalg.det(frames)) < 1e-8)
                      & np.isfinite(frames).all(axis=(1, 2)))
        ok[ok] = invertible
        x, frame = xs[ok], _Jet(frames[invertible])
        inverse = frame.inverse()
        values = (self.metric(x, inverse).value,
                  self.phi(x, frame, inverse).value,
                  self.alpha[0](x), self.alpha[1](x))
        ok[ok] = np.logical_and.reduce([
            np.isfinite(value).all(axis=tuple(range(1, value.ndim)))
            for value in values])
        return ok


class _View:
    """One scenario's float view at one probe stack.

    It holds the compiled grids (`num`), the probe points (`xs`) and the
    jets there, each computed on first use and read by every identity.
    Like `_Numeric` it keeps no reference to the scenario, so no reference
    cycle runs through the scenario's cache."""

    def __init__(self, num: _Numeric, xs: Points):
        self.num = num
        self.xs = xs

    def chunks(self) -> List[slice]:
        """The probe stack in chunks of the order-2 stage."""
        size = max(1, _ORDER_2_ENTRIES // self.num.n ** 4)
        return [slice(start, start + size)
                for start in range(0, len(self.xs), size)]

    @cached_property
    def alpha_jets(self) -> Tuple[_Jet, _Jet]:
        """Order-2 jets of alpha_1 and alpha_2, value [p, k], grad
        [p, a, k] and hess [p, a, b, k], evaluated chunk by chunk."""
        forms = []
        for grid in self.num.alpha:
            jets = [grid.jet(self.xs[chunk], 2) for chunk in self.chunks()]
            forms.append(_Jet(np.concatenate([jet.value for jet in jets]),
                              np.concatenate([jet.grad for jet in jets]),
                              np.concatenate([jet.hess for jet in jets])))
        return tuple(forms)

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
            total = total - np.einsum("pkr,parj,pj->pak", solver, d_rows, z)
        return total

    @cached_property
    def _metric_and_phi(self) -> Tuple[_Jet, _Jet]:
        """The order-1 jets of g and phi, from one evaluation and inversion
        of the frame matrix, which is not kept."""
        frame = self.num.frame_at.jet(self.xs, 1)
        inverse = frame.inverse()
        return (self.num.metric(self.xs, inverse),
                self.num.phi(self.xs, frame, inverse))

    @cached_property
    def metric(self) -> np.ndarray:
        return self._metric_and_phi[0].value

    @cached_property
    def christoffel(self) -> np.ndarray:
        return _christoffel(self._metric_and_phi[0]).value

    def reeb_curvature(self) -> np.ndarray:
        """R(e_a, e_b)(Z_1 + Z_2) at [p, a, b, l].  Each chunk's R comes
        from the order-2 metric chain on that chunk alone and is contracted
        with Z there, so no n^4 array outlives its chunk.  The contraction
        is one BLAS product [1, k] @ [k, a b] per point and l, on R's
        contiguous reshape, so an entry is the same float whatever the
        chunk's size (an einsum may sum in another order for another
        layout)."""
        z = self.reeb[0] + self.reeb[1]
        values = []
        for chunk in self.chunks():
            x = self.xs[chunk]
            # each jet of the chain is a temporary, dropped once the next
            # is formed
            riemann = _riemann(_christoffel(
                self.num.metric(x, self.num.frame_at.jet(x, 2).inverse())))
            p, n = riemann.shape[:2]
            rz = z[chunk, None, None] @ riemann.reshape(p, n, n, n * n)
            values.append(rz.reshape(p, n, n, n).transpose(0, 2, 3, 1))
            del riemann
        return np.concatenate(values)

    @property
    def phi_jet(self) -> _Jet:
        return self._metric_and_phi[1]

    @cached_property
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
        num = _Numeric(scenario)
        scenario._cache[key] = _View(num, num.probe_points(probe_count, seed))
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


def _christoffel(g: _Jet) -> _Jet:
    """Gamma[p, k, i, j] of the Levi-Civita connection in coordinates,
    with its gradient [p, a, k, i, j] when g carries its Hessian."""

    def first_kind(dg):  # dg[..., c, i, j] = d_c g_ij
        # 2 Gamma_ijl = d_i g_jl + d_j g_il - d_l g_ij, at [..., i, j, l]
        out = dg + np.einsum("...jil->...ijl", dg)
        out -= np.einsum("...lij->...ijl", dg)
        return out

    def raised(inverse, lowered):
        # sum_l inverse[..., k, l] lowered[..., i, j, l] at [..., k, i, j],
        # one matmul over the flattened (i, j)
        n = lowered.shape[-1]
        flat = lowered.reshape(lowered.shape[:-3] + (n * n, n))
        out = inverse @ flat.swapaxes(-1, -2)
        return out.reshape(out.shape[:-1] + (n, n))

    inverse = _Jet(g.value, None if g.hess is None else g.grad).inverse()
    lowered = first_kind(g.grad)
    value = 0.5 * raised(inverse.value, lowered)
    if g.hess is None:
        return _Jet(value)
    # the term of g's Hessian first, so that its first-kind symbols are
    # dropped before the other term is formed; a sum does not depend on
    # the order of its two terms
    grad = raised(inverse.value[:, None], first_kind(g.hess))
    grad += raised(inverse.grad, lowered[:, None])
    grad *= 0.5
    return _Jet(value, grad)


def _riemann(gamma: _Jet) -> np.ndarray:
    """R[p, l, k, a, b] with R(e_a, e_b) e_k = R^l_{k a b} e_l."""
    derivative = np.einsum("palbk->plkab", gamma.grad)  # d_a Gamma^l_bk
    riemann = derivative - derivative.swapaxes(3, 4)
    prod = np.einsum("plam,pmbk->plkab", gamma.value, gamma.value)
    riemann += prod
    riemann -= prod.swapaxes(3, 4)
    return riemann


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
    sym = np.einsum("pkj,pij->ipk", num.frame_at(view.xs), exact)
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
    # the left side first: its per-point order-2 chain is the peak of
    # memory, and no array of the right side is alive during it
    lhs = view.reeb_curvature()
    rhs = 0.0
    for alpha, part in zip(view.alpha, split):
        forms = np.einsum("pk,pkm->pm", alpha, part)  # alpha_i of columns
        columns = part.swapaxes(1, 2)  # [p, m, l]
        rhs = rhs + (forms[:, None, :, None] * columns[:, :, None, :]
                     - forms[:, :, None, None] * columns[:, None, :, :])
    lhs -= rhs
    return lhs


def _residual_minimal(view: _View, span_texts) -> np.ndarray:
    """The numerically computed mean curvature vector at each point.

    The span fields, Christoffel symbols and tangential projections are
    all recomputed in floating point, so a small value independently
    certifies minimality and a large value certifies its failure."""
    span = view.num.grid(span_texts)  # row b: field b
    # column b: field b in coordinates; grad[p, i, k, b] = d_i of its
    # component k
    tangents = view.num.frame_at.jet(view.xs, 1) @ span.jet(view.xs, 1).T
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
            / span.shape[0])


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
        values = _residual_minimal(_view(scenario, probe_count, seed),
                                   scenario.submanifolds[name])
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
