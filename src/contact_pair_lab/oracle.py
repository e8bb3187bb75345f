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
span, the exact Reeb components) is compiled once into a `_FloatGrid`, an
exponent matrix and a coefficient matrix for its numerators and for its
denominators.  The monomials are differentiated exactly,
d_c x^e = e_c x^(e - e_c), so one evaluation at a stack of points gives
every entry's value, gradient and, at order 2, Hessian, by the quotient
rule.  `_Jet` carries these truncated Taylor expansions through products
and inverses, d(F^-1) = -F^-1 (dF) F^-1 and its second-order form
(forward-mode Taylor propagation; Griewank and Walther, Evaluating
Derivatives, 2nd ed., ch. 13).  No step size enters anywhere.

- Order 2: the metric chain g = F^-T G F^-1, then Gamma and its gradient,
  then R, for `curvature.reeb_identity`; and alpha_1, alpha_2, whose
  Hessians give d(d alpha) and the derivative of the Reeb fields through
  the differentiated Reeb system M dZ = -(dM) Z.  An order-2 evaluation
  takes one probe point at a time, which keeps peak memory that of one
  point's n^4 Hessian of g.
- Order 1: g and Gamma, phi and its gradient, the span tangents, each
  batched over the probe points.
- Order 0: the exact Reeb components and the regularity test of probe
  sampling.

Each scenario has one float view (`_View`) per probe count and seed, kept
in its `_cache` next to the exact objects: the compiled grids, the probe
stack and, computed on first use, the jets at the probe points.  Every
identity reads these, so a sweep over all identities compiles the grids,
samples the probes and solves the Reeb system at them once.  A residual
that is not finite at some probe point is reported as inf, never as a
pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scalars import PoleError, ScalarExpr, Terms, parse_expr

_MAX_RESAMPLE = 100

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
        cross = x.grad[:, :, None] @ y.grad[:, None]  # [p, a, b]: dx_a dy_b
        hess = (x.hess @ y.value[:, None, None] + cross
                + cross.swapaxes(1, 2) + x.value[:, None, None] @ y.hess)
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
        hess = -(outer + outer.swapaxes(1, 2)
                 + inv[:, None, None] @ self.hess @ inv[:, None, None])
        return _Jet(inv, grad, hess)


class _FloatGrid:
    """A vector or matrix of rational functions compiled for floats.

    Numerators and denominators are each a float exponent matrix
    (terms x n) and a coefficient matrix (terms x entries), so a stack of
    points is evaluated in one pass; values have shape (k, *shape)."""

    def __init__(self, exprs: Sequence[ScalarExpr], shape: Tuple[int, ...],
                 coords: Tuple[str, ...]):
        if any(expr.vars != coords for expr in exprs):
            raise ValueError("grid entries must use the scenario coordinates")
        self.shape = shape
        self.num = self._compile([expr.num for expr in exprs], len(coords))
        self.den = self._compile([expr.den for expr in exprs], len(coords))

    @staticmethod
    def _compile(polys: Sequence[Terms], n: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
        monomials = sorted({exp for terms in polys for exp in terms})
        row = {exp: index for index, exp in enumerate(monomials)}
        coeffs = np.zeros((len(monomials), len(polys)))
        for col, terms in enumerate(polys):
            for exp, coeff in terms.items():
                coeffs[row[exp], col] = float(coeff)
        return np.array(monomials, dtype=float).reshape(-1, n), coeffs

    def __call__(self, xs: Points) -> np.ndarray:
        return self.jet(xs, 0).value

    def jet(self, xs: Points, order: int) -> _Jet:
        """The entries' jet of the given order (0, 1 or 2) at each point:
        value [p, *shape], grad [p, a, *shape], hess [p, a, b, *shape]."""
        num = [part @ self.num[1] for part in _monomial_jet(xs, self.num[0],
                                                            order)]
        den = [part @ self.den[1] for part in _monomial_jet(xs, self.den[0],
                                                            order)]
        if not den[0].all():
            point = xs[np.nonzero(den[0] == 0.0)[0][0]]
            raise PoleError(f"pole at {point.tolist()}")
        # quotient rule for f = N / D, from N = f D differentiated
        value = num[0] / den[0]
        parts = [value]
        if order >= 1:
            grad = (num[1] - value[:, None] * den[1]) / den[0][:, None]
            parts.append(grad)
        if order >= 2:
            cross = grad[:, :, None] * den[1][:, None]  # [p, a, b]: f_a D_b
            parts.append((num[2] - (cross + cross.swapaxes(1, 2))
                          - value[:, None, None] * den[2])
                         / den[0][:, None, None])
        return _Jet(*(part.reshape(part.shape[:1 + rank] + self.shape)
                      for rank, part in enumerate(parts)))


def _monomial_jet(xs: Points, exps: np.ndarray, order: int
                  ) -> List[np.ndarray]:
    """The monomials x^e at each point, [p, t], with their first partials
    [p, c, t] and second partials [p, a, b, t] up to the order: a partial
    replaces the factor x_c^e_c by its derivative, exactly."""
    powers = xs[:, None, :] ** exps  # [p, t, c]
    parts = [powers.prod(-1)]
    if order < 1:
        return parts
    eye = np.eye(xs.shape[1], dtype=bool)
    first = exps * xs[:, None, :] ** np.maximum(exps - 1, 0)
    # factor c of d_a x^e: the derivative where c = a, the power elsewhere
    factors = np.where(eye, first[:, :, None, :], powers[:, :, None, :])
    parts.append(np.moveaxis(factors.prod(-1), 1, -1))
    if order < 2:
        return parts
    second = exps * (exps - 1) * xs[:, None, :] ** np.maximum(exps - 2, 0)
    at_a, at_b = eye[:, None, :], eye[None, :, :]  # [a, b, c]: c = a, c = b
    factors = np.where(at_a & at_b, second[:, :, None, None, :],
                       np.where(at_a | at_b, first[:, :, None, None, :],
                                powers[:, :, None, None, :]))
    parts.append(np.moveaxis(factors.prod(-1), 1, -1))
    return parts


class _Numeric:
    """Coordinate-level numeric view of a scenario: its compiled grids.

    It keeps no reference to the scenario."""

    def __init__(self, scenario):
        self.coords: List[str] = list(scenario.coordinates)
        self.n = len(self.coords)
        self.alpha = (self.grid(scenario.alpha1), self.grid(scenario.alpha2))
        self.frame_at = self.grid(scenario.frame)
        self.gram_at = self.grid(scenario.metric)
        self.phi_grid = self.grid(scenario.phi)
        self.base = np.array([float(Fraction(scenario.base_point[coord]))
                              for coord in self.coords])

    def grid(self, texts) -> _FloatGrid:
        """Compile a vector or matrix of expression texts."""
        var = tuple(self.coords)
        cells = np.asarray(texts, dtype=object)
        return _FloatGrid([parse_expr(str(text), var) for text in cells.flat],
                          cells.shape, var)

    # -- jets on stacks of points ---------------------------------------

    def metric(self, xs: Points, order: int) -> _Jet:
        """g = F^-T G F^-1 in coordinates, F the frame matrix (column b is
        the field e_b) and G the Gram matrix."""
        inverse = self.frame_at.jet(xs, order).inverse()
        return inverse.T @ self.gram_at.jet(xs, order) @ inverse

    def phi(self, xs: Points, order: int) -> _Jet:
        frame = self.frame_at.jet(xs, order)
        return frame @ self.phi_grid.jet(xs, order) @ frame.inverse()

    # -- probe sampling -------------------------------------------------

    def probe_points(self, count: int, seed: int) -> Points:
        rng = random.Random(seed)
        points = []
        while len(points) < count:
            for _ in range(_MAX_RESAMPLE):
                x = self.base + np.array([rng.uniform(-0.5, 0.5)
                                          for _ in self.coords])
                if self._regular(x):
                    points.append(x)
                    break
            else:
                raise ValueError("could not sample a regular probe point")
        return np.array(points).reshape(count, self.n)

    def _regular(self, x: np.ndarray) -> bool:
        xs = x[None, :]
        try:
            if abs(np.linalg.det(self.frame_at(xs)[0])) < 1e-8:
                return False
            values = (self.metric(xs, 0).value, self.phi(xs, 0).value,
                      self.alpha[0](xs), self.alpha[1](xs))
        except (PoleError, np.linalg.LinAlgError):
            return False
        return all(np.isfinite(value).all() for value in values)


class _View:
    """One scenario's float view at one probe stack.

    It holds the compiled grids (`num`), the probe points (`xs`) and the
    jets there, each computed on first use and read by every identity.
    Like `_Numeric` it keeps no reference to the scenario, so no reference
    cycle runs through the scenario's cache."""

    def __init__(self, num: _Numeric, xs: Points):
        self.num = num
        self.xs = xs

    @cached_property
    def alpha_jets(self) -> Tuple[_Jet, _Jet]:
        """Order-2 jets of alpha_1 and alpha_2, value [p, k], grad
        [p, a, k] and hess [p, a, b, k], evaluated one probe point at a
        time."""
        forms = []
        for grid in self.num.alpha:
            jets = [grid.jet(x[None], 2) for x in self.xs]
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
    def _metric_jet(self) -> _Jet:
        return self.num.metric(self.xs, 1)

    @cached_property
    def metric(self) -> np.ndarray:
        return self._metric_jet.value

    @cached_property
    def christoffel(self) -> np.ndarray:
        return _christoffel(self._metric_jet).value

    def curvature(self, p: int) -> np.ndarray:
        """R[l, k, a, b] at probe point p, from the order-2 metric chain
        evaluated at that point alone."""
        return _riemann(_christoffel(self.num.metric(self.xs[p:p + 1], 2)))[0]

    @cached_property
    def phi_jet(self) -> _Jet:
        return self.num.phi(self.xs, 1)

    @cached_property
    def phi(self) -> np.ndarray:
        return self.phi_jet.value

    def foliation_split(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Bases of the two integrable factors at each point: factor i is
        the joint kernel of the other contact form and its differential."""
        kernels = []
        for j in (1, 0):
            rows = np.concatenate([self.alpha[j][:, None, :],
                                   self.d_alpha[j].transpose(0, 2, 1)],
                                  axis=1)
            kernels.append([_nullspace(matrix) for matrix in rows])
        return list(zip(*kernels))


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
        return (dg + np.einsum("...jil->...ijl", dg)
                - np.einsum("...lij->...ijl", dg))

    inverse = _Jet(g.value, None if g.hess is None else g.grad).inverse()
    lowered = first_kind(g.grad)
    value = 0.5 * np.einsum("pkl,pijl->pkij", inverse.value, lowered)
    if g.hess is None:
        return _Jet(value)
    grad = 0.5 * (np.einsum("pakl,pijl->pakij", inverse.grad, lowered)
                  + np.einsum("pkl,paijl->pakij", inverse.value,
                              first_kind(g.hess)))
    return _Jet(value, grad)


def _riemann(gamma: _Jet) -> np.ndarray:
    """R[p, l, k, a, b] with R(e_a, e_b) e_k = R^l_{k a b} e_l."""
    derivative = np.einsum("palbk->plkab", gamma.grad)  # d_a Gamma^l_bk
    prod = np.einsum("plam,pmbk->plkab", gamma.value, gamma.value)
    return (derivative - derivative.swapaxes(3, 4)
            + prod - prod.swapaxes(3, 4))


def _nullspace(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    _, sigma, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sigma > tol * max(1.0, sigma[0] if len(sigma) else 1.0)))
    return vt[rank:].T


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
    n = view.num.n
    z = view.reeb[0] + view.reeb[1]
    values = []
    for p, (b1, b2) in enumerate(view.foliation_split()):
        basis = np.hstack([b1, b2])
        if basis.shape[1] != n:
            return np.array([np.inf])
        try:
            coefficients = np.linalg.solve(basis, np.eye(n))
        except np.linalg.LinAlgError:  # the two factors overlap
            return np.array([np.inf])
        split = (b1 @ coefficients[:b1.shape[1]],
                 b2 @ coefficients[b1.shape[1]:])
        lhs = np.einsum("lkab,k->abl", view.curvature(p), z[p])
        rhs = np.zeros((n, n, n))
        for i in (0, 1):
            forms = view.alpha[i][p] @ split[i]  # alpha_i of split columns
            rhs += (forms[None, :, None] * split[i].T[:, None, :]
                    - forms[:, None, None] * split[i].T[None, :, :])
        values.append(lhs - rhs)
    return np.stack(values)


def _residual_minimal(view: _View, span_texts) -> np.ndarray:
    """The numerically computed mean curvature vector at each point.

    The span fields, Christoffel symbols and tangential projections are
    all recomputed in floating point, so a small value independently
    certifies minimality and a large value certifies its failure."""
    num = view.num
    span = num.grid(span_texts)  # row b: field b
    rank = span.shape[0]
    # column b: field b in coordinates; grad[p, i, k, b] = d_i of its
    # component k
    tangents = num.frame_at.jet(view.xs, 1) @ span.jet(view.xs, 1).T
    means = []
    for gamma, g, tangent, dv in zip(view.christoffel, view.metric,
                                     tangents.value, tangents.grad):
        gram = tangent.T @ g @ tangent
        gram_inv = np.linalg.inv(gram)
        mean = np.zeros(num.n)
        for a in range(rank):
            u = tangent[:, a]
            for b in range(rank):
                nabla = u @ dv[:, :, b] + np.einsum("kij,i,j->k", gamma, u,
                                                   tangent[:, b])
                coeff = np.linalg.solve(gram, tangent.T @ g @ nabla)
                normal = nabla - tangent @ coeff
                mean += gram_inv[a, b] * normal
        means.append(mean / rank)
    return np.array(means)


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
    after mutating the scenario, as for its exact objects."""
    if probe_count < 1:
        raise ValueError("the oracle needs at least one probe point")
    if identity_id.startswith("submanifold.") \
            and identity_id.endswith(".minimal"):
        span = scenario.submanifolds[
            identity_id[len("submanifold."):-len(".minimal")]]
        values = _residual_minimal(_view(scenario, probe_count, seed), span)
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
