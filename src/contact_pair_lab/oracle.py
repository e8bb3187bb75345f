"""Independent floating-point oracles for the core identities.

Everything here is recomputed from the raw scenario text in coordinates:
the coordinate metric comes from the frame matrix and the Gram matrix,
Christoffel symbols and exterior derivatives come from central finite
differences, and the Reeb fields are solved pointwise by least squares.
None of the exact symbolic machinery is reused, so agreement between the
two pipelines is meaningful evidence.

The one exception is `pair.reeb`, whose exact side is the pair of fields
`contact.solve_reeb` returns for the scenario's forms and their exterior
derivatives; it is compared against the float solve, not reused by it.

Evaluation: each grid of parsed entries (frame, Gram matrix, phi, the
forms, a span, the exact Reeb components) is compiled once into a
`_FloatGrid` and evaluated at a stack of points of shape (k, n) in one
call.  A first derivative (`_gradient`) evaluates one point's 2n
neighbours x +- h e_c as one stack and loops over the points, and the
Riemann tensor is built one probe point at a time: no call stacks more
than one point's stencil, which keeps peak memory that of one stencil.
Each scenario has one float view (`_View`) per probe count and seed, kept
in its `_cache` next to the exact objects: the compiled grids, the probe
stack and, computed on first use, the values at the probe points (alpha_i,
d alpha_i, both Reeb fields, g, the Christoffel symbols and phi).  Every
identity reads these values, so a sweep over all identities compiles the
grids, samples the probes and solves the Reeb system at them once.  Z_1
and Z_2 are solved from one evaluation of the forms and their
differentials.

Step sizes: first derivatives use 1e-6; derivatives of Christoffel
symbols (which are themselves finite differences) use an outer step of
1e-3 so that rounding noise from the inner differences stays near 1e-7,
below the 1e-6 acceptance tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .scalars import PoleError, ScalarExpr, Terms, parse_expr

_H1 = 1e-6
_H2 = 1e-3
_MAX_RESAMPLE = 100

ORACLE_IDS = ("d_squared", "pair.reeb", "metric.associated",
              "normality.N1", "connection.reeb_derivative",
              "curvature.reeb_identity")

Points = np.ndarray  # shape (k, n): one point per row, in coordinate order


class _FloatGrid:
    """A vector or matrix of rational functions compiled for floats.

    Numerators and denominators are each a float exponent matrix
    (terms x n) and a coefficient matrix (terms x entries), so a stack of
    points is evaluated in one pass; the result has shape (k, *shape)."""

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
        num = _polynomials(xs, *self.num)
        den = _polynomials(xs, *self.den)
        if not den.all():
            point = xs[np.nonzero(den == 0.0)[0][0]]
            raise PoleError(f"pole at {point.tolist()}")
        return (num / den).reshape((len(xs),) + self.shape)


def _polynomials(xs: Points, exps: np.ndarray, coeffs: np.ndarray
                 ) -> np.ndarray:
    return np.prod(xs[:, None] ** exps, -1) @ coeffs


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

    # -- pointwise evaluation on stacks of points -----------------------

    def alpha_at(self, i: int, xs: Points) -> np.ndarray:
        return self.alpha[i](xs)

    def metric_at(self, xs: Points) -> np.ndarray:
        a_inv = np.linalg.inv(self.frame_at(xs))
        return a_inv.transpose(0, 2, 1) @ self.gram_at(xs) @ a_inv

    def phi_at(self, xs: Points) -> np.ndarray:
        frame = self.frame_at(xs)
        return frame @ self.phi_grid(xs) @ np.linalg.inv(frame)

    def d_alpha_at(self, i: int, xs: Points) -> np.ndarray:
        """Exterior derivative with the 1/2 normalization, so that
        d(alpha)(X, Y) = (X alpha(Y) - Y alpha(X)) / 2 on coordinate
        fields."""
        partials = _gradient(self.alpha[i], xs)
        return 0.5 * (partials - partials.transpose(0, 2, 1))

    def reeb_at(self, xs: Points) -> Tuple[np.ndarray, np.ndarray]:
        return _reeb_fields((self.alpha_at(0, xs), self.alpha_at(1, xs)),
                            (self.d_alpha_at(0, xs), self.d_alpha_at(1, xs)))

    def christoffel(self, xs: Points) -> np.ndarray:
        """Gamma[p, k, i, j] of the Levi-Civita connection in coordinates."""
        g_inv = np.linalg.inv(self.metric_at(xs))
        dg = _gradient(self.metric_at, xs)  # dg[p, i, j, l]
        # 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})
        bracket = (dg + dg.transpose(0, 2, 1, 3)
                   - dg.transpose(0, 2, 3, 1))
        return 0.5 * np.einsum("pkl,pijl->pkij", g_inv, bracket)

    def curvature_at(self, xs: Points) -> np.ndarray:
        """R[p, l, k, a, b] with R(e_a, e_b) e_k = R^l_{k a b} e_l."""
        gamma = self.christoffel(xs)
        dgamma = _gradient(self.christoffel, xs, _H2)  # [p, a, l, b, k]
        derivative = dgamma.transpose(0, 2, 4, 1, 3)  # [p, l, k, a, b]
        prod = np.einsum("plam,pmbk->plkab", gamma, gamma)
        return (derivative - derivative.swapaxes(3, 4)
                + prod - prod.swapaxes(3, 4))

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
            values = (self.metric_at(xs), self.phi_at(xs),
                      self.alpha_at(0, xs), self.alpha_at(1, xs))
        except (PoleError, np.linalg.LinAlgError):
            return False
        return all(np.isfinite(value).all() for value in values)


class _View:
    """One scenario's float view at one probe stack.

    It holds the compiled grids (`num`), the probe points (`xs`) and the
    values there, each computed on first use and read by every identity.
    Like `_Numeric` it keeps no reference to the scenario, so no reference
    cycle runs through the scenario's cache."""

    def __init__(self, num: _Numeric, xs: Points):
        self.num = num
        self.xs = xs

    @cached_property
    def alpha(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.num.alpha_at(0, self.xs), self.num.alpha_at(1, self.xs)

    @cached_property
    def d_alpha(self) -> Tuple[np.ndarray, np.ndarray]:
        return (self.num.d_alpha_at(0, self.xs),
                self.num.d_alpha_at(1, self.xs))

    @cached_property
    def reeb(self) -> Tuple[np.ndarray, np.ndarray]:
        return _reeb_fields(self.alpha, self.d_alpha)

    @cached_property
    def metric(self) -> np.ndarray:
        return self.num.metric_at(self.xs)

    @cached_property
    def christoffel(self) -> np.ndarray:
        return self.num.christoffel(self.xs)

    @cached_property
    def phi(self) -> np.ndarray:
        return self.num.phi_at(self.xs)

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


def _reeb_fields(alphas: Tuple[np.ndarray, np.ndarray],
                 d_alphas: Tuple[np.ndarray, np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Z_1 and Z_2 at each point by least squares from the values of the
    forms and their differentials: alpha_i(Z_j) = delta_ij and
    i_{Z_j} d alpha_i = 0, with the rows of Z_j's own form first."""
    count, n = alphas[0].shape
    target = np.zeros(2 + 2 * n)
    target[0] = 1.0
    fields = []
    for i in (0, 1):
        j = 1 - i
        fields.append(np.array([
            np.linalg.lstsq(np.vstack([alphas[i][p][None, :],
                                       alphas[j][p][None, :],
                                       d_alphas[i][p].T, d_alphas[j][p].T]),
                            target, rcond=None)[0]
            for p in range(count)]))
    return fields[0], fields[1]


def _gradient(func: Callable[[Points], np.ndarray], xs: Points,
              step: float = _H1) -> np.ndarray:
    """Central differences grad[p, c] = d_c func at the point xs[p].

    Each point's 2n neighbours x +- step e_c are evaluated as one stack."""
    n = xs.shape[1]
    diagonal = np.arange(n)
    out = []
    for x in xs:
        stencil = np.tile(x, (2 * n, 1))
        stencil[diagonal, diagonal] += step
        stencil[n + diagonal, diagonal] -= step
        values = func(stencil)
        out.append((values[:n] - values[n:]) / (2 * step))
    return np.array(out)


def _second_partial(func: Callable[[Points], np.ndarray], x: np.ndarray,
                    a: int, b: int, step: float = 1e-4) -> np.ndarray:
    """Symmetric second-difference stencil at one point; by construction
    the result is identical for (a, b) and (b, a)."""
    if a == b:
        stencil = np.tile(x, (3, 1))
        stencil[0, a] += step
        stencil[2, a] -= step
        plus, mid, minus = func(stencil)
        return (plus - 2 * mid + minus) / step ** 2
    lo, hi = sorted((a, b))
    stencil = np.tile(x, (4, 1))
    stencil[:, lo] += (step, step, -step, -step)
    stencil[:, hi] += (step, -step, step, -step)
    values = func(stencil)
    return (values[0] - values[1] - values[2] + values[3]) / (4 * step ** 2)


def _nullspace(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    _, sigma, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sigma > tol * max(1.0, sigma[0] if len(sigma) else 1.0)))
    return vt[rank:].T


# -- identity residuals ------------------------------------------------


def _residual_d_squared(view: _View) -> float:
    """d(d alpha) = 0 from second partial derivatives.

    The mixed partials are evaluated once per unordered coordinate pair
    with a shared stencil, so the antisymmetrized combination tests that
    the stencil values genuinely cancel."""
    worst = 0.0
    n = view.num.n
    for x in view.xs:
        for alpha in view.num.alpha:
            table = {(a, b): _second_partial(alpha, x, a, b)
                     for a in range(n) for b in range(a, n)}

            def second(a, b):
                return table[(min(a, b), max(a, b))]

            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(b + 1, n):
                        value = (second(a, b)[c] - second(a, c)[b]
                                 - second(b, a)[c] + second(b, c)[a]
                                 + second(c, a)[b] - second(c, b)[a])
                        worst = max(worst, abs(float(value)))
    return worst


def _residual_reeb(view: _View, scenario) -> float:
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
    frames = num.frame_at(view.xs)
    worst = 0.0
    for i in (0, 1):
        sym = np.einsum("pkj,pj->pk", frames, exact[:, i])
        worst = max(worst, float(np.max(np.abs(sym - view.reeb[i]))))
    return worst


def _residual_associated(view: _View) -> float:
    g = view.metric
    d_sum = view.d_alpha[0] + view.d_alpha[1]
    worst = float(np.max(np.abs(g @ view.phi - d_sum)))
    for i in (0, 1):
        duality = (np.einsum("pkj,pj->pk", g, view.reeb[i])
                   - view.alpha[i])
        worst = max(worst, float(np.max(np.abs(duality))))
    return worst


def _residual_n1(view: _View) -> float:
    """N1(e_a, e_b) on coordinate fields, for every pair a, b at once.

    The value is antisymmetric in (a, b) term by term, so its maximum over
    all pairs is its maximum over a < b."""
    phi = view.phi
    dphi = _gradient(view.num.phi_at, view.xs)  # dphi[p, c, k, a]
    # [phi e_a, phi e_b]: t[p, a, b] - t[p, b, a]
    t = np.einsum("pca,pckb->pabk", phi, dphi)
    # - phi [phi e_a, e_b] - phi [e_a, phi e_b]: u[p, a, b] - u[p, b, a]
    u = np.einsum("pkm,pbma->pabk", phi, dphi)
    value = t - t.swapaxes(1, 2) + u - u.swapaxes(1, 2)
    for i in (0, 1):
        value += (2 * view.d_alpha[i][..., None]
                  * view.reeb[i][:, None, None, :])
    return float(np.max(np.abs(value)))


def _residual_reeb_derivative(view: _View) -> float:
    def reeb_sum(ys):
        z1, z2 = view.num.reeb_at(ys)
        return z1 + z2

    dz = _gradient(reeb_sum, view.xs)  # dz[p, a, k]
    value = (dz + np.einsum("pkaj,pj->pak", view.christoffel,
                            view.reeb[0] + view.reeb[1])
             + view.phi.transpose(0, 2, 1))
    return float(np.max(np.abs(value)))


def _residual_curvature(view: _View) -> float:
    """R(X, Y)Z against the split formula, for every pair of coordinate
    fields at once; both sides are antisymmetric in (X, Y)."""
    n = view.num.n
    z = view.reeb[0] + view.reeb[1]
    worst = 0.0
    for p, (b1, b2) in enumerate(view.foliation_split()):
        basis = np.hstack([b1, b2])
        if basis.shape[1] != n:
            return float("inf")
        coefficients = np.linalg.solve(basis, np.eye(n))
        split = (b1 @ coefficients[:b1.shape[1]],
                 b2 @ coefficients[b1.shape[1]:])
        riemann = view.num.curvature_at(view.xs[p:p + 1])[0]
        lhs = np.einsum("lkab,k->abl", riemann, z[p])
        rhs = np.zeros((n, n, n))
        for i in (0, 1):
            values = view.alpha[i][p] @ split[i]  # alpha_i of split columns
            rhs += (values[None, :, None] * split[i].T[:, None, :]
                    - values[:, None, None] * split[i].T[None, :, :])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


_RESIDUALS = {
    "d_squared": _residual_d_squared,
    "metric.associated": _residual_associated,
    "normality.N1": _residual_n1,
    "connection.reeb_derivative": _residual_reeb_derivative,
    "curvature.reeb_identity": _residual_curvature,
}


def numeric_oracle(scenario, identity_id: str, probe_count: int = 8,
                   seed: int = 1) -> float:
    """Maximum residual of the named identity over seeded float probes.

    Calls on one scenario with the same probe count and seed share one
    float view, kept in the scenario's cache: clear `scenario._cache`
    after mutating the scenario, as for its exact objects."""
    if probe_count < 1:
        raise ValueError("the oracle needs at least one probe point")
    if identity_id.startswith("submanifold.") \
            and identity_id.endswith(".minimal"):
        span = scenario.submanifolds[
            identity_id[len("submanifold."):-len(".minimal")]]
        return _submanifold_minimal(_view(scenario, probe_count, seed), span)
    if identity_id == "pair.reeb":
        return _residual_reeb(_view(scenario, probe_count, seed), scenario)
    if identity_id not in _RESIDUALS:
        raise ValueError(f"unknown oracle identity {identity_id!r}; "
                         f"choose from {', '.join(ORACLE_IDS)} or "
                         "submanifold.<name>.minimal")
    return _RESIDUALS[identity_id](_view(scenario, probe_count, seed))


def _submanifold_minimal(view: _View, span_texts) -> float:
    """Sup-norm of the numerically computed mean curvature vector.

    The span fields, Christoffel symbols and tangential projections are
    all recomputed in floating point, so a small value independently
    certifies minimality and a large value certifies its failure."""
    num = view.num
    span = num.grid(span_texts)  # row b: field b
    rank = span.shape[0]

    def tangent_at(ys):  # column b: field b in coordinates
        return num.frame_at(ys) @ span(ys).transpose(0, 2, 1)

    worst = 0.0
    for gamma, g, tangent, dv in zip(view.christoffel, view.metric,
                                     tangent_at(view.xs),
                                     _gradient(tangent_at, view.xs)):
        # dv[i, k, b] = d_i of component k of span field b
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
        worst = max(worst, float(np.max(np.abs(mean / rank))))
    return worst
