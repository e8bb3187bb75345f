import dataclasses
import math
import os
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_pair_lab import (CORPUS_NAMES, ORACLE_IDS, Scenario,
                              ValidationError, corpus_build, numeric_oracle,
                              run_checks, scenario_from_dict,
                              scenario_to_dict)
from contact_pair_lab import contact, frames, oracle, scalars
from contact_pair_lab.scalars import PoleError, parse_expr
from conftest import (FOUR_FIELD_GAUGE, evaluate_float, gauged_heis6,
                      twisted_heis6)
from test_scalars import VARS, exprs, points

ALGEBRAIC_TOL = 1e-9
NONZERO_FLOOR = 1e-3


@pytest.mark.parametrize("name,params", [("darboux", (1, 1)),
                                         ("darboux", (1, 0)),
                                         ("heis6", None)])
@pytest.mark.parametrize("identity_id", ORACLE_IDS)
def test_certified_identities_have_tiny_residuals(name, params, identity_id):
    scenario = corpus_build(name, params)
    residual = numeric_oracle(scenario, identity_id, probe_count=8, seed=1)
    assert residual < ALGEBRAIC_TOL, (name, identity_id, residual)


def test_minimal_subframes_have_tiny_mean_curvature():
    scenario = corpus_build("heis6")
    for sub in ("factor", "heis6-leaf3", "heis6-n4"):
        residual = numeric_oracle(scenario, f"submanifold.{sub}.minimal",
                                  probe_count=8)
        assert residual < ALGEBRAIC_TOL, (sub, residual)


def test_nonminimal_subframe_has_large_residual():
    scenario = corpus_build("darboux-J-noninvariant")
    residual = numeric_oracle(
        scenario, "submanifold.darboux-J-noninvariant.minimal",
        probe_count=8)
    assert residual > NONZERO_FLOOR


def test_oracle_detects_a_broken_metric():
    scenario = corpus_build("heis6")
    scenario.metric[0][0] = "1"
    scenario.metric[1][1] = "1"
    scenario._cache.clear()
    residual = numeric_oracle(scenario, "metric.associated", probe_count=4)
    assert residual > NONZERO_FLOOR


def test_oracle_detects_a_twisted_structure():
    scenario = corpus_build("heis6")
    scenario.phi[0][0] = "z"
    scenario.phi[1][0] = "1"
    scenario.phi[0][1] = "-1 - z^2"
    scenario.phi[1][1] = "-z"
    scenario._cache.clear()
    residual = numeric_oracle(scenario, "normality.N1", probe_count=4)
    assert residual > NONZERO_FLOOR


@pytest.mark.parametrize("entries", [
    {(3, 3): "1", (4, 4): "1"},  # the second horizontal block rescaled
    {(0, 0): "1/2 + x^2/4"},  # a metric with non-constant second derivatives
])
@pytest.mark.parametrize("identity_id", ["connection.reeb_derivative",
                                         "curvature.reeb_identity"])
def test_oracle_detects_a_broken_metric_in_the_derivative_identities(
        entries, identity_id):
    scenario = corpus_build("heis6")
    for (row, col), text in entries.items():
        scenario.metric[row][col] = text
    scenario._cache.clear()
    residual = numeric_oracle(scenario, identity_id, probe_count=4)
    assert residual > NONZERO_FLOOR


@pytest.mark.parametrize("identity_id", ["pair.reeb", "metric.associated",
                                         "normality.N1",
                                         "connection.reeb_derivative",
                                         "curvature.reeb_identity"])
def test_a_nan_at_one_probe_point_is_no_pass(monkeypatch, identity_id):
    # max(worst, nan) keeps worst, so a per-point maximum would hide it
    solve = oracle._View.reeb.func

    def with_nan(view):
        z1, z2 = solve(view)
        z1 = z1.copy()
        z1[3, 0] = np.nan
        return z1, z2

    monkeypatch.setattr(oracle._View, "reeb", property(with_nan))
    assert numeric_oracle(corpus_build("heis6"), identity_id,
                          probe_count=8) == math.inf


def test_oracle_is_deterministic_for_a_seed():
    scenario = corpus_build("heis6")
    first = numeric_oracle(scenario, "connection.reeb_derivative", seed=5)
    second = numeric_oracle(scenario, "connection.reeb_derivative", seed=5)
    assert first == second


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        numeric_oracle(corpus_build("heis6"), "no-such-identity")
    scenario = corpus_build("heis6")
    with pytest.raises(ValueError, match="no submanifold 'nope'") as info:
        numeric_oracle(scenario, "submanifold.nope.minimal")
    for name in scenario.submanifolds:
        assert name in str(info.value)


@pytest.mark.parametrize("identity_id", ["d_squared",
                                         "submanifold.heis6-n4.minimal"])
def test_an_oracle_without_probe_points_is_rejected(identity_id):
    # no probe point means nothing was checked, not a zero residual
    with pytest.raises(ValueError):
        numeric_oracle(corpus_build("heis6"), identity_id, probe_count=0)


def test_submanifold_oracle_probes_at_the_given_seed(monkeypatch):
    seeds = []
    sample = oracle._Numeric.sample

    def spy(self, count, seed):
        seeds.append(seed)
        return sample(self, count, seed)

    monkeypatch.setattr(oracle._Numeric, "sample", spy)
    numeric_oracle(corpus_build("heis6"), "submanifold.heis6-n4.minimal",
                   probe_count=2, seed=5)
    assert seeds == [5]


def test_a_pole_at_a_probe_point_is_irregular():
    scenario = corpus_build("heis6")
    scenario.frame[0][0] = "1/x"
    numeric = oracle._Numeric(scenario)
    point = np.array([0.0, 0.25, 0.0, 0.5, 0.0, 0.0])
    assert not numeric._regular(point)[0]
    point[0] = 0.5
    assert numeric._regular(point)[0]


# -- batched evaluation ------------------------------------------------

def _terms_at(terms, values, magnitude=False):
    """Sum of the terms at a point, or of their absolute values."""
    size = abs if magnitude else float
    return sum(size(float(coeff) * math.prod(v ** e
                                             for v, e in zip(values, exp)))
               for exp, coeff in terms.items())


# quotients whose denominator b^2 + 1 has no real zero
_entries = st.one_of(exprs, st.tuples(exprs, exprs).map(
    lambda ab: ab[0] / (ab[1] * ab[1] + parse_expr("1", VARS))))


@settings(max_examples=40, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=4),
       st.lists(points, min_size=1, max_size=3))
def test_float_grid_matches_evaluate_float(entries, point_list):
    grid = oracle._FloatGrid(entries, (len(entries),), VARS)
    xs = np.array([[float(p[v]) for v in VARS] for p in point_list])
    values = grid(xs)
    assert values.shape == (len(xs), len(entries))
    for x, row in zip(xs, values):
        for expr, got in zip(entries, row):
            want = evaluate_float(expr, dict(zip(VARS, x)))
            # 1e-12 relative to the size of the terms that were summed
            scale = (_terms_at(expr.num, x, True)
                     + abs(want) * _terms_at(expr.den, x, True)) \
                / abs(_terms_at(expr.den, x))
            assert math.isclose(got, want, rel_tol=1e-12,
                                abs_tol=1e-12 * scale), (expr, x)


def test_float_grid_raises_at_a_pole():
    grid = oracle._FloatGrid([parse_expr(t, VARS) for t in ("x", "1/(x - y)")],
                             (2,), VARS)
    np.testing.assert_array_equal(grid(np.array([[1.0, 2.0]])), [[1.0, -1.0]])
    with pytest.raises(PoleError):
        grid(np.array([[1.0, 2.0], [3.0, 3.0]]))


def _central(func, x, step):
    """Central differences [c, ...] = d_c func at the single point x[0]."""
    out = []
    for c in range(x.shape[1]):
        plus, minus = x.copy(), x.copy()
        plus[0, c] += step
        minus[0, c] -= step
        out.append((func(plus) - func(minus)) / (2 * step))
    return np.array(out)


def _assert_matches_differences(got, func, x, scale, step=2.0 ** -16):
    """got agrees with central differences of func at x, up to the
    differences' own error: their change when the step doubles bounds the
    truncation error, and scale * 1e-7 bounds the rounding."""
    fine, coarse = _central(func, x, step), _central(func, x, 2 * step)
    tolerance = 4 * np.abs(fine - coarse) + 1e-7 * scale
    assert (np.abs(got - fine) <= tolerance).all(), (got, fine, tolerance)


@settings(max_examples=40, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=3), points)
def test_jets_match_central_differences_of_the_values(entries, point):
    grid = oracle._FloatGrid(entries, (len(entries),), VARS)
    x = np.array([[float(point[v]) for v in VARS]])
    jet = grid.jet(x, 2)
    # the size of the summed terms, as in the evaluation property above
    scale = max((_terms_at(expr.num, x[0], True)
                 + abs(value) * _terms_at(expr.den, x[0], True))
                / abs(_terms_at(expr.den, x[0]))
                for expr, value in zip(entries, jet.value[0])) + 1.0
    np.testing.assert_array_equal(jet.value, grid(x))
    _assert_matches_differences(jet.grad[0], lambda y: grid(y)[0], x, scale)
    # the Hessian against differences of the gradient, so that one
    # difference, not two nested ones, sets the tolerance
    _assert_matches_differences(_whole_hessian(jet, x)[0],
                                lambda y: grid.jet(y, 1).grad[0], x,
                                scale * 100)


# a chart whose frame and Gram matrix both depend on every coordinate, so
# that no product in the metric chain has a vanishing cross term; only its
# float view is built, so the odd dimension is never validated
_DENSE_CHART = Scenario(
    name="dense-chart", pair_type=(0, 0), coordinates=["x", "y", "z"],
    base_point={"x": "0", "y": "0", "z": "0"},
    frame=[["1 + x*y/4", "y/3", "0"], ["z/5", "1 + x^2/8", "x*z/6"],
           ["y^2/7", "0", "1/(1 + z^2)"]],
    metric=[["2 + x^2", "x*y/3", "z/4"], ["x*y/3", "3 + y*z/5", "0"],
            ["z/4", "0", "2/(1 + x^2)"]],
    phi=[["0"] * 3] * 3, alpha1=["0", "0", "1"], alpha2=["1", "0", "0"])


# the charts whose frame or Gram matrix varies to second order, the dense
# one with nonconstant denominators
_ON_CHARTS = pytest.mark.parametrize("scenario", [
    gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE), _DENSE_CHART],
    ids=["heis6-gauged4", "dense-chart"])


def _metric(numeric, xs):
    """The coordinate metric's jet of order 1 at the points."""
    return oracle._View(numeric, xs)._metric_and_phi[0]


def _cells(numeric, xs, *keys):
    """The order-2 jets of blocks of the scenario's table at the points."""
    jet = numeric.table.jet(xs, 2)
    return [numeric.cut(jet, key, 2) for key in keys]


# -- the full-R reference ---------------------------------------------------
#
# The order-2 metric chain written out whole: the Hessian of
# g = F^-T G F^-1, the gradient of Gamma and R, n^4 numbers per point.  An
# order-2 jet here is a tuple (value, grad, hess).

def _whole_hessian(jet, xs):
    """The whole Hessian [p, a, b, *shape] of a grid's order-2 jet."""
    return jet.hess.along(np.eye(xs.shape[1]))


def _product(x, y):
    """x @ y of two order-2 jets, by the product rule."""
    value = x[0] @ y[0]
    grad = x[1] @ y[0][:, None] + x[0][:, None] @ y[1]
    hess = (x[2] @ y[0][:, None, None] + x[1][:, :, None] @ y[1][:, None]
            + x[1][:, None] @ y[1][:, :, None] + x[0][:, None, None] @ y[2])
    return value, grad, hess


def _inverse(x):
    """The inverse of an order-2 jet: d_a d_b F^-1 = -(d_b F^-1 dF_a F^-1
    + F^-1 dF_ab F^-1 + F^-1 dF_a d_b F^-1)."""
    inv = np.linalg.inv(x[0])
    grad = -inv[:, None] @ x[1] @ inv[:, None]
    outer = grad[:, None] @ x[1][:, :, None] @ inv[:, None, None]
    return inv, grad, -(outer + outer.swapaxes(1, 2)
                        + inv[:, None, None] @ x[2] @ inv[:, None, None])


def _metric_2(numeric, xs):
    """The coordinate metric's order-2 jet, its Hessian [p, a, b, i, j]."""
    frame, gram = _cells(numeric, xs, "frame", "gram")
    inverse = _inverse((frame.value, frame.grad, _whole_hessian(frame, xs)))
    transposed = tuple(part.swapaxes(-1, -2) for part in inverse)
    return _product(_product(transposed, (gram.value, gram.grad,
                                          _whole_hessian(gram, xs))),
                    inverse)


def _christoffel_2(g):
    """Gamma[p, k, i, j] and its gradient [p, a, k, i, j] from g's order-2
    jet."""

    def first_kind(dg):  # 2 Gamma_ijl at [..., i, j, l]
        return (dg + np.einsum("...jil->...ijl", dg)
                - np.einsum("...lij->...ijl", dg))

    def raised(inverse, lowered):  # sum_l inverse[k, l] lowered[i, j, l]
        return np.einsum("...kl,...ijl->...kij", inverse, lowered)

    inverse = _inverse(g)
    lowered = first_kind(g[1])
    return (0.5 * raised(inverse[0], lowered),
            0.5 * (raised(inverse[0][:, None], first_kind(g[2]))
                   + raised(inverse[1], lowered[:, None])))


def _riemann(gamma):
    """R[p, l, k, a, b] with R(e_a, e_b) e_k = R^l_{k a b} e_l."""
    value, grad = gamma
    derivative = np.einsum("palbk->plkab", grad)  # d_a Gamma^l_bk
    prod = np.einsum("plam,pmbk->plkab", value, value)
    return (derivative - derivative.swapaxes(3, 4)
            + prod - prod.swapaxes(3, 4))


def _reeb_curvature_by_point(view):
    """R(e_a, e_b)(Z_1 + Z_2) at [p, a, b, l] from the full-R reference, one
    probe point at a time."""
    z = view.reeb[0] + view.reeb[1]
    return np.stack([
        np.einsum("lkab,k->abl",
                  _riemann(_christoffel_2(_metric_2(view.num, x[None])))[0],
                  zp)
        for x, zp in zip(view.xs, z)])


@_ON_CHARTS
def test_metric_chain_matches_central_differences(scenario):
    numeric = oracle._Numeric(scenario)
    for x in numeric.probe_points(3, seed=2):
        x = x[None]
        g = _metric_2(numeric, x)
        np.testing.assert_array_equal(g[0], _metric(numeric, x).value)
        _assert_matches_differences(g[1][0],
                                    lambda y: _metric(numeric, y).value[0],
                                    x, 1.0)
        _assert_matches_differences(g[2][0],
                                    lambda y: _metric(numeric, y).grad[0],
                                    x, 1.0)
        gamma = _christoffel_2(g)
        _assert_matches_differences(
            gamma[1][0],
            lambda y: oracle._View(numeric, y).christoffel[0],
            x, 1.0)


@_ON_CHARTS
def test_a_hessian_is_contracted_as_the_whole_one(scenario):
    numeric = oracle._Numeric(scenario)
    xs = numeric.probe_points(3, seed=2)
    w = np.random.default_rng(4).normal(size=xs.shape)
    for jet in _cells(numeric, xs, "frame", "gram"):
        hess, whole = jet.hess, _whole_hessian(jet, xs)
        for got, want in (
                (hess.apply(w), np.einsum("pabij,pj->pabi", whole, w)),
                (hess.apply(w, left=True),
                 np.einsum("pi,pabij->pabj", w, whole)),
                (hess.along(w[..., None])[:, :, 0],
                 np.einsum("pabij,pb->paij", whole, w))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12
                                       * max(1.0, np.abs(want).max()))


@_ON_CHARTS
def test_directional_jets_match_the_full_r_reference_and_differences(
        scenario, monkeypatch):
    # two fields that are not Reeb fields, so that no term of R(., .)z
    # vanishes, as some do for the corpus's constant Reeb fields
    numeric = oracle._Numeric(scenario)
    xs = numeric.probe_points(3, seed=2)
    fields = tuple(np.random.default_rng(5).normal(size=(2,) + xs.shape))
    monkeypatch.setattr(oracle._View, "reeb", property(lambda view: fields))
    view = oracle._View(numeric, xs)
    reference = _reeb_curvature_by_point(view)
    np.testing.assert_allclose(view.reeb_curvature(), reference, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(reference).max()))
    z = fields[0] + fields[1]
    second, along = view.metric_along(z)
    hess = _metric_2(numeric, xs)[2]  # [p, a, b, i, j]
    for got, want in ((second, np.einsum("pabij,pj->pabi", hess, z)),
                      (along, np.einsum("pabij,pb->paij", hess, z))):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))
    for p, x in enumerate(xs):
        x = x[None]
        # d_c of d_a (g z)_m, and of sum_b z_b d_b g_ij
        _assert_matches_differences(
            second[p], lambda y: _metric(numeric, y).grad[0] @ z[p], x,
            1.0)
        _assert_matches_differences(
            along[p], lambda y: np.einsum("b,bij->ij", z[p],
                                          _metric(numeric, y).grad[0]),
            x, 1.0)


def test_reeb_gradient_matches_central_differences():
    # alpha_1 rescaled by a function of the first factor's coordinates: the
    # Reeb system stays consistent and the fields are no longer constant
    scenario = corpus_build("heis6")
    scenario.alpha1 = [text if text == "0" else f"({text})*(1 + x^2/4 + y*z/8)"
                       for text in scenario.alpha1]
    numeric = oracle._Numeric(scenario)
    xs = numeric.probe_points(3, seed=2)
    gradient = oracle._View(numeric, xs).reeb_gradient
    assert np.abs(gradient).max() > 0.1
    for x, got in zip(xs, gradient):
        _assert_matches_differences(
            got, lambda y: sum(oracle._View(numeric, y).reeb)[0], x[None],
            1.0)


# The tracemalloc peak of curvature.reeb_identity on darboux (2, 2), after
# connection.reeb_derivative has built the view, when order 2 ran one
# probe point at a time: 761,889 bytes (764,014 on the first call in an
# interpreter), on Python 3.11.7 and numpy 2.4.6.
_POINTWISE_ORDER_2_PEAK = 761_889


def test_a_sweep_evaluates_each_grid_at_order_2_once_on_the_stack(
        monkeypatch):
    scenario = corpus_build("darboux", (2, 2))
    numeric_oracle(scenario, "connection.reeb_derivative")
    tracemalloc.start()
    try:
        numeric_oracle(scenario, "curvature.reeb_identity")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _POINTWISE_ORDER_2_PEAK

    evaluate, regular = oracle._Monomials.evaluate, oracle._Numeric._regular
    compile_ = oracle._FloatGrid.__init__
    for scenario in (corpus_build("heis6"), corpus_build("darboux", (2, 2)),
                     _scenario("heis6-gauged")):
        events, compiled = [], []  # each sampled block, each evaluation

        def spy_evaluate(self, xs, order):
            events.append((self, order, len(xs)))
            return evaluate(self, xs, order)

        def spy_compile(self, *args):
            compiled.append(self)
            compile_(self, *args)

        def spy_regular(self, xs):
            events.append("block")
            return regular(self, xs)

        monkeypatch.setattr(oracle._Monomials, "evaluate", spy_evaluate)
        monkeypatch.setattr(oracle._FloatGrid, "__init__", spy_compile)
        monkeypatch.setattr(oracle._Numeric, "_regular", spy_regular)
        for identity_id in _all_ids(scenario):
            numeric_oracle(scenario, identity_id, probe_count=8)
        # one table per scenario, and pair.reeb's grid of exact components
        table, exact = compiled
        assert table is oracle._view(scenario, 8, 1).num.table
        # each sampled block evaluated once at order 2 on all its candidates,
        # a constant denominator never; then only the exact grid, at order 0
        per_block = [(table.num[0], 2, 8)] + [
            (table.den[0], 2, 8)][:not table.den[0].constant]
        after = [(exact.num[0], 0, 8)] + [
            (exact.den[0], 0, 8)][:not exact.den[0].constant]
        blocks = events.count("block")
        assert blocks and events == (["block"] + per_block) * blocks + after


# Residuals at seed 1 of the jet oracle.  Each is at most the residual of
# the finite-difference oracle it replaced, which was up to 1e-9.
_REFERENCE = {
    ("heis6", "d_squared"): 0.0,
    ("heis6", "pair.reeb"): 2.220446049250313e-16,
    ("heis6", "metric.associated"): 1.1102230246251565e-16,
    ("heis6", "normality.N1"): 2.220446049250313e-16,
    ("heis6", "connection.reeb_derivative"): 2.220446049250313e-16,
    ("heis6", "curvature.reeb_identity"): 3.1311654705084615e-16,
    ("heis6", "submanifold.factor.minimal"): 0.0,
    ("heis6", "submanifold.heis6-leaf3.minimal"): 0.0,
    ("heis6", "submanifold.heis6-n4.minimal"): 0.0,
    ("darboux", "d_squared"): 0.0,
    ("darboux", "pair.reeb"): 4.440892098500626e-16,
    ("darboux", "metric.associated"): 8.326672684688674e-17,
    ("darboux", "normality.N1"): 2.220446049250313e-16,
    ("darboux", "connection.reeb_derivative"): 2.220446049250313e-16,
    ("darboux", "curvature.reeb_identity"): 3.3306690738754696e-16,
}


@pytest.mark.parametrize("name,identity_id", sorted(_REFERENCE))
def test_residuals_match_the_pointwise_reference(name, identity_id):
    residual = numeric_oracle(corpus_build(name), identity_id,
                              probe_count=8, seed=1)
    assert abs(residual - _REFERENCE[(name, identity_id)]) <= 1e-12


# -- one float view per scenario -----------------------------------------

def _scenario(name):
    if name == "heis6-gauged":
        return gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE)
    if name == "darboux-2-2":
        return corpus_build("darboux", (2, 2))
    return twisted_heis6() if name == "heis6-twisted" else corpus_build(name)


def _all_ids(scenario):
    return list(ORACLE_IDS) + [f"submanifold.{name}.minimal"
                               for name in scenario.submanifolds]


@pytest.mark.parametrize("name", CORPUS_NAMES + ("heis6-twisted",))
def test_a_shared_view_gives_the_residuals_of_fresh_scenarios(name):
    shared = _scenario(name)
    for identity_id in _all_ids(shared):
        assert numeric_oracle(shared, identity_id, probe_count=4, seed=3) \
            == numeric_oracle(_scenario(name), identity_id, probe_count=4,
                              seed=3), identity_id


def test_the_view_is_built_once_per_probe_count_and_seed(monkeypatch):
    built, sampled = [], []
    init, sample = oracle._Numeric.__init__, oracle._Numeric.sample

    def spy_init(self, scenario):
        built.append(scenario.name)
        init(self, scenario)

    def spy_sample(self, count, seed):
        sampled.append((count, seed))
        return sample(self, count, seed)

    monkeypatch.setattr(oracle._Numeric, "__init__", spy_init)
    monkeypatch.setattr(oracle._Numeric, "sample", spy_sample)
    scenario = corpus_build("heis6")
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id, probe_count=2)
    assert (len(built), sampled) == (1, [(2, 1)])
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id, probe_count=2, seed=2)
        numeric_oracle(scenario, identity_id, probe_count=3)
    assert (len(built), sampled) == (3, [(2, 1), (2, 2), (3, 1)])


def test_clearing_the_cache_after_a_mutation_gives_a_fresh_view():
    scenario = corpus_build("heis6")
    residual = numeric_oracle(scenario, "metric.associated", probe_count=4)
    view = oracle._view(scenario, 4, 1)
    assert residual < ALGEBRAIC_TOL
    scenario.metric[0][0] = "1"
    scenario.metric[1][1] = "1"
    scenario._cache.clear()
    assert oracle._view(scenario, 4, 1) is not view
    assert numeric_oracle(scenario, "metric.associated",
                          probe_count=4) > NONZERO_FLOOR


def test_the_view_holds_no_reference_to_its_scenario():
    scenario = corpus_build("heis6")
    numeric_oracle(scenario, "normality.N1", probe_count=2)
    view = oracle._view(scenario, 2, 1)
    assert not any(value is scenario for holder in (view, view.num)
                   for value in vars(holder).values())


def test_reeb_oracle_rejects_a_reeb_system_without_unique_solution():
    scenario = corpus_build("heis6")
    scenario.alpha2 = list(scenario.alpha1)
    with pytest.raises(ValidationError):
        numeric_oracle(scenario, "pair.reeb", probe_count=2)


@pytest.mark.parametrize("identity_id", ["metric.associated", "normality.N1",
                                         "connection.reeb_derivative",
                                         "curvature.reeb_identity"])
def test_a_reeb_system_without_unique_solution_fails_its_readers(
        identity_id):
    scenario = corpus_build("heis6")
    scenario.alpha2 = list(scenario.alpha1)
    assert numeric_oracle(scenario, identity_id,
                          probe_count=2) > NONZERO_FLOOR


def test_a_replaced_scenario_gets_a_view_of_its_own():
    scenario = corpus_build("heis6")
    assert numeric_oracle(scenario, "metric.associated",
                          probe_count=4) < ALGEBRAIC_TOL
    metric = [row[:] for row in scenario.metric]
    metric[0][0] = metric[1][1] = "1"
    broken = dataclasses.replace(scenario, metric=metric)
    assert numeric_oracle(broken, "metric.associated",
                          probe_count=4) > NONZERO_FLOOR


# -- stacked stages against their per-point loops ---------------------------

def _nullspace(matrix, tol=1e-8):
    _, sigma, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sigma > tol * max(1.0, sigma[0])))
    return vt[rank:].T


def _curvature_by_point(view):
    """curvature.reeb_identity's residual, one probe point at a time."""
    n = view.num.n
    z = view.reeb[0] + view.reeb[1]
    values = []
    for p, x in enumerate(view.xs):
        b1, b2 = (_nullspace(np.vstack([view.alpha[j][p], view.d_alpha[j][p].T]))
                  for j in (1, 0))
        basis = np.hstack([b1, b2])
        if basis.shape[1] != n:
            return np.array([np.inf])
        try:
            coefficients = np.linalg.solve(basis, np.eye(n))
        except np.linalg.LinAlgError:
            return np.array([np.inf])
        split = (b1 @ coefficients[:b1.shape[1]],
                 b2 @ coefficients[b1.shape[1]:])
        riemann = _riemann(_christoffel_2(_metric_2(view.num, x[None])))[0]
        lhs = np.einsum("lkab,k->abl", riemann, z[p])
        rhs = np.zeros((n, n, n))
        for i in (0, 1):
            forms = view.alpha[i][p] @ split[i]
            rhs += (forms[None, :, None] * split[i].T[:, None, :]
                    - forms[:, None, None] * split[i].T[None, :, :])
        values.append(lhs - rhs)
    return np.stack(values)


def _minimal_by_point(view, name):
    """A submanifold's mean curvature vector, one probe point and one pair
    (a, b) of span fields at a time."""
    num = view.num
    tangents = num.cut(view.jet, "frame", 1) \
        @ num.cut(view.jet, ("span", name), 1).T
    rank = tangents.value.shape[2]
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
                mean += gram_inv[a, b] * (nabla - tangent @ coeff)
        means.append(mean / rank)
    return np.array(means)


@pytest.mark.parametrize("name", CORPUS_NAMES + ("heis6-gauged",
                                                 "heis6-twisted"))
def test_stacked_residuals_match_the_pointwise_loops(name):
    scenario = _scenario(name)
    view = oracle._view(scenario, 8, 1)
    np.testing.assert_allclose(oracle._residual_curvature(view),
                               _curvature_by_point(view), rtol=0, atol=1e-12)
    for name in scenario.submanifolds:
        np.testing.assert_allclose(oracle._residual_minimal(view, name),
                                   _minimal_by_point(view, name),
                                   rtol=0, atol=1e-12)


def _alpha_jets_by_point(view):
    """The order-2 jets of the forms, one probe point at a time."""
    forms = []
    for key in ("alpha1", "alpha2"):
        jets = [_cells(view.num, x[None], key)[0] for x in view.xs]
        forms.append(oracle._Jet(
            np.concatenate([jet.value for jet in jets]),
            np.concatenate([jet.grad for jet in jets]),
            np.concatenate([_whole_hessian(jet, x[None])
                            for jet, x in zip(jets, view.xs)])))
    return forms


@pytest.mark.parametrize("name", CORPUS_NAMES + ("heis6-twisted",
                                                 "heis6-gauged",
                                                 "darboux-2-2"))
def test_chunked_order_2_matches_the_pointwise_loops(name):
    # order 2 on the whole stack against one point at a time, and the
    # directional R(., .)Z against the full-R reference
    view = oracle._view(_scenario(name), 8, 1)
    for got, want in zip(view.alpha_jets, _alpha_jets_by_point(view)):
        for part, reference in ((got.value, want.value),
                                (got.grad, want.grad),
                                (got.hess, want.hess)):
            np.testing.assert_allclose(
                part, reference, rtol=0,
                atol=1e-12 * max(1.0, np.abs(reference).max()))
    reference = _reeb_curvature_by_point(view)
    np.testing.assert_allclose(view.reeb_curvature(), reference, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(reference).max()))


@pytest.mark.parametrize("name,seed", [("heis6-gauged", 2),
                                       ("heis6-gauged", 3),
                                       ("darboux-2-2", 1)])
def test_a_point_s_curvature_does_not_depend_on_its_stack(name, seed,
                                                          monkeypatch):
    # the benchmark's inputs; on heis6-gauged a two-point stack's R(Z) once
    # differed from one point's in the last bit
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench"))
    import workloads

    data = dict(workloads.workload_inputs(
        "nonconstant" if name == "heis6-gauged" else "darboux-scaling",
        seed))[name]
    stacked = oracle._view(scenario_from_dict(data), 8, seed)
    curvature = stacked.reeb_curvature()
    for x, value in zip(stacked.xs, curvature):
        alone = oracle._View(stacked.num, x[None])
        assert np.array_equal(value[None], alone.reeb_curvature())


def _regular_by_point(numeric, x):
    """The regularity rules for one candidate alone: no pole in a
    regularity column, |det F| at least 1e-8, an invertible frame, and
    finite metric, phi and forms."""
    xs = x[None]
    values = numeric.table.evaluate(xs, 0)
    if numeric.table.poles(xs, values, numeric.regular)[0]:
        return False
    jet = numeric.table.jet(xs, 0, values)
    frame = numeric.cut(jet, "frame", 0)
    if abs(np.linalg.det(frame.value[0])) < 1e-8:
        return False
    try:
        inverse = oracle._Jet(np.linalg.inv(frame.value))
    except np.linalg.LinAlgError:
        return False
    blocks = {key: numeric.cut(jet, key, 0) for key in oracle._REGULAR}
    metric, phi = oracle._coordinate(frame, inverse, blocks.get)
    return all(np.isfinite(part.value).all()
               for part in (metric, phi, blocks["alpha1"], blocks["alpha2"]))


def _probes_by_point(numeric, count, seed):
    """Each probe point is the first regular candidate of at most
    _MAX_RESAMPLE drawn after the previous one."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        for _ in range(oracle._MAX_RESAMPLE):
            x = numeric.base + np.array([rng.uniform(-0.5, 0.5)
                                         for _ in numeric.coords])
            if _regular_by_point(numeric, x):
                points.append(x)
                break
        else:
            raise ValueError("could not sample a regular probe point")
    return np.array(points).reshape(count, numeric.n)


def _pole_in_the_box():
    """heis6 with u based at 2^52, where a ±0.5 step rounds to 2^52 itself
    about three times in four, and a frame entry with its pole there."""
    scenario = corpus_build("heis6")
    scenario.base_point = dict(scenario.base_point, u=str(2 ** 52))
    scenario.frame[0][1] = f"1/(u - {2 ** 52})"
    return scenario


def _outcome(sample, *args):
    try:
        return sample(*args).tolist()
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize("name", CORPUS_NAMES + ("pole-in-the-box",))
@pytest.mark.parametrize("max_resample", [oracle._MAX_RESAMPLE, 8])
def test_stacked_sampling_draws_the_pointwise_probes(monkeypatch, name,
                                                     max_resample):
    # with at most 8 rejections in a row, the pole scenario gives up on
    # some seeds and not on others: both samplers must agree on each
    monkeypatch.setattr(oracle, "_MAX_RESAMPLE", max_resample)
    scenario = _pole_in_the_box() if name == "pole-in-the-box" \
        else corpus_build(name)
    numeric = oracle._Numeric(scenario)
    outcomes = []
    for seed in range(1, 6):
        outcomes.append(_outcome(numeric.probe_points, 8, seed))
        assert outcomes[-1] == _outcome(_probes_by_point, numeric, 8, seed)
    if name == "pole-in-the-box":
        given_up = outcomes.count("ValueError")
        assert 0 < given_up < 5 if max_resample == 8 else given_up == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_view_reads_the_rows_of_the_candidates_it_kept(seed):
    # about three candidates in four are rejected, so the probes come from
    # several blocks, each evaluated once; a view evaluated afresh at the
    # kept points must read the same
    view = oracle._view(_pole_in_the_box(), 8, seed)
    fresh = oracle._View(view.num, view.xs)
    for got, want in ((view.jet.value, fresh.jet.value),
                      (view.jet.grad, fresh.jet.grad),
                      (view.frame_inverse, fresh.frame_inverse)):
        assert np.array_equal(got, want)


def test_a_pole_in_one_candidate_masks_that_candidate_alone():
    numeric = oracle._Numeric(_pole_in_the_box())
    block = numeric.base + np.array([[0.0] * 6, [0.0, 0.0, 0.0, -0.5, 0, 0]])
    np.testing.assert_array_equal(numeric._regular(block)[0], [False, True])


def test_a_frame_singular_everywhere_gives_up_after_max_resample(
        monkeypatch):
    scenario = corpus_build("heis6")
    scenario.frame[0][0] = "0"
    numeric = oracle._Numeric(scenario)
    tested = []
    regular = oracle._Numeric._regular

    def spy(self, xs):
        tested.extend(xs)
        return regular(self, xs)

    monkeypatch.setattr(oracle._Numeric, "_regular", spy)
    with pytest.raises(ValueError):
        numeric.probe_points(8, seed=1)
    assert oracle._MAX_RESAMPLE <= len(tested) < oracle._MAX_RESAMPLE + 8


def test_a_heis6_sweep_evaluates_each_grid_once_below_order_2(monkeypatch):
    """Below order 2 the table is divided once, for the sampler's mask, and
    at order 2 once, for the view, both on the sampled values; and the
    frame and g are inverted once each.  The
    pointwise sampler took 58 order-0 evaluations (seven per candidate,
    and two for pair.reeb) and 10 order-1 ones (the frame once for g and
    once for phi); the per-grid sweep took 7 order-0 and 9 order-1 jets of
    seven grids, each evaluated anew, and inverted the frame three times
    and g twice."""
    scenario = corpus_build("heis6")
    jets, inverted = [], []
    jet, inv = oracle._FloatGrid.jet, np.linalg.inv

    def spy(self, xs, order, values=None):
        jets.append((self, order, len(xs), values is not None))
        return jet(self, xs, order, values)

    def spy_inv(matrices):
        inverted.append(np.array(matrices))
        return inv(matrices)

    monkeypatch.setattr(oracle._FloatGrid, "jet", spy)
    monkeypatch.setattr(oracle.np.linalg, "inv", spy_inv)
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id, probe_count=8)
    view = oracle._view(scenario, 8, 1)
    num = view.num
    assert [jet[1:] for jet in jets if jet[0] is num.table] == [
        (0, 8, True), (2, 8, True)]
    # and pair.reeb's exact components
    assert [jet[1:3] for jet in jets if jet[0] is not num.table] == [(0, 8)]
    for matrices in (view.frame, view.metric):
        assert sum(np.array_equal(matrices, inverse)
                   for inverse in inverted) == 1


# -- the per-grid reference ------------------------------------------------
#
# The oracle path that the one table replaced: each block of cells compiled
# into a grid of its own and evaluated apart, and the frame inverted where
# each stage needs it.

class _PerGrid:
    """A scenario's grids apart: the forms, the frame, the Gram matrix, phi
    and each span."""

    def __init__(self, scenario):
        self.coords = list(scenario.coordinates)
        self.n = len(self.coords)
        parsed = scenario.parse_table()

        def grid(texts):
            cells = np.asarray(texts, dtype=object)
            return oracle._FloatGrid([parsed[text] for text in cells.flat],
                                     cells.shape, tuple(self.coords))

        self.alpha = (grid(scenario.alpha1), grid(scenario.alpha2))
        self.frame_at, self.gram_at, self.phi_grid = (
            grid(scenario.frame), grid(scenario.metric), grid(scenario.phi))
        self.spans = {name: grid(texts)
                      for name, texts in scenario.submanifolds.items()}
        self.base = np.array([float(Fraction(scenario.base_point[coord]))
                              for coord in self.coords])

    def _regular(self, xs):
        grids = (self.frame_at, self.gram_at, self.phi_grid) + self.alpha
        ok = ~np.any([grid.poles(xs, grid.evaluate(xs, 0))
                      for grid in grids], axis=0)
        frames = self.frame_at(xs[ok])
        invertible = (~(np.abs(np.linalg.det(frames)) < 1e-8)
                      & np.isfinite(frames).all(axis=(1, 2)))
        ok[ok] = invertible
        x, frame = xs[ok], oracle._Jet(frames[invertible])
        inverse = frame.inverse(np.linalg.inv(frame.value))
        values = (inverse.T @ self.gram_at.jet(x, 0) @ inverse,
                  frame @ self.phi_grid.jet(x, 0) @ inverse,
                  self.alpha[0].jet(x, 0), self.alpha[1].jet(x, 0))
        ok[ok] = np.logical_and.reduce([
            np.isfinite(value.value).all(
                axis=tuple(range(1, value.value.ndim)))
            for value in values])
        return ok

    def probe_points(self, count, seed):
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
                    if rejected == oracle._MAX_RESAMPLE:
                        raise ValueError(
                            "could not sample a regular probe point")
        return np.array(points).reshape(count, self.n)

    def view(self, xs):
        """A view whose jets come from the grids apart, each evaluated on
        its own and the frame inverted afresh."""
        view = object.__new__(oracle._View)
        view.num, view.xs = self, xs
        # what the view cuts from the table's jet: the frame's and the Gram
        # matrix's order-2 jets and the spans', each evaluated apart
        view.jet = {"frame": self.frame_at.jet(xs, 2),
                    "gram": self.gram_at.jet(xs, 2)}
        view.jet.update((("span", name), span.jet(xs, 2))
                        for name, span in self.spans.items())
        view.frame = self.frame_at(xs)
        view.frame_inverse = np.linalg.inv(view.frame)
        frame = self.frame_at.jet(xs, 1)
        inverse = frame.inverse(np.linalg.inv(frame.value))
        view._metric_and_phi = (
            inverse.T @ self.gram_at.jet(xs, 1) @ inverse,
            frame @ self.phi_grid.jet(xs, 1) @ inverse)
        view.alpha_jets = tuple(
            oracle._Jet(jet.value, jet.grad, _whole_hessian(jet, xs))
            for jet in (grid.jet(xs, 2) for grid in self.alpha))
        return view

    def cut(self, jet, key, order):
        return jet[key]


def _residual(view, scenario, identity_id):
    """numeric_oracle's value of the identity on the view."""
    if identity_id == "pair.reeb":
        values = oracle._residual_reeb(view, scenario)
    elif identity_id in oracle._RESIDUALS:
        values = oracle._RESIDUALS[identity_id](view)
    else:
        values = oracle._residual_minimal(
            view, identity_id[len("submanifold."):-len(".minimal")])
    values = np.abs(values)
    return float(values.max()) if np.isfinite(values).all() else math.inf


def _equivalence_inputs(monkeypatch, seed):
    """Every benchmark input at the seed, and every corpus scenario."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench"))
    import workloads

    inputs = [(name, scenario_from_dict(data, name))
              for workload in sorted(workloads.WORKLOADS)
              for name, data in workloads.workload_inputs(workload, seed)]
    return inputs + [(name, corpus_build(name)) for name in CORPUS_NAMES]


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_table_samples_the_per_grid_probes_and_residuals(monkeypatch,
                                                             seed):
    for name, scenario in _equivalence_inputs(monkeypatch, seed):
        reference = _PerGrid(scenario)
        xs = reference.probe_points(8, seed)
        view = oracle._view(scenario, 8, seed)
        assert np.array_equal(view.xs, xs), name
        assert np.array_equal(oracle._Numeric(scenario).probe_points(8, seed),
                              xs), name
        expected = reference.view(xs)
        for identity_id in _all_ids(scenario):
            want = _residual(expected, scenario, identity_id)
            got = numeric_oracle(scenario, identity_id, seed=seed)
            assert abs(got - want) <= 1e-12, (name, identity_id, got, want)


def test_a_span_with_a_pole_at_a_probe_point_rejects_no_point():
    # the span's pole lies on the hyperplane u = 2^52, where about three
    # candidates in four land; the frame and the forms have no pole there
    scenario = corpus_build("heis6")
    scenario.base_point = dict(scenario.base_point, u=str(2 ** 52))
    name = "heis6-n4"
    scenario.submanifolds[name] = [
        [text if text == "0" else f"({text})/(u - {2 ** 52})"
         for text in row] for row in scenario.submanifolds[name]]
    view = oracle._view(scenario, 8, 1)
    assert np.array_equal(view.xs, _PerGrid(scenario).probe_points(8, 1))
    assert (view.xs[:, scenario.coordinates.index("u")] == 2 ** 52).any()
    assert numeric_oracle(scenario, f"submanifold.{name}.minimal") \
        == math.inf
    assert numeric_oracle(scenario, "metric.associated") < ALGEBRAIC_TOL


# -- one parse per scenario, and an oracle independent of the exact side -----

def _spy_on_parse_expr(monkeypatch):
    """Every text the package parses from now on, in call order."""
    parsed = []
    parse = scalars.parse_expr

    def spy(text, coordinates):
        parsed.append(text)
        return parse(text, coordinates)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("contact_pair_lab") \
                and getattr(module, "parse_expr", None) is parse:
            monkeypatch.setattr(module, "parse_expr", spy)
    return parsed


@pytest.mark.parametrize("name", ["heis6-gauged", "darboux-J-noninvariant"])
def test_a_scenario_parses_each_distinct_text_once(monkeypatch, name):
    data = scenario_to_dict(_scenario(name))
    parsed = _spy_on_parse_expr(monkeypatch)
    scenario = scenario_from_dict(data, name)
    cells = len(parsed)
    run_checks(scenario, seed=1)
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id)
    assert len(parsed) == cells == len(set(parsed)) > 0


def test_a_replaced_or_cleared_scenario_parses_again(monkeypatch):
    scenario = corpus_build("heis6")
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id)
    parsed = _spy_on_parse_expr(monkeypatch)
    numeric_oracle(scenario, "pair.reeb", seed=2)
    assert parsed == []
    numeric_oracle(dataclasses.replace(scenario), "pair.reeb")
    texts = sorted(parsed)
    assert texts and len(texts) == len(set(texts))
    scenario._cache.clear()
    numeric_oracle(scenario, "pair.reeb")
    assert sorted(parsed[len(texts):]) == texts


def _exact_side_reached(*args, **kwargs):
    raise AssertionError("the float oracle reached the exact pipeline")


@pytest.mark.parametrize("name", CORPUS_NAMES + ("heis6-gauged",
                                                 "heis6-twisted"))
def test_only_the_reeb_oracle_reads_the_exact_pipeline(monkeypatch, name):
    scenario = _scenario(name)
    ids = [identity_id for identity_id in _all_ids(scenario)
           if identity_id != "pair.reeb"]
    expected = [numeric_oracle(scenario, identity_id) for identity_id in ids]
    fresh = _scenario(name)
    fresh._cache.clear()
    for owner, attribute in (
            (frames._Chart, "__init__"), (frames.FrameContext, "__init__"),
            (frames.VectorField, "__init__"), (frames.PForm, "__init__"),
            (frames.EndoField, "__init__"), (frames.MetricField, "__init__"),
            (frames.LeviCivita, "__init__"), (frames, "bracket"),
            (frames, "exterior_derivative"), (contact, "solve_reeb"),
            (scalars.ScalarExpr, "differentiate")):
        monkeypatch.setattr(owner, attribute, _exact_side_reached)
    assert [numeric_oracle(fresh, identity_id)
            for identity_id in ids] == expected
    with pytest.raises(AssertionError, match="exact pipeline"):
        numeric_oracle(fresh, "pair.reeb")
