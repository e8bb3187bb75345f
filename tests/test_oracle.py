import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_pair_lab import (CORPUS_NAMES, ORACLE_IDS, ValidationError,
                              corpus_build, numeric_oracle)
from contact_pair_lab import oracle
from contact_pair_lab.scalars import PoleError, parse_expr
from conftest import FOUR_FIELD_GAUGE, gauged_heis6, twisted_phi_structure
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


@pytest.mark.parametrize("identity_id", ["d_squared",
                                         "submanifold.heis6-n4.minimal"])
def test_an_oracle_without_probe_points_is_rejected(identity_id):
    # no probe point means nothing was checked, not a zero residual
    with pytest.raises(ValueError):
        numeric_oracle(corpus_build("heis6"), identity_id, probe_count=0)


def test_submanifold_oracle_probes_at_the_given_seed(monkeypatch):
    seeds = []
    sample = oracle._Numeric.probe_points

    def spy(self, count, seed):
        seeds.append(seed)
        return sample(self, count, seed)

    monkeypatch.setattr(oracle._Numeric, "probe_points", spy)
    numeric_oracle(corpus_build("heis6"), "submanifold.heis6-n4.minimal",
                   probe_count=2, seed=5)
    assert seeds == [5]


def test_a_pole_at_a_probe_point_is_irregular():
    scenario = corpus_build("heis6")
    scenario.frame[0][0] = "1/x"
    numeric = oracle._Numeric(scenario)
    point = np.array([0.0, 0.25, 0.0, 0.5, 0.0, 0.0])
    assert not numeric._regular(point)
    point[0] = 0.5
    assert numeric._regular(point)


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
            want = expr.evaluate_float(dict(zip(VARS, x)))
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
    _assert_matches_differences(jet.hess[0],
                                lambda y: grid.jet(y, 1).grad[0], x,
                                scale * 100)


# a chart whose frame and Gram matrix both depend on every coordinate, so
# that no product in the metric chain has a vanishing cross term
_DENSE_CHART = types.SimpleNamespace(
    coordinates=["x", "y", "z"], base_point={"x": "0", "y": "0", "z": "0"},
    frame=[["1 + x*y/4", "y/3", "0"], ["z/5", "1 + x^2/8", "x*z/6"],
           ["y^2/7", "0", "1/(1 + z^2)"]],
    metric=[["2 + x^2", "x*y/3", "z/4"], ["x*y/3", "3 + y*z/5", "0"],
            ["z/4", "0", "2/(1 + x^2)"]],
    phi=[["0"] * 3] * 3, alpha1=["0", "0", "1"], alpha2=["1", "0", "0"])


@pytest.mark.parametrize("scenario", [
    gauged_heis6(corpus_build("heis6"), FOUR_FIELD_GAUGE), _DENSE_CHART],
    ids=["heis6-gauged4", "dense-chart"])
def test_metric_chain_matches_central_differences(scenario):
    numeric = oracle._Numeric(scenario)
    for x in numeric.probe_points(3, seed=2):
        x = x[None]
        g = numeric.metric(x, 2)
        np.testing.assert_array_equal(g.value, numeric.metric(x, 0).value)
        _assert_matches_differences(g.grad[0],
                                    lambda y: numeric.metric(y, 0).value[0],
                                    x, 1.0)
        _assert_matches_differences(g.hess[0],
                                    lambda y: numeric.metric(y, 1).grad[0],
                                    x, 1.0)
        gamma = oracle._christoffel(g)
        _assert_matches_differences(
            gamma.grad[0],
            lambda y: oracle._christoffel(numeric.metric(y, 1)).value[0],
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


def test_no_order_2_evaluation_stacks_more_than_one_probe_point(monkeypatch):
    scenario = corpus_build("heis6")
    sizes = {0: [], 1: [], 2: []}
    jet = oracle._FloatGrid.jet

    def spy(self, xs, order):
        sizes[order].append(len(xs))
        return jet(self, xs, order)

    monkeypatch.setattr(oracle._FloatGrid, "jet", spy)
    for identity_id in _all_ids(scenario):
        numeric_oracle(scenario, identity_id, probe_count=8)
    assert set(sizes[2]) == {1}
    assert set(sizes[1]) == {8}


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

def _twisted_heis6():
    scenario = corpus_build("heis6")
    phi = twisted_phi_structure(scenario)
    scenario.phi = [[str(entry) for entry in row] for row in phi.matrix]
    scenario._cache.clear()
    return scenario


def _scenario(name):
    return _twisted_heis6() if name == "heis6-twisted" else corpus_build(name)


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
    init, sample = oracle._Numeric.__init__, oracle._Numeric.probe_points

    def spy_init(self, scenario):
        built.append(scenario.name)
        init(self, scenario)

    def spy_sample(self, count, seed):
        sampled.append((count, seed))
        return sample(self, count, seed)

    monkeypatch.setattr(oracle._Numeric, "__init__", spy_init)
    monkeypatch.setattr(oracle._Numeric, "probe_points", spy_sample)
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
