"""The exact linear algebra against sympy as a reference: reduced row
echelon form and pivots, determinant, inverse, rank, kernel and span
membership, over Q and Q(x).  ``row_reduce``, which keeps its rows as maps
of nonzero entries, is also compared with the dense elimination of
``conftest``."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from contact_pair_lab import linalg
from contact_pair_lab.scalars import ScalarExpr, parse_expr

from conftest import row_reduce_reference

VARS = ("x",)
X = sympy.Symbol("x")
FIELD = sympy.QQ.frac_field(X)  # the reference field Q(x)

# zero is drawn often, so zero top-left entries and singular matrices occur
_ENTRIES = ("0", "0", "0", "1", "-1", "2", "1/2", "x", "x + 1", "1/(x + 2)",
            "x^2 - 1")
_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _element(entry):
    """An entry of ours, ScalarExpr or Fraction, in the reference field."""
    return FIELD.from_sympy(
        sympy.sympify(str(entry).replace("^", "**"), locals={"x": X}))


def _entries(rows) -> list:
    return [[_element(e) for e in row] for row in rows]


def _reference(rows) -> DomainMatrix:
    return DomainMatrix(_entries(rows), (len(rows), len(rows[0])), FIELD)


@st.composite
def matrices(draw, entries):
    """1-4 x 1-5 matrices; about half of them with a last column that is a
    combination of the others."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if cols > 1 and draw(st.booleans()):
        weights = [draw(entries) for _ in range(cols - 1)]
        for row in m:
            acc = row[0] * weights[0]
            for a, w in zip(row[1:-1], weights[1:]):
                acc = acc + a * w
            row[-1] = acc
    return m


_scalars = st.sampled_from(_ENTRIES).map(lambda t: parse_expr(t, VARS))
_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_scalars, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(matrices(_scalars))
def test_rref_and_kernel_match_sympy(m):
    reference = _reference(m)
    expected, expected_pivots = reference.rref()
    reduced, pivots = linalg.rref(m)
    assert tuple(pivots) == expected_pivots
    assert _entries(reduced) == expected.to_list()
    basis = linalg.kernel_basis(m)
    assert len(basis) == len(m[0]) - len(expected_pivots)
    for vec in basis:
        assert (reference * _reference([[e] for e in vec])).is_zero_matrix


@settings(max_examples=60, deadline=None)
@given(_square)
def test_determinant_and_inverse_match_sympy(m):
    reference = _reference(m)
    det = reference.det()
    assert _element(linalg.determinant(m)) == det
    if not det:
        with pytest.raises(linalg.LinearAlgebraError):
            linalg.invert(m)
    else:
        assert _entries(linalg.invert(m)) == reference.inv().to_list()


@settings(max_examples=60, deadline=None)
@given(matrices(_FRACTIONS))
def test_rational_rank_matches_sympy(m):
    assert linalg.rational_rank(m) == _reference(m).rank()


@settings(max_examples=60, deadline=None)
@given(matrices(_scalars), st.data())
def test_span_membership_returns_the_coefficients(columns, data):
    reference = _reference(columns)
    rank = reference.rank()
    if rank < len(columns[0]):
        with pytest.raises(linalg.LinearAlgebraError):
            linalg.left_inverse(columns)
        return
    left = linalg.left_inverse(columns)
    coeffs = [data.draw(_scalars) for _ in columns[0]]
    vector = [row[0] for row in linalg.matmul(columns, [[c] for c in coeffs])]
    assert linalg.solve_in_span(left, vector) == coeffs
    for i in range(len(columns)):
        unit = [ScalarExpr.constant(int(a == i), VARS)
                for a in range(len(columns))]
        if reference.hstack(_reference([[e] for e in unit])).rank() > rank:
            assert linalg.solve_in_span(left, unit) is None


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(_scalars), matrices(_FRACTIONS)), st.data())
def test_row_reduce_matches_the_dense_elimination(m, data):
    """Rows, pivot columns, pivot values and swaps are those of the dense
    loop, also when only the leading columns are reduced and the others
    are carried along."""
    width = data.draw(st.integers(1, len(m[0])))
    assert linalg.row_reduce(m, width) == row_reduce_reference(m, width)
