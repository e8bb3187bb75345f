"""Deterministic exact linear algebra over the rational-function field.

Matrices are lists of rows of ScalarExpr, or of Fraction for the pointwise
checks; both are false exactly when zero.  ``row_reduce`` is the one row
reduction, Gauss-Jordan elimination over the leading columns.  Its pivot is
always the first row with a nonzero entry in the leftmost open column, so
every result is reproducible for a fixed input.  It records each pivot's
column and value and the number of row swaps; every function here but the
products reads it, and so does the metric's Sylvester test.

A span S of r independent columns is reduced once into a left inverse L
with L S = [I; 0]: v lies in the span exactly when the last n - r rows of
L v vanish, and the first r rows give its coefficients.  ``solve_in_span``
is that product; ``invert`` is the square case.  The pivots of [M | I]
depend only on M, so ``inverse_and_determinant`` reads the determinant
off the same reduction that gives the inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .scalars import ScalarExpr

Matrix = List[List[ScalarExpr]]
# (the first r rows of L, the other n - r rows) for a span of r columns
LeftInverse = Tuple[Matrix, Matrix]


class LinearAlgebraError(Exception):
    pass


def _constant(value: int, m: Matrix) -> ScalarExpr:
    return ScalarExpr.constant(value, m[0][0].vars)


def row_reduce(matrix, width: int) -> Tuple[list, List[int], list, int]:
    """Gauss-Jordan elimination of ``matrix`` over its first ``width``
    columns, which may be followed by columns carried along: the reduced
    rows, the pivot columns, the pivot values and the number of swaps.

    Each row is kept as a map from column to nonzero entry, so the
    elimination touches the nonzero entries only; the rows are dense
    lists again at return."""
    m = [{k: entry for k, entry in enumerate(row) if entry}
         for row in matrix]
    rows = len(m)
    pivots: List[int] = []
    values = []
    swaps = 0
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if c in m[i]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        value = m[r][c]
        pivot = m[r] = {k: entry / value for k, entry in m[r].items()}
        for row in m:
            if row is pivot or c not in row:
                continue
            factor = row[c]
            for k, entry in pivot.items():
                difference = (row[k] - factor * entry if k in row
                              else -(factor * entry))
                if difference:
                    row[k] = difference
                else:
                    del row[k]
        pivots.append(c)
        values.append(value)
    zero = matrix[0][0] - matrix[0][0] if m and matrix[0] else None
    return ([[row.get(k, zero) for k in range(len(matrix[0]))] for row in m],
            pivots, values, swaps)


def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column list."""
    if not matrix:
        return [], []
    reduced, pivots, _, _ = row_reduce(matrix, len(matrix[0]))
    return reduced, pivots


def kernel_basis(matrix: Matrix) -> List[List[ScalarExpr]]:
    """Basis of the right kernel, from the rref free columns."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    zero, one = _constant(0, matrix), _constant(1, matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * cols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def solve_unique(matrix: Matrix, rhs: Sequence[ScalarExpr]) -> List[ScalarExpr]:
    """Solve A x = b requiring exactly one solution over the field."""
    cols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    if cols in pivots:
        raise LinearAlgebraError("inconsistent linear system")
    if len(pivots) < cols:
        raise LinearAlgebraError("underdetermined linear system")
    return [row[cols] for row in reduced[:cols]]


def _reduce_beside_identity(columns: Matrix) -> Tuple[Matrix, list, int]:
    """One reduction of [S | I] over the r columns of S: the carried
    identity block, the pivot values and the number of swaps; raises
    ``LinearAlgebraError`` when the columns are dependent."""
    n, r = len(columns), len(columns[0])
    zero, one = _constant(0, columns), _constant(1, columns)
    augmented = [list(row) + [one if i == j else zero for j in range(n)]
                 for i, row in enumerate(columns)]
    reduced, pivots, values, swaps = row_reduce(augmented, r)
    if len(pivots) < r:
        raise LinearAlgebraError("matrix is singular over the scalar field")
    return [row[r:] for row in reduced], values, swaps


def _signed_product(values: list, swaps: int) -> ScalarExpr:
    det = reduce(mul, values)
    return -det if swaps % 2 else det


def left_inverse(span_columns: Matrix) -> LeftInverse:
    """L with L S = [I; 0] for S with independent columns, from one
    reduction of [S | I]; split after its first r rows."""
    r = len(span_columns[0])
    inverse, _, _ = _reduce_beside_identity(span_columns)
    return inverse[:r], inverse[r:]


def solve_in_span(left: LeftInverse, vector: Sequence[ScalarExpr]
                  ) -> Optional[List[ScalarExpr]]:
    """Coefficients expressing ``vector`` in the span whose left inverse is
    ``left``, or None when it lies outside."""
    coefficient_rows, annihilator = left
    zero = ScalarExpr.constant(0, vector[0].vars)
    if any(dot(row, vector, zero) for row in annihilator):
        return None
    return [dot(row, vector, zero) for row in coefficient_rows]


def invert(matrix: Matrix) -> Matrix:
    return left_inverse(matrix)[0]


def inverse_and_determinant(matrix: Matrix) -> Tuple[Matrix, ScalarExpr]:
    """The inverse of a square matrix and its determinant, the signed
    product of the pivot values, from one reduction of [M | I]."""
    inverse, values, swaps = _reduce_beside_identity(matrix)
    return inverse, _signed_product(values, swaps)


def determinant(matrix: Matrix) -> ScalarExpr:
    """The product of the pivot values, negated for an odd number of row
    swaps; zero without a full set of pivots."""
    _, pivots, values, swaps = row_reduce(matrix, len(matrix))
    if len(pivots) < len(matrix):
        return _constant(0, matrix)
    return _signed_product(values, swaps)


def dot(xs: Sequence[ScalarExpr], ys: Sequence[ScalarExpr],
        zero: ScalarExpr) -> ScalarExpr:
    """sum_i xs[i] * ys[i], skipping the terms with a zero factor."""
    acc = None
    for x, y in zip(xs, ys):
        if not x.is_zero() and not y.is_zero():
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    zero = _constant(0, a)
    columns = list(zip(*b))
    return [[dot(row, column, zero) for column in columns] for row in a]


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions (pointwise checks)."""
    if not matrix:
        return 0
    return len(row_reduce([list(map(Fraction, row)) for row in matrix],
                          len(matrix[0]))[1])
