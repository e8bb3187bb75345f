"""Deterministic exact linear algebra over the rational-function field.

Matrices are lists of rows of ScalarExpr.  Pivoting always selects the
first row with a canonically nonzero entry in the leftmost open column,
so every result is reproducible for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import ScalarExpr

Matrix = List[List[ScalarExpr]]


class LinearAlgebraError(Exception):
    pass


def _zero_like(m: Matrix) -> ScalarExpr:
    return ScalarExpr.constant(0, m[0][0].vars)


def _one_like(m: Matrix) -> ScalarExpr:
    return ScalarExpr.constant(1, m[0][0].vars)


def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column list."""
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero()),
                         None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [entry / inv for entry in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(matrix: Matrix) -> List[List[ScalarExpr]]:
    """Basis of the right kernel, from the rref free columns."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    zero, one = _zero_like(matrix), _one_like(matrix)
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
    solution = [_zero_like(matrix)] * cols
    for r, p in enumerate(pivots):
        solution[p] = reduced[r][cols]
    return solution


def solve_in_span(span_columns: Matrix,
                  vector: Sequence[ScalarExpr]) -> Optional[List[ScalarExpr]]:
    """Coefficients expressing ``vector`` in the span columns, or None."""
    cols = len(span_columns[0])
    augmented = [list(row) + [v] for row, v in zip(span_columns, vector)]
    reduced, pivots = rref(augmented)
    if cols in pivots:
        return None
    zero = _zero_like(span_columns)
    coeffs = [zero] * cols
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r][cols]
    return coeffs


def invert(matrix: Matrix) -> Matrix:
    n = len(matrix)
    zero, one = _zero_like(matrix), _one_like(matrix)
    augmented = [list(row) + [one if i == j else zero for j in range(n)]
                 for i, row in enumerate(matrix)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise LinearAlgebraError("matrix is singular over the scalar field")
    return [row[n:] for row in reduced]


def determinant(matrix: Matrix) -> ScalarExpr:
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = _one_like(matrix)
    sign = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            return _zero_like(matrix)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        det = det * m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                factor = m[i][c] / inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        det = -det
    return det


def dot(xs: Sequence[ScalarExpr], ys: Sequence[ScalarExpr],
        zero: ScalarExpr) -> ScalarExpr:
    """sum_i xs[i] * ys[i], skipping the terms with a zero factor."""
    acc = None
    for x, y in zip(xs, ys):
        if not x.is_zero() and not y.is_zero():
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    zero = _zero_like(a)
    columns = list(zip(*b))
    return [[dot(row, column, zero) for column in columns] for row in a]


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions (pointwise checks)."""
    m = [list(map(Fraction, row)) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot_row = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank
