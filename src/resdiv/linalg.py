"""Exact Gaussian elimination for small dense rational systems.

Pivot choice is always the first row with a nonzero entry, so results are
bit-for-bit reproducible.  Matrices are lists of rows of Fractions (or
ints); nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    """The coefficient matrix has no inverse."""


def solve_columns(matrix, columns):
    """Solve ``M x = b`` exactly for each right-hand side in ``columns``.

    Returns a list of solution vectors (lists of Fractions), one per
    right-hand side.  Raises SingularMatrixError when M is singular.
    """
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(col[i]) for col in columns]
           for i, row in enumerate(matrix)]
    width = n + len(columns)

    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularMatrixError("singular matrix (column %d)" % col)
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        if pivot != 1:
            inv = 1 / pivot
            aug[col] = [v * inv for v in aug[col]]
        row_c = aug[col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor:
                row_r = aug[r]
                for k in range(col, width):
                    row_r[k] -= factor * row_c[k]

    return [[aug[i][n + j] for i in range(n)] for j in range(len(columns))]


def solve(matrix, rhs):
    """Solve ``M x = b`` for a single right-hand side."""
    return solve_columns(matrix, [rhs])[0]

