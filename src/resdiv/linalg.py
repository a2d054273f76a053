"""Exact symmetric elimination for negative definite rational systems.

The only elimination in the package.  Pivots are the diagonal entries,
taken in index order, so results are bit-for-bit reproducible.  A
symmetric form is negative definite exactly when every such pivot is
negative, so the first pivot >= 0 is the proof that it is not, and one
routine both solves and decides definiteness.  Matrices are lists of rows
of Fractions (or ints); nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


class NotNegativeDefinite(ValueError):
    """Symmetric elimination met a pivot >= 0."""

    def __init__(self, index, pivot):
        self.index = index
        self.pivot = pivot
        super().__init__("intersection form is not negative definite "
                         "(pivot %s at index %d)" % (pivot, index))


def solve_columns(matrix, columns):
    """Solve ``M x = b`` exactly for each right-hand side in ``columns``.

    M must be symmetric.  Returns a list of solution vectors (lists of
    Fractions), one per right-hand side.  Raises NotNegativeDefinite at the
    first diagonal pivot >= 0, so ``solve_columns(M, [])`` is the
    definiteness test.
    """
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(col[i]) for col in columns]
            for i, row in enumerate(matrix)]
    width = n + len(columns)

    # forward elimination on the upper triangle: by symmetry the entry
    # below the pivot in row r equals row_k[r]
    for k in range(n):
        row_k = rows[k]
        pivot = row_k[k]
        if pivot >= 0:
            raise NotNegativeDefinite(k, pivot)
        nonzero = [c for c in range(k + 1, width) if row_k[c]]
        for p, r in enumerate(nonzero):
            if r >= n:
                break
            row_r = rows[r]
            factor = row_k[r] / pivot
            for c in nonzero[p:]:
                row_r[c] -= factor * row_k[c]

    solutions = [[None] * n for _ in columns]
    for i in reversed(range(n)):
        row_i = rows[i]
        nonzero = [c for c in range(i + 1, n) if row_i[c]]
        for j, x in enumerate(solutions):
            x[i] = (row_i[n + j] - sum(row_i[c] * x[c] for c in nonzero)) \
                / row_i[i]
    return solutions
