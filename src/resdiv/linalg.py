"""Exact symmetric elimination for negative definite integer systems.

The only elimination in the package: Bareiss's fraction-free elimination
(Bareiss 1968) on ints, with the diagonal pivots taken in index order.
The k-th pivot is the leading principal minor det_{k+1}, and a symmetric
form is negative definite exactly when each det_{k+1} has sign (-1)^{k+1},
so one routine both solves and decides definiteness.  Solutions are int
numerators over |det M| (Cramer's rule); nothing here touches floats.
"""

from __future__ import annotations

from fractions import Fraction


class NotNegativeDefinite(ValueError):
    """The leading minor det_{k+1} lacks the sign (-1)^{k+1}, k = ``index``;
    ``pivot`` is the rational pivot det_{k+1} / det_k >= 0."""

    def __init__(self, index, pivot):
        self.index = index
        self.pivot = pivot
        super().__init__("intersection form is not negative definite "
                         "(pivot %s at index %d)" % (pivot, index))


def solve_columns(matrix, columns):
    """Solve ``M x = b`` exactly for each right-hand side in ``columns``.

    M is symmetric; M and every b hold ints.  Returns ``(den, xs)`` with
    ``den = |det M| >= 1`` and one int list x per b, ``M (x / den) = b``.
    Raises NotNegativeDefinite at the first leading minor of the wrong
    sign, so ``solve_columns(M, [])`` is the definiteness test.
    """
    n = len(matrix)
    rows = [list(row) + [col[i] for col in columns]
            for i, row in enumerate(matrix)]

    # upper-triangle elimination: the trailing block stays symmetric, so
    # the entry below the pivot in row i is row_k[i].  A row that step k
    # would only rescale waits: row i is really rows[i] * prev / scale[i]
    prev = 1
    scale = [1] * n
    for k in range(n):
        row_k = rows[k]
        row_k[k:] = [a * prev // scale[k] for a in row_k[k:]]
        pivot = row_k[k]
        if (pivot if k % 2 else -pivot) <= 0:
            raise NotNegativeDefinite(k, Fraction(pivot, prev))
        for i in range(k + 1, n):
            f = row_k[i]
            if f:
                row_i, s = rows[i], scale[i]
                if s != prev:
                    row_i[i:] = [a * prev // s for a in row_i[i:]]
                row_i[i:] = [(pivot * a - f * b) // prev
                             for a, b in zip(row_i[i:], row_k[i:])]
                scale[i] = pivot
        prev = pivot

    # back-substitution for y = |det M| x, an int vector by Cramer's rule
    den = abs(prev)
    xs = [[0] * n for _ in columns]
    for i in reversed(range(n)):
        row_i = rows[i]
        nonzero = [c for c in range(i + 1, n) if row_i[c]]
        for j, y in enumerate(xs):
            y[i] = (den * row_i[n + j]
                    - sum(row_i[c] * y[c] for c in nonzero)) // row_i[i]
    return den, xs
