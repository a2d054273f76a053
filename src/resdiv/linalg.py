"""Exact symmetric elimination for negative definite integer systems.

The only elimination in the package: Bareiss's fraction-free elimination
(Bareiss 1968) on ints over sparse rows and right-hand sides, with pivots
in greedy minimum-degree order (on a tree: leaves first, and no fill).
The k-th pivot is the leading minor det_{k+1} of the reordered form, and
the form is negative definite exactly when each has sign (-1)^{k+1}, so
one routine both solves and decides definiteness.  Solutions are int
numerators over |det M| (Cramer's rule); nothing here touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress


class NotNegativeDefinite(ValueError):
    """The leading minor det_{k+1} lacks the sign (-1)^{k+1}, k = ``index``;
    ``pivot`` is the rational pivot det_{k+1} / det_k >= 0."""

    def __init__(self, index, pivot):
        self.index = index
        self.pivot = pivot
        super().__init__("intersection form is not negative definite "
                         "(pivot %s at index %d)" % (pivot, index))


def solve_columns(rows, columns):
    """Solve ``M x = b`` exactly for each right-hand side in ``columns``.

    M is symmetric and given by its rows of nonzero ``(column, value)``
    entries, as in ``ResolutionModel.sparse_rows``; M and every b hold
    ints.  Returns ``(den, xs)`` with ``den = |det M| >= 1`` and one int
    list x per b, ``M (x / den) = b``.  Raises NotNegativeDefinite at the
    first leading minor of the wrong sign in index order, so
    ``solve_columns(rows, [])`` is the definiteness test.
    """
    try:
        return _eliminate(rows, columns, _min_degree_order(rows))
    except NotNegativeDefinite:
        # no order passes; index order names the first wrong leading minor
        _eliminate(rows, [], range(len(rows)))
        raise


def _min_degree_order(rows):
    """Greedy minimum-degree pivot order, ties broken by index."""
    adj = [{j for j, _ in row} - {i} for i, row in enumerate(rows)]
    heap = [(len(a), i) for i, a in enumerate(adj)]
    heapify(heap)
    order = []
    while heap:
        d, i = heappop(heap)
        if adj[i] is not None and d == len(adj[i]):
            order.append(i)
            near, adj[i] = adj[i], None
            for j in near:  # eliminating i joins its neighbours pairwise
                adj[j] = (adj[j] | near) - {i, j}
                heappush(heap, (len(adj[j]), j))
    return order


def _eliminate(rows, columns, order):
    """Bareiss elimination with the k-th pivot on curve ``order[k]``."""
    n, m = len(rows), len(columns)
    pos = sorted(range(n), key=order.__getitem__)  # curve -> position
    # upper[k]: row order[k] at positions >= k, rhs[k]: its right-hand sides
    # as {column: value}, nonzeros only.  The trailing block stays symmetric,
    # so the entry below pivot k in row i is upper[k][i].  A row that step k
    # would only rescale waits: it is upper[i] and rhs[i] times prev / scale[i]
    upper = [{pos[j]: v for j, v in rows[i] if pos[j] >= k}
             for k, i in enumerate(order)]
    rhs = [{} for _ in range(n)]
    for c, column in enumerate(columns):
        for i in compress(range(n), column):  # its nonzero entries
            rhs[pos[i]][c] = column[i]

    def combine(row, other, low):  # (pivot row - f other) / prev at step k
        new = {c: -f * b // prev for c, b in other.items() if c >= low}  # fill
        new.update({c: (pivot * a - f * other.get(c, 0)) // prev
                    for c, a in row.items()})
        return new

    pivots, scale, prev = [0] * n, [1] * n, 1
    for k in range(n):
        for i in {k, *upper[k]}:
            if (s := scale[i]) != prev:
                upper[i] = {c: a * prev // s for c, a in upper[i].items()}
                rhs[i] = {c: a * prev // s for c, a in rhs[i].items()}
        row_k = upper[k]
        pivot = pivots[k] = row_k.pop(k, 0)
        if (pivot if k % 2 else -pivot) <= 0:
            raise NotNegativeDefinite(k, Fraction(pivot, prev))
        for i, f in row_k.items():  # row i keeps positions >= i, rhs[i] all
            upper[i] = combine(upper[i], row_k, i)
            rhs[i] = combine(rhs[i], rhs[k], 0)
            scale[i] = pivot
        prev = pivot

    # dense back-substitution for the int y = |det M| x (Cramer), row by row
    den, ys = abs(prev), [None] * n
    for k in reversed(range(n)):
        acc = [0] * m
        for c, b in rhs[k].items():
            acc[c] = den * b
        for c, a in upper[k].items():
            acc = [t - a * y for t, y in zip(acc, ys[c])]
        ys[k] = [t // pivots[k] for t in acc]
    xs = zip(*(ys[k] for k in pos)) if n else [()] * m
    return den, [list(x) for x in xs]
