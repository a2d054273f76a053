"""Exact symmetric elimination for negative definite integer systems.

The only elimination in the package: Bareiss's fraction-free elimination
(Bareiss 1968) on ints over sparse rows augmented by their right-hand
sides, with pivots in greedy minimum-degree order (on a tree: leaves
first, and no fill).  The k-th pivot is the leading minor det_{k+1} of
the reordered form, and the form is negative definite exactly when each
has sign (-1)^{k+1}, so one routine solves and decides definiteness.
Solutions are int numerators over |det M| (Cramer's rule), never floats.
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
    # aug[k]: row order[k] as {key: value}, nonzeros only, at positions >= k
    # and with right-hand side c at key n + c.  The trailing block stays
    # symmetric, so the entry below pivot k in row i is aug[k][i].  A row
    # that step k would only rescale waits: it is aug[i] times prev / scale[i]
    aug = [{pos[j]: v for j, v in rows[i] if pos[j] >= k}
           for k, i in enumerate(order)]
    for c, column in enumerate(columns):
        for i in compress(range(n), column):  # its nonzero entries
            aug[pos[i]][n + c] = column[i]

    pivots, scale, prev = [0] * n, [1] * n, 1
    for k in range(n):
        below = [i for i in aug[k] if k < i < n]  # the rows step k updates
        for i in (k, *below):
            if (s := scale[i]) != prev:
                aug[i] = {c: a * prev // s for c, a in aug[i].items()}
        row_k = aug[k]
        pivot = pivots[k] = row_k.pop(k, 0)
        if (pivot if k % 2 else -pivot) <= 0:
            raise NotNegativeDefinite(k, Fraction(pivot, prev))
        for i in below:  # (pivot row i - f row k) / prev, fill at keys >= i
            f = row_k[i]
            new = {c: -f * b // prev for c, b in row_k.items() if c >= i}
            new.update({c: (pivot * a - f * row_k.get(c, 0)) // prev
                        for c, a in aug[i].items()})
            aug[i], scale[i] = new, pivot
        prev = pivot

    # dense back-substitution for the int y = |det M| x (Cramer), row by row
    den, ys = abs(prev), [None] * n
    for k in reversed(range(n)):
        acc = [0] * m
        for c, a in aug[k].items():
            if c >= n:
                acc[c - n] += den * a
            else:
                acc = [t - a * y for t, y in zip(acc, ys[c])]
        ys[k] = [t // pivots[k] for t in acc]
    xs = zip(*(ys[k] for k in pos)) if n else [()] * m
    return den, [list(x) for x in xs]
