"""Antinef predicate and the antinef-closure algorithm with step traces.

A divisor D is antinef when D.E_i <= 0 for every exceptional curve E_i.
Every integral divisor has a unique smallest integral antinef divisor
above it, its antinef closure.  The closure is computed by repeatedly
adding one copy of the first curve whose product is still positive; on a
negative definite model this terminates (on any other it raises first).
A min-heap of the violating indices spares each step a rescan of all u
products; the tests compare it with a rescanning dense reference.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .divisor import Divisor


class NonIntegralInput(Exception):
    """Antinef closure is defined for integral divisors only; round first."""


class ClosureTrace(NamedTuple):
    """Audit record of a closure run.

    ``steps`` lists (curve index, value of D.E_i at that step); each
    recorded value is an int > 0.  ``initial_s`` is the total coefficient
    mass added, i.e. the sum of the coefficients of closure - input; with
    unit steps it equals the number of steps.
    """

    steps: tuple
    initial_s: int


def is_antinef(d: Divisor) -> bool:
    """True iff D.E_i <= 0 for every exceptional curve of the model."""
    return all(p <= 0 for p in d.product_numerators())


def antinef_closure(d: Divisor):
    """Compute the antinef closure of an integral divisor.

    Returns (closure, trace).  Each unit step adds the violating curve of
    smallest index.  Strict coefficients never change, so the pushforward
    is preserved.  Raises NotNegativeDefinite, from the cached solve of
    discrepancies, on a form that is not negative definite; a
    configuration's ChainModel is decided by its base model, as blowups
    and P^T M P keep the form so.
    """
    from .canonical import discrepancies  # canonical imports this module
    discrepancies(getattr(d.model, "base_model", d.model))
    if not d.is_integral():
        offender = Fraction(next(n for n in d.num if n % d.den), d.den)
        raise NonIntegralInput("non-integral coefficient %s" % (offender,))

    model = d.model
    num = list(d.num)
    prods = d.product_numerators()
    # the violating indices, and ones that were, popped when they reach the
    # top; meetings are positive, so only prods[i] falls
    heap = [i for i, p in enumerate(prods) if p > 0]
    steps = []
    while heap:
        i = heap[0]
        if prods[i] <= 0:
            heappop(heap)
            continue
        steps.append((i, prods[i]))
        num[i] += 1
        for k, v in model.sparse_rows[i]:
            if prods[k] <= 0 < prods[k] + v:
                heappush(heap, k)
            prods[k] += v

    final = Divisor._of(model, num, 1)
    return final, ClosureTrace(tuple(steps), len(steps))

