"""Antinef predicate and the antinef-closure algorithm with step traces.

A divisor D is antinef when D.E_i <= 0 for every exceptional curve E_i.
Every integral divisor has a unique smallest integral antinef divisor
above it, its antinef closure.  The closure is computed by repeatedly
adding one copy of a curve whose product is still positive; on a negative
definite model this terminates, and the result does not depend on which
violating curve is picked at each step (confluence is property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisor import Divisor

_ONE = Fraction(1)


class NonIntegralInput(Exception):
    """Antinef closure is defined for integral divisors only; round first."""


@dataclass(frozen=True)
class ClosureTrace:
    """Audit record of a closure run.

    ``steps`` lists (curve index, value of D.E_i at that step); each
    recorded value is > 0.  ``initial_s`` is the total coefficient mass
    added, i.e. the sum of the coefficients of closure - input; with unit
    steps it equals the number of steps.
    """

    steps: tuple
    initial_s: int


def is_antinef(d: Divisor) -> bool:
    """True iff D.E_i <= 0 for every exceptional curve of the model."""
    return all(p <= 0 for p in d.products())


def antinef_closure(d: Divisor, select=None, step_bound=None):
    """Compute the antinef closure of an integral divisor.

    Returns (closure, trace).  ``select`` optionally overrides the choice
    among violating indices (default: the smallest index); any rule yields
    the same closure.  ``step_bound``, when given, caps the number of unit
    steps and raises RuntimeError if exceeded (used to assert the
    termination bound in tests).

    Strict coefficients never change, so the pushforward is preserved.
    """
    if not d.is_integral():
        offender = next(
            (c for c in d.exc + d.strict if c.denominator != 1), None)
        raise NonIntegralInput("non-integral coefficient %s" % (offender,))

    exc = list(d.exc)
    prods = list(d.products())
    model = d.model
    steps = []
    while True:
        violating = [i for i, p in enumerate(prods) if p > 0]
        if not violating:
            break
        i = violating[0] if select is None else select(violating, prods)
        steps.append((i, prods[i]))
        if step_bound is not None and len(steps) > step_bound:
            raise RuntimeError("closure exceeded the step bound %d" % step_bound)
        exc[i] += _ONE
        for k, v in model.sparse_rows[i]:
            prods[k] += v

    final = Divisor(model, tuple(exc), d.strict)
    return final, ClosureTrace(tuple(steps), len(steps))

