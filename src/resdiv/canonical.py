"""Relative canonical divisor, discrepancies, antinef closures, multipliers.

The discrepancy vector b solves the adjunction system
``sum_j b_j (E_j . E_i) = 2 g_i - 2 - E_i^2`` exactly; the model is log
terminal iff every b_i > -1.  Ideals are represented throughout by
integral antinef divisors on the fixed model (Lipman), and the multiplier
ideal of (G, lambda) is represented by the antinef closure of
floor(lambda G - K_f).

A divisor D is antinef when D.E_i <= 0 for every exceptional curve E_i.
Every integral divisor has a unique smallest integral antinef divisor
above it, its antinef closure.  The closure is computed by repeatedly
adding one copy of the violating curve of smallest index; on a negative
definite model this terminates (on any other it raises first).  A
min-heap of the violating indices spares each step a rescan of all u
products; the tests compare it with a rescanning dense reference.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from . import linalg
from .divisor import Divisor, ModelMismatch
from .model import ResolutionModel
from .rationals import as_rational


class NonIntegralInput(Exception):
    """Antinef closure is defined for integral divisors only; round first."""


class NotAntinef(Exception):
    """The given divisor has a positive product with some curve."""


class NotEffective(Exception):
    """The given divisor has a negative coefficient."""


class NonPositiveLambda(Exception):
    """Multiplier coefficients must be positive rationals."""


class NotLogTerminal(Exception):
    """Some discrepancy b_i <= -1."""

    def __init__(self, offenders, b):
        self.offenders = tuple(offenders)
        self.b = tuple(b)
        super().__init__("not log terminal: b <= -1 along curve indices %s"
                         % (list(self.offenders),))


class ClosureTrace(NamedTuple):
    """Audit record of a closure run.

    ``steps`` lists (curve index, value of D.E_i at that step); each
    recorded value is an int > 0.  ``initial_s`` is the total coefficient
    mass added, i.e. the sum of the coefficients of closure - input; with
    unit steps it equals the number of steps.
    """

    steps: tuple
    initial_s: int


class DiscrepancyReport(NamedTuple):
    b: tuple              # Fraction per exceptional curve
    log_terminal: bool
    offenders: tuple      # indices with b_i <= -1


def discrepancies(model: ResolutionModel) -> DiscrepancyReport:
    """Solve the adjunction system for the discrepancy vector; a
    configuration's ChainModel is no resolution (its resolution() is)."""
    if not isinstance(model, ResolutionModel):
        raise ModelMismatch("a model of chain classes is not a resolution")
    if model._discrepancies is None:
        rhs = [2 * c.genus - 2 - c.self_int for c in model.curves]
        den, (num,) = linalg.solve_columns(model.sparse_rows, [rhs])
        model._relative_canonical = Divisor._of(
            model, num + [0] * len(model.strict_curves), den)
        b = [Fraction(n, den) for n in num]
        offenders = tuple(i for i, v in enumerate(b) if v <= -1)
        model._discrepancies = DiscrepancyReport(
            b=tuple(b), log_terminal=not offenders, offenders=offenders)
    return model._discrepancies


def relative_canonical(model: ResolutionModel) -> Divisor:
    """The rational divisor sum_i b_i E_i, built once per model from the
    discrepancy solve and cached on the model with it."""
    discrepancies(model)
    return model._relative_canonical


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
    return Divisor._of(model, num, 1), ClosureTrace(tuple(steps), len(steps))


def check_ideal_divisor(model: ResolutionModel, d: Divisor) -> list:
    """The D.E_i numerators of a divisor representing an integrally closed
    ideal: D must live on ``model`` and be integral, effective and antinef,
    or ModelMismatch, NonIntegralInput, NotEffective or NotAntinef (naming
    the first curve with a positive product) is raised."""
    if d.model is not model and d.model != model:
        raise ModelMismatch("divisor does not live on the given model")
    if not d.is_integral():
        raise NonIntegralInput("divisor must be integral")
    if not d.is_effective():
        raise NotEffective("divisor must be effective")
    prods = d.product_numerators()
    bad = next((i for i, p in enumerate(prods) if p > 0), None)
    if bad is not None:
        raise NotAntinef("divisor has positive product %d with curve %r"
                         % (prods[bad], model.labels[bad]))
    return prods


def multiplier_divisor(model: ResolutionModel, g: Divisor, lam) -> Divisor:
    """Antinef divisor representing the multiplier ideal of (G, lambda).

    G must pass check_ideal_divisor (it represents an integrally closed
    ideal); lambda must be a positive int or Fraction.  The result is the
    antinef closure of floor(lambda G - K_f).
    """
    lam = as_rational(lam)
    if lam <= 0:
        raise NonPositiveLambda("lambda must be > 0, got %s" % (lam,))
    check_ideal_divisor(model, g)
    k_f = relative_canonical(model)
    candidate = (g.scale(lam) - k_f).floor()
    closed, _ = antinef_closure(candidate)
    return closed
