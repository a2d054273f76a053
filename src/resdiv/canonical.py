"""Relative canonical divisor, discrepancies, and multiplier-ideal divisors.

The discrepancy vector b solves the adjunction system
``sum_j b_j (E_j . E_i) = 2 g_i - 2 - E_i^2`` exactly; the model is log
terminal iff every b_i > -1.  Ideals are represented throughout by
integral antinef divisors on the fixed model, and the multiplier ideal of
(G, lambda) is represented by the antinef closure of floor(lambda G - K_f).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .antinef import NonIntegralInput, antinef_closure
from .divisor import Divisor, ModelMismatch
from .model import ResolutionModel
from .rationals import as_rational


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
