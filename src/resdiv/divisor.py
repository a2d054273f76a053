"""Divisors on a resolution model and their exact arithmetic.

A Divisor is a rational coefficient vector over the exceptional curves and
the strict curves of one fixed model.  Divisors are immutable value types
bound to a model identity: combining divisors that live on different
models raises ModelMismatch instead of coercing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import ResolutionModel

_ZERO = Fraction(0)


class ModelMismatch(Exception):
    """Two divisors (or a divisor and a curve) live on different models."""


@dataclass(frozen=True)
class Divisor:
    model: ResolutionModel
    exc: tuple     # Fraction per exceptional curve
    strict: tuple  # Fraction per strict curve

    def __post_init__(self):
        if len(self.exc) != self.model.u or len(self.strict) != len(self.model.strict_curves):
            raise ModelMismatch("coefficient vector lengths do not match the model")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(model: ResolutionModel) -> "Divisor":
        return Divisor(model, (_ZERO,) * model.u,
                       (_ZERO,) * len(model.strict_curves))

    @staticmethod
    def from_coeffs(model: ResolutionModel, exc=None, strict=None) -> "Divisor":
        """Build from mappings or sequences of coefficients.

        Mappings are keyed by curve label; missing entries are zero.
        """
        e = [_ZERO] * model.u
        s = [_ZERO] * len(model.strict_curves)
        if exc is not None:
            if isinstance(exc, dict):
                for label, value in exc.items():
                    e[model.index_of(label)] = Fraction(value)
            else:
                if len(exc) != model.u:
                    raise ModelMismatch("wrong number of exceptional coefficients")
                e = [Fraction(v) for v in exc]
        if strict is not None:
            if isinstance(strict, dict):
                for label, value in strict.items():
                    s[model.strict_index_of(label)] = Fraction(value)
            else:
                if len(strict) != len(model.strict_curves):
                    raise ModelMismatch("wrong number of strict coefficients")
                s = [Fraction(v) for v in strict]
        return Divisor(model, tuple(e), tuple(s))

    @staticmethod
    def curve(model: ResolutionModel, i: int) -> "Divisor":
        """The divisor consisting of the i-th exceptional curve."""
        e = [_ZERO] * model.u
        e[i] = Fraction(1)
        return Divisor(model, tuple(e), (_ZERO,) * len(model.strict_curves))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Divisor"):
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatch("divisors live on different models")

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check(other)
        return Divisor(self.model,
                       tuple(a + b for a, b in zip(self.exc, other.exc)),
                       tuple(a + b for a, b in zip(self.strict, other.strict)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._check(other)
        return Divisor(self.model,
                       tuple(a - b for a, b in zip(self.exc, other.exc)),
                       tuple(a - b for a, b in zip(self.strict, other.strict)))

    def __neg__(self) -> "Divisor":
        return Divisor(self.model, tuple(-a for a in self.exc),
                       tuple(-a for a in self.strict))

    def scale(self, factor) -> "Divisor":
        f = Fraction(factor)
        return Divisor(self.model, tuple(f * a for a in self.exc),
                       tuple(f * a for a in self.strict))

    # -- intersection products -------------------------------------------

    def intersect(self, i: int) -> Fraction:
        """Exact value of D.E_i, including strict-curve contributions."""
        if not 0 <= i < self.model.u:
            raise ModelMismatch("curve index %d out of range" % (i,))
        total = _ZERO
        for j, v in self.model.sparse_rows[i]:  # row i is column i
            total += self.exc[j] * v
        for s, c in enumerate(self.strict):
            if c:
                total += c * self.model.strict_curves[s].incidence[i]
        return total

    def products(self) -> tuple:
        """The full vector (D.E_1, ..., D.E_u)."""
        model = self.model
        out = [_ZERO] * model.u
        for j, c in enumerate(self.exc):
            if c:
                for k, v in model.sparse_rows[j]:
                    out[k] += c * v
        for s, c in enumerate(self.strict):
            if c:
                for k, v in model.strict_sparse[s]:
                    out[k] += c * v
        return tuple(out)

    # -- componentwise operations -----------------------------------------

    def meet(self, other: "Divisor") -> "Divisor":
        """Componentwise minimum over exceptional and strict coefficients."""
        self._check(other)
        return Divisor(self.model,
                       tuple(min(a, b) for a, b in zip(self.exc, other.exc)),
                       tuple(min(a, b) for a, b in zip(self.strict, other.strict)))

    def floor(self) -> "Divisor":
        return Divisor(self.model,
                       tuple(Fraction(math.floor(a)) for a in self.exc),
                       tuple(Fraction(math.floor(a)) for a in self.strict))

    def ceil(self) -> "Divisor":
        return Divisor(self.model,
                       tuple(Fraction(math.ceil(a)) for a in self.exc),
                       tuple(Fraction(math.ceil(a)) for a in self.strict))

    # -- predicates ---------------------------------------------------------

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.exc) and \
            all(a.denominator == 1 for a in self.strict)

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.exc) and all(a >= 0 for a in self.strict)

    def is_zero(self) -> bool:
        return not any(self.exc) and not any(self.strict)

    def less_equal(self, other: "Divisor") -> bool:
        """Componentwise partial order D <= D'."""
        self._check(other)
        return all(a <= b for a, b in zip(self.exc, other.exc)) and \
            all(a <= b for a, b in zip(self.strict, other.strict))

    # -- projections -------------------------------------------------------

    def pushforward(self) -> "Divisor":
        """Drop all exceptional coefficients, keep the strict part."""
        return Divisor(self.model, (_ZERO,) * self.model.u, self.strict)

    def __repr__(self):
        terms = [
            "%s*%s" % (c, lbl)
            for c, lbl in zip(self.exc + self.strict,
                              self.model.labels + self.model.strict_labels)
            if c
        ]
        return "Divisor(%s)" % (" + ".join(terms) if terms else "0")


def decompose(d: Divisor):
    """Relative numerical decomposition of a divisor.

    Returns (pullback_part, dual_coeffs) where pullback_part is the
    numerical pullback of the pushforward of D and dual_coeffs[i] = -D.E_i,
    so that D = pullback_part + sum_i dual_coeffs[i] * dual_basis[i]
    reconstructs D exactly.
    """
    from .lattice import numerical_pullback

    pullback_part = numerical_pullback(d.model, d.pushforward())
    dual_coeffs = tuple(-p for p in d.products())
    return pullback_part, dual_coeffs
