"""Divisors on a resolution model and their exact arithmetic.

A Divisor is a rational coefficient vector over the exceptional curves and
the strict curves of one fixed model, kept as int numerators ``num``
(exceptional, then strict) over one denominator ``den >= 1`` in lowest
terms, so it has one representation and its arithmetic runs on ints.  The
``Fraction`` views ``exc``, ``strict`` and ``products()`` (the D.E_i) are
built on demand.  Divisors are immutable value types bound to a model
identity: combining divisors that live on different models raises
ModelMismatch instead of coercing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import ResolutionModel
from .rationals import as_rational


class ModelMismatch(Exception):
    """Two divisors (or a divisor and a curve) live on different models."""


class Divisor:
    """``Divisor(model, exc, strict)`` takes one int or Fraction per
    exceptional and per strict curve; all-int input skips the Fraction step."""

    __slots__ = ("model", "num", "den")  # see the module docstring

    def __new__(cls, model: ResolutionModel, exc, strict):
        if len(exc) != model.u or len(strict) != len(model.strict_labels):
            raise ModelMismatch("coefficient vector lengths do not match the model")
        values = (*exc, *strict)
        if all(type(v) is int for v in values):
            return cls._of(model, values, 1)
        values = [as_rational(v) for v in values]
        den = math.lcm(*(v.denominator for v in values))
        return cls._of(model, [v.numerator * (den // v.denominator)
                               for v in values], den)

    @classmethod
    def _of(cls, model: ResolutionModel, num, den: int) -> "Divisor":
        """The divisor ``num / den`` (den >= 1), in lowest terms."""
        g = math.gcd(den, *num)
        self = object.__new__(cls)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "num", tuple(num) if g == 1
                           else tuple(n // g for n in num))
        object.__setattr__(self, "den", den // g)
        return self

    def _key(self):
        return self.model, self.num, self.den

    def __reduce__(self):  # copy and pickle bypass __new__'s conversion
        return Divisor._of, (self.model, self.num, self.den)

    def __eq__(self, other):  # by _key, and to its own class alone
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, *value):  # also __delattr__; _of sets the slots
        raise AttributeError("cannot set %s.%s" % (type(self).__name__, name))

    __delattr__ = __setattr__

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(model: ResolutionModel) -> "Divisor":
        return Divisor._of(model, (0,) * (model.u + len(model.strict_labels)), 1)

    @staticmethod
    def from_coeffs(model: ResolutionModel, exc=None, strict=None) -> "Divisor":
        """Build from mappings or sequences of coefficients.

        Mappings are keyed by curve label; missing entries are zero.
        """
        e, s = [0] * model.u, [0] * len(model.strict_labels)
        for vec, given, index_of in ((e, exc, model.index_of),
                                     (s, strict, model.strict_index_of)):
            if isinstance(given, dict):
                for label, value in given.items():
                    vec[index_of(label)] = value
            elif given is not None:
                vec[:] = given  # the constructor checks the length
        return Divisor(model, e, s)

    @staticmethod
    def curve(model: ResolutionModel, i: int) -> "Divisor":
        """The divisor consisting of the i-th exceptional curve."""
        e = [0] * model.u
        e[i] = 1
        return Divisor._of(model, e + [0] * len(model.strict_labels), 1)

    @property
    def exc(self) -> tuple:
        """The exceptional coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num[:self.model.u])

    @property
    def strict(self) -> tuple:
        """The strict coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num[self.model.u:])

    # -- arithmetic -----------------------------------------------------

    def _align(self, other: "Divisor"):
        """Both numerator vectors over one common denominator."""
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatch("divisors live on different models")
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return ([n * fa for n in self.num], [n * fb for n in other.num],
                da * fa)

    def __add__(self, other: "Divisor") -> "Divisor":
        a, b, den = self._align(other)
        return Divisor._of(self.model, [x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "Divisor") -> "Divisor":
        a, b, den = self._align(other)
        return Divisor._of(self.model, [x - y for x, y in zip(a, b)], den)

    def __neg__(self) -> "Divisor":
        return Divisor._of(self.model, [-n for n in self.num], self.den)

    def scale(self, factor) -> "Divisor":
        """The divisor times an int or Fraction ``factor``."""
        f = as_rational(factor)
        p, q = f.numerator, f.denominator
        return Divisor._of(self.model, [p * n for n in self.num], self.den * q)

    # -- intersection products -------------------------------------------

    def product_numerators(self) -> list:
        """Numerators over ``den`` of (D.E_1, ..., D.E_u), as a new list."""
        model = self.model
        out = [0] * model.u
        for c, row in zip(self.num, model.sparse_rows + model.strict_sparse):
            if c:
                for k, v in row:
                    out[k] += c * v
        return out

    def products(self) -> tuple:
        """The full vector (D.E_1, ..., D.E_u) as Fractions, including
        strict-curve contributions."""
        return tuple(Fraction(p, self.den) for p in self.product_numerators())

    # -- componentwise operations -----------------------------------------

    def floor(self) -> "Divisor":
        return Divisor._of(self.model, [n // self.den for n in self.num], 1)

    # -- predicates ---------------------------------------------------------

    def is_integral(self) -> bool:
        return self.den == 1

    def is_effective(self) -> bool:
        return all(n >= 0 for n in self.num)

    def less_equal(self, other: "Divisor") -> bool:
        """Componentwise partial order D <= D'."""
        a, b, _ = self._align(other)
        return all(x <= y for x, y in zip(a, b))

    # -- projections -------------------------------------------------------

    def pushforward(self) -> "Divisor":
        """Drop all exceptional coefficients, keep the strict part."""
        u = self.model.u
        return Divisor._of(self.model, (0,) * u + self.num[u:], self.den)

    def __repr__(self):
        terms = [
            "%s*%s" % (c, lbl)
            for c, lbl in zip(self.exc + self.strict,
                              self.model.labels + self.model.strict_labels)
            if c
        ]
        return "Divisor(%s)" % (" + ".join(terms) if terms else "0")

