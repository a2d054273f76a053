"""Exact rational scalars and their text form.

Coefficients go in and out of this package as ints or ``Fraction``s, and
divisors carry theirs as int numerators over one denominator: arbitrary
precision, no floating point anywhere.  The text form is ``p`` or ``p/q``;
decimals are rejected.
"""

from __future__ import annotations

import sys
from fractions import Fraction


class NotRational(TypeError):
    """A value given as an exact rational is neither an int nor a Fraction."""


def as_rational(value) -> Fraction:
    """``value`` as a Fraction, if it is an int or a Fraction."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise NotRational("not an exact rational (int or Fraction): %r" % (value,))


def ascii_int(text: str) -> int:
    """int(text), refusing the ``_`` separators and non-ASCII digits that
    int() alone would read; raises ValueError."""
    if "_" in text or not text.isascii():
        raise ValueError("not an ASCII integer: %r" % (text,))
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``, each read by ascii_int, into a Fraction.

    Decimal notation is rejected so that no value can silently pass
    through an inexact representation.
    """
    text = text.strip()
    if "." in text:
        raise ValueError("not an exact rational: %r" % (text,))
    num, slash, den = text.partition("/")
    try:
        return (Fraction(ascii_int(num), ascii_int(den)) if slash
                else Fraction(ascii_int(num)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(digit_limit(exc)
                         or "not an exact rational: %r" % (text,)) from exc


def digit_limit(exc) -> str:
    """One message for Python's int/str digit limit; "" for other errors."""
    return ("integer of more than %d digits, the limit for integer string "
            "conversion" % sys.get_int_max_str_digits()
            if str(exc).startswith("Exceeds the limit") else "")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p`` or ``p/q`` (lowest terms)."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)
