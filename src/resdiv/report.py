"""Deterministic machine-readable reports.

A report is an ordered list of ``key = value`` lines, each formatted once
when it is added; identical inputs produce byte-identical output.
Rationals are rendered exactly as ``p/q`` and divisors through the
graph-file coefficient syntax.  The layout is versioned with a leading
``format_version`` key.
"""

from __future__ import annotations

from fractions import Fraction

from .divisor import Divisor
from .graphfile import format_divisor
from .rationals import format_rational

FORMAT_VERSION = "1"


class Report:
    def __init__(self):
        self._lines = ["format_version = %s\n" % FORMAT_VERSION]

    def add(self, key: str, value):
        if isinstance(value, Fraction):
            value = format_rational(value)
        elif isinstance(value, Divisor):
            value = format_divisor(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        self._lines.append("%s = %s\n" % (key, value))

    def add_check(self, key: str, passed: bool, detail: str = ""):
        value = "pass" if passed else "fail"
        if detail:
            value += " (%s)" % detail
        self._lines.append("%s = %s\n" % (key, value))

    def extend(self, lines):
        """Append another report's lines, or raw ones: "key = value\\n" lines,
        or the graph-file lines of a blown-up model."""
        self._lines.extend(lines._lines[1:] if isinstance(lines, Report)
                           else lines)

    def render(self) -> str:
        return "".join(self._lines)
