"""Plain-text graph files: parsing and bit-exact serialization.

Format (one statement per line, ``#`` starts a comment):

    curve <name> genus=<int> self=<negint>
    meet <name> <name> <posint>
    strict <name> meets <curve>=<posint> [<curve>=<posint> ...]
    divisor <name> <curve>=<rational> [<curve>=<rational> ...]

Rationals are written ``p`` or ``p/q``; decimals are rejected.  Names hold
no ``=``, and a line names each curve at most once, so parsing a
serialized model reproduces it exactly (up to whitespace normalization).

format_divisor writes ``<label>=<value>`` for the nonzero coefficients in
model order (``0`` if none), each ``p`` or ``p/q`` in lowest terms (a gcd
only if den > 1).  On a configuration's model it reads the chain layout:
a chain's terms are made once and joined onto the head of each of its
points, so the text is that of the divisor on the blown-up surface, and
the cost follows the chains, not the curves they stand for.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .blowup import spans
from .divisor import Divisor
from .model import MalformedGraph, ResolutionModel, build_model
from .rationals import ascii_int, digit_limit, parse_rational


class GraphSyntaxError(MalformedGraph):
    """A graph text's error, with the line of the statement at fault."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, message))


class GraphDoc(NamedTuple):
    model: ResolutionModel
    divisors: dict  # name -> Divisor


def _parse_int(text, lineno, what):
    try:
        return ascii_int(text)
    except ValueError as exc:
        raise GraphSyntaxError(lineno, digit_limit(exc) or "%s must be an "
                               "integer, got %r" % (what, text)) from None


def _parse_assignment(token, lineno):
    if "=" not in token:
        raise GraphSyntaxError(lineno, "expected <name>=<value>, got %r" % (token,))
    name, _, value = token.partition("=")
    return name, value


def parse_graph(text: str) -> GraphDoc:
    """Parse a graph description; every error is a GraphSyntaxError with
    its line.  This reads statements and numbers; the graph's rules are
    build_model's, whose errors name the entry at fault.  A statement
    error, or a number error outside a divisor line, is reported first,
    then the model's first error, then a divisor line's."""
    entries = {"curve": [], "meet": [], "strict": []}  # build_model's input
    linenos = {kind: [] for kind in entries}  # the line of each entry
    divisor_lines = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in entries:
            linenos[kind].append(lineno)
        if kind == "curve":
            if len(tokens) != 4:
                raise GraphSyntaxError(lineno, "curve takes a name, genus= and self=")
            fields = dict(_parse_assignment(t, lineno) for t in tokens[2:])
            if set(fields) != {"genus", "self"}:
                raise GraphSyntaxError(lineno, "curve needs genus= and self=")
            genus = _parse_int(fields["genus"], lineno, "genus")
            self_int = _parse_int(fields["self"], lineno, "self-intersection")
            entries[kind].append((tokens[1], genus, self_int))
        elif kind == "meet":
            if len(tokens) != 4:
                raise GraphSyntaxError(lineno, "meet takes two curve names and a multiplicity")
            mult = _parse_int(tokens[3], lineno, "multiplicity")
            entries[kind].append((tokens[1], tokens[2], mult))
        elif kind == "strict":
            if len(tokens) < 3 or tokens[2] != "meets":
                raise GraphSyntaxError(lineno,
                                       "strict takes a name, 'meets', and curve=mult pairs")
            incidences = {}
            for token in tokens[3:]:
                curve, value = _parse_assignment(token, lineno)
                if curve in incidences:
                    raise GraphSyntaxError(lineno, "curve %r repeated" % (curve,))
                incidences[curve] = _parse_int(value, lineno, "incidence")
            entries[kind].append((tokens[1], incidences))
        elif kind == "divisor":
            if len(tokens) < 2:
                raise GraphSyntaxError(lineno, "divisor takes a name and coefficient pairs")
            divisor_lines.append((lineno, tokens[1], tokens[2:]))
        else:
            raise GraphSyntaxError(lineno, "unknown statement %r" % (kind,))

    try:
        model = build_model(entries["curve"], entries["meet"], entries["strict"])
    except MalformedGraph as exc:  # the text's entries all have their shape,
        kind, k = exc.entry  # so the model's error names one of them
        raise GraphSyntaxError(linenos[kind][k], str(exc)) from None

    divisors = {}
    for lineno, name, tokens in divisor_lines:
        if name in divisors:
            raise GraphSyntaxError(lineno, "duplicate divisor %r" % (name,))
        exc_coeffs = {}
        strict_coeffs = {}
        if tokens == ["0"]:
            tokens = []
        for token in tokens:
            label, value = _parse_assignment(token, lineno)
            if label in exc_coeffs or label in strict_coeffs:
                raise GraphSyntaxError(lineno, "curve %r repeated" % (label,))
            try:  # p and p/1 become ints: an all-int Divisor skips the lcm
                coeff = parse_rational(value)
            except ValueError as err:
                raise GraphSyntaxError(lineno, str(err)) from None
            coeff = coeff.numerator if coeff.denominator == 1 else coeff
            if label in model._index:
                exc_coeffs[label] = coeff
            elif label in model._strict_index:
                strict_coeffs[label] = coeff
            else:
                raise GraphSyntaxError(lineno, "unknown curve %r in divisor %r"
                                       % (label, name))
        divisors[name] = Divisor.from_coeffs(model, exc=exc_coeffs,
                                             strict=strict_coeffs)
    return GraphDoc(model=model, divisors=divisors)


def parse_graph_file(path) -> GraphDoc:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def format_divisor(d: Divisor) -> str:
    """The divisor's text form (module docstring), one f-string a term."""
    model, num, den = d.model, d.num, d.den
    base = getattr(model, "base_model", model)  # a plain model has no chains
    chains = getattr(model, "chains", ())  # spans' set-up is skipped if none

    def terms(keys, nums):  # "<key>=<value>" for each nonzero numerator
        if den == 1:
            return [f"{key}={n}" for key, n in zip(keys, nums) if n]
        return [f"{key}={n // g}/{den // g}" if (g := math.gcd(n, den)) < den
                else f"{key}={n // den}" for key, n in zip(keys, nums) if n]

    parts = terms(base.labels, num)
    for info, start in spans(base.u, chains) if chains else ():
        chain = terms([f"{m})" for m in range(1, info.length + 1)],
                      num[start:start + info.length])
        if chain:  # "<base>(<point>,<m>)=<value>" on each point's chain
            heads = [f"{base.labels[info.base]}({p}," for p in info.points]
            parts += [head + f" {head}".join(chain) for head in heads]
    parts += terms(model.strict_labels, num[model.u:])
    return " ".join(parts) or "0"


def serialize_model(model: ResolutionModel, divisors=None) -> str:
    """Canonical text form; parse(serialize(model)) == model."""
    labels = model.labels
    lines = []
    for c in model.curves:
        lines.append("curve %s genus=%d self=%d" % (c.label, c.genus, c.self_int))
    for i, j, m in model.meetings:
        lines.append("meet %s %s %d" % (labels[i], labels[j], m))
    for s in model.strict_curves:
        pairs = ["%s=%d" % (labels[i], v) for i, v in enumerate(s.incidence) if v]
        lines.append(" ".join(["strict", s.label, "meets"] + pairs))
    for name, d in (divisors or {}).items():
        lines.append("divisor %s %s" % (name, format_divisor(d)))
    return "\n".join(lines) + "\n"
