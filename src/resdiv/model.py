"""Weighted dual graphs of resolutions: curves, incidences, validation.

A ResolutionModel is the combinatorial model of a resolution of a normal
surface singularity: the exceptional curves with genera, self-intersections
and pairwise meeting numbers, plus any tracked non-exceptional ("strict")
curves recorded purely through their incidence numbers with the exceptional
ones.  Models are immutable after construction, and the constructor is the
one place that checks a model's invariants.  A model stores its form once,
as self-intersections and meetings; sparse rows, which the exact solver
eliminates, are derived from them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence


class MalformedGraph(Exception):
    """A graph description violates the model invariants.  ``entry`` is
    None or ("curve" | "meet" | "strict", k), the k-th such entry at fault."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class ExcCurve(NamedTuple):
    """One exceptional curve: label, genus and self-intersection."""

    label: str
    genus: int
    self_int: int


class StrictCurve(NamedTuple):
    """A tracked non-exceptional curve, known only by its incidences."""

    label: str
    incidence: tuple  # one non-negative integer per exceptional curve


class ResolutionModel:
    """Validated, immutable intersection data for a resolution.

    The constructor checks every invariant before it sorts or indexes
    anything, and raises MalformedGraph, naming the entry, at the first
    violation: ExcCurve and StrictCurve instances with str labels a graph
    file can hold (nonempty, without whitespace, '=' or '#'), unique
    across both kinds, int genus >= 0 and int self-intersection < 0, each
    meeting an (i, j, multiplicity) triple of ints with i != j in range
    and multiplicity > 0, one multiplicity per pair however often it is
    given, and for each strict curve a tuple of one non-negative int
    incidence per curve.

    ``meetings`` are stored sorted with i < j; ``sparse_rows`` (each row's
    nonzero entries in column order) is derived from them and the
    self-intersections.  Equality is structural.
    """

    def __init__(self, curves: Sequence[ExcCurve], meetings=(),
                 strict_curves: Sequence[StrictCurve] = ()):
        self.curves = tuple(curves)
        self.strict_curves = tuple(strict_curves)
        self.u = u = len(self.curves)
        seen = set()
        for k, c in enumerate(self.curves + self.strict_curves):
            kind = ExcCurve if k < u else StrictCurve
            entry = ("curve", k) if k < u else ("strict", k - u)
            if not (isinstance(c, kind) and isinstance(c.label, str)):
                raise MalformedGraph("%r: expected %s with a str label"
                                     % (c, kind.__name__), entry)
            # str.split() splits at every character a graph file's lines
            # and tokens split at, so the label reads back as one token
            if c.label.split() != [c.label] or "=" in c.label or "#" in c.label:
                raise MalformedGraph("name %r must not contain '=', '#' or "
                                     "whitespace, nor be empty" % (c.label,),
                                     entry)
            if c.label in seen:
                raise MalformedGraph("duplicate label %r" % (c.label,), entry)
            seen.add(c.label)
            if k < u and not (isinstance(c.genus, int) and c.genus >= 0
                              and isinstance(c.self_int, int) and c.self_int < 0):
                raise MalformedGraph("curve %r: genus %r and self-intersection "
                                     "%r must be ints >= 0 and < 0"
                                     % (c.label, c.genus, c.self_int), entry)
            if k >= u and not (isinstance(c.incidence, tuple)
                               and len(c.incidence) == u
                               and all(isinstance(v, int) and v >= 0
                                       for v in c.incidence)):
                raise MalformedGraph("strict curve %r: incidences must be %d "
                                     "non-negative integers" % (c.label, u), entry)
        pairs = {}
        for k, t in enumerate(meetings):
            i, j, m = _entries(t, 3, "meeting")
            known = (isinstance(i, int) and isinstance(j, int)
                     and 0 <= i < u and 0 <= j < u)
            if not (known and i != j and isinstance(m, int) and m > 0
                    and pairs.setdefault((min(i, j), max(i, j)), m) == m):
                given = ("%s %s %r" % (self.curves[i].label,
                                       self.curves[j].label, m)
                         if known else repr(t))  # as a graph file writes it
                raise MalformedGraph("meeting %s must join two curves with "
                                     "one positive int multiplicity per pair"
                                     % given, ("meet", k))
        self.meetings = tuple((i, j, m) for (i, j), m in sorted(pairs.items()))
        self._index = {c.label: i for i, c in enumerate(self.curves)}
        self._strict_index = {s.label: i for i, s in enumerate(self.strict_curves)}
        rows = [[(i, c.self_int)] for i, c in enumerate(self.curves)]
        for i, j, m in self.meetings:
            rows[i].append((j, m))
            rows[j].append((i, m))
        self.sparse_rows = tuple(tuple(sorted(row)) for row in rows)
        self.strict_sparse = tuple(
            tuple((j, v) for j, v in enumerate(s.incidence) if v)
            for s in self.strict_curves)
        # caches filled lazily by lattice / canonical
        self._dual_basis = None
        self._discrepancies = None

    # -- lookup ------------------------------------------------------------

    @cached_property
    def labels(self):
        return tuple(c.label for c in self.curves)

    @cached_property
    def strict_labels(self):
        return tuple(s.label for s in self.strict_curves)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MalformedGraph("unknown curve %r" % (label,)) from None

    def strict_index_of(self, label: str) -> int:
        try:
            return self._strict_index[label]
        except KeyError:
            raise MalformedGraph("unknown strict curve %r" % (label,)) from None

    # -- equality ----------------------------------------------------------

    def _key(self):  # the curves are NamedTuples, equal by their fields
        return self.curves, self.meetings, self.strict_curves

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ResolutionModel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ResolutionModel(%s)" % (", ".join(self.labels),)


def build_model(curves, meetings=(), strict=()) -> ResolutionModel:
    """Build a ResolutionModel from a plain, label-keyed description.

    ``curves`` is a sequence of (label, genus, self_int); ``meetings`` a
    sequence of (label_a, label_b, multiplicity); ``strict`` a sequence of
    (label, {curve_label: multiplicity}).  Only the number of entries and
    what needs labels is checked here: every referenced curve must exist.
    Entries reach ResolutionModel in order, so its errors name the same
    entry; it checks the rest, and takes a repeated meeting only at the
    same multiplicity (E1.E2 = 1 alongside E2.E1 = 2 is refused).
    """
    exc = tuple(ExcCurve(*_entries(c, 3, "curve")) for c in curves)
    # a label that is not a str is left to ResolutionModel to reject
    index = {c.label: i for i, c in enumerate(exc) if isinstance(c.label, str)}
    pairs = []
    for k, t in enumerate(meetings):
        a, b, mult = _entries(t, 3, "meeting")
        for label in (a, b):
            if not isinstance(label, str) or label not in index:
                raise MalformedGraph("meeting references unknown curve %r"
                                     % (label,), ("meet", k))
        pairs.append((index[a], index[b], mult))

    strict_curves = []
    for k, t in enumerate(strict):
        label, incidences = _entries(t, 2, "strict curve")
        vec = [0] * len(exc)
        for curve_label, mult in dict(incidences).items():
            if curve_label not in index:
                raise MalformedGraph("strict curve %r meets unknown curve %r"
                                     % (label, curve_label), ("strict", k))
            vec[index[curve_label]] = mult
        strict_curves.append(StrictCurve(label, tuple(vec)))

    return ResolutionModel(exc, pairs, strict_curves)


def _entries(t, k, what):
    """``t`` if it is a tuple or list of ``k`` entries."""
    if not isinstance(t, (tuple, list)) or len(t) != k:
        raise MalformedGraph("%s %r must have %d entries" % (what, t, k))
    return t
