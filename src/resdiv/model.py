"""Weighted dual graphs of resolutions: curves, incidences, validation.

A ResolutionModel is the combinatorial model of a resolution of a normal
surface singularity: the exceptional curves with genera, self-intersections
and pairwise meeting numbers, plus any tracked non-exceptional ("strict")
curves recorded purely through their incidence numbers with the exceptional
ones.  Models are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


class MalformedGraph(Exception):
    """A graph description violates the model invariants."""


@dataclass(frozen=True)
class ExcCurve:
    """One exceptional curve: label, genus, and its intersection row."""

    label: str
    genus: int
    self_int: int
    row: tuple  # intersection numbers with every exceptional curve
    # (base label, point number, step) when the curve arose from a blowup chain
    chain: Optional[tuple] = None


@dataclass(frozen=True)
class StrictCurve:
    """A tracked non-exceptional curve, known only by its incidences."""

    label: str
    incidence: tuple  # one non-negative integer per exceptional curve


class ResolutionModel:
    """Validated, immutable intersection data for a resolution.

    Equality is structural (labels, genera, intersection matrix, strict
    incidences); the blowup-chain tags of the curves are carried but not
    compared, so a model round-tripped through the text format compares
    equal to the original.
    """

    def __init__(self, curves: Sequence[ExcCurve],
                 strict_curves: Sequence[StrictCurve] = ()):
        self.curves = tuple(curves)
        self.strict_curves = tuple(strict_curves)
        self.u = len(self.curves)
        self.matrix = tuple(c.row for c in self.curves)
        self._index = {c.label: i for i, c in enumerate(self.curves)}
        self._strict_index = {s.label: i for i, s in enumerate(self.strict_curves)}
        if len(self._index) != self.u:
            raise MalformedGraph("duplicate curve labels")
        if set(self._index) & set(self._strict_index):
            raise MalformedGraph("label used for both a curve and a strict curve")
        # sparse rows for fast intersection products
        self.sparse_rows = tuple(
            tuple((j, v) for j, v in enumerate(row) if v) for row in self.matrix)
        self.strict_sparse = tuple(
            tuple((j, v) for j, v in enumerate(s.incidence) if v)
            for s in self.strict_curves)
        # caches filled lazily by lattice / canonical
        self._dual_basis = None
        self._discrepancies = None

    # -- lookup ------------------------------------------------------------

    @property
    def labels(self):
        return tuple(c.label for c in self.curves)

    @property
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

    def _key(self):
        return (
            tuple((c.label, c.genus, c.self_int) for c in self.curves),
            self.matrix,
            tuple((s.label, s.incidence) for s in self.strict_curves),
        )

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
    """Build and validate a ResolutionModel from a plain description.

    ``curves`` is a sequence of (label, genus, self_int); ``meetings`` a
    sequence of (label_a, label_b, multiplicity); ``strict`` a sequence of
    (label, {curve_label: multiplicity}).  Redundant meeting entries are
    allowed but must agree, so a description carrying E1.E2 = 1 alongside
    E2.E1 = 2 is rejected as asymmetric.
    """
    labels = []
    genera = {}
    selfs = {}
    for entry in curves:
        label, genus, self_int = entry
        if not isinstance(genus, int) or genus < 0:
            raise MalformedGraph("curve %r: genus must be a non-negative integer" % (label,))
        if not isinstance(self_int, int) or self_int >= 0:
            raise MalformedGraph("curve %r: self-intersection must be a negative integer" % (label,))
        if label in genera:
            raise MalformedGraph("duplicate curve %r" % (label,))
        labels.append(label)
        genera[label] = genus
        selfs[label] = self_int

    index = {lbl: i for i, lbl in enumerate(labels)}
    u = len(labels)
    mat = [[0] * u for _ in range(u)]
    for i, lbl in enumerate(labels):
        mat[i][i] = selfs[lbl]

    seen = {}
    for a, b, mult in meetings:
        if a not in index:
            raise MalformedGraph("meeting references unknown curve %r" % (a,))
        if b not in index:
            raise MalformedGraph("meeting references unknown curve %r" % (b,))
        if a == b:
            raise MalformedGraph("curve %r cannot meet itself" % (a,))
        if not isinstance(mult, int) or mult <= 0:
            raise MalformedGraph("meeting %r.%r: multiplicity must be a positive integer"
                                 % (a, b))
        key = frozenset((a, b))
        if key in seen and seen[key] != mult:
            raise MalformedGraph("asymmetric meeting data for %r and %r (%d vs %d)"
                                 % (a, b, seen[key], mult))
        seen[key] = mult
        i, j = index[a], index[b]
        mat[i][j] = mat[j][i] = mult

    exc = tuple(
        ExcCurve(label=lbl, genus=genera[lbl], self_int=selfs[lbl],
                 row=tuple(mat[i]))
        for i, lbl in enumerate(labels))

    strict_curves = []
    for label, incidences in strict:
        if label in index or any(label == s.label for s in strict_curves):
            raise MalformedGraph("duplicate label %r" % (label,))
        vec = [0] * u
        for curve_label, mult in dict(incidences).items():
            if curve_label not in index:
                raise MalformedGraph("strict curve %r meets unknown curve %r"
                                     % (label, curve_label))
            if not isinstance(mult, int) or mult < 0:
                raise MalformedGraph("strict curve %r: incidence with %r must be a "
                                     "non-negative integer" % (label, curve_label))
            vec[index[curve_label]] = mult
        strict_curves.append(StrictCurve(label=label, incidence=tuple(vec)))

    return ResolutionModel(exc, tuple(strict_curves))
