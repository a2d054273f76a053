"""Configurations of generic blowup chains at free points.

A free point of an exceptional curve lies on that curve alone: off every
other exceptional curve and off every strict curve.  Blowing one up is a
purely combinatorial update: a new (-1)-curve meeting only the center
curve, whose self-intersection drops by one.  "Generic" chains iterate
this, each new center on the most recent chain curve only, so no
randomness or coordinates are involved.  The m-th curve of a chain at
point p of E_i is labelled <label of E_i>(p,m); the chains over E_i take
the lowest point numbers p for which the base model has no such label
yet, so a blown model can itself be blown up or realized.

GenericConfiguration.build lays out a whole family of chains (the e_i
points with n_i blowups each used by the realization pipeline) in one
pass (GenericConfiguration.layout gives that layout alone), and gives
closed-form sums of dual-basis vectors.  The e_i chains over E_i are
identical, so they are laid out once: one ChainInfo stands for the chains
at its points, and the model's form is P^T M P, for P sending a chain
curve to the sum of its copies (self-intersections -2c, -c at the tip,
and meetings c, for c copies).  A product on a chain curve reads c times
the product with one copy.  The model, a ChainModel, is read off the
base model and the layout alone, where each chain follows the ones
before it (spans); with one point per class its resolution() is the
blown-up surface.  The pullback and the dual sums read the layout too:
on generic chains at free points, g* E_i is E_i plus every curve of the
chains over it, each with coefficient 1, so no table of the map is
stored (apply raises ModelMismatch on a divisor of another model).
build refuses, before allocating anything, a configuration that stands
for more than MAX_BLOWN_CURVES curves.  The test suite keeps the
step-by-step route (one blowup at a time, composing dense pullbacks)
and the direct-solve check of the chain lemma in tests/oracles.py, and
checks build against the former.
"""
from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import accumulate, count, islice
from typing import NamedTuple

from .divisor import Divisor, ModelMismatch
from .lattice import dual_basis
from .model import ExcCurve, ResolutionModel, StrictCurve


# Most curves of the blown-up surface a configuration may stand for,
# u + sum e_i n_i.  The CLI's realize on e8 with F0 = 99 Z, the largest
# multiple of Z under it (98 117 curves), never builds curves and takes
# about 0.4 s and 49 MB peak RSS; blowup to 100 000 curves on a1, which
# builds and prints it, about 1.4 s and 137 MB (Python 3.11, one 2-vCPU
# machine).
MAX_BLOWN_CURVES = 100_000


class TooManyCurves(ValueError):
    """The blown-up surface would have more than MAX_BLOWN_CURVES curves."""


class PullbackMap(NamedTuple):
    """The composite pullback of ``config``'s chains, read off it when applied:
    divisors on its base model go to its model, E_i to E_i plus every curve of
    the chains over it, each with coefficient 1.  Strict coefficients pass
    through unchanged (centers always avoid strict curves)."""

    config: GenericConfiguration

    def apply(self, d: Divisor) -> Divisor:
        source, num = self.config.base_model, d.num
        if d.model is not source and d.model != source:
            raise ModelMismatch("divisor does not live on the source model")
        out = list(num[:source.u])
        for info in self.config.chains:
            out += [num[info.base]] * info.length
        return Divisor._of(self.config.model, out + list(num[source.u:]), d.den)


# ---------------------------------------------------------------------------
# whole configurations of chains
# ---------------------------------------------------------------------------

class ChainInfo(NamedTuple):
    """The identical chains over one curve, one at each of ``points``; the
    chain at point p has its curves labelled ``<base label>(p,step)``, after
    the base curves and the chains before it (spans)."""

    base: int      # base-curve index the chains hang off
    points: tuple  # 1-based point numbers on that curve, one per copy
    length: int


def spans(u, chains):
    """Each chain with its first curve's index, the chains laid out in turn
    after u base curves."""
    return zip(chains, accumulate((info.length for info in chains), initial=u))


class ChainModel:
    """The model of a configuration's ``chains`` over ``base_model``, read off
    the layout: c copies of a chain lower their base curve's self-intersection
    by c and have c times the entries of one.  It is no resolution."""

    def __init__(self, base_model: ResolutionModel, chains: tuple):
        vars(self).update(base_model=base_model, chains=chains)

    def _key(self):
        return self.base_model, self.chains

    # a frozen value as a Divisor is; cached_property writes vars(self) itself
    __eq__, __hash__ = Divisor.__eq__, Divisor.__hash__
    __setattr__ = __delattr__ = Divisor.__setattr__

    @cached_property
    def u(self):
        return self.base_model.u + sum(info.length for info in self.chains)

    @cached_property
    def labels(self):
        base = self.base_model.labels
        return base + tuple("%s(%d,%d)" % (base[info.base], info.points[0], m)
                            for info in self.chains
                            for m in range(1, info.length + 1))

    @property
    def strict_labels(self):
        return self.base_model.strict_labels

    @property
    def strict_sparse(self):
        return self.base_model.strict_sparse

    @cached_property
    def sparse_rows(self):
        rows = [list(row) for row in self.base_model.sparse_rows]
        for info, start in spans(self.base_model.u, self.chains):
            b, c, tip = info.base, len(info.points), start + info.length - 1
            rows[b] = [(j, v - c if j == b else v) for j, v in rows[b]]
            rows[b].append((start, c))
            rows += [[(k - 1, c), (k, -2 * c), (k + 1, c)]
                     for k in range(start, tip)]
            rows.append([(tip - 1, c), (tip, -c)])
            rows[start][0] = (b, c)  # the first curve meets the base
        return tuple(map(tuple, rows))

    @cached_property
    def _index(self):  # read by index_of
        return {label: i for i, label in enumerate(self.labels)}

    index_of = ResolutionModel.index_of

    def strict_index_of(self, label: str) -> int:
        return self.base_model.strict_index_of(label)

    def resolution(self) -> ResolutionModel:
        """The blown-up surface, where each chain class has one point."""
        if any(len(info.points) > 1 for info in self.chains):
            raise ModelMismatch("a model of chain classes is not a resolution")
        base, labels, rows = self.base_model, self.labels, self.sparse_rows
        genus = [c.genus for c in base.curves] + [0] * (self.u - base.u)
        curves = [ExcCurve(labels[i], genus[i], dict(row)[i])
                  for i, row in enumerate(rows)]
        meetings = [(i, j, m) for i, row in enumerate(rows)
                    for j, m in row if j > i]
        pad = (0,) * (self.u - base.u)
        return ResolutionModel(curves, meetings, [
            StrictCurve(s.label, s.incidence + pad) for s in base.strict_curves])


class GenericConfiguration:
    """All chains of a realization step: e[i] chains of length n[i] per
    curve, laid out once per curve.

    Carries their model, the composite pullback, the relative canonical
    divisor of the composition, and closed-form weighted sums of the dual
    basis of the blown-up surface, built from

        dual(E(l))       = g* dual(E_l)
        dual(E(i,j,k))   = g* dual(E_i) + sum_m min(m, k) E(i,j,m)

    which avoids re-solving the (possibly large) intersection form.
    """

    def __init__(self, base_model, chains):
        self.base_model = base_model
        self.chains = tuple(chains)
        self.model = ChainModel(base_model, self.chains)

    @classmethod
    def build(cls, base_model: ResolutionModel, e, n) -> "GenericConfiguration":
        """Construct the model directly, without iterating blowups."""
        u = base_model.u
        if len(e) != u or len(n) != u:
            raise ValueError("e and n must have one entry per curve")
        if any(v < 0 for v in e) or any(v < 0 for v in n):
            raise ValueError("chain counts and lengths must be >= 0")
        total = u + sum(e_i * n_i for e_i, n_i in zip(e, n))
        if total > MAX_BLOWN_CURVES:
            raise TooManyCurves("the blown model would have %d curves, more "
                                "than the limit of %d" % (total, MAX_BLOWN_CURVES))
        return cls(base_model, cls.layout(base_model, e, n))

    @staticmethod
    def layout(base_model, e, n) -> tuple:
        """The chains of build(base_model, e, n): over each curve i with
        e[i], n[i] > 0, in order, one ChainInfo of length n[i] at the e[i]
        lowest point numbers p for which no label of base_model reads
        <label i>(p,m) (the taken (label, p) pairs are found once per base
        model)."""
        if "_taken_points" not in vars(base_model):
            labels = base_model.labels + base_model.strict_labels
            base_model._taken_points = {(m[1], int(m[2])) for m in (
                re.fullmatch(r"(.*)\(([1-9][0-9]*),[1-9][0-9]*\)", label)
                for label in labels) if m}
        taken, chains = base_model._taken_points, []
        for i, label in enumerate(base_model.labels):
            if e[i] > 0 and n[i] > 0:
                free = (p for p in count(1) if (label, p) not in taken)
                chains.append(ChainInfo(i, tuple(islice(free, e[i])), n[i]))
        return tuple(chains)

    @property
    def pullback(self) -> PullbackMap:
        """The composite pullback, made per read: cached, it would form a cycle."""
        return PullbackMap(self)

    @cached_property
    def K_sigma(self) -> Divisor:
        """The relative canonical divisor of the composition: coefficient
        k on the k-th curve of each chain."""
        chains = [k for info in self.chains for k in range(1, info.length + 1)]
        return Divisor._of(self.model, [0] * self.base_model.u + chains + [0] * len(
            self.base_model.strict_curves), 1)

    # -- closed-form dual basis -------------------------------------------

    def weighted_dual_sum(self, weights) -> Divisor:
        """Exact value of sum_E weights[E] * dual(E) over all curves, a chain
        curve's weight going to each of its copies; the weights (ints or
        Fractions) are summed as ints over one denominator, and the pullback
        and chain terms are written in one pass, over dden * wden."""
        base, u = self.base_model, self.base_model.u
        weights = list(weights)
        wden = math.lcm(*(x.denominator for x in weights))
        w = [x.numerator * (wden // x.denominator) for x in weights]
        base_w, chains = w[:u], list(spans(u, self.chains))
        for info, start in chains:
            base_w[info.base] += len(info.points) * sum(w[start:start + info.length])
        # sum_l base_w[l] dual(E_l) on the base curves
        duals = dual_basis(base)
        dden = math.lcm(*(v.den for v in duals))
        out = [0] * (self.model.u + len(base.strict_curves))
        for c, dual in zip(base_w, duals):
            if c:
                c *= dden // dual.den
                for k, v in enumerate(dual.num[:u]):
                    out[k] += c * v
        for info, start in chains:
            # g* gives chain position m the base coefficient, and the chain
            # adds sum_k t_k * min(m, k) for its weights t
            t = w[start:start + info.length]
            prefix, suffix, at_base = 0, sum(t), out[info.base]
            for m, x in enumerate(t, 1):
                prefix += m * x  # sum_{k<=m} k t_k
                suffix -= x      # sum_{k>m} t_k
                out[start + m - 1] = at_base + dden * (prefix + m * suffix)
        return Divisor._of(self.model, out, dden * wden)
