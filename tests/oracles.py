"""Independent reference routes used only by the tests.

These deliberately avoid the package's own linear algebra and closure
code: determinants go through memoized cofactor expansion, and the least
antinef divisor above a given one is found by exhaustive search over a
coefficient box (vectorized with numpy so the full enumeration stays
fast).

The step-by-step blowup route builds chain configurations one free-point
blowup at a time, composing the pullbacks and relative canonical
divisors of the single steps; GenericConfiguration.build, which writes
the blown model down in one pass, is checked against it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from resdiv import (ChainInfo, Divisor, ExcCurve, GenericConfiguration,
                    PullbackMap, ResolutionModel, StrictCurve)


def det(matrix):
    """Exact determinant via cofactor expansion along rows."""
    n = len(matrix)

    @lru_cache(maxsize=None)
    def minor(row, cols):
        if not cols:
            return Fraction(1)
        total = Fraction(0)
        for idx, c in enumerate(cols):
            v = matrix[row][c]
            if v:
                sub = minor(row + 1, cols[:idx] + cols[idx + 1:])
                term = Fraction(v) * sub
                total += term if idx % 2 == 0 else -term
        return total

    return minor(0, tuple(range(n)))


def negdef_by_minors(matrix):
    """Sign test on all leading principal minors: (-1)^k det_k > 0."""
    n = len(matrix)
    for k in range(1, n + 1):
        block = tuple(tuple(matrix[i][j] for j in range(k)) for i in range(k))
        d = det(block)
        if (d if k % 2 == 0 else -d) <= 0:
            return False
    return True


def brute_closure_oracle(matrix, box=12):
    """Return a function mapping an integer coefficient vector d to the
    componentwise-least integral antinef vector >= d inside {0..box}^u."""
    u = len(matrix)
    m = np.array(matrix, dtype=np.int64)
    grids = np.meshgrid(*([np.arange(box + 1)] * u), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    antinef = candidates[(candidates @ m <= 0).all(axis=1)]

    def least_above(d):
        mask = (antinef >= np.asarray(d, dtype=np.int64)).all(axis=1)
        assert mask.any(), "box too small for input %r" % (d,)
        return tuple(int(x) for x in antinef[mask].min(axis=0))

    return least_above


# -- step-by-step blowups ------------------------------------------------------

def identity_pullback(model):
    cols = tuple(tuple(int(i == j) for i in range(model.u))
                 for j in range(model.u))
    return PullbackMap(model, model, cols)


def compose(first, second):
    """Composite pullback map: first ``first``, then ``second``."""
    cols = []
    for col in first.columns:
        out = [0] * second.target.u
        for m, v in enumerate(col):
            if v:
                for k, w in enumerate(second.columns[m]):
                    if w:
                        out[k] += v * w
        cols.append(tuple(out))
    return PullbackMap(first.source, second.target, tuple(cols))


@dataclass(frozen=True)
class BlowupResult:
    new_model: ResolutionModel
    sigma_pullback: PullbackMap
    K_sigma: Divisor            # relative canonical divisor of the map
    base_curve: int             # index of the curve carrying the center(s)
    chain_curves: tuple         # indices of the new curves, in creation order


def _next_point_tag(model, base_label):
    used = [c.chain[1] for c in model.curves
            if c.chain is not None and c.chain[0] == base_label]
    return max(used, default=0) + 1


def blow_up_free_point(model, i, point_tag=None):
    """Blow up one free point of curve i.

    The new curve C has self-intersection -1 and meets only (the strict
    transform of) curve i, whose self-intersection drops by one.  The
    pullback sends E_i to E_i' + C and fixes every other curve; the
    relative canonical divisor of the blowup is C.
    """
    old = model.curves[i]
    if old.chain is not None:
        base_label, point, step = old.chain
        chain = (base_label, point, step + 1)
    else:
        point = point_tag if point_tag is not None else _next_point_tag(model, old.label)
        chain = (old.label, point, 1)
    new_label = "%s(%d,%d)" % chain

    u = model.u
    mat = [list(row) + [0] for row in model.matrix]
    mat.append([0] * (u + 1))
    mat[i][i] -= 1
    mat[i][u] = mat[u][i] = 1
    mat[u][u] = -1

    curves = [ExcCurve(label=c.label, genus=c.genus, self_int=mat[j][j],
                       row=tuple(mat[j]), chain=c.chain)
              for j, c in enumerate(model.curves)]
    curves.append(ExcCurve(label=new_label, genus=0, self_int=-1,
                           row=tuple(mat[u]), chain=chain))
    strict = tuple(StrictCurve(label=s.label, incidence=s.incidence + (0,))
                   for s in model.strict_curves)
    new_model = ResolutionModel(curves, strict)

    cols = []
    for j in range(u):
        col = [int(j == k) for k in range(u + 1)]
        if j == i:
            col[u] = 1
        cols.append(tuple(col))
    pullback = PullbackMap(model, new_model, tuple(cols))
    return BlowupResult(new_model, pullback, Divisor.curve(new_model, u),
                        base_curve=i, chain_curves=(u,))


def generic_chain(model, i, n, point_tag=None):
    """Compose n free-point blowups, each centered on the newest curve.

    n = 0 returns the identity result.  The relative canonical divisor of
    the composite has coefficient k along the k-th chain curve.
    """
    if n < 0:
        raise ValueError("chain length must be >= 0")
    if n == 0:
        return BlowupResult(model, identity_pullback(model),
                            Divisor.zero(model), base_curve=i, chain_curves=())

    step = blow_up_free_point(model, i, point_tag=point_tag)
    pullback = step.sigma_pullback
    k_total = step.K_sigma
    chain = list(step.chain_curves)
    for _ in range(n - 1):
        step = blow_up_free_point(step.new_model, chain[-1])
        pullback = compose(pullback, step.sigma_pullback)
        k_total = step.sigma_pullback.apply(k_total) + step.K_sigma
        chain.extend(step.chain_curves)
    return BlowupResult(step.new_model, pullback, k_total,
                        base_curve=i, chain_curves=tuple(chain))


def iterated_configuration(base_model, e, n):
    """The configuration GenericConfiguration.build(base_model, e, n)
    should produce, built chain by chain via generic_chain."""
    current = base_model
    pullback = identity_pullback(base_model)
    k_total = Divisor.zero(base_model)
    chains = []
    for i in range(base_model.u):
        if e[i] > 0 and n[i] > 0:
            for j in range(1, e[i] + 1):
                start = current.u
                step = generic_chain(current, i, n[i], point_tag=j)
                pullback = compose(pullback, step.sigma_pullback)
                k_total = step.sigma_pullback.apply(k_total) + step.K_sigma
                current = step.new_model
                chains.append(ChainInfo(base=i, point=j, start=start,
                                        length=n[i]))
    return GenericConfiguration(base_model, current, chains, pullback, k_total)
