"""Configurations of generic blowup chains at free points.

A free point of an exceptional curve lies on that curve alone: off every
other exceptional curve and off every strict curve.  Blowing one up is a
purely combinatorial update: a new (-1)-curve meeting only the center
curve, whose self-intersection drops by one.  "Generic" chains iterate
this, each new center on the most recent chain curve only, so no
randomness or coordinates are involved.

GenericConfiguration.build constructs a whole family of chains (the e_i
points with n_i blowups each used by the realization pipeline) in one
pass, together with the composite pullback, the relative canonical
divisor of the composition, and closed-form sums of dual-basis vectors.
The test suite keeps the step-by-step route (one blowup at a time,
composing pullbacks) in tests/oracles.py and checks the one-pass build
against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .antinef import is_antinef
from .divisor import Divisor
from .lattice import dual_basis
from .model import ExcCurve, ResolutionModel, StrictCurve

_ZERO = Fraction(0)


class PreconditionViolated(Exception):
    """The divisor or model does not satisfy the chain-lemma hypotheses."""


@dataclass(frozen=True)
class PullbackMap:
    """Integral linear map sending divisors on ``source`` to ``target``.

    ``columns[j]`` holds the target exceptional coefficients of the
    pullback of the j-th source curve.  Strict coefficients pass through
    unchanged (centers always avoid strict curves).
    """

    source: ResolutionModel
    target: ResolutionModel
    columns: tuple  # per source curve, tuple of ints over target curves

    def apply(self, d: Divisor) -> Divisor:
        if d.model is not self.source and d.model != self.source:
            raise PreconditionViolated("divisor does not live on the source model")
        out = [_ZERO] * self.target.u
        for j, c in enumerate(d.exc):
            if c:
                for k, v in enumerate(self.columns[j]):
                    if v:
                        out[k] += c * v
        return Divisor(self.target, tuple(out), d.strict)


# ---------------------------------------------------------------------------
# whole configurations of chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainInfo:
    base: int    # base-curve index the chain hangs off
    point: int   # 1-based point number on that curve
    start: int   # index of the first chain curve in the blown model
    length: int


class GenericConfiguration:
    """All chains of a realization step: e[i] chains of length n[i] per curve.

    Carries the blown model, the composite pullback, the relative
    canonical divisor of the composition, and closed-form weighted sums of
    the dual basis of the blown model, built from

        dual(E(l))       = g* dual(E_l)
        dual(E(i,j,k))   = g* dual(E_i) + sum_m min(m, k) E(i,j,m)

    which avoids re-solving the (possibly large) intersection form.
    """

    def __init__(self, base_model, model, chains, pullback, K_sigma):
        self.base_model = base_model
        self.model = model
        self.chains = tuple(chains)
        self.pullback = pullback
        self.K_sigma = K_sigma

    @classmethod
    def build(cls, base_model: ResolutionModel, e, n) -> "GenericConfiguration":
        """Construct the blown model directly, without iterating blowups."""
        u = base_model.u
        if len(e) != u or len(n) != u:
            raise ValueError("e and n must have one entry per curve")
        if any(v < 0 for v in e) or any(v < 0 for v in n):
            raise ValueError("chain counts and lengths must be >= 0")
        chains = []
        cursor = u
        for i in range(u):
            if e[i] > 0 and n[i] > 0:
                for j in range(1, e[i] + 1):
                    chains.append(ChainInfo(base=i, point=j,
                                            start=cursor, length=n[i]))
                    cursor += n[i]
        total = cursor

        mat = [[0] * total for _ in range(total)]
        for i in range(u):
            for j in range(u):
                mat[i][j] = base_model.matrix[i][j]
        roots = [0] * u
        for info in chains:
            roots[info.base] += 1
        for i in range(u):
            mat[i][i] -= roots[i]
        for info in chains:
            s, L, b = info.start, info.length, info.base
            mat[b][s] = mat[s][b] = 1
            for m in range(L):
                mat[s + m][s + m] = -1 if m == L - 1 else -2
                if m + 1 < L:
                    mat[s + m][s + m + 1] = mat[s + m + 1][s + m] = 1

        curves = []
        for i, c in enumerate(base_model.curves):
            curves.append(ExcCurve(label=c.label, genus=c.genus,
                                   self_int=mat[i][i], row=tuple(mat[i]),
                                   chain=c.chain))
        for info in chains:
            base_label = base_model.curves[info.base].label
            for m in range(1, info.length + 1):
                idx = info.start + m - 1
                curves.append(ExcCurve(
                    label="%s(%d,%d)" % (base_label, info.point, m),
                    genus=0, self_int=mat[idx][idx], row=tuple(mat[idx]),
                    chain=(base_label, info.point, m)))
        strict = tuple(StrictCurve(label=s.label,
                                   incidence=s.incidence + (0,) * (total - u))
                       for s in base_model.strict_curves)
        model = ResolutionModel(curves, strict)

        cols = []
        for l in range(u):
            col = [0] * total
            col[l] = 1
            for info in chains:
                if info.base == l:
                    for m in range(info.length):
                        col[info.start + m] = 1
            cols.append(tuple(col))
        pullback = PullbackMap(base_model, model, tuple(cols))

        k_exc = [_ZERO] * total
        for info in chains:
            for m in range(1, info.length + 1):
                k_exc[info.start + m - 1] = Fraction(m)
        k_sigma = Divisor(model, tuple(k_exc),
                          (_ZERO,) * len(model.strict_curves))
        return cls(base_model, model, chains, pullback, k_sigma)

    # -- index helpers ---------------------------------------------------

    def chains_over(self, i: int):
        return [info for info in self.chains if info.base == i]

    # -- closed-form dual basis -------------------------------------------

    def weighted_dual_sum(self, weights) -> Divisor:
        """Exact value of sum_E weights[E] * dual(E) over all curves."""
        weights = list(weights)
        base_weights = [weights[l] for l in range(self.base_model.u)]
        for info in self.chains:
            for m in range(info.length):
                base_weights[info.base] += weights[info.start + m]
        duals = dual_basis(self.base_model)
        combo = Divisor.zero(self.base_model)
        for l, w in enumerate(base_weights):
            if w:
                combo = combo + duals[l].scale(w)
        total = self.pullback.apply(combo)
        vec = list(total.exc)
        for info in self.chains:
            L = info.length
            t = [weights[info.start + m] for m in range(L)]
            # coefficient at chain position m is sum_k t_k * min(m, k)
            prefix = 0          # sum_{k<=m} k t_k; int while the weights are
            suffix = sum(t)     # ints, a Fraction once one is a Fraction
            for m in range(1, L + 1):
                prefix += m * t[m - 1]
                suffix -= t[m - 1]
                vec[info.start + m - 1] += prefix + m * suffix
        return Divisor(self.model, tuple(vec), total.strict)


# ---------------------------------------------------------------------------
# chain lemma verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaGenReport:
    duals_monotone: bool       # dual(E(i)) <= dual(E(i,x,1)) <= ...
    coeffs_monotone: bool      # a_0 <= a_1 <= ... <= a_n
    coeffs: tuple              # (a_0, ..., a_n)
    strict_increase: bool      # a_0 < a_n
    chain_duals_dominate: bool  # sum_k (-D.E_k) dual_k >= dual(E(i))
    equivalence_holds: bool    # strict_increase <=> chain_duals_dominate

    @property
    def all_hold(self):
        return self.duals_monotone and self.coeffs_monotone and self.equivalence_holds


def verify_lemma_gen(config: GenericConfiguration, d: Divisor) -> LemmaGenReport:
    """Check the chain monotonicity statements for one generic chain.

    ``config`` must hold exactly one chain (of length n >= 1) and ``d``
    must be an integral antinef divisor on its blown model.  The duals
    come from a direct solve, not from the closed form.  (In this
    combinatorial setting the chain root automatically meets only the
    base curve, so the free-point hypothesis needs no further check.)
    """
    if len(config.chains) != 1:
        raise PreconditionViolated("configuration must hold exactly one chain")
    if d.model is not config.model and d.model != config.model:
        raise PreconditionViolated("divisor does not live on the chain model")
    if not d.is_integral():
        raise PreconditionViolated("divisor must be integral")
    if not is_antinef(d):
        raise PreconditionViolated("divisor must be antinef")

    info = config.chains[0]
    duals = dual_basis(config.model)
    i = info.base
    chain_curves = range(info.start, info.start + info.length)
    seq = [duals[i]] + [duals[k] for k in chain_curves]
    duals_monotone = all(seq[t].less_equal(seq[t + 1]) for t in range(len(seq) - 1))

    coeffs = (d.exc[i],) + tuple(d.exc[k] for k in chain_curves)
    coeffs_monotone = all(coeffs[t] <= coeffs[t + 1]
                          for t in range(len(coeffs) - 1))
    strict_increase = coeffs[0] < coeffs[-1]

    combo = Divisor.zero(config.model)
    for k in chain_curves:
        combo = combo + duals[k].scale(-d.intersect(k))
    chain_duals_dominate = duals[i].less_equal(combo)

    return LemmaGenReport(
        duals_monotone=duals_monotone,
        coeffs_monotone=coeffs_monotone,
        coeffs=coeffs,
        strict_increase=strict_increase,
        chain_duals_dominate=chain_duals_dominate,
        equivalence_holds=(strict_increase == chain_duals_dominate),
    )
