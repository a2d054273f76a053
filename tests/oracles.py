"""Independent reference routes used only by the tests.

These deliberately avoid the package's own linear algebra and closure
code: determinants go through memoized cofactor expansion, larger systems
through Gauss-Jordan elimination on Fractions in index order, the pivot
order by rescanning the elimination graph at each step, and the least
antinef divisor above a given one is found by exhaustive search over a
coefficient box (vectorized with numpy so the full enumeration stays
fast).

The step-by-step blowup route builds chain configurations one free-point
blowup at a time, composing dense pullback matrices and the relative
canonical divisors of the single steps; GenericConfiguration.build, which
writes the blown model and the sparse pullback down in one pass, is
checked against it.  blow_up_meeting_point blows up the point where two
curves meet once, and blown_discrepancies gives the discrepancies of a
one-point blowup from those below it by the blowup rule, solving nothing.
verify_lemma_gen checks the paper's chain lemma on one generic chain,
with the duals from a direct solve rather than the closed form that
GenericConfiguration.weighted_dual_sum uses.

format_by_labels writes a divisor one Fraction per coefficient, reading
the model's full label tuple, as the chain-aware format_divisor must.

chain_spans gives where each chain's curves sit, by counting the lengths
before it, and chain_copies how many curves each curve stands for.
ungroup gives a configuration with one point to each ChainInfo, whose
model is the blown-up surface, the resolution() of its ChainModel, and
expand spreads a divisor on a configuration's model over it;
quotient_matrix and expand_by_labels read the class form off the labels
alone: each chain curve <base>(point,step) stands in the class of
<base>(1,step).  closure_with_rule runs the unit-step closure on the
dense matrix under any rule for picking the violating curve.

random_log_terminal_model draws log terminal models by their
classification alone: chains of rational curves of weight >= 2 (cyclic
quotients) and stars of three such chains whose determinants d_1, d_2,
d_3 have sum 1/d_i > 1 (the platonic triples), with a centre weight that
makes the form negative definite by the Schur complement.

dual_chain_domination_detail, epsilon_and_chain_length_details and
divisor_chain_details are certificate checks as first written, which the
integer forms in resdiv.realize must agree with, details included: the
domination by one weighted dual sum per base curve, compared as whole
divisors, the epsilon and chain length rules by rows of Fractions, and
the floor identities, the lambda and integral scaling rules and the
antinef check of F + K_g by chains of whole Divisors.
choose_epsilon_by_fractions and chain_lengths_by_fractions are realize's
choice of epsilon and n, one Fraction expression per curve.

RefDivisor keeps one Fraction per coefficient and does every operation
coefficient by coefficient, with products read off the dense matrix; the
integer-numerator Divisor is checked against it.  meet, the componentwise
minimum of two Divisors, is needed by the tests alone.
"""

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from resdiv import (ChainInfo, Divisor, ExcCurve, GenericConfiguration,
                    ModelMismatch, ResolutionModel, StrictCurve, build_model,
                    discrepancies, dual_basis, format_rational, is_antinef)


def dense_matrix(model):
    """The dense intersection matrix of a model, read off its sparse rows."""
    mat = [[0] * model.u for _ in range(model.u)]
    for i, row in enumerate(model.sparse_rows):
        for j, v in row:
            mat[i][j] = v
    return tuple(map(tuple, mat))


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


def gauss_jordan(matrix, columns=()):
    """Fraction Gauss-Jordan elimination of ``[M | b ...]`` in index order.

    Returns ``(pivots, xs)``.  The k-th pivot is det_{k+1} / det_k, the
    ratio of consecutive leading principal minors, so the form is negative
    definite exactly when every pivot is negative.  Elimination stops
    after the first pivot >= 0, and then ``xs`` is None; otherwise xs
    holds the exact solution x of M x = b for each b.
    """
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in columns]
            for i, row in enumerate(matrix)]
    pivots = []
    for k in range(n):
        pivot = rows[k][k]
        pivots.append(pivot)
        if pivot >= 0:
            return pivots, None
        row_k = rows[k] = [v / pivot for v in rows[k]]
        for i, row in enumerate(rows):
            f = row[k]
            if f and i != k:
                rows[i] = [a - f * b if b else a for a, b in zip(row, row_k)]
    return pivots, [[row[n + j] for row in rows] for j in range(len(columns))]


def min_degree_order(model):
    """Greedy minimum-degree elimination order, ties broken by index, by
    rescanning the elimination graph, where removing a curve joins its
    remaining neighbours pairwise."""
    adj = {i: {j for j, _ in row if j != i}
           for i, row in enumerate(model.sparse_rows)}
    order = []
    while adj:
        i = min(adj, key=lambda i: (len(adj[i]), i))
        order.append(i)
        near = adj.pop(i)
        for j in near:
            adj[j] = (adj[j] | near) - {i, j}
    return order


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


def closure_with_rule(model, exc, select, strict=(), trace=False):
    """Antinef closure of the integral divisor (exc, strict) by unit steps
    on the dense matrix, adding at each step the curve
    ``select(violating, prods)`` picks among the indices whose product is
    positive, found by rescanning every product.  Returns the exceptional
    coefficients of the closure, and with ``trace`` also the steps as
    (index, product before the step) pairs."""
    matrix = dense_matrix(model)
    exc = [int(c) for c in exc]
    prods = [sum(c * matrix[j][i] for j, c in enumerate(exc))
             + sum(int(c) * s.incidence[i]
                   for c, s in zip(strict, model.strict_curves))
             for i in range(model.u)]
    steps = []
    while True:
        violating = [i for i, p in enumerate(prods) if p > 0]
        if not violating:
            return (tuple(exc), tuple(steps)) if trace else tuple(exc)
        i = select(violating, prods)
        steps.append((i, prods[i]))
        exc[i] += 1
        prods = [p + v for p, v in zip(prods, matrix[i])]


# -- step-by-step blowups ------------------------------------------------------

@dataclass(frozen=True)
class DensePullback:
    """A pullback as its dense matrix: ``columns[j]`` holds the target
    exceptional coefficients of the pullback of the j-th source curve."""

    source: ResolutionModel
    target: ResolutionModel
    columns: tuple

    def apply(self, d):
        exc = [sum((c * col[k] for c, col in zip(d.exc, self.columns)),
                   Fraction(0)) for k in range(self.target.u)]
        return Divisor(self.target, exc, d.strict)


def identity_pullback(model):
    cols = tuple(tuple(int(i == j) for i in range(model.u))
                 for j in range(model.u))
    return DensePullback(model, model, cols)


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
    return DensePullback(first.source, second.target, tuple(cols))


@dataclass(frozen=True)
class BlowupResult:
    new_model: ResolutionModel
    sigma_pullback: DensePullback
    K_sigma: Divisor            # relative canonical divisor of the map
    base_curve: int             # index of the curve carrying the center(s)
    chain_curves: tuple         # indices of the new curves, in creation order


def _chain_tag(label):
    """(base label, point, step) of a curve this route named, else None."""
    match = re.fullmatch(r"(.+)\((\d+),(\d+)\)", label)
    return match and (match[1], int(match[2]), int(match[3]))


def blow_up_free_point(model, i, point_tag=None):
    """Blow up one free point of curve i.

    The new curve C has self-intersection -1 and meets only (the strict
    transform of) curve i, whose self-intersection drops by one.  The
    pullback sends E_i to E_i' + C and fixes every other curve; the
    relative canonical divisor of the blowup is C.  Chain positions are
    read back from the labels ``<base>(point,step)`` this route writes:
    a chain curve's blowup continues its chain, and a new chain on a
    base curve takes the next free point number.
    """
    old = model.curves[i]
    tag = _chain_tag(old.label)
    if tag is not None:
        tag = tag[:2] + (tag[2] + 1,)
    else:
        if point_tag is None:
            tags = [_chain_tag(c.label) for c in model.curves]
            point_tag = 1 + max((t[1] for t in tags
                                 if t and t[0] == old.label), default=0)
        tag = (old.label, point_tag, 1)
    return _blow_up_point(model, (i,), "%s(%d,%d)" % tag)


def blow_up_meeting_point(model, i, j):
    """Blow up the point where curves i and j meet with multiplicity 1.

    The new curve C, labelled ``[<label i>,<label j>]``, has
    self-intersection -1 and meets E_i and E_j once each; both drop their
    self-intersection by one and no longer meet.  The pullback sends E_i
    to E_i' + C and E_j to E_j' + C; the relative canonical divisor of the
    blowup is C.  The point lies on no strict curve.
    """
    if dense_matrix(model)[i][j] != 1:
        raise ValueError("curves %d and %d do not meet once" % (i, j))
    return _blow_up_point(model, (i, j), "[%s,%s]" % (model.labels[i],
                                                      model.labels[j]))


def _blow_up_point(model, through, new_label):
    """Blow up a point on the curves ``through`` (each smooth there, any two
    meeting transversally) and on no strict curve: each product of two of
    them, self-intersections included, drops by one, and each meets the
    new (-1)-curve C once and pulls back to its strict transform plus C."""
    u = model.u
    mat = [list(row) + [0] for row in dense_matrix(model)]
    mat.append([0] * (u + 1))
    for i in through:
        for j in through:
            mat[i][j] -= 1
        mat[i][u] = mat[u][i] = 1
    mat[u][u] = -1

    curves = [ExcCurve(c.label, c.genus, mat[j][j])
              for j, c in enumerate(model.curves)]
    curves.append(ExcCurve(new_label, 0, -1))
    meetings = [(a, b, mat[a][b]) for a in range(u + 1)
                for b in range(a + 1, u + 1) if mat[a][b]]
    strict = tuple(StrictCurve(label=s.label, incidence=s.incidence + (0,))
                   for s in model.strict_curves)
    new_model = ResolutionModel(curves, meetings, strict)

    cols = []
    for j in range(u):
        col = [int(j == k) for k in range(u + 1)]
        if j in through:
            col[u] = 1
        cols.append(tuple(col))
    pullback = DensePullback(model, new_model, tuple(cols))
    return BlowupResult(new_model, pullback, Divisor.curve(new_model, u),
                        base_curve=through[0], chain_curves=(u,))


def blown_discrepancies(b, step):
    """The discrepancies of ``step.new_model``, a one-point blowup, from
    those of the model it blew up, ``b``, solving nothing.  K' = pi^*K + C,
    so the new curve C takes 1 plus the b of each curve through the centre
    (b_i + 1 at a free point of E_i, b_i + b_j + 1 where E_i meets E_j),
    and the old curves keep theirs."""
    (c,) = step.chain_curves
    return tuple(b) + (1 + sum(b_k * col[c] for b_k, col
                               in zip(b, step.sigma_pullback.columns)),)


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


class _Composed(GenericConfiguration):
    """A configuration whose model, pullback and K_sigma are set on it."""

    pullback = None


def iterated_configuration(base_model, e, n):
    """The configuration ungroup(GenericConfiguration.build(base_model, e,
    n)) should be, built chain by chain via generic_chain."""
    current = base_model
    pullback = identity_pullback(base_model)
    k_total = Divisor.zero(base_model)
    chains = []
    for i in range(base_model.u):
        if e[i] > 0 and n[i] > 0:
            for j in range(1, e[i] + 1):
                step = generic_chain(current, i, n[i], point_tag=j)
                assert step.chain_curves[0] == current.u  # after the last chain
                pullback = compose(pullback, step.sigma_pullback)
                k_total = step.sigma_pullback.apply(k_total) + step.K_sigma
                current = step.new_model
                chains.append(ChainInfo(base=i, points=(j,), length=n[i]))
    config = _Composed(base_model, chains)
    # the iterated model and composed maps, in place of those read off the chains
    config.model, config.pullback, config.K_sigma = current, pullback, k_total
    return config


# -- the chain lemma, by a direct solve ------------------------------------------

class PreconditionViolated(Exception):
    """The divisor or model does not satisfy the chain-lemma hypotheses."""


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


def verify_lemma_gen(config, d):
    """Check the chain monotonicity statements for one generic chain.

    ``config`` must hold exactly one chain (of length n >= 1) and ``d``
    must be an integral antinef divisor on its blown model.  The duals
    come from a direct solve, not from the closed form.  (In this
    combinatorial setting the chain root automatically meets only the
    base curve, so the free-point hypothesis needs no further check.)
    """
    if len(config.chains) != 1 or len(config.chains[0].points) != 1:
        raise PreconditionViolated("configuration must hold exactly one chain")
    if d.model is not config.model and d.model != config.model:
        raise PreconditionViolated("divisor does not live on the chain model")
    if not d.is_integral():
        raise PreconditionViolated("divisor must be integral")
    if not is_antinef(d):
        raise PreconditionViolated("divisor must be antinef")

    ((info, span),) = chain_spans(config)
    duals = dual_basis(config.model)
    i = info.base
    chain_curves = range(span.start, span.stop)
    seq = [duals[i]] + [duals[k] for k in chain_curves]
    duals_monotone = all(seq[t].less_equal(seq[t + 1]) for t in range(len(seq) - 1))

    exc = d.exc
    coeffs = (exc[i],) + tuple(exc[k] for k in chain_curves)
    coeffs_monotone = all(coeffs[t] <= coeffs[t + 1]
                          for t in range(len(coeffs) - 1))
    strict_increase = coeffs[0] < coeffs[-1]

    prods = d.products()
    combo = Divisor.zero(config.model)
    for k in chain_curves:
        combo = combo + duals[k].scale(-prods[k])
    chain_duals_dominate = duals[i].less_equal(combo)

    return LemmaGenReport(
        duals_monotone=duals_monotone,
        coeffs_monotone=coeffs_monotone,
        coeffs=coeffs,
        strict_increase=strict_increase,
        chain_duals_dominate=chain_duals_dominate,
        equivalence_holds=(strict_increase == chain_duals_dominate),
    )


# -- the blown-up surface, and the class form by labels ---------------------------

def chain_spans(config):
    """(info, slice of its curves) for each chain of ``config``: the chains
    follow the base curves, each starting where the one before ends."""
    start, out = config.base_model.u, []
    for info in config.chains:
        out.append((info, slice(start, start + info.length)))
        start += info.length
    return out


def chain_copies(config):
    """The number of copies each curve of ``config``'s model stands for."""
    copies = [1] * config.base_model.u
    for info in config.chains:
        copies += [len(info.points)] * info.length
    return copies


@lru_cache(maxsize=16)
def ungroup(config):
    """``config``'s chains with one point to each ChainInfo, in the order
    of their points; its model is the blown-up surface, the resolution()
    of its ChainModel (cached)."""
    chains = [ChainInfo(info.base, (p,), info.length)
              for info in config.chains for p in info.points]
    ungrouped = GenericConfiguration(config.base_model, chains)
    ungrouped.model = ungrouped.model.resolution()
    return ungrouped


def expand(config, d):
    """``d``, a divisor on ``config``'s model, on ungroup(config)'s model:
    each copy of a chain takes the values of its class."""
    if d.model is not config.model and d.model != config.model:
        raise ModelMismatch("divisor does not live on the configuration")
    num = list(d.num[:config.base_model.u])
    for info, span in chain_spans(config):
        num += d.num[span] * len(info.points)
    return Divisor._of(ungroup(config).model,
                       num + list(d.num[config.model.u:]), d.den)


def _class_label(label):
    """The label of the curve that stands for ``label`` in a quotient."""
    tag = _chain_tag(label)
    return label if tag is None else "%s(1,%d)" % (tag[0], tag[2])


def quotient_matrix(full, quotient):
    """P^T M P for the form M of ``full``, where P sends each curve of
    ``quotient`` to the sum of the curves of its class."""
    cls = [quotient.index_of(_class_label(label)) for label in full.labels]
    out = [[0] * quotient.u for _ in range(quotient.u)]
    for i, row in enumerate(dense_matrix(full)):
        for j, v in enumerate(row):
            out[cls[i]][cls[j]] += v
    return tuple(map(tuple, out))


def expand_by_labels(d, full):
    """The divisor on ``full`` with each curve's coefficient read from the
    curve of its class in ``d``'s (quotient) model."""
    exc = {label: d.exc[d.model.index_of(_class_label(label))]
           for label in full.labels}
    return Divisor.from_coeffs(full, exc=exc, strict=list(d.strict))


def format_by_labels(d):
    """``label=value`` for each nonzero coefficient of ``d`` in model order,
    the value a Fraction in lowest terms, or "0"."""
    model = d.model
    terms = ["%s=%s" % (label, Fraction(n, d.den)) for label, n
             in zip(model.labels + model.strict_labels, d.num) if n]
    return " ".join(terms) or "0"


# -- log terminal models by classification ---------------------------------------

# with (2, 2, k) for every k >= 2, the triples with sum 1/d_i > 1
PLATONIC = ((2, 3, 3), (2, 3, 4), (2, 3, 5))


def hirzebruch_jung(d, q):
    """The weights w_1, ..., w_r with d/q = w_1 - 1/(w_2 - 1/(... w_r)),
    each >= 2, for coprime 0 < q < d: the chain of (-w_k)-curves has
    determinant d, and the chain less its first curve has determinant q."""
    weights = []
    while q:
        w = -(-d // q)
        weights.append(w)
        d, q = q, w * q - d
    return weights


def star_model(centre, arms):
    """A rational (-centre)-curve E1 and, for each arm (a list of weights),
    a chain of rational curves whose first curve meets E1; the curves are
    E1, E2, ... in order, arm by arm."""
    curves, meetings = [("E1", 0, -centre)], []
    for arm in arms:
        previous = "E1"
        for w in arm:
            label = "E%d" % (len(curves) + 1)
            curves.append((label, 0, -w))
            meetings.append((previous, label, 1))
            previous = label
    return build_model(curves, meetings)


def random_arms(rng):
    """Three arms (weights, d, q) with d/q = hirzebruch_jung(d, q) and the
    d's a platonic triple."""
    arms = []
    for d in rng.choice(PLATONIC + ((2, 2, rng.randint(2, 6)),)):
        q = rng.choice([q for q in range(1, d) if math.gcd(d, q) == 1])
        arms.append((hirzebruch_jung(d, q), d, q))
    return arms


def random_log_terminal_model(rng):
    """A chain of one to five rational curves of weights 2 to 4, or a star
    on random_arms whose centre weight is the least above sum q/d (the
    Schur complement of the arms is then negative), or one more."""
    if rng.random() < 0.5:
        weights = [rng.randint(2, 4) for _ in range(rng.randint(1, 5))]
        return star_model(weights[0], [weights[1:]])
    arms = random_arms(rng)
    least = math.floor(sum(Fraction(q, d) for _, d, q in arms)) + 1
    return star_model(least + rng.randint(0, 1), [w for w, _, _ in arms])


# -- certificate checks over Fractions ---------------------------------------------

def _first_row_break(rows):
    """'label: a vs b' for the first (label, a, b, holds) row with
    holds(a, b) false, or ''."""
    return next(("%s: %s vs %s" % (label, format_rational(a), format_rational(b))
                 for label, a, b, holds in rows if not holds(a, b)), "")


def dual_chain_domination_detail(config, base, f, fp):
    """The dual_chain_domination detail by the per-curve loop over whole
    divisors: for each base curve E_i in order, the weighted dual sum with
    the weights -F'.E_k per copy on E_i and its chains, against
    -(F.E_i) g*E*_i, compared curve by curve; '' when every E_i passes."""
    model = config.model
    copies = chain_copies(config)
    neg = [-p / c for p, c in zip(fp.products(), copies)]
    f_prods = f.products()
    duals = dual_basis(base)
    labels = model.labels + model.strict_labels
    for i in range(base.u):
        weights = [0] * model.u
        weights[i] = neg[i]
        for info, span in chain_spans(config):
            if info.base == i:
                weights[span] = neg[span]
        lhs = config.weighted_dual_sum(weights)
        rhs = config.pullback.apply(duals[i]).scale(-f_prods[i])
        detail = _first_row_break(zip(labels, rhs.exc + rhs.strict,
                                      lhs.exc + lhs.strict,
                                      [operator.le] * len(labels)))
        if detail:
            return detail
    return ""


def epsilon_and_chain_length_details(cert):
    """The epsilon_constraints and chain_length_rule details of ``cert``
    from rows of Fractions, each '' when its check holds."""
    base, eps = cert.base_model, cert.epsilon
    lt, le, eq = operator.lt, operator.le, operator.eq
    rows = [("epsilon", 0, eps, lt), ("epsilon", eps, Fraction(1, 2), lt)]
    rows += [(label, eps * (a_i + 1), 1 + b_i, lt)
             for label, a_i, b_i in zip(base.labels, cert.a, cert.b)]
    rows += [(label, math.floor(eps * c), 0, eq)
             for label, c in zip(base.strict_labels, cert.F0.strict)]
    eps_break = _first_row_break(rows)

    rows = [("epsilon", 0, eps, lt)]
    if eps > 0:
        for label, n_i, a_i, b_i in zip(base.labels, cert.n, cert.a, cert.b):
            rows.append((label, n_i, math.floor((1 + b_i) / eps - (a_i + 1)), eq))
            if n_i >= 1:
                rows += [(label, b_i / eps - a_i, n_i, le),
                         (label, n_i, (b_i + 1) / eps - a_i, lt)]
    chains = cert.config.chains
    counts = [sum(len(info.points) for info in chains if info.base == i)
              for i in range(base.u)]
    n_break = _first_row_break(rows) or _first_row_break(
        [("n", len(cert.n), base.u, eq)]
        + [(label, counts[i], e_i if n_i >= 1 else 0, eq) for i, (label, n_i, e_i)
           in enumerate(zip(base.labels, cert.n, cert.e))])
    if not n_break and (laid := GenericConfiguration.layout(
            base, counts, cert.n)) != chains:
        per_copy = [[(info.base, pt, info.length, len(info.points))
                     for info in layout for pt in info.points]
                    for layout in (chains, laid)]
        n_break = _first_row_break(
            [("%s(%d,1)" % (base.labels[want[0]], want[1]), x, y, eq)
             for have, want in zip(*per_copy) for x, y in zip(have, want)])
    return eps_break, n_break


def divisor_chain_details(cert, config, f, a_div, g):
    """The details of perturbation_floor_identity, multiplier_floor_split,
    lambda_scaling_rule, integral_scaling_rule and
    pullback_plus_canonical_antinef on ``config`` with F, A and G given on
    it, by chains of whole Divisors; each '' when its check holds."""
    model, base = config.model, cert.base_model
    labels = model.labels + model.strict_labels
    copies = chain_copies(config)

    def differ(lhs, rhs):
        return _first_row_break(zip(labels, lhs.exc + lhs.strict,
                                    rhs.exc + rhs.strict,
                                    [operator.eq] * len(labels)))

    k_f = Divisor(base, discrepancies(base).b, (0,) * len(base.strict_curves))
    k_g = config.K_sigma
    fk = f + k_g
    g_k_f = config.pullback.apply(k_f)
    k_h = k_g + g_k_f
    eps, one_eps = cert.epsilon, 1 + cert.epsilon
    perturbed = ((fk + a_div.scale(cert.mu)).scale(one_eps) - k_h).floor()
    unperturbed = (fk.scale(one_eps) - k_h).floor()
    candidate = (g.scale(cert.lam) - k_h).floor()
    split = f + (fk.scale(eps) - g_k_f).floor()
    expected_g = (fk + a_div.scale(cert.mu)).scale(cert.N)
    a_prods = a_div.products()
    scaling = ""
    if not (g == expected_g and g.is_integral() and cert.mu > 0
            and all(p < 0 for p in a_prods)):
        scaling = differ(g, expected_g) or differ(g, g.floor()) or \
            _first_row_break([("mu", cert.mu, 0, operator.gt)] + [
                (label, p / c, 0, operator.lt)
                for label, p, c in zip(model.labels, a_prods, copies)])
    return {
        "perturbation_floor_identity": differ(perturbed, unperturbed),
        "multiplier_floor_split": differ(candidate, split),
        "lambda_scaling_rule": _first_row_break([
            ("lambda*N", cert.lam * cert.N, one_eps, operator.eq),
            ("N", cert.N, 1, operator.ge)]),
        "integral_scaling_rule": scaling,
        "pullback_plus_canonical_antinef": _first_row_break(
            (label, p / c, 0, operator.le)
            for label, p, c in zip(model.labels, fk.products(), copies)),
    }


def choose_epsilon_by_fractions(model, f0):
    """(1/2) min(1/2, min_i (1+b_i)/(a_i+1), 1/c_max), one Fraction per
    term, the last only when the largest strict coefficient c_max > 0."""
    candidates = [Fraction(1, 2)]
    for a_i, b_i in zip(f0.exc, discrepancies(model).b):
        candidates.append((1 + b_i) / (a_i + 1))
    c_max = max(f0.strict, default=0)
    if c_max > 0:
        candidates.append(1 / c_max)
    return min(candidates) / 2


def chain_lengths_by_fractions(model, f0, epsilon):
    """n_i = floor((1 + b_i) / epsilon - (a_i + 1)) per exceptional curve."""
    return tuple(math.floor((1 + b_i) / epsilon - (a_i + 1))
                 for a_i, b_i in zip(f0.exc, discrepancies(model).b))


# -- reference divisor -----------------------------------------------------------

def meet(a, b):
    """The componentwise minimum of two divisors on one model."""
    if a.model is not b.model and a.model != b.model:
        raise ModelMismatch("divisors live on different models")
    return Divisor(a.model, list(map(min, a.exc, b.exc)),
                   list(map(min, a.strict, b.strict)))


@dataclass(frozen=True)
class RefDivisor:
    """A divisor as a tuple of Fractions per curve kind, for comparison."""

    model: ResolutionModel
    exc: tuple
    strict: tuple

    @staticmethod
    def of(model, coeffs):
        coeffs = tuple(map(Fraction, coeffs))
        return RefDivisor(model, coeffs[:model.u], coeffs[model.u:])

    def _map(self, fn):
        return RefDivisor(self.model, tuple(map(fn, self.exc)),
                          tuple(map(fn, self.strict)))

    def _zip(self, other, fn):
        return RefDivisor(self.model, tuple(map(fn, self.exc, other.exc)),
                          tuple(map(fn, self.strict, other.strict)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __neg__(self):
        return self._map(operator.neg)

    def scale(self, factor):
        return self._map(lambda c: Fraction(factor) * c)

    def meet(self, other):
        return self._zip(other, min)

    def floor(self):
        return self._map(lambda c: Fraction(math.floor(c)))

    def less_equal(self, other):
        return all(a <= b for a, b in zip(self.exc + self.strict,
                                          other.exc + other.strict))

    def products(self):
        matrix = dense_matrix(self.model)
        return tuple(
            sum((c * matrix[j][i] for j, c in enumerate(self.exc)), Fraction(0))
            + sum((c * s.incidence[i]
                   for c, s in zip(self.strict, self.model.strict_curves)),
                  Fraction(0))
            for i in range(self.model.u))

    def is_integral(self):
        return all(c.denominator == 1 for c in self.exc + self.strict)

    def is_effective(self):
        return all(c >= 0 for c in self.exc + self.strict)

    def is_zero(self):
        return not any(self.exc + self.strict)
