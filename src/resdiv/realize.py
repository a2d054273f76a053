"""Realizing integral antinef divisors as multiplier-ideal data.

Given a log terminal model and an integral antinef effective divisor F0
(representing an integrally closed ideal), this module constructs a
divisor G on a blown-up model together with a coefficient lambda such
that the multiplier divisor of (G, lambda) equals the pullback F of F0,
and independently machine-checks every step of the construction.

All selection rules (epsilon, mu, N, the relatively ample divisor A) are
deterministic, so certificates are reproducible bit for bit.  N is the
least integer clearing denominators; the classical requirement that -G be
relatively globally generated for large N is assumed via the antinef
divisor / integrally closed ideal correspondence and is not a numerical
computation, so it is recorded as an assumption rather than checked.
The construction asserts nothing on the way: each property of it (F + K_g
antinef among them) is established once, by a named certificate check;
F' records the claim F' = F, which closure_recomputation establishes.

A certificate holds F0, the base model and the choices made from them; a,
b and e are derived from F0 and the base model, and the checks bind the
rest to them: F is the pullback of F0 (closure_equals_target), and the
chains are laid out as build lays them out for (e, n) (chain_length_rule).

Every divisor of the construction is the same on each copy of a chain, so
F, A, G and F' live on the configuration's model, which lays the copies
out once; its form is read off the chain layout, and it has no curves to
build.  realize and the checks run on int numerators (see _run_checks),
Fractions made for the scalars and for the first broken row of a check
alone.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import eq, ge, gt, le, lt
from typing import NamedTuple

from .blowup import GenericConfiguration, spans
from .canonical import (NotLogTerminal, antinef_closure, check_ideal_divisor,
                        discrepancies, is_antinef, relative_canonical)
from .divisor import Divisor
from .lattice import dual_basis, numerical_pullback
from .model import ResolutionModel
from .rationals import as_rational, format_rational


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""  # on failure: the first curve or scalar that broke it


# the certificate checks, in the order verify_certificate runs them
CHECK_NAMES = (
    "perturbation_floor_identity", "multiplier_floor_split",
    "candidate_dominated", "pushforward_preserved",
    "chain_top_order_equality", "dual_chain_domination",
    "numerical_decomposition", "closure_equals_target",
    "closure_recomputation", "epsilon_constraints", "chain_length_rule",
    "lambda_scaling_rule", "integral_scaling_rule",
    "pullback_plus_canonical_antinef",
)


class RealizationCertificate(NamedTuple):
    base_model: ResolutionModel
    F0: Divisor
    epsilon: Fraction
    n: tuple          # chain lengths
    config: GenericConfiguration
    F: Divisor        # pullback of F0; F, A, G, F' on config.model
    A: Divisor        # effective integral divisor, -A relatively ample
    mu: Fraction      # > 0
    N: int            # >= 1
    G: Divisor
    lam: Fraction
    F_prime: Divisor  # the claim F' = F; closure_recomputation establishes it
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    # a (F0's exceptional coefficients), b (the base model's discrepancies)
    # and e (e_i = -F0.E_i, ints when F0 is integral)
    @property
    def a(self) -> tuple:
        return self.F0.exc

    @property
    def b(self) -> tuple:
        return discrepancies(self.base_model).b

    @property
    def e(self) -> tuple:
        den = self.F0.den
        return tuple(-p if den == 1 else Fraction(-p, den)
                     for p in self.F0.product_numerators())


def choose_epsilon(model: ResolutionModel, f0: Divisor) -> Fraction:
    """Deterministic choice of the perturbation coefficient epsilon.

    epsilon = (1/2) * min(1/2, min_i (1+b_i)/(a_i+1), 1/c_max), where a_i
    are the exceptional coefficients of F0 and c_max its largest strict
    coefficient (the last term only when c_max > 0).  Halving the minimum
    keeps every required inequality strict.  The terms are compared as
    (numerator, denominator > 0) pairs of ints.
    """
    report = discrepancies(model)
    if not report.log_terminal:
        raise NotLogTerminal(report.offenders, report.b)
    k_f, u, best = relative_canonical(model), model.u, (1, 2)
    d_a, d_b = f0.den, k_f.den  # a_i = alpha_i / d_a, b_i = beta_i / d_b
    for top, bot in [((d_b + beta) * d_a, d_b * (alpha + d_a)) for alpha, beta
                     in zip(f0.num[:u], k_f.num)] + [(d_a, max((0, *f0.num[u:])))]:
        top, bot = (-top, -bot) if bot < 0 else (top, bot)
        if top * best[1] < best[0] * bot:  # a term x/0, x > 0, never wins
            best = (top, bot)
    return Fraction(best[0], 2 * best[1])


def choose_mu(fk, k_h, den, epsilon, a) -> Fraction:
    """Deterministic mu > 0 leaving the perturbed floor unchanged, from the
    ints fk of F + K_g and a of A and the numerators k_h over den of K_h:
    (1/2) * min over curves with alpha = a_k > 0 of (1 - frac(c)) /
    ((1+epsilon) alpha), for c the coefficient of (1+epsilon)(F + K_g) - K_h,
    and 1/2 when no alpha is positive (no exceptional curve, so A = 0).
    The certificate checks verify the floor identity exactly."""
    # with epsilon = p / q, c = top / (q den); the term is h / (q den
    # (1+epsilon) alpha) for h = q den - top % (q den): minimize h / alpha
    p, q = epsilon.numerator, epsilon.denominator
    cden = q * den
    best = (cden * (p + q), q)  # mu = 1/2; every term is less, as h <= cden
    for alpha, x, y in zip(a, fk, k_h):
        if alpha > 0:
            h = cden - ((p + q) * x * den - q * y) % cden
            if h * best[1] < best[0] * alpha:
                best = (h, alpha)
    return Fraction(best[0] * q, 2 * cden * best[1] * (p + q))


def realize(model: ResolutionModel, f0: Divisor) -> RealizationCertificate:
    """Run the full construction and verify every step.

    Raises NotLogTerminal, or what check_ideal_divisor raises, on bad
    inputs; the returned certificate carries the complete check list (all
    of which pass for valid inputs, but every check is recomputed rather
    than trusted).
    """
    prods = check_ideal_divisor(model, f0)
    epsilon = choose_epsilon(model, f0)
    k_f = relative_canonical(model)
    p, q, d_b = epsilon.numerator, epsilon.denominator, k_f.den
    # n_i = floor((1 + b_i) / epsilon - (a_i + 1)), F0 integral, b_i = beta_i / d_b
    n = tuple(((d_b + beta) * q - p * d_b * (alpha + 1)) // (p * d_b)
              for alpha, beta in zip(f0.num[:model.u], k_f.num))

    config = GenericConfiguration.build(model, [-x for x in prods], n)
    f, k_g = config.pullback.apply(f0), config.K_sigma.num
    dual_sum = config.weighted_dual_sum([1] * config.model.u)
    a_div = Divisor._of(config.model, dual_sum.num, 1)  # A.E = -den: dual_sum.E = -1
    # F, K_g and A are integral, K_h = K_g + g*K_f is over d_b
    fk = [x + y for x, y in zip(f.num, k_g)]
    k_h = [x * d_b + y for x, y in zip(k_g, config.pullback.apply(k_f).num)]
    mu = choose_mu(fk, k_h, d_b, epsilon, a_div.num)

    # G = N (F + K_g + mu A), N the denominator of the sum in lowest terms
    m, s = mu.numerator, mu.denominator
    scaled = [x * s + m * y for x, y in zip(fk, a_div.num)]
    c = math.gcd(s, *scaled)
    n_factor, g = s // c, [x // c for x in scaled]
    return verify_certificate(RealizationCertificate(  # F' = F is the claim
        base_model=model, F0=f0, epsilon=epsilon, n=n, config=config, F=f,
        A=a_div, mu=mu, N=n_factor, G=Divisor._of(config.model, g, 1),
        lam=Fraction(p + q, q * n_factor), F_prime=f))


def _first_break(rows) -> str:
    """'label: a vs b' for the first (label, a, b, holds) row with holds false,
    the sides (num, den > 0) pairs compared across; Fractions for that row only."""
    return next(("%s: %s vs %s" % (label, format_rational(Fraction(*a)),
                                   format_rational(Fraction(*b)))
                 for label, a, b, holds in rows
                 if not holds(a[0] * b[1], b[0] * a[1])), "")


def _domination_break(config, base, f, fp, p_fp) -> str:
    """The dual_chain_domination detail, '' if it holds, in closed form:
    with the weights -F'.E_k per copy on E_i and its chains, the weighted
    dual sum minus -(F.E_i) g*E*_i is s_i g*E*_i + v_i, for s_i the summed
    weights plus F.E_i and v_i[m] = sum_k t_k min(m, k) on each chain over
    E_i of weights t.  As E*_i >= 0 and E*_i[i] > 0, it is >= 0 iff s_i >= 0
    and s_i E*_i[i] + v_i >= 0 on those chains; ints, F'.E = p_fp / fp.den."""
    q_f = f.product_numerators()
    over, total = [[] for _ in range(base.u)], p_fp[:base.u]
    for info, start in spans(base.u, config.chains):
        seg = p_fp[start:start + info.length]
        over[info.base].append((info, start, seg))
        total[info.base] += sum(seg)

    def sides(i, k, xn, xd, vn=0, vd=1):  # at curve k, g*E*_i = xn/xd, v_i = vn/vd
        return _first_break([(config.model.labels[k], (-q_f[i] * xn, f.den * xd),
                              (vn * fp.den * xd - total[i] * xn * vd, fp.den * xd * vd), le)])

    for i, dual in enumerate(dual_basis(base)):
        s = q_f[i] * fp.den - total[i] * f.den  # s_i fp.den f.den
        if s < 0:  # first at the first curve E*_i does not vanish on
            j = next(j for j, x in enumerate(dual.num) if x)
            return sides(i, j, dual.num[j], dual.den)
        for info, start, seg in over[i]:
            copies = len(info.points)
            bound, scale = copies * s * dual.num[i], f.den * dual.den
            v, tail = 0, sum(seg)  # -v_i[m] fp.den c = sum of tails 1..m
            for m, p in enumerate(seg, 1):
                v, tail = v + tail, tail - p
                if bound < v * scale:
                    return sides(i, start + m - 1, dual.num[i], dual.den,
                                 -v, fp.den * copies)
    return ""


def verify_certificate(cert: RealizationCertificate) -> RealizationCertificate:
    """Independently recheck a certificate, in order, and return it with
    ``checks`` set.

    Every check recomputes from the certificate's primitive fields; a
    failure names the violated statement and, in its detail, the values
    that broke it.  The analytic checks come first, followed by
    consistency checks that pin the recorded parameters to their
    deterministic selection rules (so that tampering with lambda and N,
    mu and A, the chain lengths or layout, F0, or G is caught; the signs
    of N, mu and the products of A included).  A field not on its model
    (F0 and config on the base model, F, A, G and F' on config's model),
    or a chain of config without points or outside its model (off every
    base curve, without curves, or at points that are not ints >= 1), fails
    every check, naming it.
    """
    config, base = cert.config, cert.base_model
    fits = all(type(i.points) is tuple
               and all(type(x) is int for x in (i.base, i.length, *i.points))
               and 0 <= i.base < base.u and i.length >= 1
               and min(i.points, default=1) >= 1 for i in config.chains)
    fields = [("F0: not on the base model", cert.F0.model, base),
              ("config: not over the base model", config.base_model, base),
              ("config: a chain without points", all(i.points for i in config.chains), True),
              ("config: a chain outside its model", fits, True)]
    fields += [("%s: not on the configuration's model" % name,
                getattr(cert, name).model, config.model)
               for name in ("F", "A", "G", "F_prime")]
    for detail, have, want in fields:
        if have is not want and have != want:  # identity first, as _align
            return cert._replace(checks=tuple(
                CheckResult(check, False, detail) for check in CHECK_NAMES))
    return cert._replace(checks=_run_checks(
        cert, config, cert.F, cert.A, cert.G, cert.F_prime))


def _run_checks(cert, config, f, a_div, g, fp) -> tuple:
    """The 14 checks on ``config``, the certificate's or any layout of its
    chains (one point to a ChainInfo, or many), with F, A, G and F' given
    on it.  A product on a chain standing for c copies reads c times the
    product with one copy.  The floor identities and integral_scaling_rule
    run row by row on ints over one denominator of F, A, G, K_g and g*K_f,
    floors by // and the scalars crossed in as numerator and denominator;
    dual_chain_domination and the epsilon, chain length and lambda rules
    run on ints too.  A detail is made for the first broken row only."""
    checks = []
    model = config.model
    base = cert.base_model
    copies = [1] * base.u
    for info in config.chains:
        copies += [len(info.points)] * info.length

    def check(name, passed, detail):  # detail() runs on failure only
        checks.append(CheckResult(name, bool(passed), "" if passed else detail()))

    def breaks(lhs, rhs, lden=1, rden=1, holds=eq):  # numerators over lden, rden
        return lambda: _first_break(zip(
            model.labels + model.strict_labels, zip(lhs, repeat(lden)),
            zip(rhs, repeat(rden)), repeat(holds)))

    def differ(lhs, rhs, holds=eq):  # divisors, coefficientwise
        return breaks(lhs.num, rhs.num, lhs.den, rhs.den, holds)

    k_g, k_f = config.K_sigma, relative_canonical(base)
    g_k_f = config.pullback.apply(k_f)
    eps, mu, lam, n_f = map(as_rational, (cert.epsilon, cert.mu, cert.lam, cert.N))
    n = tuple(x if type(x) is int else as_rational(x) for x in cert.n)  # int rows: cheaper
    (p, q), (mn, md), (ln, ld), (nn, nd) = (
        (x.numerator, x.denominator) for x in (eps, mu, lam, n_f))

    # per curve: floor((1+epsilon)(F + K_g + mu A) - K_h) and that without
    # mu A, floor(lambda G - K_h), F + floor(epsilon (F + K_g) - g*K_f) over
    # den, and N (F + K_g + mu A) over nd md den
    den = math.lcm(f.den, a_div.den, g.den, g_k_f.den)
    over = [d.num if d.den == den else [x * (den // d.den) for x in d.num]
            for d in (f, a_div, g, k_g, g_k_f)]
    lhs, rhs, candidate, split, expected_g = [], [], [], [], []
    for f_k, a_k, g_k, kg_k, gkf_k in zip(*over):
        fk, kh = f_k + kg_k, kg_k + gkf_k
        s = fk * md + mn * a_k
        lhs.append(((p + q) * s - q * md * kh) // (q * md * den))
        rhs.append(((p + q) * fk - q * kh) // (q * den))
        candidate.append((ln * g_k - ld * kh) // (ld * den))
        split.append(f_k + den * ((p * fk - q * gkf_k) // (q * den)))
        expected_g.append(nn * s)

    # perturbing by mu*A must not move the floor
    check("perturbation_floor_identity", lhs == rhs, breaks(lhs, rhs))
    # floor(lambda G - K_h) = F + floor(epsilon (F + K_g) - g*K_f)
    check("multiplier_floor_split", [x * den for x in candidate] == split,
          breaks(candidate, split, 1, den))

    check("candidate_dominated", fp.less_equal(f), differ(fp, f, le))
    check("pushforward_preserved", fp.strict == f.strict,
          differ(fp.pushforward(), f.pushforward()))

    # F' and F agree with F at the base along the top of every chain
    tops = [(s + i.length - 1, i.base) for i, s in spans(base.u, config.chains)]
    check("chain_top_order_equality",
          all(fp.num[t] * f.den == f.num[t] * fp.den and f.num[t] == f.num[b]
              for t, b in tops),
          lambda: _first_break(
              (model.labels[t], (d.num[t], d.den), (f.num[b], f.den), eq)
              for t, b in tops for d in (fp, f)))

    p_fp = fp.product_numerators()
    domination = _domination_break(config, base, f, fp, p_fp)
    check("dual_chain_domination", not domination, lambda: domination)

    # -F'.E_k per copy, as ints unless F' is not integral
    neg = [-p // c if fp.den == 1 else Fraction(-p, fp.den * c)
           for p, c in zip(p_fp, copies)]
    strict_part = Divisor._of(base, (0,) * base.u + fp.num[model.u:], fp.den)
    pullback_part = config.pullback.apply(numerical_pullback(base, strict_part))
    total = pullback_part + config.weighted_dual_sum(neg)
    check("numerical_decomposition", total == fp, differ(total, fp))

    # F is the pullback of F0, and F' is F
    target = config.pullback.apply(cert.F0)
    check("closure_equals_target", fp == f and f == target,
          lambda: differ(fp, f)() or differ(f, target)())

    # consistency of recorded parameters with the deterministic rules
    recomputed, _ = antinef_closure(Divisor._of(model, candidate, 1))
    check("closure_recomputation", recomputed == fp, differ(recomputed, fp))

    # on ints, epsilon = p / q, a_i = alpha_i / den_a, b_i = beta_i / den_b
    alpha, den_a, beta, den_b = cert.F0.num, cert.F0.den, k_f.num, k_f.den
    rows = [("epsilon", (0, 1), (p, q), lt), ("epsilon", (p, q), (1, 2), lt)]
    rows += [(label, (p * (a_i + den_a), q * den_a), (b_i + den_b, den_b), lt)
             for label, a_i, b_i in zip(base.labels, alpha, beta)]
    rows += [(label, (p * c // (q * den_a), 1), (0, 1), eq)
             for label, c in zip(base.strict_labels, alpha[base.u:])]
    eps_break = _first_break(rows)
    check("epsilon_constraints", not eps_break, lambda: eps_break)

    rows = [("epsilon", (0, 1), (p, q), lt)]
    if p > 0:  # the n_i rows divide by epsilon
        e = p * den_b * den_a  # (b_i + 1) / epsilon - a_i = top / e
        for label, n_i, a_i, b_i in zip(base.labels, n, alpha, beta):
            top = (b_i + den_b) * q * den_a - p * den_b * a_i
            # this row gives n_i < (1+b_i)/eps - a_i, and b_i/eps - a_i <= n_i as eps < 1/2
            rows.append((label, (n_i, 1), (top // e - 1, 1), eq))
    # and the chains are laid out as build lays them out for (e, n)
    chains, counts = cert.config.chains, Counter()
    for info in chains:
        counts[info.base] += len(info.points)
    n_break = _first_break(rows) or _first_break(
        [("n", (len(n), 1), (base.u, 1), eq)]
        + [(label, (counts[i], 1), (e_i if n_i >= 1 else 0, 1), eq)
           for i, (label, n_i, e_i) in enumerate(zip(base.labels, n, cert.e))])
    # so far each E_i has its e_i chains, as counted
    if not n_break and (
            laid := GenericConfiguration.layout(base, counts, n)) != chains:
        per_copy = ([(info.base, pt, info.length, len(info.points))
                     for info in layout for pt in info.points]
                    for layout in (chains, laid))
        n_break = _first_break(
            [("%s(%d,1)" % (base.labels[want[0]], want[1]), (x, 1), (y, 1), eq)
             for have, want in zip(*per_copy) for x, y in zip(have, want)])
    check("chain_length_rule", not n_break, lambda: n_break)

    lam_break = _first_break([("lambda*N", (ln * nn, ld * nd), (p + q, q), eq),
                              ("N", (nn, nd), (1, 1), ge)])
    check("lambda_scaling_rule", not lam_break, lambda: lam_break)
    # with mu > 0 and A.E_k < 0 (same sign per copy) G is antinef, as F + K_g
    p_a = a_div.product_numerators()
    check("integral_scaling_rule",
          [x * nd * md for x in over[2]] == expected_g and g.den == 1
          and mu > 0 and all(p < 0 for p in p_a),
          lambda: breaks(over[2], expected_g, den, nd * md * den)()
          or differ(g, g.floor())() or _first_break(
              [("mu", (mn, md), (0, 1), gt)] + [(label, (p, a_div.den * c), (0, 1), lt)
               for label, p, c in zip(model.labels, p_a, copies)]))
    fk = f + k_g
    check("pullback_plus_canonical_antinef", is_antinef(fk), lambda: _first_break(
        (label, (p, fk.den * c), (0, 1), le) for label, p, c in
        zip(model.labels, fk.product_numerators(), copies)))

    return tuple(checks)
