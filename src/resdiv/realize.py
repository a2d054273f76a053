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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .antinef import NonIntegralInput, antinef_closure, is_antinef
from .blowup import GenericConfiguration
from .canonical import (NonPositiveLambda, NotAntinef, NotEffective,
                        NotLogTerminal, discrepancies, relative_canonical)
from .divisor import Divisor
from .lattice import dual_basis, numerical_pullback
from .model import ResolutionModel

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DecompositionWitness:
    """The three summands reconstructing F' numerically."""

    pullback_part: Divisor
    base_dual_part: Divisor
    chain_dual_part: Divisor

    def total(self) -> Divisor:
        return self.pullback_part + self.base_dual_part + self.chain_dual_part


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    witness: DecompositionWitness = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c.name
        return None


@dataclass(frozen=True)
class RealizationCertificate:
    base_model: ResolutionModel
    F0: Divisor
    epsilon: Fraction
    a: tuple          # exceptional coefficients of F0
    b: tuple          # discrepancies of the base model
    e: tuple          # e_i = -F0.E_i
    n: tuple          # chain lengths
    config: GenericConfiguration
    F: Divisor        # pullback of F0 to the blown model
    A: Divisor        # effective integral divisor, -A relatively ample
    mu: Fraction
    N: int
    G: Divisor
    lam: Fraction
    F_prime: Divisor
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)


def choose_epsilon(model: ResolutionModel, f0: Divisor) -> Fraction:
    """Deterministic choice of the perturbation coefficient epsilon.

    epsilon = (1/2) * min(1/2, min_i (1+b_i)/(a_i+1), 1/c_max), where a_i
    are the exceptional coefficients of F0 and c_max its largest strict
    coefficient (the last term only when c_max > 0).  Halving the minimum
    keeps every required inequality strict.
    """
    report = discrepancies(model)
    if not report.log_terminal:
        raise NotLogTerminal(report.offenders, report.b)
    candidates = [Fraction(1, 2)]
    for a_i, b_i in zip(f0.exc, report.b):
        candidates.append((1 + b_i) / (a_i + 1))
    c_max = max(f0.strict, default=_ZERO)
    if c_max > 0:
        candidates.append(1 / c_max)
    return min(candidates) / 2


def build_ample_negative(model: ResolutionModel, dual_sum: Divisor = None) -> Divisor:
    """Effective integral divisor A with A.E = -d < 0 for every curve.

    A is the dual-basis sum with denominators cleared; by duality its
    product with every exceptional curve is minus the clearing factor.
    ``dual_sum`` may be supplied when the caller already knows the sum of
    the dual basis (the chain configurations compute it in closed form).
    """
    if dual_sum is None:
        total = Divisor.zero(model)
        for v in dual_basis(model):
            total = total + v
        dual_sum = total
    d = math.lcm(*[c.denominator for c in dual_sum.exc]) if dual_sum.exc else 1
    return dual_sum.scale(d)


def choose_mu(model: ResolutionModel, f, k_g, k_h, epsilon, a_div) -> Fraction:
    """Deterministic mu > 0 leaving the perturbed floor unchanged.

    mu = (1/2) * min over curves with A-coefficient alpha > 0 of
    (1 - frac(c)) / ((1+epsilon) * alpha), where c is the coefficient of
    (1+epsilon)(F + K_g) - K_h along the curve.  The resulting floor
    identity is verified exactly by the certificate checks, never assumed.
    """
    base = (f + k_g).scale(1 + epsilon) - k_h
    best = None
    for alpha, c in zip(a_div.exc, base.exc):
        if alpha > 0:
            headroom = 1 - (c - math.floor(c))
            term = headroom / ((1 + epsilon) * alpha)
            if best is None or term < best:
                best = term
    if best is None:
        raise ValueError("A has no positive coefficient")
    return best / 2


def _validate_input(model, f0):
    if f0.model is not model and f0.model != model:
        raise NotEffective("divisor does not live on the given model")
    if not f0.is_integral():
        raise NonIntegralInput("input divisor must be integral")
    if not f0.is_effective():
        raise NotEffective("input divisor must be effective")
    prods = f0.products()
    bad = next((i for i, p in enumerate(prods) if p > 0), None)
    if bad is not None:
        raise NotAntinef("input divisor has positive product with curve %d" % bad)
    return prods


def realize(model: ResolutionModel, f0: Divisor) -> RealizationCertificate:
    """Run the full construction and verify every step.

    Raises NotLogTerminal / NotAntinef / NotEffective on bad inputs; the
    returned certificate carries the complete check list (all of which
    pass for valid inputs, but every check is recomputed rather than
    trusted).
    """
    prods = _validate_input(model, f0)
    epsilon = choose_epsilon(model, f0)
    a = f0.exc
    b = discrepancies(model).b
    e = tuple(int(-p) for p in prods)
    n = tuple(int(math.floor((1 + b_i) / epsilon - (a_i + 1)))
              for a_i, b_i in zip(a, b))

    config = GenericConfiguration.build(model, e, n)
    f = config.pullback.apply(f0)
    k_g = config.K_sigma
    if not is_antinef(f + k_g):
        raise AssertionError("internal error: F + K_g is not antinef")

    k_f = relative_canonical(model)
    k_h = k_g + config.pullback.apply(k_f)

    a_div = build_ample_negative(
        config.model, dual_sum=config.weighted_dual_sum([1] * config.model.u))
    mu = choose_mu(config.model, f, k_g, k_h, epsilon, a_div)

    scaled = f + k_g + a_div.scale(mu)
    denoms = [c.denominator for c in scaled.exc] + [c.denominator for c in scaled.strict]
    n_factor = math.lcm(*denoms) if denoms else 1
    g_div = scaled.scale(n_factor)
    lam = (1 + epsilon) / n_factor

    candidate = (g_div.scale(lam) - k_h).floor()
    f_prime, _trace = antinef_closure(candidate)

    cert = RealizationCertificate(
        base_model=model, F0=f0, epsilon=epsilon, a=a, b=b, e=e, n=n,
        config=config, F=f, A=a_div, mu=mu, N=n_factor, G=g_div, lam=lam,
        F_prime=f_prime)
    verification = verify_certificate(cert)
    return dataclasses.replace(cert, checks=verification.checks)


def verify_certificate(cert: RealizationCertificate) -> VerificationReport:
    """Independently recheck a certificate, in order.

    Every check recomputes from the certificate's primitive fields; a
    failure names the violated statement.  The analytic checks come
    first, followed by consistency checks that pin the recorded
    parameters to their deterministic selection rules (so that any
    tampering with lambda, the chain lengths, or G is always caught).
    """
    checks = []

    def check(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    config = cert.config
    model = config.model
    f, k_g = cert.F, config.K_sigma
    k_f = relative_canonical(cert.base_model)
    g_k_f = config.pullback.apply(k_f)
    k_h = k_g + g_k_f
    one_eps = 1 + cert.epsilon

    # perturbing by mu*A must not move the floor
    lhs = ((f + k_g + cert.A.scale(cert.mu)).scale(one_eps) - k_h).floor()
    rhs = ((f + k_g).scale(one_eps) - k_h).floor()
    check("perturbation_floor_identity", lhs == rhs)

    # floor(lambda G - K_h) = F + floor(epsilon (F + K_g) - g*K_f)
    candidate = (cert.G.scale(cert.lam) - k_h).floor()
    split = f + ((f + k_g).scale(cert.epsilon) - g_k_f).floor()
    check("multiplier_floor_split", candidate == split)

    check("candidate_dominated", cert.F_prime.less_equal(f))
    check("pushforward_preserved", cert.F_prime.strict == f.strict)

    ord_ok = True
    for info in config.chains:
        top = info.start + info.length - 1
        if not (cert.F_prime.exc[top] == f.exc[top] == f.exc[info.base]):
            ord_ok = False
            break
    check("chain_top_order_equality", ord_ok)

    fp_prods = cert.F_prime.products()
    f_prods = f.products()
    duals_base = dual_basis(cert.base_model)
    domination_ok = True
    for i in range(cert.base_model.u):
        weights = [_ZERO] * model.u
        weights[i] = -fp_prods[i]
        for info in config.chains_over(i):
            for m in range(info.length):
                weights[info.start + m] = -fp_prods[info.start + m]
        lhs_div = config.weighted_dual_sum(weights)
        rhs_div = config.pullback.apply(duals_base[i]).scale(-f_prods[i])
        if not rhs_div.less_equal(lhs_div):
            domination_ok = False
            break
    check("dual_chain_domination", domination_ok)

    strict_part = Divisor(cert.base_model, (_ZERO,) * cert.base_model.u,
                          cert.F_prime.strict)
    pullback_part = config.pullback.apply(
        numerical_pullback(cert.base_model, strict_part))
    base_weights = list(map(lambda p: -p, fp_prods[:cert.base_model.u])) + \
        [_ZERO] * (model.u - cert.base_model.u)
    chain_weights = [_ZERO] * cert.base_model.u + \
        [-p for p in fp_prods[cert.base_model.u:]]
    base_dual_part = config.weighted_dual_sum(base_weights)
    chain_dual_part = config.weighted_dual_sum(chain_weights)
    witness = DecompositionWitness(pullback_part, base_dual_part,
                                   chain_dual_part)
    check("numerical_decomposition", witness.total() == cert.F_prime)

    check("closure_equals_target", cert.F_prime == f)

    # consistency of recorded parameters with the deterministic rules
    recomputed, _ = antinef_closure(candidate)
    check("closure_recomputation", recomputed == cert.F_prime)

    eps_ok = (0 < cert.epsilon < Fraction(1, 2)
              and all(cert.epsilon * (a_i + 1) < 1 + b_i
                      for a_i, b_i in zip(cert.a, cert.b))
              and all(math.floor(cert.epsilon * c) == 0 for c in cert.F0.strict))
    check("epsilon_constraints", eps_ok)

    n_ok = all(
        n_i == math.floor((1 + b_i) / cert.epsilon - (a_i + 1))
        and (n_i < 1 or (b_i / cert.epsilon - a_i <= n_i
                         < (b_i + 1) / cert.epsilon - a_i))
        for n_i, a_i, b_i in zip(cert.n, cert.a, cert.b))
    check("chain_length_rule", n_ok)

    check("lambda_scaling_rule", cert.lam * cert.N == one_eps)
    check("integral_scaling_rule",
          cert.G == (f + k_g + cert.A.scale(cert.mu)).scale(cert.N)
          and cert.G.is_integral())
    check("pullback_plus_canonical_antinef", is_antinef(f + k_g))

    return VerificationReport(checks=tuple(checks), witness=witness)
