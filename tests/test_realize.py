import dataclasses
import random
from fractions import Fraction

import pytest

import resdiv as r
from conftest import random_antinef


def a1():
    return r.build_model([("E1", 0, -2)])


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


CHECK_NAMES = (
    "perturbation_floor_identity", "multiplier_floor_split",
    "candidate_dominated", "pushforward_preserved",
    "chain_top_order_equality", "dual_chain_domination",
    "numerical_decomposition", "closure_equals_target",
    "closure_recomputation", "epsilon_constraints", "chain_length_rule",
    "lambda_scaling_rule", "integral_scaling_rule",
    "pullback_plus_canonical_antinef",
)


# -- a fully worked single-curve case -------------------------------------------

def test_single_curve_certificate_values():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    assert cert.epsilon == Fraction(1, 4)
    assert cert.e == (2,)
    assert cert.n == (2,)
    assert cert.config.model.u == 5
    assert cert.A.exc == tuple(map(Fraction, (5, 9, 11, 9, 11)))
    assert cert.mu == Fraction(1, 110)
    assert cert.N == 110
    assert cert.lam == Fraction(1, 88)
    assert cert.G.is_integral()
    assert cert.F_prime == cert.F
    assert cert.passed
    assert tuple(c.name for c in cert.checks) == CHECK_NAMES


def test_certificate_matches_multiplier_divisor():
    model = a2()
    f0 = r.Divisor.from_coeffs(model, exc=[2, 2])
    cert = r.realize(model, f0)
    direct = r.multiplier_divisor(cert.config.model, cert.G, cert.lam)
    assert direct == cert.F
    assert cert.F_prime.pushforward().strict == f0.strict


def test_zero_divisor_realizes_trivially():
    model = a2()
    cert = r.realize(model, r.Divisor.zero(model))
    assert cert.passed
    assert cert.F_prime.is_zero()


# -- verification over the corpus -------------------------------------------------

def test_realize_on_random_corpus_divisors(log_terminal_models):
    rng = random.Random(19)
    for name, model in log_terminal_models.items():
        for _ in range(3):
            f0 = random_antinef(model, rng, hi=5)
            cert = r.realize(model, f0)
            assert cert.passed, (name, cert)
            report = r.verify_certificate(cert)
            assert report.passed and report.first_failure is None
            assert report.witness.total() == cert.F_prime


def test_scaling_invariance_of_the_pair():
    """Doubling N while halving lambda leaves every check satisfied."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    scaled = dataclasses.replace(cert, N=2 * cert.N, G=cert.G.scale(2),
                                 lam=cert.lam / 2, checks=())
    report = r.verify_certificate(scaled)
    assert report.passed


# -- deterministic selection rules -------------------------------------------------

def test_epsilon_rule_on_strict_coefficients():
    model = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    f0 = r.Divisor.from_coeffs(model, exc={"E1": 2}, strict={"C": 3})
    closed, _ = r.antinef_closure(f0)
    eps = r.choose_epsilon(model, closed)
    assert 0 < eps
    assert eps <= Fraction(1, 6)  # bounded by (1/2) * 1/c_max


def test_ample_negative_products():
    model = a2()
    a_div = r.build_ample_negative(model)
    assert a_div.is_integral() and a_div.is_effective()
    prods = a_div.products()
    assert len(set(prods)) == 1 and prods[0] < 0


def test_mu_keeps_floor_unmoved():
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[3, 2]))
    by_name = {c.name: c for c in cert.checks}
    assert by_name["perturbation_floor_identity"].passed
    assert cert.mu > 0


def test_chains_only_where_products_negative():
    model = a2()
    # F0 = dual of E1 scaled to integrality: product zero with E2
    f0 = r.dual_basis(model)[0].scale(3)
    assert f0.is_integral()
    cert = r.realize(model, f0)
    assert cert.e == (3, 0)
    assert all(info.base == 0 for info in cert.config.chains)
    assert cert.passed


# -- fault injection ----------------------------------------------------------------

def _first_failing(cert):
    return r.verify_certificate(cert).first_failure


def test_tampered_lambda_detected():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    bad = dataclasses.replace(cert, lam=cert.lam * 2, checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "lambda_scaling_rule" in [c.name for c in report.checks
                                     if not c.passed]


def test_tampered_chain_length_detected():
    """Rebuild the whole pipeline with chains one curve too short: the
    analytic checks may still pass, but the length rule pins it down."""
    import math

    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    short = tuple(v - 1 for v in cert.n)
    config = r.GenericConfiguration.build(model, cert.e, short)
    f = config.pullback.apply(cert.F0)
    k_g = config.K_sigma
    k_h = k_g + config.pullback.apply(r.relative_canonical(model))
    a_div = r.build_ample_negative(
        config.model, dual_sum=config.weighted_dual_sum([1] * config.model.u))
    mu = r.choose_mu(config.model, f, k_g, k_h, cert.epsilon, a_div)
    scaled = f + k_g + a_div.scale(mu)
    n_factor = math.lcm(*[c.denominator for c in scaled.exc])
    g_div = scaled.scale(n_factor)
    lam = (1 + cert.epsilon) / n_factor
    f_prime, _ = r.antinef_closure((g_div.scale(lam) - k_h).floor())
    bad = dataclasses.replace(
        cert, n=short, config=config, F=f, A=a_div, mu=mu, N=n_factor,
        G=g_div, lam=lam, F_prime=f_prime, checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "chain_length_rule" in [c.name for c in report.checks
                                   if not c.passed]


def test_tampered_result_detected():
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    bad = dataclasses.replace(cert, F_prime=cert.F_prime + cert.F,
                              checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert report.first_failure in ("candidate_dominated",
                                    "closure_recomputation")


def test_tampered_epsilon_detected():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    bad = dataclasses.replace(cert, epsilon=Fraction(3, 4), checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "epsilon_constraints" in [c.name for c in report.checks
                                     if not c.passed]


# -- input validation -----------------------------------------------------------------

def test_realize_rejects_bad_inputs():
    model = a2()
    with pytest.raises(r.NotAntinef):
        r.realize(model, r.Divisor.curve(model, 0))
    with pytest.raises(r.NotEffective):
        r.realize(model, r.Divisor.from_coeffs(model, exc=[-1, -1]))
    with pytest.raises(r.NonIntegralInput):
        r.realize(model, r.Divisor.from_coeffs(
            model, exc=[Fraction(1, 2), Fraction(1, 2)]))


def test_realize_rejects_non_log_terminal(corpus_models):
    model = corpus_models["elliptic_minus2"]
    with pytest.raises(r.NotLogTerminal) as info:
        r.realize(model, r.Divisor.zero(model))
    assert info.value.offenders == (0,)
