import copy
import functools
import pickle
import random
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

import resdiv as r
from conftest import (LOG_TERMINAL_NAMES, e8_twice_z, first_failure,
                      load_doc, random_antinef)
from oracles import (chain_lengths_by_fractions, chain_spans,
                     choose_epsilon_by_fractions, closure_with_rule,
                     divisor_chain_details, dual_chain_domination_detail,
                     epsilon_and_chain_length_details, expand,
                     expand_by_labels, random_log_terminal_model, ungroup)
from resdiv.cli import _certificate_report, random_antinef_divisor
from resdiv.realize import _domination_break, _run_checks


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
    assert ungroup(cert.config).model.u == 5
    assert cert.A.exc == tuple(map(Fraction, (5, 9, 11)))  # one chain class
    assert expand(cert.config, cert.A).exc == tuple(
        map(Fraction, (5, 9, 11, 9, 11)))
    assert cert.mu == Fraction(1, 110)
    assert cert.N == 110
    assert cert.lam == Fraction(1, 88)
    assert cert.G.is_integral()
    assert cert.passed
    assert r.multiplier_divisor(ungroup(cert.config).model, expand(
        cert.config, cert.G), cert.lam) == expand(cert.config, cert.F)
    assert tuple(c.name for c in cert.checks) == CHECK_NAMES


def test_certificate_matches_multiplier_divisor():
    model = a2()
    f0 = r.Divisor.from_coeffs(model, exc=[2, 2])
    cert = r.realize(model, f0)
    config = cert.config
    full = ungroup(config).model
    assert full.u > config.model.u
    direct = r.multiplier_divisor(full, expand(config, cert.G), cert.lam)
    assert direct == expand(config, cert.F)
    assert cert.F_prime.pushforward().strict == f0.strict


def test_zero_divisor_realizes_trivially():
    model = a2()
    cert = r.realize(model, r.Divisor.zero(model))
    assert cert.passed
    full = ungroup(cert.config).model
    assert r.multiplier_divisor(full, expand(cert.config, cert.G),
                                cert.lam) == r.Divisor.zero(full)


@pytest.mark.parametrize("strict", [{}, {"C": 2}])
def test_model_without_exceptional_curves_realizes(strict):
    """With no exceptional curve A = 0, and mu is 1/2 by its rule."""
    model = r.build_model([], strict=[("C", {})])
    f0 = r.Divisor.from_coeffs(model, exc=[], strict=strict)
    cert = r.realize(model, f0)
    assert cert.passed
    assert (cert.mu, cert.N, cert.lam) == (Fraction(1, 2), 1, Fraction(5, 4))
    assert cert.F.strict == f0.strict
    full = ungroup(cert.config).model
    assert r.multiplier_divisor(full, expand(cert.config, cert.G),
                                cert.lam) == expand(cert.config, cert.F)


# -- verification over the corpus -------------------------------------------------

def test_realize_on_random_corpus_divisors(log_terminal_models):
    rng = random.Random(19)
    for name, model in log_terminal_models.items():
        for _ in range(3):
            f0 = random_antinef(model, rng, hi=5)
            cert = r.realize(model, f0)
            assert cert.passed, (name, cert)
            report = r.verify_certificate(cert)
            assert report.passed and first_failure(report) is None


def test_scaling_invariance_of_the_pair():
    """Doubling N while halving lambda leaves every check satisfied."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    scaled = cert._replace(N=2 * cert.N, G=cert.G.scale(2),
                           lam=cert.lam / 2, checks=())
    report = r.verify_certificate(scaled)
    assert report.passed


def test_integral_scaling_rule_reads_the_denominator_of_n():
    """On a1, F0 = 0 gives N = 5 and G = 2 E1: halving both (N = 5/2, G
    integral) keeps integral_scaling_rule, which compares G nd with N's
    numerator times the sum; only lambda N moves, until lambda doubles."""
    model = a1()
    cert = r.realize(model, r.Divisor.zero(model))
    assert (cert.N, cert.G.num) == (5, (2,))
    for lam, failed in ((cert.lam, ["lambda_scaling_rule"]), (2 * cert.lam, [])):
        halved = cert._replace(N=Fraction(5, 2), G=cert.G.scale(
            Fraction(1, 2)), lam=lam, checks=())
        assert [c.name for c in r.verify_certificate(halved).checks
                if not c.passed] == failed


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
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[3, 2]))
    a_div = expand(cert.config, cert.A)
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

def test_tampered_lambda_detected():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    bad = cert._replace(lam=cert.lam * 2, checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "lambda_scaling_rule" in [c.name for c in report.checks
                                     if not c.passed]


def test_tampered_chain_length_detected(monkeypatch):
    """Run the whole pipeline with chains one curve too short: the
    analytic checks may still pass, but the length rule pins it down."""
    model = a1()
    build = r.GenericConfiguration.build
    monkeypatch.setattr(r.GenericConfiguration, "build", lambda base, e, n: build(
        base, e, tuple(v - 1 for v in n)))
    cert = r.realize(model, r.Divisor.curve(model, 0))
    bad = cert._replace(n=tuple(v - 1 for v in cert.n), checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "chain_length_rule" in [c.name for c in report.checks
                                   if not c.passed]


def test_tampered_result_detected():
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    bad = cert._replace(F_prime=cert.F_prime + cert.F,
                        checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert first_failure(report) in ("candidate_dominated",
                                     "closure_recomputation")


def test_tampered_epsilon_detected():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    bad = cert._replace(epsilon=Fraction(3, 4), checks=())
    report = r.verify_certificate(bad)
    assert not report.passed
    assert "epsilon_constraints" in [c.name for c in report.checks
                                     if not c.passed]


@pytest.mark.parametrize("field, value", (
    ("epsilon", 1 / 6), ("epsilon", "1/6"), ("n", (3.0, 3.0)), ("n", (3.5, 3.5))))
def test_inexact_epsilon_or_chain_lengths_raise_not_rational(field, value):
    """epsilon and n are exact rationals, as mu, lambda and N are: on a2
    with F0 = 2E1 + 2E2 (epsilon 1/6, n = (3, 3)) a float or a string
    raises NotRational, a float equal to the rule included."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[2, 2]))
    assert (cert.epsilon, cert.n) == (Fraction(1, 6), (3, 3))
    same = cert._replace(n=(Fraction(3), Fraction(3)), checks=())
    assert r.verify_certificate(same).checks == cert.checks
    with pytest.raises(r.NotRational):
        r.verify_certificate(cert._replace(**{field: value}, checks=()))


# -- the certificate is bound to F0 -------------------------------------------------

BOUND_GRAPHS = ("a2", "cyclic23", "d4", "e8")


def _closure_of_sum(model):
    """The antinef closure of the sum of the exceptional curves."""
    closed, _ = r.antinef_closure(r.Divisor.from_coeffs(model, exc=[1] * model.u))
    return closed


@pytest.mark.parametrize("name", BOUND_GRAPHS)
def test_doubled_f0_is_not_realized_by_the_certificate(name):
    """a and e come from F0, so the chain lengths and F no longer match."""
    model = load_doc(name).model
    cert = r.realize(model, _closure_of_sum(model))
    assert cert.passed
    failed = _details(cert._replace(F0=cert.F0.scale(2), checks=()))
    assert {"chain_length_rule", "closure_equals_target"} <= set(failed)
    f = cert.F.exc[0]
    assert failed["closure_equals_target"] == "%s: %s vs %s" % (
        model.labels[0], r.format_rational(f), r.format_rational(2 * f))


def _relaid(cert, chains):
    """``cert`` on the configuration of ``chains``, with F, A, G and F'
    carried onto its model: the base and strict coefficients kept, and each
    chain given those of the certificate's chain over its base curve."""
    config, u = r.GenericConfiguration(cert.base_model, chains), cert.base_model.u
    old = {info.base: span.start for info, span in chain_spans(cert.config)}

    def carry(d):
        num = list(d.num[:u])
        for info in config.chains:
            num += d.num[old[info.base]:old[info.base] + info.length]
        return r.Divisor._of(config.model, num + list(d.num[cert.config.model.u:]),
                             d.den)

    return cert._replace(config=config, checks=(), **{
        name: carry(getattr(cert, name)) for name in ("F", "A", "G", "F_prime")})


@pytest.mark.parametrize("name", BOUND_GRAPHS)
@pytest.mark.parametrize("k", (1, 3))
def test_config_missing_its_last_chain_fails_the_chain_rule(name, k):
    """Drop the last chain, with all its copies, from the configuration: the
    model shrinks with it, so F, A, G and F' left on the old model fail
    every check, naming F; carried onto the new model, the chain count
    names the curve."""
    model = load_doc(name).model
    cert = r.realize(model, _closure_of_sum(model).scale(k))
    chains = cert.config.chains
    short = r.GenericConfiguration(model, chains[:-1])
    _all_fail_with(cert._replace(config=short, checks=()),
                   "F: not on the configuration's model")
    report = r.verify_certificate(_relaid(cert, chains[:-1]))
    assert not report.passed
    last = chains[-1].base
    detail = {c.name: c.detail for c in report.checks}["chain_length_rule"]
    assert detail == "%s: 0 vs %d" % (model.labels[last], cert.e[last])


def test_config_with_renumbered_chains_fails_the_chain_rule():
    """Renumbering the points of a chain, or splitting its copies into two
    chains, with F, A, G and F' carried onto the new model, names the first
    copy that differs in the layout; dropping the chain names the count, and
    with the divisors left on the old model, F."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    (info,) = cert.config.chains
    assert info.points == (1, 2, 3)

    def laid_out(*chains):
        return _relaid(cert, chains)

    assert _details(laid_out(info._replace(points=(1, 3, 2)))) == {
        "chain_length_rule": "E1(2,1): 3 vs 2"}
    assert _details(laid_out(info._replace(points=(3, 2, 1)))) == {
        "chain_length_rule": "E1(1,1): 3 vs 1"}
    split = laid_out(info._replace(points=(1,)),
                     info._replace(points=(2, 3)))
    assert _details(split)["chain_length_rule"] == "E1(1,1): 1 vs 3"
    assert _details(laid_out())["chain_length_rule"] == "E1: 0 vs 3"
    _all_fail_with(cert._replace(checks=(), config=(
        r.GenericConfiguration(model, ()))), "F: not on the configuration's model")


def test_moved_points_with_divisors_on_the_old_model_fail_every_check():
    """The layout keeps its size, but the configuration's model is another:
    F, A, G and F' left on the old one fail every check, naming F."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    (info,) = cert.config.chains
    moved = (info._replace(points=(2, 3, 4)),)
    assert r.GenericConfiguration(model, moved).model.u == cert.config.model.u
    _all_fail_with(cert._replace(checks=(), config=(
        r.GenericConfiguration(model, moved))), "F: not on the configuration's model")


def test_recorded_chain_lengths_cover_every_curve():
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    failed = _details(cert._replace(n=cert.n[:-1], checks=()))
    assert failed == {"chain_length_rule": "n: 1 vs 2"}


def _all_fail_with(cert, detail):
    checks = r.verify_certificate(cert).checks
    assert [c.name for c in checks] == list(CHECK_NAMES)
    assert all(not c.passed and c.detail == detail for c in checks)


def test_config_on_another_blown_model_fails_every_check():
    """F, A, G and F' stay on the old blown model; the checks end in a
    report that names F, not in ModelMismatch."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    e = (cert.e[0] + 1,) + cert.e[1:]
    moved = r.GenericConfiguration.build(model, e, cert.n)
    _all_fail_with(cert._replace(config=moved, checks=()),
                   "F: not on the configuration's model")


def test_f0_on_another_model_fails_every_check():
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    foreign = r.Divisor.from_coeffs(a1(), exc=[1])
    _all_fail_with(cert._replace(F0=foreign, checks=()),
                   "F0: not on the base model")


@pytest.mark.parametrize("appended", (False, True))
def test_config_with_a_chain_without_points_fails_every_check(appended):
    """A chain with no points, on the certificate's own model, emptied or
    appended, ends in a report naming config (it raised ZeroDivisionError
    from the copy count 0)."""
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    chains = cert.config.chains
    if appended:
        chains += (r.ChainInfo(0, (), 2),)
    else:
        chains = (chains[0]._replace(points=()),) + chains[1:]
    config = r.GenericConfiguration(model, chains)
    _all_fail_with(cert._replace(config=config, checks=()),
                   "config: a chain without points")


@pytest.mark.parametrize("field, value", (
    ("length", 22), ("length", 0), ("length", -1), ("base", 99), ("base", 8),
    ("base", -1), ("points", ("a", "b")), ("points", (0, 1)), ("points", 2),
    ("length", 1)))
def test_config_with_a_chain_outside_its_model_fails_every_check(field, value):
    """e8 with F0 = 2Z has one class of 2 chains over E8, at points 1 and 2,
    on curves 8 to 28 of its 29.  Without curves, hung off no base curve,
    or at points that are not a tuple of ints >= 1, it ends in a report
    naming config (the base 99 raised IndexError, and the points ('a', 'b')
    and 2 TypeError).  Lengthened, or shortened to one curve, it still fits,
    on a model of other size than F's, which names F.  Where a chain's curves sit is not a field:
    it follows from the lengths before it, so no chain can overlap another
    or leave a gap."""
    cert = e8_twice_z()
    (info,) = cert.config.chains
    assert (info.base, info.points, info.length) == (7, (1, 2), 21)
    assert cert.config.model.u == 29
    chains = [info._replace(**{field: value})]
    config = r.GenericConfiguration(cert.base_model, chains)
    _all_fail_with(cert._replace(config=config, checks=()),
                   "F: not on the configuration's model" if field == "length"
                   and value >= 1 else "config: a chain outside its model")


@functools.lru_cache(maxsize=None)
def _chain_pool():
    """Certificates with one chain class or several, of 1 to 3 points."""
    a2_model, d4 = a2(), load_doc("d4").model
    return (e8_twice_z(), r.realize(a2_model, r.dual_basis(a2_model)[0].scale(3)),
            r.realize(d4, _closure_of_sum(d4).scale(2)))


@seed(20081025)
@settings(max_examples=200, deadline=2000)
@given(data=st.data(),
       field=st.sampled_from(("base", "length", "points", "duplicate")))
def test_tampered_chain_fields_end_in_a_report(data, field):
    """A chain's fields set to negatives, out-of-range values or duplicated
    points, or the chain itself repeated: verify_certificate never raises,
    and passes only on the certificate's own layout."""
    pool = _chain_pool()
    cert = pool[data.draw(st.integers(0, len(pool) - 1))]
    chains = list(cert.config.chains)
    k = data.draw(st.integers(0, len(chains) - 1))
    if field == "duplicate":
        chains.insert(data.draw(st.integers(0, len(chains))), chains[k])
    elif field == "points":
        chains[k] = chains[k]._replace(points=tuple(data.draw(
            st.lists(st.integers(-2, 4), min_size=1, max_size=4))))
    else:
        value = data.draw(st.integers(-3, cert.config.model.u + 3))
        chains[k] = chains[k]._replace(**{field: value})
    config = r.GenericConfiguration(cert.base_model, chains)
    checked = r.verify_certificate(cert._replace(config=config,
                                                 checks=()))
    assert tuple(c.name for c in checked.checks) == CHECK_NAMES
    assert checked.passed == (tuple(chains) == cert.config.chains)


SWAPPED_FIELDS = ("config", "F0", "F", "A", "G", "F_prime", "n", "base_model")


@functools.lru_cache(maxsize=None)
def _fuzz_pool():
    """Certificates of seeded divisors on four corpus graphs (one with a
    strict curve), no two with the same F0 on one graph."""
    pool = []
    for name in ("a2", "a2_branch", "cyclic23", "d4"):
        model = load_doc(name).model
        f0s = {random_antinef_divisor(model, "swap:%s:%d" % (name, k))
               for k in range(3)}
        pool += [r.realize(model, f0) for f0 in f0s]
    return tuple(pool)


@seed(20081018)
@settings(max_examples=150, deadline=2000)
@given(data=st.data(), field=st.sampled_from(SWAPPED_FIELDS))
def test_swapping_a_field_between_certificates_ends_in_a_failing_report(
        data, field):
    pool = _fuzz_pool()
    index = st.integers(0, len(pool) - 1)
    a, b = pool[data.draw(index)], pool[data.draw(index)]
    bad = a._replace(**{field: getattr(b, field)}, checks=())
    checked = r.verify_certificate(bad)  # never raises
    assert tuple(c.name for c in checked.checks) == CHECK_NAMES
    # configurations compare by their blown models, which their chains name
    differs = (a.config.model != b.config.model if field == "config"
               else getattr(a, field) != getattr(b, field))
    assert checked.passed == (not differs), (field, first_failure(checked))


def _full_checks(cert, g=None, fp=None):
    """The 14 checks on the blown-up surface, one point to a chain, of the
    certificate's divisors expanded, or of the full-model G or F' given
    instead."""
    config = cert.config
    return _run_checks(cert, ungroup(config), expand(config, cert.F),
                       expand(config, cert.A),
                       expand(config, cert.G) if g is None else g,
                       expand(config, cert.F_prime) if fp is None else fp)


def _shifted(d, data, den):
    """``d`` plus up to four drawn curves, each with a multiple of 1/den
    from -3 to 3."""
    num = [0] * len(d.num)
    for k, v in data.draw(st.lists(st.tuples(
            st.integers(0, len(num) - 1), st.integers(-3, 3)), max_size=4)):
        num[k] += v
    return d + r.Divisor._of(d.model, num, den)


@seed(20081019)
@settings(max_examples=150, deadline=2000)
@given(data=st.data(), grouped=st.booleans(), den=st.sampled_from([1, 1, 2, 3]))
def test_domination_sweep_matches_the_divisor_loop(data, grouped, den):
    """On passing and tampered F and F', integral or not, on the
    certificate's configuration and on the blown-up surface (where a
    tampering may break the symmetry of the copies), the closed-form sweep
    gives the detail of one weighted dual sum per base curve."""
    pool = _fuzz_pool()
    cert = pool[data.draw(st.integers(0, len(pool) - 1))]
    config, f, fp = cert.config, cert.F, cert.F_prime
    if not grouped:
        config, f, fp = ungroup(config), expand(config, f), expand(config, fp)
    fp = _shifted(fp, data, den)
    if data.draw(st.booleans()):
        f = _shifted(f, data, 1)
    assert _domination_break(config, cert.base_model, f, fp,
                             fp.product_numerators()) == \
        dual_chain_domination_detail(config, cert.base_model, f, fp)


@seed(20081020)
@settings(max_examples=150, deadline=2000)
@given(data=st.data(), field=st.sampled_from(["epsilon", "n", "F0"]))
def test_integer_rules_match_the_fraction_rows(data, field):
    """epsilon_constraints and chain_length_rule on ints give the details
    of their rows of Fractions, with epsilon (down to 0 and below), the
    chain lengths or F0 tampered."""
    pool = _fuzz_pool()
    cert = pool[data.draw(st.integers(0, len(pool) - 1))]
    if field == "epsilon":
        value = data.draw(st.one_of(
            st.integers(-2, 8).map(lambda k: cert.epsilon * Fraction(k, 4)),
            st.fractions(-1, 1, max_denominator=24)))
    elif field == "n":
        value = tuple(n_i + data.draw(st.integers(-1, 1)) for n_i in cert.n)
        value = value[:data.draw(st.integers(len(value) - 1, len(value)))]
    else:
        value = _shifted(cert.F0, data, data.draw(st.sampled_from([1, 1, 2])))
    bad = cert._replace(**{field: value}, checks=())
    details = {c.name: c.detail for c in r.verify_certificate(bad).checks}
    assert (details["epsilon_constraints"], details["chain_length_rule"]) == \
        epsilon_and_chain_length_details(bad)


@functools.lru_cache(maxsize=None)
def _int_rows_pool():
    """The fuzz pool and eight certificates of seeded divisors on generated
    log terminal models, each blown-up surface under 400 curves (so that
    the Divisor chains on it stay quick)."""
    rng, pool, made = random.Random(20081021), list(_fuzz_pool()), 0
    while made < 8:
        model = random_log_terminal_model(rng)
        cert = r.realize(model, random_antinef(model, rng, hi=3))
        if model.u + sum(len(info.points) * info.length
                         for info in cert.config.chains) < 400:
            pool.append(cert)
            made += 1
    return tuple(pool)


@seed(20081021)
@settings(max_examples=200, deadline=2000)
@given(data=st.data(), grouped=st.booleans(), field=st.sampled_from(
    ["none", "mu", "lam", "N", "lam_N", "G", "A", "epsilon", "F"]))
def test_int_rows_match_the_divisor_chains(data, grouped, field):
    """The floor identities, the scaling rules and the antinef check of
    F + K_g, run on ints, give the verdicts and details of their chains of
    whole Divisors: on passing certificates and with mu, lambda, N (alone,
    an int or not, or N = 1 with lambda = 1 + epsilon), epsilon, or G, A or
    F shifted on a few curves or scaled (integral or not, negated too), on
    the configuration and on the blown-up surface (where a tampering may
    break the symmetry of the copies)."""
    pool = _int_rows_pool()
    cert = pool[data.draw(st.integers(0, len(pool) - 1))]
    factor = st.one_of(st.integers(-2, 8).map(lambda k: Fraction(k, 4)),
                       st.fractions(-1, 2, max_denominator=24))
    change = {}
    if field in ("mu", "lam", "epsilon"):
        change[field] = getattr(cert, field) * data.draw(factor)
    elif field == "N":
        change["N"] = data.draw(st.one_of(st.integers(-2, 3),
                                          st.fractions(-2, 3, max_denominator=4)))
    elif field == "lam_N":
        change.update(N=1, lam=1 + cert.epsilon)
    bad = cert._replace(**change, checks=())
    config, divisors = bad.config, [bad.F, bad.A, bad.G, bad.F_prime]
    if not grouped:
        config, divisors = ungroup(config), [expand(config, d) for d in divisors]
    if field in ("F", "A", "G"):
        k = "FAG".index(field)
        divisors[k] = (_shifted(divisors[k], data,
                                data.draw(st.sampled_from([1, 1, 2, 3])))
                       if data.draw(st.booleans())
                       else divisors[k].scale(data.draw(factor)))
    want = divisor_chain_details(bad, config, *divisors[:3])
    got = {c.name: (c.passed, c.detail)
           for c in _run_checks(bad, config, *divisors) if c.name in want}
    assert got == {name: (not detail, detail) for name, detail in want.items()}


@seed(20081022)
@settings(max_examples=150, deadline=2000)
@given(data=st.data())
def test_epsilon_and_chain_lengths_match_the_fraction_formulas(data):
    """realize's epsilon and n are the Fraction formulas; choose_epsilon on
    ints is its formula on any divisor with a_i != -1 as well: integral or
    not, with strict coefficients, and a_i < -1 (a negative term)."""
    pool = _int_rows_pool()
    cert = pool[data.draw(st.integers(0, len(pool) - 1))]
    model = cert.base_model
    assert cert.epsilon == choose_epsilon_by_fractions(model, cert.F0)
    assert cert.n == chain_lengths_by_fractions(model, cert.F0, cert.epsilon)
    coeff = st.fractions(-3, 12, max_denominator=6).filter(lambda x: x != -1)
    f0 = r.Divisor(model, data.draw(st.lists(coeff, min_size=model.u,
                                             max_size=model.u)),
                   data.draw(st.lists(coeff, min_size=len(model.strict_curves),
                                      max_size=len(model.strict_curves))))
    assert r.choose_epsilon(model, f0) == choose_epsilon_by_fractions(model, f0)


def test_derived_fields_follow_f0():
    model = load_doc("cyclic23").model
    cert = r.realize(model, _closure_of_sum(model))
    assert cert.a == cert.F0.exc
    assert cert.b == r.discrepancies(model).b
    assert cert.e == tuple(-p for p in cert.F0.products())
    assert all(type(v) is int for v in cert.e)
    assert not {"a", "b", "e"} & set(cert._fields)


# -- input validation -----------------------------------------------------------------

def test_realize_rejects_bad_inputs():
    model = a2()
    with pytest.raises(r.NotAntinef, match="product 1 with curve 'E2'"):
        r.realize(model, r.Divisor.curve(model, 0))
    # the model is checked first; this used to be reported as NotEffective
    with pytest.raises(r.ModelMismatch):
        r.realize(model, r.Divisor.from_coeffs(a1(), exc=[-1]))
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


# -- failure details --------------------------------------------------------------------

def _details(cert):
    return {c.name: c.detail for c in r.verify_certificate(cert).checks
            if not c.passed}


def test_tampered_scalars_name_the_values():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    lam = _details(cert._replace(lam=cert.lam * 2, checks=()))
    assert lam["lambda_scaling_rule"] == "lambda*N: 5/2 vs 5/4"
    eps = _details(cert._replace(epsilon=Fraction(3, 4),
                                 checks=()))
    assert eps["epsilon_constraints"] == "epsilon: 3/4 vs 1/2"
    assert eps["chain_length_rule"] == "E1: 2 vs -1"


def test_zero_epsilon_fails_the_checks_without_dividing():
    """The chain length rule divides by epsilon; a zero epsilon ends in
    all 14 checks, the two that read it naming it."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    bad = r.verify_certificate(cert._replace(epsilon=Fraction(0),
                                             checks=()))
    assert [c.name for c in bad.checks] == list(CHECK_NAMES)
    failed = {c.name: c.detail for c in bad.checks if not c.passed}
    assert failed["epsilon_constraints"] == "epsilon: 0 vs 0"
    assert failed["chain_length_rule"] == "epsilon: 0 vs 0"


def test_epsilon_one_half_breaks_the_strict_bound():
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    assert _details(cert._replace(epsilon=Fraction(1, 2), checks=())) == {
        "multiplier_floor_split": "E1(1,1): 1 vs 2",
        "epsilon_constraints": "epsilon: 1/2 vs 1/2",
        "chain_length_rule": "E1: 2 vs 0",
        "lambda_scaling_rule": "lambda*N: 5/4 vs 3/2"}


@pytest.mark.parametrize("epsilon, n, detail", (
    (Fraction(2, 5), (0,), "E1: 2 vs 0"), (Fraction(3, 10), (1,), "E1(1,1): 2 vs 1")))
def test_epsilon_in_bounds_with_n_to_match_reaches_the_chain_rows(epsilon, n,
                                                                   detail):
    """On a1 with F0 = E1 (e = 2, chosen epsilon 1/4, n = 2), another
    epsilon within its bounds, with n recomputed from it, passes
    epsilon_constraints and the n_i row: n_1 = 0 wants no chain over E1,
    and n_1 = 1 two chains of one curve each."""
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    assert n == chain_lengths_by_fractions(model, cert.F0, epsilon)
    bad = cert._replace(epsilon=epsilon, n=n, checks=())
    details = _details(bad)
    assert "epsilon_constraints" not in details
    assert details["chain_length_rule"] == detail
    assert epsilon_and_chain_length_details(bad) == ("", detail)


def test_f_and_f_prime_over_three_keep_the_tops_and_the_domination():
    """F and F' both divided by 3 (so over the denominator 3) still agree
    along the chain tops, and the closed-form domination sweep gives the
    detail of the weighted dual sums: '' there, and a break on the first
    chain curve once F' is lowered by 1/3 on it."""
    for cert in _chain_pool():
        f, fp = (d.scale(Fraction(1, 3)) for d in (cert.F, cert.F_prime))
        assert f.den == fp.den == 3
        first = r.Divisor.curve(cert.config.model, cert.base_model.u)
        for g in (fp, fp - first.scale(Fraction(1, 3))):
            details = _details(cert._replace(F=f, F_prime=g, checks=()))
            assert "chain_top_order_equality" not in details  # tips unmoved
            assert details.get("dual_chain_domination", "") == \
                dual_chain_domination_detail(cert.config, cert.base_model, f, g)
        assert details["dual_chain_domination"].endswith("(1,1): %s" % (
            "2/3 vs 1/3" if cert.base_model.u == 2 else "4/3 vs 1"))


def test_f_prime_raised_on_a_chain_class_reads_as_on_the_blown_up_surface():
    """F' plus the tip of e8's chain class of two copies, an integral F'
    with products on the class curves: the checks on the classes agree
    with those on the blown-up surface, details included."""
    cert = e8_twice_z()
    tip = r.Divisor.curve(cert.config.model, cert.config.model.u - 1)
    bad = cert._replace(F_prime=cert.F_prime + tip, checks=())
    assert any(bad.F_prime.product_numerators()[cert.base_model.u:])
    assert _full_checks(bad) == r.verify_certificate(bad).checks


def test_a_raised_on_a_chain_class_names_the_class_curve():
    """A plus md E8(1,2) on e8's chain class of two copies (mu = mn / md),
    and G plus N mn E8(1,2) to match: G is still N (F + K_g + mu A) and
    integral, but A's product on E8(1,1) is no longer negative, which
    integral_scaling_rule names as the Fraction rows do."""
    cert = e8_twice_z()
    k = r.Divisor.curve(cert.config.model, cert.base_model.u + 1)
    bad = cert._replace(
        A=cert.A + k.scale(cert.mu.denominator),
        G=cert.G + k.scale(cert.N * cert.mu.numerator), checks=())
    detail = _details(bad)["integral_scaling_rule"]
    assert detail.startswith("E8(1,1): ")
    assert detail == divisor_chain_details(
        bad, bad.config, bad.F, bad.A, bad.G)["integral_scaling_rule"]


def test_epsilon_at_the_curve_bound_fails_the_strict_row():
    """epsilon (a_i + 1) < 1 + b_i is strict: on a2 with F0 = 2E1 + 2E2,
    epsilon = 1/3 is exactly (1 + b)/(a + 1)."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[2, 2]))
    assert cert.epsilon == Fraction(1, 6) and cert.passed
    eps = _details(cert._replace(epsilon=Fraction(1, 3),
                                 checks=()))
    assert eps["epsilon_constraints"] == "E1: 1 vs 1"


def test_negative_strict_coefficient_fails_the_strict_curve_row(
        corpus_models):
    """floor(epsilon c) = 0 on each strict curve: c = -1 gives -1."""
    model = corpus_models["a1_branch"]
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[10], strict=[1]))
    assert cert.passed
    f0 = r.Divisor.from_coeffs(model, exc=[10], strict=[-1])
    eps = _details(cert._replace(F0=f0, checks=()))
    assert eps["epsilon_constraints"] == "C: -1 vs 0"


def test_n_one_with_lambda_one_plus_epsilon_passes_the_lambda_rule():
    """N = 1 is the least N the lambda rule allows; G, no longer N times
    F + K_g + mu A, fails the scaling rule and the floor split."""
    model = a1()
    cert = r.realize(model, r.Divisor.curve(model, 0))
    assert _details(cert._replace(N=1, lam=1 + cert.epsilon,
                                  checks=())) == {
        "multiplier_floor_split": "E1: 143 vs 1",
        "closure_recomputation": "E1: 143 vs 1",
        "integral_scaling_rule": "E1: 115 vs 23/22"}


def test_non_integral_f_prime_decomposes_and_names_the_curve():
    """F' plus half a curve, on a base curve and on a chain class of three
    copies, is its numerical decomposition (the Fraction weights); the
    checks against F and the closure name that curve."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    half = r.Divisor.curve(cert.config.model, 0).scale(Fraction(1, 2))
    assert _details(cert._replace(F_prime=cert.F_prime + half,
                                  checks=())) == {
        "candidate_dominated": "E1: 3/2 vs 1",
        "dual_chain_domination": "E1: 1/3 vs 1/6",
        "closure_equals_target": "E1: 3/2 vs 1",
        "closure_recomputation": "E1: 1 vs 3/2"}
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    blown = cert.config.model
    half = r.Divisor.curve(blown, blown.index_of("E1(1,1)")).scale(Fraction(1, 2))
    assert _details(cert._replace(F_prime=cert.F_prime + half,
                                  checks=())) == {
        "candidate_dominated": "E1(1,1): 5/2 vs 2",
        "closure_equals_target": "E1(1,1): 5/2 vs 2",
        "closure_recomputation": "E1(1,1): 2 vs 5/2"}


def test_f_lowered_on_a_chain_class_names_the_product_per_copy():
    """F less the first curve of a class of three chains: F + K_g has
    product 2 with each copy (6 with the class), and the rows that compare
    coefficients name the class curve."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    blown = cert.config.model
    f = cert.F - r.Divisor.curve(blown, blown.index_of("E1(1,1)"))
    assert _details(cert._replace(F=f, checks=())) == {
        "multiplier_floor_split": "E1(1,1): 2 vs 1",
        "candidate_dominated": "E1(1,1): 2 vs 1",
        "dual_chain_domination": "E1: 4 vs 2",
        "closure_equals_target": "E1(1,1): 2 vs 1",
        "integral_scaling_rule": "E1(1,1): 556 vs 374",
        "pullback_plus_canonical_antinef": "E1(1,1): 2 vs 0"}


def test_copied_certificates_pass_on_equal_models():
    """Through pickle or deepcopy, alone or mixed with the original's
    fields, the models are equal but not the same objects: every check
    still passes."""
    model = load_doc("cyclic23").model
    cert = r.realize(model, _closure_of_sum(model))
    pickled = pickle.loads(pickle.dumps(cert))
    copied = copy.deepcopy(cert)
    for other in (pickled, copied):
        assert other.base_model is not model and other.base_model == model
        mixed = cert._replace(base_model=other.base_model,
                              config=other.config, A=other.A)
        for c in (other, mixed):
            checked = r.verify_certificate(c._replace(checks=()))
            assert [(x.name, x.passed, x.detail) for x in checked.checks] == [
                (name, True, "") for name in CHECK_NAMES]


def test_tampered_divisors_name_the_curve():
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    blown = cert.config.model
    result = _details(cert._replace(F_prime=cert.F_prime + cert.F,
                                    checks=()))
    assert result["candidate_dominated"] == "E1: 2 vs 1"
    top = _details(cert._replace(
        F_prime=cert.F_prime - r.Divisor.curve(blown, blown.u - 1),
        checks=()))
    assert top["chain_top_order_equality"] == "E2(1,2): 0 vs 1"
    assert top["closure_equals_target"] == "E2(1,2): 0 vs 1"
    moved = _details(cert._replace(
        F=cert.F + r.Divisor.curve(blown, 0), checks=()))
    assert moved["dual_chain_domination"] == "E1: 8/3 vs 2/3"
    assert moved["pullback_plus_canonical_antinef"] == "E2: 1 vs 0"
    mu = _details(cert._replace(mu=cert.mu * 3, checks=()))
    assert mu["perturbation_floor_identity"] == "E1(1,2): 2 vs 1"


def test_dual_chain_domination_names_a_chain_curve():
    """A lowered base curve makes s_1 < 0, named at E1; a lowered chain
    curve breaks the sweep along its chain, on the configuration and on
    the blown-up surface, where one copy is lowered (details recorded with the
    per-curve divisor loop)."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[1, 1]))
    blown = cert.config.model
    for label, detail in (("E2", "E1: 1/3 vs -1/3"),
                          ("E1(1,2)", "E1(1,2): 2/3 vs -1/3")):
        lowered = cert.F_prime - r.Divisor.curve(blown, blown.index_of(label))
        assert _details(cert._replace(F_prime=lowered, checks=()))[
            "dual_chain_domination"] == detail
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    blown = ungroup(cert.config).model
    lowered = expand(cert.config, cert.F_prime) - r.Divisor.curve(
        blown, blown.index_of("E1(2,2)"))
    checks = _full_checks(cert, fp=lowered)
    assert {c.name: c.detail for c in checks}["dual_chain_domination"] == \
        "E1(2,2): 2 vs 1"


def test_tampered_strict_part_names_the_strict_curve():
    model = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    f0, _ = r.antinef_closure(r.Divisor.from_coeffs(model, strict={"C": 1}))
    cert = r.realize(model, f0)
    bad = cert._replace(
        F_prime=cert.F_prime + r.Divisor.from_coeffs(
            cert.config.model, strict={"C": 1}), checks=())
    assert _details(bad)["pushforward_preserved"] == "C: 2 vs 1"


# -- the configuration and the blown-up surface ---------------------------------------------

@pytest.fixture(scope="module")
def seed0_certificates():
    """The 350 certificates of ``batch --samples 25 --seed 0``."""
    return [(name, r.realize(model, random_antinef_divisor(
                model, "0:%s:%d" % (name, k))))
            for name in LOG_TERMINAL_NAMES
            for model in [load_doc(name).model] for k in range(25)]


def test_quotient_and_full_routes_agree(seed0_certificates):
    """realize's checks ran on the chain classes; the blown-up surface,
    with the divisors expanded, gives equal results, passing and (with
    lambda and mu tampered) failing."""
    cases = 0
    for name, cert in seed0_certificates:
        for bad in (cert, cert._replace(lam=cert.lam * 2),
                    cert._replace(mu=cert.mu * 3)):
            assert _full_checks(bad) == r.verify_certificate(bad).checks, name
        cases += max(cert.e) >= 2
    assert cases > 200


def test_blown_up_models_are_realized_again():
    """Blowups of generated log terminal models, whose labels already read
    <label>(p,m), realized again: layout takes the point numbers after the
    taken ones, every check passes, and the blown-up surface, with the
    divisors expanded, gives the same checks."""
    rng, later = random.Random(20081029), 0
    for _ in range(8):
        model = random_log_terminal_model(rng)
        e = [rng.randint(0, 2) for _ in range(model.u)]
        blown = ungroup(r.GenericConfiguration.build(
            model, e, [rng.randint(1, 2) for _ in e])).model
        cert = r.realize(blown, random_antinef(blown, rng, hi=2))
        assert cert.passed and _full_checks(cert) == cert.checks
        for info in cert.config.chains:
            label = blown.labels[info.base]
            taken = {p for p in range(1, 3)
                     if "%s(%d,1)" % (label, p) in blown.labels}
            assert set(info.points).isdisjoint(taken)
            later += min(info.points) > 1
    assert later >= 4


def test_quotient_closure_expands_to_full_closure(seed0_certificates):
    """The closure of the candidate on the chain classes, expanded by
    labels, is the closure of the candidate on the blown-up surface, found
    by the rescanning oracle."""
    checked = 0
    for name, cert in seed0_certificates:
        config, blown = cert.config, ungroup(cert.config)
        if blown.model.u > 150:
            continue
        checked += 1
        k_h = blown.K_sigma + blown.pullback.apply(
            r.relative_canonical(cert.base_model))
        candidate = (expand(config, cert.G).scale(cert.lam) - k_h).floor()
        full = closure_with_rule(blown.model, candidate.exc, min,
                                 candidate.strict)
        q_candidate = r.Divisor.from_coeffs(
            config.model,
            exc={label: candidate.exc[blown.model.index_of(label)]
                 for label in config.model.labels},
            strict=list(candidate.strict))
        closed, _ = r.antinef_closure(q_candidate)
        assert expand_by_labels(closed, blown.model).exc == full, name
        assert expand(config, cert.F_prime).exc == full, name
    assert checked > 200


def test_tampering_one_copy_names_that_curve_on_the_full_model():
    """G changed on the second of three identical chains: the checks on
    the full model name that curve.  A certificate cannot hold such a G,
    which is not on the configuration's model: every check names G."""
    model = a2()
    cert = r.realize(model, r.dual_basis(model)[0].scale(3))
    blown = ungroup(cert.config).model
    j = blown.index_of("E1(2,1)")
    g_full = expand(cert.config, cert.G)
    bad_g = g_full + r.Divisor.curve(blown, j)
    g = g_full.exc[j]
    checks = {c.name: c.detail for c in _full_checks(cert, g=bad_g)}
    assert checks["integral_scaling_rule"] == "E1(2,1): %s vs %s" % (
        r.format_rational(g + 1), r.format_rational(g))
    for d in (bad_g, g_full):
        _all_fail_with(cert._replace(G=d, checks=()),
                       "G: not on the configuration's model")


def test_realize_refuses_models_past_the_limit():
    """F0 = 10^4 Z on e8 would need about 10^9 curves; it ends at once."""
    model = load_doc("e8").model
    z = r.Divisor.from_coeffs(model, exc=[6, 3, 4, 2, 5, 4, 3, 2])
    assert r.realize(model, z).passed
    started = time.perf_counter()
    with pytest.raises(r.TooManyCurves):
        r.realize(model, z.scale(10 ** 4))
    assert time.perf_counter() - started < 1.0


# -- metamorphic: declaration order --------------------------------------------

def _shuffled(model, rng):
    """``model`` parsed back from its text with the curve and meeting lines
    in a shuffled order and the ends of some meetings swapped."""
    lines = r.serialize_model(model).splitlines()
    curves = [line for line in lines if line.startswith("curve ")]
    meets = []
    for line in lines:
        if line.startswith("meet "):
            _, a, b, m = line.split()
            if rng.random() < 0.5:
                a, b = b, a
            meets.append("meet %s %s %s" % (a, b, m))
    rest = [line for line in lines if not line.startswith(("curve ", "meet "))]
    rng.shuffle(curves)
    rng.shuffle(meets)
    return r.parse_graph("\n".join(curves + meets + rest) + "\n").model


def _report_lines(cert):
    """The report's lines, with the terms of each value sorted."""
    out = []
    for line in _certificate_report(cert).render().splitlines():
        key, _, value = line.partition(" = ")
        out.append((key, tuple(sorted(value.split()))))
    return sorted(out)


def test_declaration_order_only_reorders_the_report():
    rng = random.Random(11)
    with_strict = reordered = 0
    for name in LOG_TERMINAL_NAMES:
        model = load_doc(name).model
        shuffled = _shuffled(model, rng)
        assert sorted(shuffled.labels) == sorted(model.labels)
        reordered += shuffled.labels != model.labels
        for k in range(3):
            f0 = random_antinef_divisor(model, "7:%s:%d" % (name, k))
            moved = r.Divisor.from_coeffs(
                shuffled, exc=dict(zip(model.labels, f0.exc)),
                strict=list(f0.strict))
            cert, twin = r.realize(model, f0), r.realize(shuffled, moved)
            assert cert.passed and twin.passed, name
            assert _report_lines(twin) == _report_lines(cert), name
        with_strict += bool(model.strict_curves)
    assert with_strict >= 1 and reordered >= len(LOG_TERMINAL_NAMES) // 2
