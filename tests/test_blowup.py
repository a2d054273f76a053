import random
from fractions import Fraction

import pytest

import resdiv as r
from conftest import random_integral_divisor, single_chain
from oracles import blow_up_free_point, generic_chain, iterated_configuration


def a1():
    return r.build_model([("E1", 0, -2)])


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


# -- single blowup ------------------------------------------------------------

def test_blowup_updates_matrix():
    res = blow_up_free_point(a1(), 0)
    m = res.new_model
    assert m.u == 2
    assert m.matrix == ((-3, 1), (1, -1))
    assert m.curves[1].label == "E1(1,1)"
    assert m.curves[1].self_int == -1


def test_blowup_pullback_and_canonical():
    base = a1()
    res = blow_up_free_point(base, 0)
    pulled = res.sigma_pullback.apply(r.Divisor.curve(base, 0))
    assert pulled.exc == (Fraction(1), Fraction(1))
    # pullbacks stay orthogonal to the new curve
    assert pulled.intersect(1) == 0
    assert res.K_sigma == r.Divisor.curve(res.new_model, 1)


def test_blowup_preserves_strict_incidence():
    base = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    res = blow_up_free_point(base, 0)
    assert res.new_model.strict_curves[0].incidence == (1, 0)


def test_blowup_keeps_negative_definite(corpus_models):
    for model in corpus_models.values():
        res = blow_up_free_point(model, model.u - 1)
        assert r.check_negative_definite(res.new_model)


def test_pullback_preserves_intersection_products():
    base = a2()
    res = blow_up_free_point(base, 0)
    rng = random.Random(2)
    for _ in range(20):
        d1 = random_integral_divisor(base, rng)
        d2 = random_integral_divisor(base, rng)
        before = sum(c * d2.intersect(i) for i, c in enumerate(d1.exc))
        p1 = res.sigma_pullback.apply(d1)
        p2 = res.sigma_pullback.apply(d2)
        after = sum(c * p2.intersect(i) for i, c in enumerate(p1.exc))
        assert before == after


# -- generic chains -------------------------------------------------------------

def test_chain_of_length_three():
    base = a1()
    config = single_chain(base, 0, 3)
    m = config.model
    assert m.u == 4
    assert [c.label for c in m.curves[1:]] == \
        ["E1(1,1)", "E1(1,2)", "E1(1,3)"]
    # base curve dropped once; middle chain curves are -2, the tip is -1
    assert [m.matrix[i][i] for i in range(4)] == [-3, -2, -2, -1]
    assert config.K_sigma.exc == (Fraction(0), Fraction(1), Fraction(2),
                                  Fraction(3))
    assert config.pullback.apply(r.Divisor.curve(base, 0)).exc == \
        (Fraction(1),) * 4


def test_chain_of_length_zero_is_identity():
    base = a1()
    config = single_chain(base, 0, 0)
    assert config.model == base
    assert config.chains == ()
    assert config.K_sigma.is_zero()
    d = r.Divisor.curve(base, 0)
    assert config.pullback.apply(d) == d


def test_negative_chain_length_rejected():
    with pytest.raises(ValueError):
        r.GenericConfiguration.build(a1(), [1], [-1])
    with pytest.raises(ValueError):
        r.GenericConfiguration.build(a1(), [-1], [1])


def test_second_chain_gets_fresh_point_tag():
    first = generic_chain(a1(), 0, 1)
    second = blow_up_free_point(first.new_model, 0)
    assert second.new_model.curves[-1].label == "E1(2,1)"


# -- configurations ----------------------------------------------------------------

def test_build_matches_iterated_route(log_terminal_models):
    rng = random.Random(6)
    for model in log_terminal_models.values():
        e = [rng.randint(0, 2) for _ in range(model.u)]
        n = [rng.randint(1, 3) for _ in range(model.u)]
        fast = r.GenericConfiguration.build(model, e, n)
        slow = iterated_configuration(model, e, n)
        assert fast.model == slow.model
        assert fast.pullback.columns == slow.pullback.columns
        assert fast.K_sigma.exc == slow.K_sigma.exc
        assert fast.chains == slow.chains


def test_configuration_duals_match_direct_solve():
    model = a2()
    config = r.GenericConfiguration.build(model, e=[2, 1], n=[2, 3])
    duals = r.dual_basis(config.model)
    for idx in range(config.model.u):
        unit = [int(k == idx) for k in range(config.model.u)]
        assert config.weighted_dual_sum(unit) == duals[idx]


def test_sum_and_weighted_duals_match_reference():
    model = a2()
    config = r.GenericConfiguration.build(model, e=[1, 2], n=[3, 1])
    duals = r.dual_basis(config.model)
    total = r.Divisor.zero(config.model)
    for v in duals:
        total = total + v

    rng = random.Random(8)
    weights = [Fraction(rng.randint(-4, 4)) for _ in range(config.model.u)]
    expected = r.Divisor.zero(config.model)
    for w, v in zip(weights, duals):
        expected = expected + v.scale(w)
    assert config.weighted_dual_sum(weights) == expected
    assert config.weighted_dual_sum([1] * config.model.u) == total


def test_chain_lookup_helpers():
    config = r.GenericConfiguration.build(a2(), e=[1, 1], n=[2, 2])
    assert len(config.chains) == 2
    over0 = config.chains_over(0)
    assert len(over0) == 1 and over0[0].base == 0
    curves = config.model.curves
    assert curves[over0[0].start + 1].chain == ("E1", 1, 2)
    assert curves[0].chain is None
    duals = r.dual_basis(config.model)
    for info in config.chains:
        for idx in range(info.start, info.start + info.length):
            unit = [int(k == idx) for k in range(config.model.u)]
            assert config.weighted_dual_sum(unit) == duals[idx]


# -- chain monotonicity report ---------------------------------------------------

def test_lemma_report_on_pulled_back_divisor():
    base = a2()
    chain = single_chain(base, 0, 2)
    d = chain.pullback.apply(
        r.Divisor.from_coeffs(base, exc=[2, 1]))
    report = r.verify_lemma_gen(chain, d)
    assert report.all_hold
    # pullback has equal coefficients along the chain: no strict increase,
    # so the chain duals cannot dominate the base dual
    assert not report.strict_increase
    assert not report.chain_duals_dominate


def test_lemma_report_with_strict_increase():
    base = a1()
    chain = single_chain(base, 0, 2)
    d = chain.pullback.apply(r.Divisor.curve(base, 0)) + \
        r.dual_basis(chain.model)[2].scale(2)
    assert d.is_integral() and r.is_antinef(d)
    report = r.verify_lemma_gen(chain, d)
    assert report.all_hold
    assert report.strict_increase
    assert report.chain_duals_dominate


def test_lemma_report_on_random_antinef(log_terminal_models):
    rng = random.Random(12)
    for model in log_terminal_models.values():
        chain = single_chain(model, rng.randrange(model.u),
                             rng.randint(1, 3))
        for _ in range(10):
            d0 = random_integral_divisor(chain.model, rng, hi=6)
            d, _ = r.antinef_closure(d0)
            report = r.verify_lemma_gen(chain, d)
            assert report.all_hold


def test_lemma_rejects_bad_inputs():
    base = a1()
    chain = single_chain(base, 0, 2)
    with pytest.raises(r.PreconditionViolated):
        r.verify_lemma_gen(chain, r.Divisor.curve(chain.model, 0))
    with pytest.raises(r.PreconditionViolated):
        r.verify_lemma_gen(chain, r.Divisor.zero(base))
    empty = single_chain(base, 0, 0)
    with pytest.raises(r.PreconditionViolated):
        r.verify_lemma_gen(empty, r.Divisor.zero(empty.model))
    two = r.GenericConfiguration.build(base, [2], [1])
    with pytest.raises(r.PreconditionViolated):
        r.verify_lemma_gen(two, r.Divisor.zero(two.model))
