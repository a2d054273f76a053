import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import random_integral_divisor
from oracles import (brute_closure_oracle, closure_with_rule, dense_matrix,
                     negdef_by_minors, ungroup)


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


_A2 = a2()


# -- is_antinef ----------------------------------------------------------------

def test_zero_is_antinef():
    assert r.is_antinef(r.Divisor.zero(_A2))


def test_single_curve_is_not_antinef():
    assert not r.is_antinef(r.Divisor.curve(_A2, 0))


def test_fundamental_cycle_is_antinef():
    d = r.Divisor.from_coeffs(_A2, exc=[1, 1])
    assert r.is_antinef(d)
    assert d.products() == (Fraction(-1), Fraction(-1))


# -- antinef_closure -------------------------------------------------------------

def test_closure_of_antinef_is_identity():
    d = r.Divisor.from_coeffs(_A2, exc=[1, 1])
    closed, trace = r.antinef_closure(d)
    assert closed == d
    assert trace.steps == ()
    assert trace.initial_s == 0


def test_closure_of_a2_curve():
    closed, trace = r.antinef_closure(r.Divisor.curve(_A2, 0))
    assert closed == r.Divisor.from_coeffs(_A2, exc=[1, 1])
    assert len(trace.steps) == 1
    assert trace.steps[0][0] == 1  # the step added E2


def test_closure_pulls_in_exceptional_curve_through_strict_point():
    m = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    c = r.Divisor.from_coeffs(m, strict={"C": 1})
    closed, trace = r.antinef_closure(c)
    assert closed == r.Divisor.from_coeffs(m, exc={"E1": 1}, strict={"C": 1})
    assert trace.initial_s == 1


def test_rational_input_rejected():
    d = r.Divisor.from_coeffs(_A2, exc=[Fraction(1, 2), 0])
    with pytest.raises(r.NonIntegralInput):
        r.antinef_closure(d)


def test_trace_records_positive_products(corpus_models):
    rng = random.Random(3)
    for model in corpus_models.values():
        d = random_integral_divisor(model, rng)
        _, trace = r.antinef_closure(d)
        assert all(value > 0 for _, value in trace.steps)
        assert trace.initial_s == len(trace.steps)


# -- oracle agreement (small-scale; the full box sweep is in acceptance) ---------

def test_closure_matches_brute_force_on_a2():
    oracle = brute_closure_oracle(dense_matrix(_A2))
    for e1 in range(5):
        for e2 in range(5):
            d = r.Divisor.from_coeffs(_A2, exc=[e1, e2])
            closed, _ = r.antinef_closure(d)
            assert tuple(int(c) for c in closed.exc) == oracle((e1, e2))


# -- invariants --------------------------------------------------------------------

def test_pushforward_preserved_and_idempotent(corpus_models):
    rng = random.Random(5)
    for model in corpus_models.values():
        for _ in range(50):
            d = random_integral_divisor(model, rng)
            closed, _ = r.antinef_closure(d)
            assert r.is_antinef(closed)
            assert d.less_equal(closed)
            assert closed.strict == d.strict
            again, trace = r.antinef_closure(closed)
            assert again == closed and trace.steps == ()


def _pick_smallest(violating, prods):
    return violating[0]


def test_confluence_under_selection_rule(corpus_models):
    """The closure matches the dense reference under three picking rules."""
    rng = random.Random(9)

    def pick_largest(violating, prods):
        return violating[-1]

    def pick_most_violating(violating, prods):
        return max(violating, key=lambda i: (prods[i], i))

    for model in corpus_models.values():
        for _ in range(20):
            d = random_integral_divisor(model, rng)
            closed = tuple(r.antinef_closure(d)[0].exc)
            for rule in (_pick_smallest, pick_largest, pick_most_violating):
                assert closure_with_rule(model, d.exc, rule,
                                         d.strict) == closed


def test_trace_matches_rescanning_oracle_step_for_step(corpus_models):
    """The heap of violating indices takes the same smallest-index steps
    as a closure that rescans every product before each step."""
    rng = random.Random(13)
    for model in corpus_models.values():
        for _ in range(10):
            d = random_integral_divisor(model, rng)
            closed, trace = r.antinef_closure(d)
            assert closure_with_rule(model, d.exc, _pick_smallest, d.strict,
                                     trace=True) == (closed.exc, trace.steps)


def test_trace_matches_rescanning_oracle_on_100_curve_chain_model(
        corpus_models):
    base = corpus_models["e8"]
    e, n = [0] * base.u, [0] * base.u
    for label, count, length in (("E2", 2, 10), ("E4", 3, 8), ("E8", 4, 12)):
        e[base.index_of(label)], n[base.index_of(label)] = count, length
    model = ungroup(r.GenericConfiguration.build(base, e, n)).model
    assert model.u == 100
    d = r.Divisor.curve(model, 0).scale(400)
    closed, trace = r.antinef_closure(d)
    assert len(trace.steps) > 10000
    assert closure_with_rule(model, d.exc, _pick_smallest,
                             trace=True) == (closed.exc, trace.steps)


def _termination_bound(model, d):
    """Coefficient mass of the explicit dominating antinef divisor
    strict(D) + M * (sum of duals), for the least sufficient M."""
    duals = r.dual_basis(model)
    total = r.Divisor.zero(model)
    for v in duals:
        total = total + v
    lcm = math.lcm(*[c.denominator for c in total.exc])
    strict_prods = d.pushforward().products()
    m = 0
    while True:
        m += lcm
        bound = total.scale(m)
        if all(p - m <= 0 for p in strict_prods) and \
                all(bc >= dc for bc, dc in zip(bound.exc, d.exc)):
            break
    return int(sum(bc - dc for bc, dc in zip(bound.exc, d.exc)))


def test_termination_within_dominating_bound(corpus_models):
    rng = random.Random(31)
    for model in corpus_models.values():
        for _ in range(10):
            d = random_integral_divisor(model, rng, hi=6)
            bound = _termination_bound(model, d)
            closed, trace = r.antinef_closure(d)
            assert len(trace.steps) <= bound


# -- the definiteness gate ---------------------------------------------------------

def test_closure_on_an_indefinite_form_raises_at_once():
    """E1 + E2 has square 2 on two (-1)-curves meeting twice, so adding
    curves to E1 would never end; the closure raises before its first
    step, and so do the closures on the blown-up surface over it and on
    the model of its chain classes."""
    model = r.build_model([("E1", 0, -1), ("E2", 0, -1)], [("E1", "E2", 2)])
    started = time.perf_counter()
    with pytest.raises(r.NotNegativeDefinite):
        r.antinef_closure(r.Divisor.curve(model, 0))
    config = r.GenericConfiguration.build(model, [2, 1], [1, 2])
    for c in (ungroup(config), config):
        with pytest.raises(r.NotNegativeDefinite):
            r.antinef_closure(r.Divisor.curve(c.model, 0))
    assert time.perf_counter() - started < 1.0


@st.composite
def small_graphs(draw):
    """Up to 8 curves of self-intersection -1 to -4 with any meetings, of
    multiplicity 1 or 2: definite and indefinite forms alike."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return r.ResolutionModel(
        [r.ExcCurve("E%d" % i, 0, -draw(st.integers(1, 4))) for i in range(n)],
        [(i, j, draw(st.integers(1, 2))) for i, j in chosen])


@seed(20081022)
@settings(max_examples=100, deadline=2000)
@given(model=small_graphs(), data=st.data())
def test_closure_returns_or_names_the_indefinite_form(model, data):
    """On a random graph the closure of an effective divisor returns,
    when the leading minors say the form is negative definite, and raises
    NotNegativeDefinite otherwise."""
    d = r.Divisor(model, data.draw(st.lists(
        st.integers(0, 5), min_size=model.u, max_size=model.u)), [])
    if negdef_by_minors(dense_matrix(model)):
        closed, _ = r.antinef_closure(d)
        assert r.is_antinef(closed) and d.less_equal(closed)
    else:
        with pytest.raises(r.NotNegativeDefinite):
            r.antinef_closure(d)
