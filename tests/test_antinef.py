import math
import random
from fractions import Fraction

import pytest

import resdiv as r
from conftest import random_integral_divisor
from oracles import brute_closure_oracle


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
    oracle = brute_closure_oracle(_A2.matrix)
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


def test_confluence_under_selection_rule(corpus_models):
    rng = random.Random(9)

    def pick_largest(violating, prods):
        return violating[-1]

    def pick_most_violating(violating, prods):
        return max(violating, key=lambda i: (prods[i], i))

    for model in corpus_models.values():
        for _ in range(20):
            d = random_integral_divisor(model, rng)
            base, _ = r.antinef_closure(d)
            assert r.antinef_closure(d, select=pick_largest)[0] == base
            assert r.antinef_closure(d, select=pick_most_violating)[0] == base


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
            closed, trace = r.antinef_closure(d, step_bound=bound)
            assert len(trace.steps) <= bound
