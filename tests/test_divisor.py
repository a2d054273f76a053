import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import random_antinef, random_rational

coeff = st.fractions(min_value=-10, max_value=10, max_denominator=24)


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


_A2 = a2()


def d(e1, e2, model=_A2):
    return r.Divisor.from_coeffs(model, exc=[Fraction(e1), Fraction(e2)])


# -- decompose --------------------------------------------------------------

def test_decompose_zero():
    pulled, coeffs = r.decompose(r.Divisor.zero(_A2))
    assert pulled.is_zero()
    assert coeffs == (0, 0)


def test_decompose_a1_curve():
    m = r.build_model([("E1", 0, -2)])
    pulled, coeffs = r.decompose(r.Divisor.curve(m, 0))
    assert pulled.is_zero()
    assert coeffs == (2,)
    assert r.dual_basis(m)[0].scale(coeffs[0]).exc == (Fraction(1),)


def test_decompose_a2_curve():
    pulled, coeffs = r.decompose(r.Divisor.curve(_A2, 0))
    assert pulled.is_zero()
    assert coeffs == (2, -1)
    duals = r.dual_basis(_A2)
    rebuilt = duals[0].scale(2) + duals[1].scale(-1)
    assert rebuilt == r.Divisor.curve(_A2, 0)


def test_decompose_reconstructs_randoms(corpus_models):
    rng = random.Random(17)
    for model in corpus_models.values():
        duals = r.dual_basis(model)
        for _ in range(1000):
            div = r.Divisor(
                model,
                tuple(random_rational(rng) for _ in range(model.u)),
                tuple(random_rational(rng) for _ in model.strict_curves))
            pulled, coeffs = r.decompose(div)
            rebuilt = pulled
            for c, dual in zip(coeffs, duals):
                if c:
                    rebuilt = rebuilt + dual.scale(c)
            assert rebuilt == div


# -- meet ------------------------------------------------------------------

def test_meet_example():
    assert d(2, 1).meet(d(1, 3)) == d(1, 1)


@given(a=st.tuples(coeff, coeff), b=st.tuples(coeff, coeff),
       c=st.tuples(coeff, coeff))
@settings(deadline=None, max_examples=100)
def test_meet_laws(a, b, c):
    da, db, dc = d(*a), d(*b), d(*c)
    assert da.meet(da) == da
    assert da.meet(db) == db.meet(da)
    assert da.meet(db).meet(dc) == da.meet(db.meet(dc))


def test_meet_of_antinef_is_antinef(corpus_models):
    rng = random.Random(23)
    for model in corpus_models.values():
        for _ in range(25):
            d1 = random_antinef(model, rng)
            d2 = random_antinef(model, rng)
            assert r.is_antinef(d1.meet(d2))


def test_meet_rejects_cross_model():
    other = r.build_model([("E1", 0, -2), ("E2", 0, -3)], [("E1", "E2", 1)])
    with pytest.raises(r.ModelMismatch):
        d(1, 1).meet(r.Divisor.zero(other))


# -- floor / ceil ----------------------------------------------------------

def test_floor_fixes_integral_divisors():
    assert d(3, -2).floor() == d(3, -2)


def test_floor_componentwise():
    assert d(Fraction(3, 2), Fraction(-1, 3)).floor() == d(1, -1)


def test_ceil_componentwise():
    assert d(Fraction(3, 2), 0).ceil() == d(2, 0)


@given(a=st.tuples(coeff, coeff))
@settings(deadline=None, max_examples=100)
def test_ceil_is_negated_floor(a):
    div = d(*a)
    assert div.ceil() == -(-div).floor()


def test_integrality_predicate():
    assert d(1, 2).is_integral()
    assert not d(Fraction(1, 2), 0).is_integral()
