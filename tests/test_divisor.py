import copy
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import (CORPUS_NAMES, load_doc, random_antinef, random_rational,
                      single_chain)
from oracles import RefDivisor, meet

coeff = st.fractions(min_value=-10, max_value=10, max_denominator=24)


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


_A2 = a2()


def d(e1, e2, model=_A2):
    return r.Divisor.from_coeffs(model, exc=[Fraction(e1), Fraction(e2)])


# -- the relative numerical decomposition -----------------------------------

def decompose(div):
    """(numerical pullback of the pushforward of D, (-D.E_i)_i), whose sum
    with the dual basis, sum_i -D.E_i dual_i, reconstructs D."""
    return (r.numerical_pullback(div.model, div.pushforward()),
            tuple(-p for p in div.products()))


def test_decompose_zero():
    pulled, coeffs = decompose(r.Divisor.zero(_A2))
    assert pulled == r.Divisor.zero(_A2)
    assert coeffs == (0, 0)


def test_decompose_a1_curve():
    m = r.build_model([("E1", 0, -2)])
    pulled, coeffs = decompose(r.Divisor.curve(m, 0))
    assert pulled == r.Divisor.zero(m)
    assert coeffs == (2,)
    assert r.dual_basis(m)[0].scale(coeffs[0]).exc == (Fraction(1),)


def test_decompose_a2_curve():
    pulled, coeffs = decompose(r.Divisor.curve(_A2, 0))
    assert pulled == r.Divisor.zero(_A2)
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
            pulled, coeffs = decompose(div)
            rebuilt = pulled
            for c, dual in zip(coeffs, duals):
                if c:
                    rebuilt = rebuilt + dual.scale(c)
            assert rebuilt == div


# -- meet ------------------------------------------------------------------

def test_meet_example():
    assert meet(d(2, 1), d(1, 3)) == d(1, 1)


@given(a=st.tuples(coeff, coeff), b=st.tuples(coeff, coeff),
       c=st.tuples(coeff, coeff))
@settings(deadline=None, max_examples=100)
def test_meet_laws(a, b, c):
    da, db, dc = d(*a), d(*b), d(*c)
    assert meet(da, da) == da
    assert meet(da, db) == meet(db, da)
    assert meet(meet(da, db), dc) == meet(da, meet(db, dc))


def test_meet_of_antinef_is_antinef(corpus_models):
    rng = random.Random(23)
    for model in corpus_models.values():
        for _ in range(25):
            d1 = random_antinef(model, rng)
            d2 = random_antinef(model, rng)
            assert r.is_antinef(meet(d1, d2))


def test_meet_rejects_cross_model():
    other = r.build_model([("E1", 0, -2), ("E2", 0, -3)], [("E1", "E2", 1)])
    with pytest.raises(r.ModelMismatch):
        meet(d(1, 1), r.Divisor.zero(other))


# -- floor -----------------------------------------------------------------

def test_floor_fixes_integral_divisors():
    assert d(3, -2).floor() == d(3, -2)


def test_floor_componentwise():
    assert d(Fraction(3, 2), Fraction(-1, 3)).floor() == d(1, -1)


def test_integrality_predicate():
    assert d(1, 2).is_integral()
    assert not d(Fraction(1, 2), 0).is_integral()


# -- integer numerators against the Fraction reference ---------------------------

# the corpus, plus a blown-up model with chains and a strict curve
_MODELS = [load_doc(name).model for name in CORPUS_NAMES] + \
    [single_chain(load_doc("a2_branch").model, 0, 4).model]
rational = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=60))


@st.composite
def divisor_pair(draw):
    model = draw(st.sampled_from(_MODELS))
    n = model.u + len(model.strict_curves)
    coeffs = st.lists(rational, min_size=n, max_size=n)
    return model, draw(coeffs), draw(coeffs)


def _agrees(div, ref):
    """Same coefficients as the reference, as Fractions, in lowest terms."""
    assert div.exc == ref.exc and div.strict == ref.strict
    assert all(type(c) is Fraction for c in div.exc + div.strict)
    assert div.den >= 1 and math.gcd(div.den, *div.num) == 1
    assert len(div.num) == div.model.u + len(div.model.strict_curves)


@seed(20081009)
@given(pair=divisor_pair(), factor=rational)
@settings(deadline=None, max_examples=300)
def test_operations_agree_with_fraction_reference(pair, factor):
    model, a, b = pair
    u = model.u
    da, db = r.Divisor(model, a[:u], a[u:]), r.Divisor(model, b[:u], b[u:])
    ra, rb = RefDivisor.of(model, a), RefDivisor.of(model, b)
    _agrees(da, ra)
    _agrees(r.Divisor.from_coeffs(model, exc=a[:u], strict=a[u:]), ra)
    _agrees(da + db, ra + rb)
    _agrees(da - db, ra - rb)
    _agrees(-da, -ra)
    _agrees(da.scale(factor), ra.scale(factor))
    _agrees(meet(da, db), ra.meet(rb))
    _agrees(da.floor(), ra.floor())
    _agrees(da.pushforward(), RefDivisor(model, (Fraction(0),) * u, ra.strict))
    assert da.less_equal(db) == ra.less_equal(rb)
    assert meet(da, db).less_equal(da) and ra.meet(rb).less_equal(ra)
    assert da.products() == ra.products()
    assert all(type(p) is Fraction for p in da.products())
    for div, ref in ((da, ra), (da.floor(), ra.floor()), (da - da, ra - ra),
                     (meet(da, db), ra.meet(rb))):
        assert div.is_integral() == ref.is_integral()
        assert div.is_effective() == ref.is_effective()
        assert (div == r.Divisor.zero(model)) == ref.is_zero()


@seed(20081010)
@given(pair=divisor_pair())
@settings(deadline=None, max_examples=100)
def test_equal_divisors_have_one_representation(pair):
    model, a, b = pair
    u = model.u
    da, db = r.Divisor(model, a[:u], a[u:]), r.Divisor(model, b[:u], b[u:])
    again = (da + db) - db
    assert again == da and hash(again) == hash(da)
    assert (again.num, again.den) == (da.num, da.den)


def test_scaled_half_equals_whole():
    m = _A2
    half = r.Divisor(m, (Fraction(1, 2), Fraction(1, 2)), ())
    whole = r.Divisor(m, (1, 1), ())
    assert half.scale(2) == whole and hash(half.scale(2)) == hash(whole)
    assert (half.num, half.den) == ((1, 1), 2)
    assert (whole.num, whole.den) == ((1, 1), 1)


def test_all_int_coefficients_take_no_fraction_step(monkeypatch):
    """Ints are the numerators over 1 as they stand; a bool, or any value
    that is not an int, still goes through as_rational."""
    model = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    fractions = r.Divisor(model, (Fraction(4),), (Fraction(6),))
    monkeypatch.setattr("resdiv.divisor.as_rational", None)
    ints = r.Divisor(model, (4,), (6,))
    assert ints == fractions and (ints.num, ints.den) == ((4, 6), 1)
    with pytest.raises(TypeError):
        r.Divisor(model, (True,), (0,))
    monkeypatch.undo()
    assert r.Divisor(model, (True,), (0,)) == r.Divisor(model, (1,), (0,))


def test_divisors_copy_and_pickle():
    div = d(Fraction(3, 2), -1)
    assert copy.copy(div) == div and copy.deepcopy(div) == div
    assert pickle.loads(pickle.dumps(div)) == div


_CONFIG = r.GenericConfiguration.build(_A2, (2, 0), (3, 0))
_CERT = r.realize(_A2, d(1, 1))

# each kind of value, made anew from equal fields on each call; the fields
# of Divisor and ChainModel, and of the records (NamedTuples), their _fields
VALUES = {
    "Divisor": lambda: d(Fraction(3, 2), -1),
    "ChainModel": lambda: r.ChainModel(_A2, _CONFIG.chains),
    "ExcCurve": lambda: r.ExcCurve("E1", 0, -2),
    "StrictCurve": lambda: r.StrictCurve("C", (0, 2)),
    "ChainInfo": lambda: r.ChainInfo(0, (1, 2), 3),
    "PullbackMap": lambda: _CONFIG.pullback,
    "ClosureTrace": lambda: r.antinef_closure(d(1, 0))[1],
    "DiscrepancyReport": lambda: r.discrepancies(a2()),
    "NegDefResult": lambda: r.check_negative_definite(a2()),
    "GraphDoc": lambda: r.parse_graph(
        "curve E1 genus=0 self=-2\ndivisor F E1=1/2\n"),
    "CheckResult": lambda: r.CheckResult("candidate_dominated", False, "E1"),
    "RealizationCertificate": lambda: r.RealizationCertificate(*_CERT),
}
FIELDS = {"Divisor": ("model", "num", "den"),
          "ChainModel": ("base_model", "chains", "u")}
UNHASHABLE = {"GraphDoc"}  # its divisors are a dict
# hold a GenericConfiguration, which is equal to itself alone
COPIES_DIFFER = {"PullbackMap", "RealizationCertificate"}


@pytest.mark.parametrize("kind", VALUES)
def test_values_are_frozen_and_equal_by_their_fields(kind):
    """Values refuse assignment and deletion, and equal fields give equal
    values with equal hashes; copies and pickles are equal to the value."""
    value, again = VALUES[kind](), VALUES[kind]()
    assert type(value).__name__ == kind and value is not again
    assert value == again and not value != again
    if kind not in UNHASHABLE:
        assert hash(value) == hash(again)
    for name in FIELDS.get(kind, getattr(value, "_fields", ())) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == again
    if kind not in FIELDS:  # a record is equal to the tuple of its fields
        assert value == tuple(getattr(value, f) for f in value._fields)
    if kind not in COPIES_DIFFER:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)


def test_value_classes_equal_their_own_class_alone():
    div, chain_model = VALUES["Divisor"](), VALUES["ChainModel"]()
    assert div != (div.model, div.num, div.den) and div != d(1, -1)
    assert chain_model != (_A2, _CONFIG.chains)
    assert chain_model != r.ChainModel(_A2, _CONFIG.chains[:0])


def test_model_mismatch_across_models_and_lengths():
    other = r.build_model([("E1", 0, -2), ("E2", 0, -3)], [("E1", "E2", 1)])
    x, y = d(1, 2), r.Divisor.from_coeffs(other, exc=[1, 2])
    for op in (lambda: x + y, lambda: x - y, lambda: meet(x, y),
               lambda: x.less_equal(y)):
        with pytest.raises(r.ModelMismatch):
            op()
    with pytest.raises(r.ModelMismatch):
        r.Divisor(_A2, (1,), ())
    with pytest.raises(r.ModelMismatch):
        r.Divisor(_A2, (1, 2), (3,))
    with pytest.raises(r.ModelMismatch):
        r.Divisor.from_coeffs(_A2, exc=[1, 2, 3])
    with pytest.raises(r.ModelMismatch):
        r.Divisor.from_coeffs(_A2, strict=[1])


# -- only ints and Fractions are coefficients -------------------------------------

NOT_RATIONAL = [0.5, 0.1, Decimal("0.5"), "1/2", None]


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_constructor_rejects_non_rational(bad):
    with pytest.raises(r.NotRational, match=re.escape(repr(bad))):
        r.Divisor(_A2, (bad, 1), ())


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_from_coeffs_rejects_non_rational(bad):
    with pytest.raises(r.NotRational, match=re.escape(repr(bad))):
        r.Divisor.from_coeffs(_A2, exc=[bad, 0])
    with pytest.raises(r.NotRational, match=re.escape(repr(bad))):
        r.Divisor.from_coeffs(_A2, exc={"E2": bad})


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_scale_rejects_non_rational(bad):
    with pytest.raises(r.NotRational, match=re.escape(repr(bad))):
        r.Divisor.curve(_A2, 0).scale(bad)
