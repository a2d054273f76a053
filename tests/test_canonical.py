import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import resdiv as r
from conftest import NON_LOG_TERMINAL, e8_twice_z, random_antinef
from oracles import chain_spans, expand, random_log_terminal_model, ungroup


def a1():
    return r.build_model([("E1", 0, -2)])


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


# -- discrepancies ------------------------------------------------------------

def test_rational_double_points_have_zero_discrepancies(corpus_models):
    for name in ("a1", "a2", "a3", "a4", "a5", "d4", "d5", "e6", "e7", "e8"):
        report = r.discrepancies(corpus_models[name])
        assert all(b == 0 for b in report.b), name
        assert report.log_terminal
        assert report.offenders == ()


def test_single_minus_three_curve():
    m = r.build_model([("E1", 0, -3)])
    report = r.discrepancies(m)
    assert report.b == (Fraction(-1, 3),)
    assert report.log_terminal


def test_cyclic_two_three_chain(corpus_models):
    report = r.discrepancies(corpus_models["cyclic23"])
    assert report.b == (Fraction(-1, 5), Fraction(-2, 5))


def test_elliptic_models_not_log_terminal(corpus_models):
    for name in NON_LOG_TERMINAL:
        report = r.discrepancies(corpus_models[name])
        assert not report.log_terminal
        assert report.offenders == (0,)
        assert report.b[0] <= -1


def test_adjunction_identity(corpus_models):
    for model in corpus_models.values():
        k = r.relative_canonical(model)
        for i, curve in enumerate(model.curves):
            assert k.products()[i] == 2 * curve.genus - 2 - curve.self_int


def test_relative_canonical_has_zero_strict_part(corpus_models):
    for model in corpus_models.values():
        assert not any(r.relative_canonical(model).strict)


def test_relative_canonical_is_read_off_the_discrepancy_solve_once(
        corpus_models):
    """One cached Divisor per model, equal to the discrepancies with a zero
    strict part, asked before or after discrepancies, and on a model that
    went through pickle."""
    rng = random.Random(20081023)
    models = list(corpus_models.values()) + [
        random_log_terminal_model(rng) for _ in range(8)]
    fresh = r.build_model([("E1", 0, -3)], strict=[("C", {"E1": 1})])
    assert r.relative_canonical(fresh).num == (-1, 0)  # before discrepancies
    models += [fresh, pickle.loads(pickle.dumps(fresh))]
    for model in models:
        k_f = r.relative_canonical(model)
        assert k_f is r.relative_canonical(model) and k_f.model is model
        assert k_f == r.Divisor(model, r.discrepancies(model).b,
                                (0,) * len(model.strict_curves))


# -- multiplier_divisor ---------------------------------------------------------

def test_a1_multiplier_at_one():
    m = a1()
    g = r.Divisor.curve(m, 0)
    assert r.multiplier_divisor(m, g, 1) == g


def test_a1_multiplier_below_threshold_is_trivial():
    m = a1()
    g = r.Divisor.curve(m, 0)
    assert r.multiplier_divisor(m, g, Fraction(1, 2)) == r.Divisor.zero(m)


def test_minus_three_multiplier_uses_discrepancy():
    m = r.build_model([("E1", 0, -3)])
    g = r.Divisor.curve(m, 0)
    # floor(2/3 E + 1/3 E) = E, while floor(2/3 E) alone would vanish
    assert r.multiplier_divisor(m, g, Fraction(2, 3)) == g


def test_multiplier_is_antinef_integral_and_monotone(corpus_models):
    rng = random.Random(41)
    lams = [Fraction(1, 6), Fraction(1, 2), Fraction(9, 10), Fraction(1),
            Fraction(3, 2)]
    for model in corpus_models.values():
        for _ in range(10):
            g = random_antinef(model, rng)
            previous = None
            for lam in lams:
                j = r.multiplier_divisor(model, g, lam)
                assert j.is_integral() and r.is_antinef(j)
                assert j.is_effective()
                if previous is not None:
                    assert previous.less_equal(j)
                previous = j


def test_multiplier_monotone_in_ideal(corpus_models):
    rng = random.Random(43)
    for model in corpus_models.values():
        g1 = random_antinef(model, rng)
        g2 = random_antinef(model, rng)
        both = g1 + g2
        assert r.is_antinef(both)
        j1 = r.multiplier_divisor(model, g1, Fraction(2, 3))
        jb = r.multiplier_divisor(model, both, Fraction(2, 3))
        assert j1.less_equal(jb)


# -- input validation -------------------------------------------------------------

def test_rejects_non_antinef_ideal():
    m = a2()
    with pytest.raises(r.NotAntinef):
        r.multiplier_divisor(m, r.Divisor.curve(m, 0), 1)


def test_rejects_non_effective_ideal():
    m = a1()
    with pytest.raises(r.NotEffective):
        r.multiplier_divisor(m, r.Divisor.from_coeffs(m, exc=[-1]), 1)


def test_rejects_non_integral_ideal():
    m = a1()
    g = r.Divisor.from_coeffs(m, exc=[Fraction(1, 2)])
    with pytest.raises(r.NonIntegralInput):
        r.multiplier_divisor(m, g, 1)


def test_rejects_ideal_from_another_model():
    with pytest.raises(r.ModelMismatch):
        r.multiplier_divisor(a2(), r.Divisor.from_coeffs(a1(), exc=[-1]), 1)


def test_rejects_non_positive_lambda():
    m = a1()
    g = r.Divisor.curve(m, 0)
    for lam in (0, Fraction(-1, 2)):
        with pytest.raises(r.NonPositiveLambda):
            r.multiplier_divisor(m, g, lam)


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"])
def test_rejects_non_rational_lambda(bad):
    model = a1()
    g = r.Divisor.curve(model, 0).scale(2)
    with pytest.raises(r.NotRational, match=re.escape(repr(bad))):
        r.multiplier_divisor(model, g, bad)


# -- models of chain classes ---------------------------------------------------

CLASS_MODEL_ENTRIES = {
    "discrepancies": lambda m, cert: r.discrepancies(m),
    "dual_basis": lambda m, cert: r.dual_basis(m),
    "relative_canonical": lambda m, cert: r.relative_canonical(m),
    "check_negative_definite": lambda m, cert: r.check_negative_definite(m),
    "multiplier_divisor": lambda m, cert: r.multiplier_divisor(m, cert.G, cert.lam),
    "realize": lambda m, cert: r.realize(m, cert.F),
}


@pytest.mark.parametrize("entry", sorted(CLASS_MODEL_ENTRIES))
def test_a_model_of_chain_classes_is_refused(entry):
    """Its form is P^T M P, not a surface's: solved as one, it gave
    b = -252, -126, ... on e8 and a multiplier divisor other than F.  The
    refusal is by type: a ChainModel has no curves to build."""
    cert = e8_twice_z()
    assert [len(info.points) for info in cert.config.chains] == [2]
    assert "curves" not in vars(cert.config.model)
    with pytest.raises(r.ModelMismatch, match="chain classes"):
        CLASS_MODEL_ENTRIES[entry](cert.config.model, cert)
    assert "curves" not in vars(cert.config.model)


@pytest.mark.parametrize("e", ([0, 0], [1, 0], [1, 1], [2, 1]))
def test_every_chain_model_is_refused_and_resolved_at_one_point(e):
    """Chainless, of one-point classes or not, a ChainModel is no
    resolution; its resolution() is one where each class has one point,
    and raises where one has two."""
    config = r.GenericConfiguration.build(a2(), e, [2, 3])
    model = config.model
    assert isinstance(model, r.ChainModel)
    assert not isinstance(model, r.ResolutionModel)
    zero = r.Divisor.zero(model)
    for solve in (r.discrepancies, r.dual_basis,
                  lambda m: r.multiplier_divisor(m, zero, 1)):
        with pytest.raises(r.ModelMismatch, match="chain classes"):
            solve(model)
    if max(e) > 1:
        with pytest.raises(r.ModelMismatch, match="chain classes"):
            model.resolution()
    else:
        blown = model.resolution()
        assert blown.u == model.u and blown.labels == model.labels
        assert r.discrepancies(blown).log_terminal


def test_one_point_layouts_are_resolutions():
    """ungroup lays each chain out on its own: the blown-up surface, where
    the chain over E8 reads b = 1, 2, 3, ... and the multiplier divisor of
    (G, lambda) is F."""
    cert = e8_twice_z()
    blown = ungroup(cert.config)
    ((_, span), _) = chain_spans(blown)
    b = r.discrepancies(blown.model).b
    assert b[:8] == (0,) * 8
    assert b[span] == tuple(range(1, 22))
    assert r.check_negative_definite(blown.model)
    assert len(r.dual_basis(blown.model)) == blown.model.u
    assert r.multiplier_divisor(blown.model, expand(cert.config, cert.G),
                                cert.lam) == expand(cert.config, cert.F)
