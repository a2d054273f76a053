import math
import random
from fractions import Fraction

import pytest

import resdiv as r
from conftest import random_rational
from oracles import dense_matrix, det, negdef_by_minors
from resdiv import linalg


def a1():
    return r.build_model([("E1", 0, -2)])


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


# -- build_model ------------------------------------------------------------

def test_build_single_curve_model():
    m = a1()
    assert m.u == 1
    assert dense_matrix(m) == ((-2,),)


def test_build_a2_matrix():
    m = a2()
    assert dense_matrix(m) == ((-2, 1), (1, -2))


def test_asymmetric_meeting_rejected():
    with pytest.raises(r.MalformedGraph):
        r.build_model([("E1", 0, -2), ("E2", 0, -2)],
                      [("E1", "E2", 1), ("E2", "E1", 2)])


def test_non_negative_self_intersection_rejected():
    with pytest.raises(r.MalformedGraph):
        r.build_model([("E1", 0, 2)])


def test_dangling_reference_rejected():
    with pytest.raises(r.MalformedGraph):
        r.build_model([("E1", 0, -2)], [("E1", "E9", 1)])
    with pytest.raises(r.MalformedGraph):
        r.build_model([("E1", 0, -2)], strict=[("C", {"E9": 1})])


def test_zero_meeting_multiplicity_rejected():
    # ResolutionModel's rule; parse_graph gives its error the meet's line
    with pytest.raises(r.MalformedGraph):
        r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 0)])
    with pytest.raises(r.GraphSyntaxError):
        r.parse_graph("curve E1 genus=0 self=-2\n"
                      "curve E2 genus=0 self=-2\n"
                      "meet E1 E2 0\n")


# -- check_negative_definite --------------------------------------------------

def test_a2_negative_definite():
    assert r.check_negative_definite(a2()).is_negative_definite


def test_single_minus_one_curve_negative_definite():
    m = r.build_model([("E1", 0, -1)])
    assert r.check_negative_definite(m)


def test_double_meeting_not_negative_definite():
    m = r.build_model([("E1", 0, -1), ("E2", 0, -1)], [("E1", "E2", 2)])
    result = r.check_negative_definite(m)
    assert not result
    v = result.witness
    total = sum(v[i] * dense_matrix(m)[i][j] * v[j]
                for i in range(m.u) for j in range(m.u))
    assert total >= 0


def test_negdef_agrees_with_minor_oracle_on_corpus(corpus_models):
    for model in corpus_models.values():
        assert r.check_negative_definite(model).is_negative_definite
        assert negdef_by_minors(dense_matrix(model))


def _random_forms():
    """200 seeded random weighted graphs: (intersection matrix, model)."""
    rng = random.Random(20260823)
    for _ in range(200):
        u = rng.randint(1, 6)
        selfs = [-rng.randint(1, 4) for _ in range(u)]
        mat = [[0] * u for _ in range(u)]
        for i in range(u):
            mat[i][i] = selfs[i]
        for i in range(u):
            for j in range(i + 1, u):
                if rng.random() < 0.4:
                    mat[i][j] = mat[j][i] = rng.randint(1, 2)
        curves = [("E%d" % i, 0, selfs[i]) for i in range(u)]
        meetings = [("E%d" % i, "E%d" % j, mat[i][j])
                    for i in range(u) for j in range(i + 1, u) if mat[i][j]]
        yield mat, r.build_model(curves, meetings)


def test_negdef_agrees_with_minor_oracle_on_random_graphs():
    for mat, model in _random_forms():
        u = model.u
        got = r.check_negative_definite(model)
        assert got.is_negative_definite == negdef_by_minors(mat)
        if not got:
            v = got.witness
            q = sum(v[i] * mat[i][j] * v[j] for i in range(u) for j in range(u))
            assert q >= 0


def _leading_minor(mat, k):
    """det of the leading k x k block, by the cofactor oracle."""
    return det(tuple(tuple(row[:k]) for row in mat[:k]))


def test_solve_columns_agrees_with_minor_oracle_on_random_graphs():
    rng = random.Random(5)
    definite = 0
    for mat, model in _random_forms():
        u = len(mat)
        if not negdef_by_minors(mat):
            with pytest.raises(linalg.NotNegativeDefinite) as info:
                linalg.solve_columns(model.sparse_rows, [])
            # first leading minor det(M[:k+1,:k+1]) without sign (-1)^(k+1)
            k = info.value.index
            for j in range(k + 1):
                d = _leading_minor(mat, j + 1)
                assert ((-1) ** (j + 1) * d > 0) == (j < k)
            assert info.value.pivot == \
                _leading_minor(mat, k + 1) / _leading_minor(mat, k)
            assert info.value.pivot >= 0
            continue
        definite += 1
        den = abs(det(tuple(map(tuple, mat))))
        assert linalg.solve_columns(model.sparse_rows, []) == (den, [])
        rhs = [[random_rational(rng) for _ in range(u)] for _ in range(2)]
        scale = math.lcm(*(v.denominator for b in rhs for v in b))
        got_den, xs = linalg.solve_columns(
            model.sparse_rows, [[int(v * scale) for v in b] for b in rhs])
        assert got_den == den
        for b, x in zip(rhs, xs):
            assert all(isinstance(v, int) for v in x)
            assert [sum(mat[i][j] * Fraction(x[j], den * scale)
                        for j in range(u)) for i in range(u)] == b
    assert 0 < definite < 200


def test_solve_columns_is_exact_on_huge_int_right_hand_sides():
    """den = |det M| and M x = den b hold exactly on ints near 10^40."""
    rng = random.Random(17)
    solved = 0
    for mat, model in _random_forms():
        if not negdef_by_minors(mat):
            continue
        u = len(mat)
        rhs = [[rng.randint(-10 ** 40, 10 ** 40) for _ in range(u)]
               for _ in range(3)]
        den, xs = linalg.solve_columns(model.sparse_rows, rhs)
        assert den == abs(det(tuple(map(tuple, mat))))
        for b, x in zip(rhs, xs):
            assert [sum(mat[i][j] * x[j] for j in range(u))
                    for i in range(u)] == [den * v for v in b]
        solved += 1
    assert solved > 10


# -- dual_basis ---------------------------------------------------------------

def test_dual_basis_a1():
    (dual,) = r.dual_basis(a1())
    assert dual.exc == (Fraction(1, 2),)


def test_dual_basis_a2():
    d1, d2 = r.dual_basis(a2())
    assert d1.exc == (Fraction(2, 3), Fraction(1, 3))
    assert d2.exc == (Fraction(1, 3), Fraction(2, 3))


def test_dual_basis_minus_one_curve():
    m = r.build_model([("E1", 0, -1)])
    (dual,) = r.dual_basis(m)
    assert dual.exc == (Fraction(1),)


def test_dual_basis_duality_and_effectivity(corpus_models):
    for model in corpus_models.values():
        duals = r.dual_basis(model)
        for i, dual in enumerate(duals):
            assert dual.is_effective()
            for j in range(model.u):
                assert dual.products()[j] == -int(i == j)


# -- intersection products -----------------------------------------------------

def test_intersect_adjacent_curves():
    m = a2()
    assert r.Divisor.curve(m, 0).products()[1] == 1


def test_intersect_zero_divisor():
    m = a2()
    z = r.Divisor.zero(m)
    assert all(z.products()[i] == 0 for i in range(m.u))


def test_intersect_dual_with_own_curve():
    m = a2()
    assert r.dual_basis(m)[0].products()[0] == -1


def test_intersect_is_bilinear(corpus_models):
    rng = random.Random(7)
    for model in corpus_models.values():
        d1 = r.Divisor(model,
                       tuple(random_rational(rng) for _ in range(model.u)),
                       tuple(random_rational(rng)
                             for _ in model.strict_curves))
        d2 = r.Divisor(model,
                       tuple(random_rational(rng) for _ in range(model.u)),
                       tuple(random_rational(rng)
                             for _ in model.strict_curves))
        a, b = random_rational(rng), random_rational(rng)
        for i in range(model.u):
            assert (d1.scale(a) + d2.scale(b)).products()[i] == \
                a * d1.products()[i] + b * d2.products()[i]


# -- numerical pullback / pushforward ---------------------------------------------

def test_pullback_through_a1_strict_curve():
    m = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    c = r.Divisor.from_coeffs(m, strict={"C": 1})
    pulled = r.numerical_pullback(m, c)
    assert pulled.exc == (Fraction(1, 2),)
    assert pulled.strict == (Fraction(1),)
    assert pulled.products()[0] == 0


def test_pullback_is_linear_in_strict_part():
    m = r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)],
                      strict=[("C", {"E1": 1})])
    c = r.Divisor.from_coeffs(m, strict={"C": 2})
    pulled = r.numerical_pullback(m, c)
    expected = r.dual_basis(m)[0].scale(2)
    assert pulled.exc == expected.exc


def test_pullback_of_zero_is_zero(corpus_models):
    for model in corpus_models.values():
        assert r.numerical_pullback(model, r.Divisor.zero(model)) == \
            r.Divisor.zero(model)


def test_pullback_pushforward_roundtrip(corpus_models):
    rng = random.Random(11)
    for model in corpus_models.values():
        if not model.strict_curves:
            continue
        c = r.Divisor(model, (Fraction(0),) * model.u,
                      tuple(random_rational(rng)
                            for _ in model.strict_curves))
        pulled = r.numerical_pullback(model, c)
        assert all(pulled.products()[i] == 0 for i in range(model.u))
        assert pulled.pushforward().strict == c.strict


def test_pushforward_drops_exceptional_part():
    m = r.build_model([("E1", 0, -2)], strict=[("C", {"E1": 1})])
    d = r.Divisor.from_coeffs(m, exc={"E1": 1}, strict={"C": 3})
    pushed = d.pushforward()
    assert not any(pushed.exc)
    assert pushed.strict == (Fraction(3),)
    assert r.Divisor.curve(m, 0).pushforward() == r.Divisor.zero(m)
