"""The exact solver against the Fraction Gauss-Jordan oracle.

``linalg.solve_columns`` eliminates in minimum-degree order, while the
oracle eliminates in index order, so agreement on shuffled trees, on
graphs with cycles and double meetings, and on indefinite forms checks
that the order changes neither the solution nor the error.
"""

import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import LOG_TERMINAL_NAMES, load_doc
from oracles import dense_matrix, gauss_jordan, min_degree_order, ungroup
from resdiv import linalg


def _model(selfs, meetings):
    return r.ResolutionModel(
        [r.ExcCurve("E%d" % i, 0, s) for i, s in enumerate(selfs)], meetings)


@st.composite
def trees(draw):
    """A tree of up to 60 curves, declared in a shuffled order; with
    weights at least the degree the form is often definite, and a weight
    one below the degree often makes it indefinite."""
    n = draw(st.integers(1, 60))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    low = draw(st.sampled_from([-1, 0]))
    selfs = [min(-1, -d - draw(st.integers(low, 2))) for d in degree]
    perm = draw(st.permutations(range(n)))
    return _model([selfs[perm.index(i)] for i in range(n)],
                  [(perm[a], perm[b], 1) for a, b in edges])


@st.composite
def graphs(draw):
    """Up to 12 curves with any meetings, of multiplicity 1 or 2."""
    n = draw(st.integers(1, 12))
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
    chosen = draw(st.lists(pairs, unique=True)) if n > 1 else []
    return _model([-draw(st.integers(1, 6)) for _ in range(n)],
                  [(i, j, draw(st.integers(1, 2))) for i, j in chosen])


def column_sets(u, rng):
    """Right-hand sides for one model: two dense random columns, the
    negated identity (what dual_basis passes), an all-zero column, columns
    with one nonzero entry each, and the empty column list."""
    dense = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(u)]
             for _ in range(2)]
    identity = [[-int(i == j) for i in range(u)] for j in range(u)]
    singles = [[0] * u for _ in range(3)]
    for column in singles:
        column[rng.randrange(u)] = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
    return [dense, identity, [[0] * u], singles, []]


def assert_solver_matches_oracle(model, rng):
    """Every column set of ``column_sets`` gives the oracle's den and xs,
    or its NotNegativeDefinite(index, pivot); one Gauss-Jordan run over all
    of them is the oracle."""
    rows, mat, u = model.sparse_rows, dense_matrix(model), model.u
    assert linalg._min_degree_order(rows) == min_degree_order(model)
    sets = column_sets(u, rng)
    pivots, oracle = gauss_jordan(mat, [b for columns in sets for b in columns])
    if oracle is None:
        k = len(pivots) - 1
        for columns in sets:
            with pytest.raises(linalg.NotNegativeDefinite) as info:
                linalg.solve_columns(rows, columns)
            assert (info.value.index, info.value.pivot) == (k, pivots[k])
        v = r.check_negative_definite(model).witness
        assert sum(v[i] * mat[i][j] * v[j]
                   for i in range(u) for j in range(u)) >= 0
        return
    for columns in sets:
        den, xs = linalg.solve_columns(rows, columns)
        assert den == abs(math.prod(pivots))
        assert len(xs) == len(columns)
        wanted, oracle = oracle[:len(columns)], oracle[len(columns):]
        for b, x, want in zip(columns, xs, wanted):
            assert all(isinstance(v, int) for v in x)
            assert [sum(mat[i][j] * x[j] for j in range(u))
                    for i in range(u)] == [den * v for v in b]
            assert x == [den * v for v in want]


@seed(20080918)
@settings(deadline=2000, max_examples=120)
@given(trees(), st.randoms(use_true_random=False))
def test_solver_matches_oracle_on_shuffled_trees(model, rng):
    assert_solver_matches_oracle(model, rng)


@seed(20080918)
@settings(deadline=2000, max_examples=200)
@given(graphs(), st.randoms(use_true_random=False))
def test_solver_matches_oracle_on_graphs_with_cycles(model, rng):
    assert_solver_matches_oracle(model, rng)


def assert_no_fill(model):
    """Each curve, when eliminated, has at most one neighbour left."""
    order = linalg._min_degree_order(model.sparse_rows)
    assert sorted(order) == list(range(model.u))
    pos = {i: k for k, i in enumerate(order)}
    for k, i in enumerate(order):
        assert sum(pos[j] > k for j, _ in model.sparse_rows[i]) <= 1


@seed(20080918)
@settings(deadline=2000, max_examples=120)
@given(trees())
def test_min_degree_order_has_no_fill_on_trees(model):
    assert_no_fill(model)


def test_min_degree_order_has_no_fill_on_blown_models():
    rng = random.Random(15)
    for name in LOG_TERMINAL_NAMES:
        base = load_doc(name).model
        for _ in range(5):
            e = [rng.randint(0, 3) for _ in range(base.u)]
            n = [rng.randint(0, 6) for _ in range(base.u)]
            config = r.GenericConfiguration.build(base, e, n)
            assert_no_fill(ungroup(config).model)
            assert_no_fill(config.model)
