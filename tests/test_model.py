"""The intersection form is stored once, as meetings; everything else is
derived from it and must agree with it."""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import CORPUS_DIR, CORPUS_NAMES, load_doc
from oracles import dense_matrix, ungroup


def assert_one_form(model):
    matrix = dense_matrix(model)
    u = model.u
    assert len(matrix) == u and all(len(row) == u for row in matrix)
    for i in range(u):
        assert model.sparse_rows[i] == tuple(
            (j, v) for j, v in enumerate(matrix[i]) if v)
        assert matrix[i][i] == model.curves[i].self_int
        for j in range(u):
            assert matrix[i][j] == matrix[j][i]
    assert model.meetings == tuple(
        (i, j, matrix[i][j]) for i in range(u) for j in range(i + 1, u)
        if matrix[i][j])


def test_corpus_models_hold_one_form(corpus_models):
    for model in corpus_models.values():
        assert_one_form(model)


def test_built_models_hold_one_form(log_terminal_models):
    # the same configurations as test_build_matches_iterated_route
    rng = random.Random(6)
    for model in log_terminal_models.values():
        e = [rng.randint(0, 2) for _ in range(model.u)]
        n = [rng.randint(1, 3) for _ in range(model.u)]
        assert_one_form(ungroup(r.GenericConfiguration.build(model, e, n)).model)


def test_meeting_declaration_order_does_not_matter():
    rng = random.Random(11)
    for name in CORPUS_NAMES:
        text = (CORPUS_DIR / ("%s.graph" % name)).read_text()
        lines = text.splitlines()
        meets = [i for i, line in enumerate(lines) if line.startswith("meet ")]
        swapped = []
        for i in meets:
            _, a, b, mult = lines[i].split()
            swapped.append("meet %s %s %s" % (b, a, mult))
        rng.shuffle(swapped)
        for i, line in zip(meets, swapped):
            lines[i] = line
        doc = load_doc(name)
        other = r.parse_graph("\n".join(lines) + "\n")
        assert other.model == doc.model, name
        assert (r.serialize_model(other.model, other.divisors)
                == r.serialize_model(doc.model, doc.divisors)), name


def test_build_memory_is_linear_in_curves():
    model = load_doc("e8").model
    e = [0] * 7 + [1]  # one chain, so the model is the blown-up surface
    n = [0] * 7 + [2576]
    tracemalloc.start()
    try:
        config = r.GenericConfiguration.build(model, e, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert config.model.u == 2584
    assert peak < 16 * 2 ** 20


def test_form_build_memory_is_linear_in_curves():
    """The same bound with the model's rows, read off the layout, and the
    pullback of E8 (itself and the whole chain) read."""
    model = load_doc("e8").model
    e = [0] * 7 + [1]  # one chain, so the model is the blown-up surface
    n = [0] * 7 + [2576]
    tracemalloc.start()
    try:
        config = r.GenericConfiguration.build(model, e, n)
        rows = config.model.sparse_rows
        pulled = config.pullback.apply(r.Divisor.curve(model, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2584 and sum(map(bool, pulled.num)) == 1 + 2576
    assert peak < 16 * 2 ** 20


def test_constructor_rejects_meetings_it_cannot_store_once():
    curves = [r.ExcCurve("E1", 0, -2), r.ExcCurve("E2", 0, -2)]
    assert r.ResolutionModel(curves, [(1, 0, 1)]).meetings == ((0, 1, 1),)
    # a pair given again at its multiplicity is stored once; at another,
    # (0, 1, 1) beside (1, 0, 2), it is refused below
    assert (r.ResolutionModel(curves, [(0, 1, 1), (1, 0, 1)])
            == r.ResolutionModel(curves, [(0, 1, 1)]))
    # the last five used to end in a bare TypeError, from the sort or
    # from indexing the sparse rows
    for meetings in ([(0, 1, 1), (1, 0, 2)], [(0, 0, 1)], [(0, 2, 1)],
                     [(0, 1, 0)], [(-1, 1, 1)], [(0, 1, 1), (1, 0, "x")],
                     [("0", 1, 1)], [(None, 1, 1)], [(0.0, 1, 1)],
                     [(Fraction(0), 1, 1)]):
        with pytest.raises(r.MalformedGraph,
                           match="one positive int multiplicity per pair"):
            r.ResolutionModel(curves, meetings)


@pytest.mark.parametrize("args, entry", [
    (([("E1", 0, -2), ("E1", 0, -2)],), ("curve", 1)),
    (([("E1", 0, -2), ("E2", -1, -2)],), ("curve", 1)),
    (([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1), ("E2", "E9", 1)]),
     ("meet", 1)),
    (([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1), ("E2", "E2", 1)]),
     ("meet", 1)),
    (([("E1", 0, -2)], [], [("C", {"E1": 1}), ("D", {"E9": 1})]),
     ("strict", 1)),
    (([("E1", 0, -2)], [], [("C", {"E1": 1}), ("D=1", {"E1": 1})]),
     ("strict", 1)),
    (([("E1", 0, -2)], [], [("C", {"E1": 1}), ("D", {"E1": -1})]),
     ("strict", 1)),
], ids=["duplicate", "genus", "unknown_in_meet", "self_meeting",
        "unknown_in_strict", "strict_name", "negative_incidence"])
def test_build_model_errors_name_the_entry_as_given(args, entry):
    """MalformedGraph.entry is (kind, k) for the k-th entry of that kind
    given to build_model, which parse_graph maps to its line."""
    with pytest.raises(r.MalformedGraph) as info:
        r.build_model(*args)
    assert info.value.entry == entry


@pytest.mark.parametrize("curves, meetings", [
    ([r.ExcCurve("E1", 0, 2)], []),
    ([r.ExcCurve("E1", -1, -2)], []),
    ([r.ExcCurve("E1", 0, -2), r.ExcCurve("E2", 0, -2)], [(0, 1, 1.5)]),
], ids=["positive_self_int", "negative_genus", "float_multiplicity"])
def test_constructor_rejects_malformed_curves_and_multiplicities(curves,
                                                                meetings):
    """A direct construction used to accept these; the integer solver
    would then floor a float or fail inside math.gcd."""
    with pytest.raises(r.MalformedGraph):
        r.ResolutionModel(curves, meetings)


def test_constructor_rejects_malformed_strict_incidences():
    """One non-negative int per curve: too many entries used to crash
    later in product_numerators, and () and (-3,) used to be accepted."""
    curves = [r.ExcCurve("E1", 0, -2)]
    assert r.ResolutionModel(curves, (), [r.StrictCurve("C", (1,))]).u == 1
    for incidence in ((1, 1), (), (-3,)):
        with pytest.raises(r.MalformedGraph, match="strict curve 'C'"):
            r.ResolutionModel(curves, (), [r.StrictCurve("C", incidence)])


@pytest.mark.parametrize("label", ["E 1", "E#1", "E=1", "", "E\n1", "E\t1"])
def test_constructor_rejects_labels_no_graph_file_holds(label):
    """serialize_model would write these as text parse_graph rejects,
    so the constructor refuses them on both kinds of curve."""
    with pytest.raises(r.MalformedGraph, match=re.escape(repr(label))):
        r.build_model([(label, 0, -2)])
    with pytest.raises(r.MalformedGraph, match=re.escape(repr(label))):
        r.build_model([("E1", 0, -2)], strict=[(label, {"E1": 1})])


def test_constructor_rejects_duplicate_labels():
    curves = [r.ExcCurve("E1", 0, -2)]
    for strict in ([r.StrictCurve("C", (1,)), r.StrictCurve("C", (0,))],
                   [r.StrictCurve("E1", (1,))]):
        label = strict[-1].label
        with pytest.raises(r.MalformedGraph,
                           match="duplicate label %r" % (label,)):
            r.ResolutionModel(curves, (), strict)
    with pytest.raises(r.MalformedGraph, match="duplicate label 'E1'"):
        r.ResolutionModel(curves * 2)


def test_constructor_rejects_wrong_shapes():
    """These used to end in a bare ValueError, AttributeError or
    TypeError: entries of the wrong length, a tuple for a curve, a list
    for a label, and None for the incidences."""
    curves = [r.ExcCurve("E1", 0, -2), r.ExcCurve("E2", 0, -2)]
    with pytest.raises(r.MalformedGraph, match="must have 3 entries"):
        r.ResolutionModel(curves, [(0, 1)])
    with pytest.raises(r.MalformedGraph, match="expected ExcCurve"):
        r.ResolutionModel([("E1", 0, -2)])
    with pytest.raises(r.MalformedGraph, match="str label"):
        r.build_model([(["x"], 0, -2)])
    with pytest.raises(r.MalformedGraph, match="unknown curve"):
        r.build_model([("E1", 0, -2)], [(["x"], "E1", 1)])
    with pytest.raises(r.MalformedGraph, match="strict curve 'C'"):
        r.ResolutionModel(curves, (), [r.StrictCurve("C", None)])
    # build_model unpacked these into a bare ValueError
    for args in ([("E1", 0)],), ([("E1", 0, -2)], [("E1", "E1")]), \
            ([("E1", 0, -2)], (), [("C",)]):
        with pytest.raises(r.MalformedGraph, match="must have"):
            r.build_model(*args)


JUNK = st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2),
                 st.none(), st.fractions(max_denominator=3))


def rarely(bad, good):
    """``good`` seven times in eight, else ``bad``, so that a share of the
    drawn models is valid."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


def value(low, high):
    return rarely(JUNK, st.integers(low, high))


@st.composite
def raw_models(draw):
    """Constructor arguments: labels from a small set, the rest value()s,
    and now and then a wrong shape: a list label, a plain tuple for a
    curve, a meeting of two entries, None for the incidences."""
    labels = draw(st.lists(st.sampled_from(["E1", "E2", "E3"]), min_size=2,
                           max_size=3, unique=True))
    curves = []
    for label in labels:
        fields = (draw(rarely(st.just([label]), st.just(label))),
                  draw(value(0, 1)), draw(value(-3, -1)))
        curves.append(draw(rarely(st.just(fields),
                                  st.just(r.ExcCurve(*fields)))))
    u = len(curves)
    meetings = draw(st.lists(rarely(
        st.tuples(value(0, 2), value(0, 2)),
        st.tuples(value(0, 2), value(0, 2), value(1, 2))), max_size=3))
    strict = draw(st.lists(st.builds(
        r.StrictCurve, st.sampled_from(["C", "D", "E1"]),
        rarely(st.none(), st.lists(value(0, 2), min_size=u,
                                   max_size=u + 1).map(tuple))),
        max_size=2))
    return curves, meetings, strict


@seed(20080918)
@given(args=raw_models())
@settings(deadline=None, max_examples=300)
def test_constructor_raises_only_malformed_graph(args):
    try:
        model = r.ResolutionModel(*args)
    except r.MalformedGraph:
        return
    labels = model.labels + model.strict_labels
    assert len(set(labels)) == len(labels)
    assert_one_form(model)
