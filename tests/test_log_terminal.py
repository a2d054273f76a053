"""Log terminal models beyond the corpus: one to three random blowups of
the log-terminal corpus graphs, each at a free point of a curve or at a
point where two curves meet once, and models drawn by the classification
(chains, and stars with platonic arms).  Blowups keep a model log
terminal, so their discrepancies must follow the blowup rule and realize
must pass on them (the paper's theorem on every log terminal model)."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, seed, settings

import resdiv as r
from conftest import (LOG_TERMINAL_NAMES, first_failure, load_doc,
                      single_chain)
from oracles import (_chain_tag, blow_up_free_point, blow_up_meeting_point,
                     blown_discrepancies, dense_matrix, negdef_by_minors,
                     random_arms, random_log_terminal_model, star_model)
from resdiv.cli import random_antinef_divisor

SETTINGS = settings(max_examples=40, deadline=2000)


def _free_centres(model):
    """The curves whose free-point blowup gets an unused label: the blowup
    of a chain curve continues its chain, so only from its last curve."""
    labels = set(model.labels)
    return [i for i, label in enumerate(model.labels)
            if (tag := _chain_tag(label)) is None
            or "%s(%d,%d)" % (tag[0], tag[1], tag[2] + 1) not in labels]


@st.composite
def blown_corpus_models(draw):
    """(graph name, blown model, its discrepancies by the blowup rule)."""
    name = draw(st.sampled_from(LOG_TERMINAL_NAMES))
    model = load_doc(name).model
    b = r.discrepancies(model).b
    for _ in range(draw(st.integers(1, 3))):
        meets = [(i, j) for i, j, m in model.meetings if m == 1]
        if meets and draw(st.booleans()):
            step = blow_up_meeting_point(model, *draw(st.sampled_from(meets)))
        else:
            step = blow_up_free_point(
                model, draw(st.sampled_from(_free_centres(model))))
        model, b = step.new_model, blown_discrepancies(b, step)
    return name, model, b


def test_meeting_point_blowup():
    a2 = r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])
    step = blow_up_meeting_point(a2, 0, 1)
    assert step.new_model.labels == ("E1", "E2", "[E1,E2]")
    assert dense_matrix(step.new_model) == ((-3, 0, 1), (0, -3, 1), (1, 1, -1))
    assert step.sigma_pullback.columns == ((1, 0, 1), (0, 1, 1))
    assert blown_discrepancies((0, 0), step) == (0, 0, 1)
    assert r.discrepancies(step.new_model).b == (0, 0, 1)


@seed(20080918)
@SETTINGS
@given(blown=blown_corpus_models())
def test_blowup_rule_gives_the_discrepancies(blown):
    name, model, b = blown
    report = r.discrepancies(model)
    assert report.b == b, name
    assert report.log_terminal, name


@seed(20080919)
@SETTINGS
@given(blown=blown_corpus_models(), k=st.integers(0, 99))
def test_realize_passes_on_blown_models(blown, k):
    name, model, _ = blown
    f0 = random_antinef_divisor(model, "blown:%s:%d" % (name, k))
    cert = r.realize(model, f0)
    assert cert.passed, (name, [(c.name, c.detail) for c in cert.checks
                                if not c.passed])


# -- models drawn by the classification ------------------------------------------

RANDOMS = st.randoms(use_true_random=False)


@seed(20081020)
@SETTINGS
@given(rng=RANDOMS, centre=st.integers(1, 4))
def test_definite_platonic_stars_are_log_terminal(rng, centre):
    arms = random_arms(rng)
    model = star_model(centre, [w for w, _, _ in arms])
    definite = negdef_by_minors(dense_matrix(model))
    assert definite == (centre > sum(Fraction(q, d) for _, d, q in arms))
    if definite:
        assert r.discrepancies(model).log_terminal, dense_matrix(model)


@seed(20081021)
@SETTINGS
@given(rng=RANDOMS, k=st.integers(0, 99))
def test_realize_passes_on_generated_models(rng, k):
    model = random_log_terminal_model(rng)
    f0 = random_antinef_divisor(model, "generated:%d" % k)
    cert = r.realize(model, f0)
    assert cert.passed, (dense_matrix(model), first_failure(cert))


@seed(20081022)
@SETTINGS
@given(rng=RANDOMS, k=st.integers(0, 99))
def test_pullback_to_a_free_point_blowup_realizes(rng, k):
    """F0 realizes on a model, so its pullback realizes on the blowup of a
    free point of E_i, whose new curve E_i(1,1) the chains over E_i skip."""
    model = random_log_terminal_model(rng)
    f0 = random_antinef_divisor(model, "generated:%d" % k)
    assert r.realize(model, f0).passed
    config = single_chain(model, rng.randrange(model.u), 1)
    cert = r.realize(config.model, config.pullback.apply(f0))
    assert cert.passed, (dense_matrix(model), first_failure(cert))
