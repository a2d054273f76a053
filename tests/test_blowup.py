import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import (CORPUS_DIR, CORPUS_NAMES, load_doc,
                      random_integral_divisor, single_chain)
from oracles import (PreconditionViolated, blow_up_free_point, chain_spans,
                     dense_matrix, expand, expand_by_labels, generic_chain,
                     iterated_configuration, quotient_matrix, ungroup,
                     verify_lemma_gen)
from resdiv.cli import _certificate_report, main


def a1():
    return r.build_model([("E1", 0, -2)])


def a2():
    return r.build_model([("E1", 0, -2), ("E2", 0, -2)], [("E1", "E2", 1)])


# -- single blowup ------------------------------------------------------------

def test_blowup_updates_matrix():
    res = blow_up_free_point(a1(), 0)
    m = res.new_model
    assert m.u == 2
    assert dense_matrix(m) == ((-3, 1), (1, -1))
    assert m.curves[1].label == "E1(1,1)"
    assert m.curves[1].self_int == -1


def test_blowup_pullback_and_canonical():
    base = a1()
    res = blow_up_free_point(base, 0)
    pulled = res.sigma_pullback.apply(r.Divisor.curve(base, 0))
    assert pulled.exc == (Fraction(1), Fraction(1))
    # pullbacks stay orthogonal to the new curve
    assert pulled.products()[1] == 0
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
        before = sum(c * p for c, p in zip(d1.exc, d2.products()))
        p1 = res.sigma_pullback.apply(d1)
        p2 = res.sigma_pullback.apply(d2)
        after = sum(c * p for c, p in zip(p1.exc, p2.products()))
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
    assert [dense_matrix(m)[i][i] for i in range(4)] == [-3, -2, -2, -1]
    assert config.K_sigma.exc == (Fraction(0), Fraction(1), Fraction(2),
                                  Fraction(3))
    assert config.pullback.apply(r.Divisor.curve(base, 0)).exc == \
        (Fraction(1),) * 4


def test_chain_of_length_zero_is_identity():
    base = a1()
    config = single_chain(base, 0, 0)
    assert config.model == base
    assert config.chains == ()
    assert config.K_sigma == r.Divisor.zero(config.model)
    d = r.Divisor.curve(base, 0)
    assert config.pullback.apply(d) == d


def test_pullback_rejects_a_divisor_on_another_model():
    config = single_chain(a2(), 0, 2)
    with pytest.raises(r.ModelMismatch):
        config.pullback.apply(r.Divisor.curve(a1(), 0))
    with pytest.raises(r.ModelMismatch):
        config.pullback.apply(r.Divisor.zero(config.model))


def test_the_pullback_follows_its_configuration():
    """The pullback holds its configuration alone and reads it when applied:
    taken before the model is swapped for the resolution (as ungroup does)
    it lands on the resolution, and on a pickled or deep-copied
    certificate on the copy's model; a divisor on another base model still
    raises ModelMismatch."""
    model = a2()
    cert = r.realize(model, r.Divisor.from_coeffs(model, exc=[2, 2]))
    full = r.GenericConfiguration(model, ungroup(cert.config).chains)
    pullback = full.pullback
    full.model = full.model.resolution()
    assert pullback._fields == ("config",)
    configs = [full, ungroup(cert.config)]
    for twin in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert twin.config is not cert.config
        assert twin.config.pullback.config is twin.config
        assert twin.config.pullback.apply(twin.F0) == twin.F
        configs.append(twin.config)
    for config in configs:
        pulled = config.pullback.apply(cert.F0)
        assert pulled.model is config.model
        assert pulled == (cert.F if config.model == cert.config.model
                          else expand(cert.config, cert.F))
        with pytest.raises(r.ModelMismatch):
            config.pullback.apply(r.Divisor.curve(a1(), 0))


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
    """The pullback read off the chains agrees with the composed dense
    pullbacks on each base curve and on a divisor with a strict part: each
    model gains a strict curve S."""
    rng = random.Random(6)
    for base in log_terminal_models.values():
        e = [rng.randint(0, 2) for _ in range(base.u)]
        n = [rng.randint(1, 3) for _ in range(base.u)]
        at = rng.randrange(base.u)
        s = r.StrictCurve("S", tuple(int(k == at) for k in range(base.u)))
        model = r.ResolutionModel(base.curves, base.meetings,
                                  base.strict_curves + (s,))
        fast = ungroup(r.GenericConfiguration.build(model, e, n))
        slow = iterated_configuration(model, e, n)
        assert fast.model == slow.model
        mixed = r.Divisor(model, [rng.randint(-3, 3) for _ in range(model.u)],
                          [rng.randint(1, 3) for _ in model.strict_curves])
        for d in [r.Divisor.curve(model, i) for i in range(model.u)] + [mixed]:
            assert fast.pullback.apply(d) == slow.pullback.apply(d)
        assert fast.K_sigma.exc == slow.K_sigma.exc
        assert fast.chains == slow.chains


def test_production_pullback_projection_formula(log_terminal_models):
    """(g*D).E_i is D.E_i on every base curve and 0 on every chain curve,
    for D with a strict part: each model gains a strict curve S."""
    rng = random.Random(14)
    for name, base in log_terminal_models.items():
        at = rng.randrange(base.u)
        s = r.StrictCurve("S", tuple(int(k == at) for k in range(base.u)))
        model = r.ResolutionModel(base.curves, base.meetings,
                                  base.strict_curves + (s,))
        e = [rng.randint(0, 2) for _ in range(model.u)]
        n = [rng.randint(0, 3) for _ in range(model.u)]
        config = r.GenericConfiguration.build(model, e, n)
        d = r.Divisor(model, [rng.randint(0, 6) for _ in range(model.u)],
                      [rng.randint(1, 3) for _ in model.strict_curves])
        pulled = config.pullback.apply(d).products()
        assert pulled[:model.u] == d.products(), name
        assert all(p == 0 for p in pulled[model.u:]), name


def test_configuration_duals_match_direct_solve():
    model = a2()
    config = ungroup(r.GenericConfiguration.build(model, e=[2, 1], n=[2, 3]))
    duals = r.dual_basis(config.model)
    for idx in range(config.model.u):
        unit = [int(k == idx) for k in range(config.model.u)]
        assert config.weighted_dual_sum(unit) == duals[idx]


def test_sum_and_weighted_duals_match_reference():
    model = a2()
    config = ungroup(r.GenericConfiguration.build(model, e=[1, 2], n=[3, 1]))
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
    config = ungroup(r.GenericConfiguration.build(a2(), e=[1, 1], n=[2, 2]))
    assert len(config.chains) == 2
    over0 = [span for info, span in chain_spans(config) if info.base == 0]
    assert len(over0) == 1 and over0[0] == slice(2, 4)
    curves = config.model.curves
    assert curves[over0[0].start + 1].label == "E1(1,2)"
    assert curves[0].label == "E1"
    duals = r.dual_basis(config.model)
    for _, span in chain_spans(config):
        for idx in range(span.start, span.stop):
            unit = [int(k == idx) for k in range(config.model.u)]
            assert config.weighted_dual_sum(unit) == duals[idx]


# -- identical chains, laid out once ---------------------------------------------------

def test_quotient_form_is_the_class_form(log_terminal_models):
    """build lays the copies of a chain out once, and its form is P^T M P
    for the blown-up surface's M, read off the labels by the oracle;
    divisors on it expand as the label oracle says, and its weighted dual
    sums are those of the blown-up surface."""
    rng = random.Random(9)
    for name, model in log_terminal_models.items():
        e = [rng.randint(0, 3) for _ in range(model.u)]
        n = [rng.randint(0, 3) for _ in range(model.u)]
        config = r.GenericConfiguration.build(model, e, n)
        full = ungroup(config)
        assert dense_matrix(config.model) == quotient_matrix(full.model,
                                                             config.model), name
        assert [(i.base, i.points, i.length) for i in config.chains] == [
            (i, tuple(range(1, e[i] + 1)), n[i])
            for i in range(model.u) if e[i] and n[i]]
        assert [(i.base, i.points) for i in full.chains] == [
            (i.base, (p,)) for i in config.chains for p in i.points]
        d = r.Divisor(config.model,
                      [rng.randint(-3, 6) for _ in range(config.model.u)],
                      [rng.randint(0, 2) for _ in model.strict_curves])
        assert expand(config, d) == expand_by_labels(d, full.model), name
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(config.model.u)]
        assert expand(config, config.weighted_dual_sum(weights)) == \
            full.weighted_dual_sum(expand_by_labels(
                r.Divisor(config.model, weights,
                          [0] * len(model.strict_curves)),
                full.model).exc), name


def test_build_refuses_models_past_the_limit():
    """Sized before anything is allocated: 10^9 curves end at once."""
    model = a2()
    started = time.perf_counter()
    with pytest.raises(r.TooManyCurves, match="1000000002 curves"):
        r.GenericConfiguration.build(model, [1, 0], [10 ** 9, 0])
    assert time.perf_counter() - started < 0.1
    limit = r.MAX_BLOWN_CURVES - model.u
    assert r.GenericConfiguration.build(model, [1, 0], [0, 0]).model.u == 2
    with pytest.raises(r.TooManyCurves):
        r.GenericConfiguration.build(model, [1, 1], [limit, 1])
    assert issubclass(r.TooManyCurves, ValueError)


# -- chain monotonicity report ---------------------------------------------------

def test_lemma_report_on_pulled_back_divisor():
    base = a2()
    chain = single_chain(base, 0, 2)
    d = chain.pullback.apply(
        r.Divisor.from_coeffs(base, exc=[2, 1]))
    report = verify_lemma_gen(chain, d)
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
    report = verify_lemma_gen(chain, d)
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
            report = verify_lemma_gen(chain, d)
            assert report.all_hold


def test_lemma_rejects_bad_inputs():
    base = a1()
    chain = single_chain(base, 0, 2)
    with pytest.raises(PreconditionViolated):
        verify_lemma_gen(chain, r.Divisor.curve(chain.model, 0))
    with pytest.raises(PreconditionViolated):
        verify_lemma_gen(chain, r.Divisor.zero(base))
    empty = single_chain(base, 0, 0)
    with pytest.raises(PreconditionViolated):
        verify_lemma_gen(empty, r.Divisor.zero(empty.model))
    two = r.GenericConfiguration.build(base, [2], [1])
    with pytest.raises(PreconditionViolated):
        verify_lemma_gen(two, r.Divisor.zero(two.model))


# -- the model read off the chains, and the blown-up surface it stands for ------

E8_Z = [6, 3, 4, 2, 5, 4, 3, 2]  # the fundamental cycle of e8


@pytest.fixture
def built_sizes(monkeypatch):
    """The number of curves of each model ResolutionModel.__init__ builds."""
    sizes = []
    init = r.ResolutionModel.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(self.u)

    monkeypatch.setattr(r.ResolutionModel, "__init__", counted)
    return sizes


def represented_curves(config):
    """The curves of the blown-up surface ``config`` stands for."""
    return config.base_model.u + sum(len(info.points) * info.length
                                     for info in config.chains)


def eager_model(config):
    """The model of ``config``'s chains, built at once from their layout:
    c copies of a chain lower their base curve's self-intersection by c,
    and have self-intersections -2c (-c at the tip) and meetings c."""
    base = config.base_model
    curves, meetings = list(base.curves), list(base.meetings)
    for info in config.chains:
        c, b = len(info.points), curves[info.base]
        curves[info.base] = r.ExcCurve(b.label, b.genus, b.self_int - c)
        previous = info.base
        for m in range(1, info.length + 1):
            curves.append(r.ExcCurve(
                "%s(%d,%d)" % (base.labels[info.base], info.points[0], m), 0,
                -c if m == info.length else -2 * c))
            meetings.append((previous, len(curves) - 1, c))
            previous = len(curves) - 1
    pad = (0,) * (len(curves) - base.u)
    return r.ResolutionModel(curves, meetings, [
        r.StrictCurve(s.label, s.incidence + pad) for s in base.strict_curves])


def test_realize_and_its_report_leave_the_blown_form_unbuilt(built_sizes):
    model = load_doc("e8").model
    for k in (2, 5, 8):
        cert = r.realize(model, r.Divisor.from_coeffs(
            model, exc=[k * v for v in E8_Z]))
        lines = _certificate_report(cert).render().splitlines()
        blown = cert.config.model
        represented = represented_curves(cert.config)
        assert cert.passed and "blown_curves = %d" % represented in lines
        assert represented > blown.u
        # the rows come from the layout, and the classes have no surface
        assert not hasattr(blown, "curves")
        with pytest.raises(r.ModelMismatch, match="chain classes"):
            blown.resolution()
        assert blown.u not in built_sizes, k


def test_report_reads_neither_the_blown_form_nor_its_labels():
    """The certificate's divisors are written chain by chain from the
    layout, so no curve list or full label tuple is ever set."""
    model = load_doc("e8").model
    cert = r.realize(model, r.Divisor.from_coeffs(
        model, exc=[4 * v for v in E8_Z]))
    _certificate_report(cert).render()
    state = vars(cert.config.model)
    assert "curves" not in state and "labels" not in state


def test_cli_realize_leaves_the_blown_form_unbuilt(built_sizes, tmp_path,
                                                   capsys):
    model = load_doc("e8").model
    f0 = r.Divisor.from_coeffs(model, exc=[3 * v for v in E8_Z])
    path = tmp_path / "e8_3z.graph"
    path.write_text(r.serialize_model(model, {"F": f0}))
    config = r.realize(model, f0).config
    built_sizes.clear()
    assert main(["realize", str(path), "F"]) == 0
    assert "blown_curves = %d" % represented_curves(config) in \
        capsys.readouterr().out.splitlines()
    assert built_sizes and config.model.u not in built_sizes


def test_form_read_later_equals_the_eager_model(log_terminal_models,
                                                built_sizes):
    """A ChainModel reads its labels and rows off the layout, building no
    model, and equals the ChainModel of equal chains whether or not they
    were read; with one point per class, its resolution() is the eager
    model and the iterated one."""
    rng = random.Random(10)
    with_strict = 0
    for name, model in log_terminal_models.items():
        e = [rng.randint(0, 3) for _ in range(model.u)]
        n = [rng.randint(1, 3) for _ in range(model.u)]
        grouped = r.GenericConfiguration.build(model, e, n)
        one_point = r.GenericConfiguration(model, ungroup(grouped).chains)
        for config in (grouped, one_point):
            read_off, twin = config.model, r.GenericConfiguration(
                model, config.chains).model
            built_sizes.clear()
            assert read_off == twin and hash(read_off) == hash(twin), name
            eager = eager_model(config)
            assert read_off.labels == eager.labels, name
            assert read_off.strict_labels == eager.strict_labels, name
            assert read_off.sparse_rows == eager.sparse_rows, name
            assert read_off.strict_sparse == eager.strict_sparse, name
            assert read_off == twin and hash(read_off) == hash(twin), name
            assert read_off != eager and eager != read_off, name
            assert built_sizes == [eager.u], name  # eager_model's alone
        built = one_point.model.resolution()
        assert built == eager_model(one_point), name
        assert built == iterated_configuration(model, e, n).model, name
        if any(len(info.points) > 1 for info in grouped.chains):
            with pytest.raises(r.ModelMismatch, match="chain classes"):
                grouped.model.resolution()
        with_strict += bool(model.strict_curves)
    assert with_strict >= 1


def assert_rows_come_from_the_layout(config):
    """The rows ``config``'s model reads off its layout are those of the
    eager model, and so for the one-point layout of its copies, whose rows
    are those ResolutionModel derives from the curves and meetings of its
    resolution()."""
    one_point = r.GenericConfiguration(config.base_model, ungroup(config).chains)
    for c in (config, one_point):
        eager = eager_model(c)
        assert (c.model.sparse_rows, c.model.strict_sparse) == (
            eager.sparse_rows, eager.strict_sparse)
    checked = one_point.model.resolution()
    assert (one_point.model.sparse_rows, one_point.model.strict_sparse) == (
        checked.sparse_rows, checked.strict_sparse)


@seed(20081021)
@settings(max_examples=60, deadline=2000)
@given(data=st.data(), name=st.sampled_from(CORPUS_NAMES))
def test_layout_rows_equal_the_checked_rows(data, name):
    """On configurations over corpus models (copies > 1), the blown-up
    surfaces they stand for, and configurations over those surfaces."""
    def counts(model, hi):
        return data.draw(st.lists(st.integers(0, hi), min_size=model.u,
                                  max_size=model.u))

    model = load_doc(name).model
    config = r.GenericConfiguration.build(model, counts(model, 3),
                                          counts(model, 3))
    assert_rows_come_from_the_layout(config)
    blown = ungroup(config).model
    assert_rows_come_from_the_layout(r.GenericConfiguration.build(
        blown, counts(blown, 1), counts(blown, 2)))


def test_divisors_on_an_unbuilt_form_copy_and_pickle(built_sizes):
    config = r.GenericConfiguration.build(
        r.parse_graph_file(CORPUS_DIR / "a2_branch.graph").model, [3, 2], [2, 3])
    for c in (config, ungroup(config)):
        k = c.K_sigma
        built_sizes.clear()
        twins = [copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))]
        assert built_sizes == []
        for twin in twins:
            assert twin == k and twin.products() == k.products()
            assert twin.model.labels == c.model.labels
        # and so after the rows were read
        assert pickle.loads(pickle.dumps(k)) == k


def test_a_seed0_batch_builds_the_base_models_alone(built_sizes, capsys):
    assert main(["batch", "--samples", "25", "--seed", "0"]) == 0
    assert "total_failures = 0" in capsys.readouterr().out.splitlines()
    assert sorted(built_sizes) == sorted(load_doc(name).model.u
                                         for name in CORPUS_NAMES)


@pytest.fixture(scope="module")
def e8_99z():
    """The certificate of F0 = 99 Z on e8: 999 curves of chain classes."""
    model = load_doc("e8").model
    cert = r.realize(model, r.Divisor.from_coeffs(
        model, exc=[99 * v for v in E8_Z]))
    assert cert.passed and cert.config.model.u == 999
    return cert


def test_divisors_on_the_configuration_model_build_no_model(e8_99z,
                                                            built_sizes):
    """Divisor.zero once built all 999 class curves, through the count of
    the strict curves."""
    model = e8_99z.config.model
    label = model.labels[-1]
    zero, curve = r.Divisor.zero(model), r.Divisor.curve(model, 998)
    mapped = r.Divisor.from_coeffs(model, exc={label: 1, "E8": 2})
    assert built_sizes == []
    assert label == "E8(1,991)" and zero.num == (0,) * 999
    assert mapped.num[model.index_of("E8")] == 2 and mapped - curve == \
        r.Divisor.curve(model, 7).scale(2)
    with pytest.raises(r.MalformedGraph, match="unknown curve 'E8\\(2,1\\)'"):
        model.index_of("E8(2,1)")


def test_a_pickled_f_is_verified_without_building_a_model(e8_99z,
                                                          built_sizes):
    """A pickled F lives on an equal ChainModel over an equal base model:
    the field gate compares them without building either's curves (it once
    built two 999-curve models)."""
    twin = pickle.loads(pickle.dumps(e8_99z.F))
    assert twin.model is not e8_99z.config.model
    checked = r.verify_certificate(e8_99z._replace(F=twin,
                                                   checks=()))
    assert checked.passed and built_sizes == []
