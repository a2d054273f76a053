"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and enforces the same verdict through its assertions.  All checks are
exact; the only numeric thresholds are wall-clock budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import resdiv as r
from conftest import (CORPUS_NAMES, LOG_TERMINAL_NAMES, NON_LOG_TERMINAL,
                      first_failure, load_doc, random_integral_divisor,
                      single_chain)
from oracles import (brute_closure_oracle, dense_matrix, expand,
                     random_log_terminal_model, ungroup, verify_lemma_gen)


def verdict(label, ok, detail=""):
    line = "%s: %s" % (label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print("\n" + line)
    assert ok, line


def test_criterion_1_dual_basis_exactness():
    worst = 0.0
    ok = True
    for name in CORPUS_NAMES:
        model = load_doc(name).model   # fresh model: no cached dual basis
        started = time.perf_counter()
        duals = r.dual_basis(model)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        for i, dual in enumerate(duals):
            for j in range(model.u):
                if dual.products()[j] != -int(i == j):
                    ok = False
    ok = ok and worst < 0.1
    verdict("criterion 1 (dual-basis exactness)", ok,
            "max solve time %.4fs" % worst)


def test_criterion_2_closure_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    for name in CORPUS_NAMES:
        model = load_doc(name).model
        if model.u > 4:
            continue
        oracle = brute_closure_oracle(dense_matrix(model), box=12)
        for coeffs in itertools.product(range(5), repeat=model.u):
            d = r.Divisor(model, tuple(Fraction(c) for c in coeffs),
                          (Fraction(0),) * len(model.strict_curves))
            closed, _ = r.antinef_closure(d)
            checked += 1
            if tuple(int(c) for c in closed.exc) != oracle(coeffs):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60 and checked > 0
    verdict("criterion 2 (closure vs brute-force oracle)", ok,
            "%d inputs, %d mismatches, %.1fs" % (checked, mismatches, elapsed))


def test_criterion_3_closure_side_conditions():
    rng = random.Random(101)
    failures = 0
    for name in CORPUS_NAMES:
        model = load_doc(name).model
        for _ in range(1000):
            d = random_integral_divisor(model, rng)
            closed, _ = r.antinef_closure(d)
            if closed.pushforward() != d.pushforward():
                failures += 1
            again, trace = r.antinef_closure(closed)
            if again != closed or trace.steps:
                failures += 1
    verdict("criterion 3 (pushforward preservation and idempotence)",
            failures == 0, "%d failures" % failures)


def test_criterion_4_chain_monotonicity_suite():
    rng = random.Random(202)
    failures = 0
    cases = 0
    for name in CORPUS_NAMES:
        model = load_doc(name).model
        for i in range(model.u):
            for n in (1, 2, 3):
                chain = single_chain(model, i, n)
                for _ in range(500):
                    d0 = random_integral_divisor(chain.model, rng, hi=8)
                    d, _ = r.antinef_closure(d0)
                    report = verify_lemma_gen(chain, d)
                    cases += 1
                    if not report.all_hold:
                        failures += 1
    verdict("criterion 4 (chain monotonicity and dual domination)",
            failures == 0, "%d cases, %d failures" % (cases, failures))


def test_criterion_5_end_to_end_realization():
    from resdiv.cli import random_antinef_divisor

    sampled = random.Random(505)  # about a fifth also against the theorem
    started = time.perf_counter()
    worst_case = 0.0
    failures = 0
    cases = 0
    for name in LOG_TERMINAL_NAMES:
        model = load_doc(name).model
        for k in range(25):
            f0 = random_antinef_divisor(model, "acc5:%s:%d" % (name, k))
            case_start = time.perf_counter()
            cert = r.realize(model, f0)
            ok = cert.passed and r.verify_certificate(cert).passed
            worst_case = max(worst_case, time.perf_counter() - case_start)
            if sampled.random() < 0.2:  # on the full blown-up surface
                config = cert.config
                ok = ok and r.multiplier_divisor(
                    ungroup(config).model, expand(config, cert.G),
                    cert.lam) == expand(config, cert.F)
            cases += 1
            if not ok:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and worst_case < 1.0 and elapsed < 60
    verdict("criterion 5 (end-to-end realization)", ok,
            "%d cases, %d failures, worst %.3fs, total %.1fs"
            % (cases, failures, worst_case, elapsed))


def test_criterion_6_negative_control():
    rng = random.Random(303)
    ok = True
    for name in NON_LOG_TERMINAL:
        model = load_doc(name).model
        try:
            r.realize(model, r.Divisor.zero(model))
            ok = False
        except r.NotLogTerminal:
            pass
        report = r.discrepancies(model)
        bad_curves = [i for i, b in enumerate(report.b) if b <= -1]
        for _ in range(50):
            g0 = random_integral_divisor(model, rng, strict01=False)
            g, _ = r.antinef_closure(g0)
            lam = Fraction(rng.randint(1, 24), rng.randint(1, 12))
            j = r.multiplier_divisor(model, g, lam)
            if any(j.exc[i] < 1 for i in bad_curves):
                ok = False
    verdict("criterion 6 (non-log-terminal rejection, proper ideals)", ok)


def _tampered_certificates(cert, rng):
    """Yield (kind, certificate) pairs with lambda, n, or G falsified, or
    with a sign made wrong and G recomputed as N (F + K_g + mu A): N and
    lambda negated together, A negated, A zero, or mu zero."""
    factor = Fraction(rng.randint(2, 9), rng.choice([1, 5, 7]))
    if factor == 1:
        factor = Fraction(2)
    yield "lambda", cert._replace(lam=cert.lam * factor, checks=())

    bump = rng.choice([-1, 1, 2])
    bad_n = tuple(max(0, v + bump) if v else v for v in cert.n)
    if bad_n == cert.n:
        bad_n = tuple(v + 1 for v in cert.n)
    yield "n", cert._replace(n=bad_n, checks=())

    noise = [0] * cert.G.model.u
    noise[rng.randrange(len(noise))] = rng.randint(1, 5)
    g_bad = cert.G + r.Divisor(cert.G.model,
                               tuple(Fraction(v) for v in noise),
                               (Fraction(0),) * len(cert.G.strict))
    yield "G", cert._replace(G=g_bad, checks=())

    k_g = cert.config.K_sigma

    def with_g(**fields):
        bad = cert._replace(**fields, checks=())
        return bad._replace(
            G=(bad.F + k_g + bad.A.scale(bad.mu)).scale(bad.N))

    yield "-N", with_g(N=-cert.N, lam=-cert.lam)
    yield "-A", with_g(A=-cert.A)
    yield "A=0", with_g(A=r.Divisor.zero(cert.A.model))
    yield "mu=0", with_g(mu=Fraction(0))


def _more_tampered_certificates(cert, rng):
    """Yield (kind, certificate) pairs with epsilon scaled, a base curve
    added to F0 or to F', or the points of a chain moved up by one."""
    factor = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3)])
    yield "epsilon", cert._replace(epsilon=cert.epsilon * factor,
                                   checks=())
    j = rng.randrange(cert.base_model.u)
    yield "F0", cert._replace(
        F0=cert.F0 + r.Divisor.curve(cert.base_model, j), checks=())
    j = rng.randrange(cert.config.model.u)
    yield "F_prime", cert._replace(
        F_prime=cert.F_prime + r.Divisor.curve(cert.config.model, j),
        checks=())
    if cert.config.chains:
        c = rng.randrange(len(cert.config.chains))
        chains = list(cert.config.chains)
        chains[c] = chains[c]._replace(
            points=tuple(p + 1 for p in chains[c].points))
        config = r.GenericConfiguration(cert.base_model, chains)
        yield "points", cert._replace(checks=(), config=config, **{
            name: r.Divisor._of(config.model, d.num, d.den) for name, d in (
                ("F", cert.F), ("A", cert.A), ("G", cert.G),
                ("F_prime", cert.F_prime))})


def _expected_detail(cert, kind, bad):
    """The check that a tampering of ``kind`` fails, and its detail."""
    fmt = r.format_rational
    if kind == "epsilon":  # n_i = floor((1 + b_i) / epsilon - (a_i + 1)) moves
        return "chain_length_rule", "%s: %d vs %d" % (
            cert.base_model.labels[0], cert.n[0],
            math.floor((1 + cert.b[0]) / bad.epsilon - (cert.a[0] + 1)))
    if kind == "F0":  # F is no longer the pullback, first at the added curve
        j = next(j for j, (a, b) in enumerate(zip(cert.F0.exc, bad.F0.exc))
                 if a != b)
        return "closure_equals_target", "%s: %s vs %s" % (
            cert.base_model.labels[j], fmt(cert.F.exc[j]),
            fmt(cert.F.exc[j] + 1))
    if kind == "F_prime":
        j = next(j for j, (a, b) in enumerate(zip(cert.F_prime.exc,
                                                  bad.F_prime.exc)) if a != b)
        return "candidate_dominated", "%s: %s vs %s" % (
            cert.config.model.labels[j], fmt(bad.F_prime.exc[j]),
            fmt(cert.F.exc[j]))
    if kind == "points":  # the first point of the moved chain
        info = next(have for have, want in zip(bad.config.chains,
                                               cert.config.chains)
                    if have != want)
        p = info.points[0] - 1
        return "chain_length_rule", "%s(%d,1): %d vs %d" % (
            cert.base_model.labels[info.base], p, p + 1, p)
    if kind == "lambda":
        return "lambda_scaling_rule", "lambda*N: %s vs %s" % (
            fmt(bad.lam * bad.N), fmt(1 + bad.epsilon))
    if kind == "-N":
        return "lambda_scaling_rule", "N: %d vs 1" % bad.N
    if kind == "n":
        i = next(i for i, (a, b) in enumerate(zip(bad.n, cert.n)) if a != b)
        return "chain_length_rule", "%s: %d vs %d" % (
            cert.base_model.labels[i], bad.n[i], cert.n[i])
    if kind == "G":
        j = next(j for j, (a, b) in enumerate(zip(bad.G.exc, cert.G.exc))
                 if a != b)
        return "integral_scaling_rule", "%s: %s vs %s" % (
            bad.G.model.labels[j], fmt(bad.G.exc[j]), fmt(cert.G.exc[j]))
    if kind == "mu=0":
        return "integral_scaling_rule", "mu: 0 vs 0"
    # A negated or zero: the row A.E_1 < 0 breaks first
    return "integral_scaling_rule", "%s: %s vs 0" % (
        cert.base_model.labels[0], fmt(bad.A.products()[0]))


def _assert_tamperings_name_the_break(cert, rng,
                                      tamperings=_tampered_certificates):
    assert all(c.detail == "" for c in cert.checks)
    for kind, bad in tamperings(cert, rng):
        details = {c.name: c.detail
                   for c in r.verify_certificate(bad).checks if not c.passed}
        name, detail = _expected_detail(cert, kind, bad)
        assert details[name] == detail, kind


def test_criterion_7_fault_injection():
    model = load_doc("a2").model
    rng = random.Random(404)
    missed = 0
    trials = 0
    for k in range(20):
        f0 = r.antinef_closure(random_integral_divisor(model, rng, hi=4))[0]
        cert = r.realize(model, f0)
        for kind, bad in _tampered_certificates(cert, rng):
            report = r.verify_certificate(bad)
            trials += 1
            if report.passed or first_failure(report) is None:
                missed += 1
    verdict("criterion 7 (fault injection)", missed == 0,
            "%d tamperings, %d undetected" % (trials, missed))


def test_fault_injection_details_name_the_break():
    """Each tampering of criterion 7 fails its rule with a detail naming the
    first curve (or scalar) that broke it and the two values compared;
    passing checks carry no detail."""
    model = load_doc("a2").model
    rng = random.Random(404)
    for k in range(20):
        f0 = r.antinef_closure(random_integral_divisor(model, rng, hi=4))[0]
        _assert_tamperings_name_the_break(r.realize(model, f0), rng)


def test_fault_injection_on_generated_models_names_the_break():
    """The tamperings of criterion 7, and of epsilon, F0, F' and the chain
    points, on seeded log terminal models drawn by the classification
    (chains and stars with platonic arms)."""
    rng = random.Random(405)
    moved = 0
    for _ in range(8):
        model = random_log_terminal_model(rng)
        for k in range(2):
            f0 = r.antinef_closure(random_integral_divisor(model, rng, hi=3))[0]
            cert = r.realize(model, f0)
            assert cert.passed, model
            _assert_tamperings_name_the_break(cert, rng)
            _assert_tamperings_name_the_break(cert, rng,
                                              _more_tampered_certificates)
            moved += bool(cert.config.chains)
    assert moved >= 8


def test_criterion_8_batch_determinism(capsys):
    from resdiv.cli import main

    outputs = []
    for _ in range(2):
        code = main(["batch", "--samples", "5", "--seed", "42"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    ok = outputs[0] == outputs[1] and outputs[0][0] == 0
    verdict("criterion 8 (batch report determinism)", ok)
