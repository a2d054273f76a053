"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and enforces the same verdict through its assertions.  All checks are
exact; the only numeric thresholds are wall-clock budgets.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import resdiv as r
from conftest import (CORPUS_NAMES, LOG_TERMINAL_NAMES, NON_LOG_TERMINAL,
                      load_doc, random_integral_divisor, single_chain)
from oracles import brute_closure_oracle


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
                if dual.intersect(j) != -int(i == j):
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
        oracle = brute_closure_oracle(model.matrix, box=12)
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
                    report = r.verify_lemma_gen(chain, d)
                    cases += 1
                    if not report.all_hold:
                        failures += 1
    verdict("criterion 4 (chain monotonicity and dual domination)",
            failures == 0, "%d cases, %d failures" % (cases, failures))


def test_criterion_5_end_to_end_realization():
    from resdiv.cli import random_antinef_divisor

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
            ok = (cert.F_prime == cert.F and cert.passed
                  and r.verify_certificate(cert).passed)
            worst_case = max(worst_case, time.perf_counter() - case_start)
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
    """Yield (kind, certificate) pairs with lambda, n, or G falsified."""
    factor = Fraction(rng.randint(2, 9), rng.choice([1, 5, 7]))
    if factor == 1:
        factor = Fraction(2)
    yield "lambda", dataclasses.replace(cert, lam=cert.lam * factor, checks=())

    bump = rng.choice([-1, 1, 2])
    bad_n = tuple(max(0, v + bump) if v else v for v in cert.n)
    if bad_n == cert.n:
        bad_n = tuple(v + 1 for v in cert.n)
    yield "n", dataclasses.replace(cert, n=bad_n, checks=())

    noise = [0] * cert.config.model.u
    noise[rng.randrange(len(noise))] = rng.randint(1, 5)
    g_bad = cert.G + r.Divisor(cert.config.model,
                               tuple(Fraction(v) for v in noise),
                               (Fraction(0),) * len(cert.G.strict))
    yield "G", dataclasses.replace(cert, G=g_bad, checks=())


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
            if report.passed or report.first_failure is None:
                missed += 1
    verdict("criterion 7 (fault injection)", missed == 0,
            "%d tamperings, %d undetected" % (trials, missed))


def test_criterion_8_batch_determinism(tmp_path, capsys, monkeypatch):
    from resdiv.cli import main

    monkeypatch.delenv("RESDIV_CORPUS", raising=False)
    outputs = []
    for _ in range(2):
        code = main(["batch", "--samples", "5", "--seed", "42"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    ok = outputs[0] == outputs[1] and outputs[0][0] == 0
    verdict("criterion 8 (batch report determinism)", ok)
