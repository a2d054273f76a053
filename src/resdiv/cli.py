"""Command-line interface: file ingestion, subcommands, report emission.

Subcommands: check, dual-basis, closure, multiplier, blowup, realize,
batch.  All output is a deterministic key-value report on stdout; timing
information (which is inherently non-reproducible) goes to stderr so that
reports stay byte-identical across runs.

Pseudo-random divisors for ``batch`` are generated reproducibly: the
generator is seeded with "<seed>:<file stem>:<sample index>", exceptional
coefficients are uniform in {0..10}, the first two strict curves (if any)
get 0 or 1, and the result is replaced by its antinef closure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .antinef import NonIntegralInput, antinef_closure, is_antinef
from .blowup import GenericConfiguration
from .canonical import (NonPositiveLambda, NotAntinef, NotEffective,
                        NotLogTerminal, discrepancies, multiplier_divisor,
                        relative_canonical)
from .divisor import Divisor, ModelMismatch
from .graphfile import (GraphSyntaxError, format_divisor, parse_graph_file,
                        serialize_model)
from .lattice import check_negative_definite, dual_basis
from .model import MalformedGraph
from .rationals import format_rational, parse_rational
# batch never calls verify_certificate (realize already did), but
# bench/tracer.py wraps this name when it traces a run.
from .realize import realize, verify_certificate  # noqa: F401
from .report import Report

CORPUS_ENV = "RESDIV_CORPUS"


def default_corpus_dir() -> Path:
    override = os.environ.get(CORPUS_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "corpus"


def _load(path):
    return parse_graph_file(path)


def _named_divisor(doc, name, path):
    if name not in doc.divisors:
        raise MalformedGraph("no divisor named %r in %s" % (name, path))
    return doc.divisors[name]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    doc = _load(args.file)
    model = doc.model
    rep = Report()
    rep.add("command", "check")
    rep.add("file", Path(args.file).name)
    rep.add("curves", model.u)
    rep.add("strict_curves", len(model.strict_curves))
    result = check_negative_definite(model)
    rep.add("negative_definite", result.is_negative_definite)
    if not result:
        rep.add("witness", " ".join(format_rational(v) for v in result.witness))
        print(rep.render(), end="")
        return 1
    disc = discrepancies(model)
    for label, value in zip(model.labels, disc.b):
        rep.add("discrepancy.%s" % label, value)
    rep.add("log_terminal", disc.log_terminal)
    if disc.offenders:
        rep.add("offenders", " ".join(model.labels[i] for i in disc.offenders))
    print(rep.render(), end="")
    return 0


def cmd_dual_basis(args) -> int:
    doc = _load(args.file)
    model = doc.model
    result = check_negative_definite(model)
    if not result:
        print("error: intersection form is not negative definite", file=sys.stderr)
        return 1
    rep = Report()
    rep.add("command", "dual-basis")
    rep.add("file", Path(args.file).name)
    for label, dual in zip(model.labels, dual_basis(model)):
        rep.add("dual.%s" % label, dual)
    print(rep.render(), end="")
    return 0


def cmd_closure(args) -> int:
    doc = _load(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    closed, trace = antinef_closure(divisor)
    rep = Report()
    rep.add("command", "closure")
    rep.add("file", Path(args.file).name)
    rep.add("divisor", args.divisor)
    rep.add("input", divisor)
    rep.add("closure", closed)
    rep.add("steps", trace.initial_s)
    if args.trace:
        for idx, (i, value) in enumerate(trace.steps):
            rep.add("trace.%d" % idx,
                    "add %s (product %s)" % (doc.model.labels[i],
                                             format_rational(value)))
    print(rep.render(), end="")
    return 0


def cmd_multiplier(args) -> int:
    doc = _load(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    lam = parse_rational(args.lam)
    result = multiplier_divisor(doc.model, divisor, lam)
    rep = Report()
    rep.add("command", "multiplier")
    rep.add("file", Path(args.file).name)
    rep.add("divisor", args.divisor)
    rep.add("lambda", lam)
    rep.add("relative_canonical", relative_canonical(doc.model))
    rep.add("multiplier_divisor", result)
    print(rep.render(), end="")
    return 0


def cmd_blowup(args) -> int:
    doc = _load(args.file)
    model = doc.model
    i = model.index_of(args.curve)
    e = [int(k == i) for k in range(model.u)]
    config = GenericConfiguration.build(model, e, [args.length * v for v in e])
    rep = Report()
    rep.add("command", "blowup")
    rep.add("file", Path(args.file).name)
    rep.add("curve", args.curve)
    rep.add("length", args.length)
    rep.add("relative_canonical_of_map", config.K_sigma)
    print(rep.render(), end="")
    print(serialize_model(config.model), end="")
    return 0


def _certificate_report(cert) -> Report:
    model = cert.base_model
    rep = Report()
    rep.add("epsilon", cert.epsilon)
    for label, a_i, b_i, e_i, n_i in zip(model.labels, cert.a, cert.b,
                                         cert.e, cert.n):
        rep.add("curve.%s" % label,
                "a=%s b=%s e=%d n=%d" % (format_rational(a_i),
                                         format_rational(b_i), e_i, n_i))
    rep.add("blown_curves", cert.config.model.u)
    rep.add("F", cert.F)
    rep.add("A", cert.A)
    rep.add("mu", cert.mu)
    rep.add("N", cert.N)
    rep.add("G", cert.G)
    rep.add("lambda", cert.lam)
    rep.add("F_prime", cert.F_prime)
    for c in cert.checks:
        rep.add_check("check.%s" % c.name, c.passed, c.detail)
    rep.add("realized", cert.passed)
    return rep


def cmd_realize(args) -> int:
    doc = _load(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    cert = realize(doc.model, divisor)
    rep = Report()
    rep.add("command", "realize")
    rep.add("file", Path(args.file).name)
    rep.add("divisor", args.divisor)
    rep.extend(_certificate_report(cert))
    print(rep.render(), end="")
    if args.emit_certificate:
        full = Report()
        full.add("certificate_for", Path(args.file).name)
        full.add("divisor", format_divisor(divisor))
        full.extend(_certificate_report(cert))
        Path(args.emit_certificate).write_text(full.render(), encoding="utf-8")
    return 0 if cert.passed else 1


def random_antinef_divisor(model, seed_key: str) -> Divisor:
    """Seeded pseudo-random integral antinef divisor (see module docstring)."""
    rng = random.Random(seed_key)
    exc = [Fraction(rng.randint(0, 10)) for _ in range(model.u)]
    strict = [Fraction(0)] * len(model.strict_curves)
    for s in range(min(2, len(strict))):
        strict[s] = Fraction(rng.randint(0, 1))
    draft = Divisor(model, tuple(exc), tuple(strict))
    closed, _ = antinef_closure(draft)
    return closed


def cmd_batch(args) -> int:
    corpus = Path(args.corpus) if args.corpus else default_corpus_dir()
    files = sorted(corpus.glob("*.graph"))
    rep = Report()
    rep.add("command", "batch")
    rep.add("samples", args.samples)
    rep.add("seed", args.seed)
    failures = 0
    total = 0
    started = time.perf_counter()
    for path in files:
        stem = path.stem
        doc = parse_graph_file(path)
        disc = discrepancies(doc.model)
        if not disc.log_terminal:
            offenders = " ".join(doc.model.labels[i] for i in disc.offenders)
            rep.add("%s.status" % stem,
                    "skipped (not log terminal: %s)" % offenders)
            continue
        rep.add("%s.status" % stem, "log_terminal")
        passes = 0
        for k in range(args.samples):
            f0 = random_antinef_divisor(doc.model,
                                        "%s:%s:%d" % (args.seed, stem, k))
            cert = realize(doc.model, f0)
            ok = cert.passed
            total += 1
            if ok:
                passes += 1
            else:
                failures += 1
            rep.add("%s.sample_%d" % (stem, k), "pass" if ok else "fail")
        rep.add("%s.passes" % stem, "%d/%d" % (passes, args.samples))
    rep.add("total_cases", total)
    rep.add("total_failures", failures)
    print(rep.render(), end="")
    print("batch wall time: %.2fs" % (time.perf_counter() - started),
          file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resdiv",
        description="Exact divisor computations on resolutions of normal "
                    "surface singularities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph file and report "
                                     "definiteness and discrepancies")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dual-basis", help="print the dual basis")
    p.add_argument("file")
    p.set_defaults(func=cmd_dual_basis)

    p = sub.add_parser("closure", help="antinef closure of a named divisor")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("multiplier", help="multiplier-ideal divisor")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--lambda", dest="lam", required=True, metavar="p/q")
    p.set_defaults(func=cmd_multiplier)

    p = sub.add_parser("blowup", help="generic blowup chain over a curve")
    p.add_argument("file")
    p.add_argument("--curve", required=True)
    p.add_argument("--length", type=int, default=1)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("realize", help="realize a divisor as multiplier-ideal "
                                       "data and verify the certificate")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--emit-certificate", metavar="PATH")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("batch", help="run seeded realizations over a corpus")
    p.add_argument("corpus", nargs="?", default=None,
                   help="directory of .graph files (default: bundled corpus, "
                        "or $%s)" % CORPUS_ENV)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphSyntaxError, MalformedGraph) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NotLogTerminal as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (NonIntegralInput, NotAntinef, NotEffective, NonPositiveLambda,
            ModelMismatch, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
