"""Command-line interface: file ingestion, subcommands, report emission.

Subcommands: check, dual-basis, closure, multiplier, blowup, realize,
batch.  ``main`` opens one deterministic key-value report, which each
``cmd_*(args, rep)`` fills before it returns the exit code, and writes it
to stdout once; a refusal is one ``error:`` line on stderr instead, exit
2 for input and file errors and 1 for any other ValueError.  Timing goes
to stderr so that reports stay byte-identical across runs.

Pseudo-random divisors for ``batch`` are generated reproducibly: the
generator is seeded with "<seed>:<file stem>:<sample index>", exceptional
coefficients are uniform in {0..10}, the first two strict curves (if any)
get 0 or 1, and the result is replaced by its antinef closure.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from .blowup import GenericConfiguration
from .canonical import (antinef_closure, discrepancies, multiplier_divisor,
                        relative_canonical)
from .divisor import Divisor
from .graphfile import format_divisor, parse_graph_file, serialize_model
from .lattice import check_negative_definite, dual_basis
from .model import MalformedGraph
from .rationals import (ascii_int, digit_limit, format_rational,
                        parse_rational)
# batch never calls verify_certificate (realize already did), but
# bench/tracer.py wraps this name when it traces a run.
from .realize import realize, verify_certificate  # noqa: F401
from .report import Report

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _named_divisor(doc, name, path):
    if name not in doc.divisors:
        raise MalformedGraph("no divisor named %r in %s" % (name, path))
    return doc.divisors[name]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args, rep) -> int:
    model = parse_graph_file(args.file).model
    rep.add("curves", model.u)
    rep.add("strict_curves", len(model.strict_curves))
    result = check_negative_definite(model)
    rep.add("negative_definite", result.is_negative_definite)
    if not result:
        rep.add("witness", " ".join(format_rational(v) for v in result.witness))
        return 1
    disc = discrepancies(model)
    for label, value in zip(model.labels, disc.b):
        rep.add("discrepancy.%s" % label, value)
    rep.add("log_terminal", disc.log_terminal)
    if disc.offenders:
        rep.add("offenders", " ".join(model.labels[i] for i in disc.offenders))
    return 0


def cmd_dual_basis(args, rep) -> int:
    model = parse_graph_file(args.file).model
    for label, dual in zip(model.labels, dual_basis(model)):
        rep.add("dual.%s" % label, dual)
    return 0


def cmd_closure(args, rep) -> int:
    doc = parse_graph_file(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    closed, trace = antinef_closure(divisor)
    rep.add("divisor", args.divisor)
    rep.add("input", divisor)
    rep.add("closure", closed)
    rep.add("steps", trace.initial_s)
    if args.trace:  # each recorded product is an int; an f-string
        # formats the lines in about 60 % of the time "%" takes
        adds = ["add %s (product " % label for label in doc.model.labels]
        rep.extend([f"trace.{idx} = {adds[i]}{value})\n"
                    for idx, (i, value) in enumerate(trace.steps)])
    return 0


def cmd_multiplier(args, rep) -> int:
    doc = parse_graph_file(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    lam = parse_rational(args.lam)
    result = multiplier_divisor(doc.model, divisor, lam)
    rep.add("divisor", args.divisor)
    rep.add("lambda", lam)
    rep.add("relative_canonical", relative_canonical(doc.model))
    rep.add("multiplier_divisor", result)
    return 0


def cmd_blowup(args, rep) -> int:
    model = parse_graph_file(args.file).model
    i = model.index_of(args.curve)
    e = [int(k == i) for k in range(model.u)]
    config = GenericConfiguration.build(model, e, [args.length * v for v in e])
    rep.add("curve", args.curve)
    rep.add("length", args.length)
    rep.add("relative_canonical_of_map", config.K_sigma)
    rep.extend(serialize_model(config.model.resolution()).splitlines(True))
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
    rep.add("blown_curves", model.u + sum(len(info.points) * info.length
                                          for info in cert.config.chains))
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


def cmd_realize(args, rep) -> int:
    doc = parse_graph_file(args.file)
    divisor = _named_divisor(doc, args.divisor, args.file)
    cert = realize(doc.model, divisor)
    body = _certificate_report(cert)
    if args.emit_certificate:  # first, so that a write error prints nothing
        full = Report()
        full.add("certificate_for", Path(args.file).name)
        full.add("divisor", format_divisor(divisor))
        full.extend(body)
        Path(args.emit_certificate).write_text(full.render(), encoding="utf-8")
    rep.add("divisor", args.divisor)
    rep.extend(body)
    return 0 if cert.passed else 1


def random_antinef_divisor(model, seed_key: str) -> Divisor:
    """Seeded pseudo-random integral antinef divisor (see module docstring)."""
    rng = random.Random(seed_key)
    exc = [rng.randint(0, 10) for _ in range(model.u)]
    strict = [0] * len(model.strict_curves)
    for s in range(min(2, len(strict))):
        strict[s] = rng.randint(0, 1)
    draft = Divisor(model, exc, strict)
    closed, _ = antinef_closure(draft)
    return closed


def cmd_batch(args, rep) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be >= 0, got %d" % args.samples)
    corpus = Path(args.corpus or CORPUS_DIR)
    if not corpus.is_dir():
        raise NotADirectoryError("not a directory: %s" % corpus)
    files = sorted(corpus.glob("*.graph"))
    rep.add("samples", args.samples)
    rep.add("seed", args.seed)
    tally = []  # passes per log terminal file
    started = time.perf_counter()
    for path in files:
        stem = path.stem
        try:
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
                ok = realize(doc.model, f0).passed
                passes += ok
                rep.add("%s.sample_%d" % (stem, k), "pass" if ok else "fail")
            rep.add("%s.passes" % stem, "%d/%d" % (passes, args.samples))
            tally.append(passes)
        except Exception as exc:  # main's message opens with the file
            exc.where = "%s: " % path.name
            raise
    total = args.samples * len(tally)
    failures = total - sum(tally)
    rep.add("total_cases", total)
    rep.add("total_failures", failures)
    print("batch wall time: %.2fs" % (time.perf_counter() - started),
          file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resdiv",
        description="Exact divisor computations on resolutions of normal "
                    "surface singularities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph file and report "
                                     "definiteness and discrepancies")
    p.add_argument("file")

    p = sub.add_parser("dual-basis", help="print the dual basis")
    p.add_argument("file")

    p = sub.add_parser("closure", help="antinef closure of a named divisor")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("multiplier", help="multiplier-ideal divisor")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--lambda", dest="lam", required=True, metavar="p/q")

    p = sub.add_parser("blowup", help="generic blowup chain over a curve")
    p.add_argument("file")
    p.add_argument("--curve", required=True)
    p.add_argument("--length", type=ascii_int, default=1)

    p = sub.add_parser("realize", help="realize a divisor as multiplier-ideal "
                                       "data and verify the certificate")
    p.add_argument("file")
    p.add_argument("divisor")
    p.add_argument("--emit-certificate", metavar="PATH")

    p = sub.add_parser("batch", help="run seeded realizations over a corpus")
    p.add_argument("corpus", nargs="?", default=None,
                   help="directory of .graph files (default: bundled corpus)")
    p.add_argument("--samples", type=ascii_int, default=25)
    p.add_argument("--seed", default="0")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Report()
    rep.add("command", args.command)
    if "file" in args:
        rep.add("file", Path(args.file).name)
    try:  # by name, so that a name patched after the first call is called
        code = globals()["cmd_" + args.command.replace("-", "_")](args, rep)
    # before ValueError: a file that is not UTF-8 is an input error
    except (MalformedGraph, UnicodeDecodeError, OSError) as exc:
        error, code = exc, 2
    except ValueError as exc:  # every other refusal
        error, code = exc, 1
    else:
        print(rep.render(), end="")
        return code
    where = getattr(error, "where", "")  # batch's "<file>: "
    print("error: %s%s" % (where, digit_limit(error) or error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
