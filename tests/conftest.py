import random
from fractions import Fraction
from pathlib import Path

import pytest

import resdiv as r

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "resdiv" / "corpus"

CORPUS_NAMES = sorted(p.stem for p in CORPUS_DIR.glob("*.graph"))
NON_LOG_TERMINAL = ("elliptic_minus1", "elliptic_minus2")
LOG_TERMINAL_NAMES = tuple(n for n in CORPUS_NAMES if n not in NON_LOG_TERMINAL)


def load_doc(name):
    return r.parse_graph_file(CORPUS_DIR / ("%s.graph" % name))


@pytest.fixture(scope="session")
def corpus_docs():
    return {name: load_doc(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def corpus_models(corpus_docs):
    return {name: doc.model for name, doc in corpus_docs.items()}


@pytest.fixture(scope="session")
def log_terminal_models(corpus_models):
    return {name: corpus_models[name] for name in LOG_TERMINAL_NAMES}


def random_integral_divisor(model, rng, hi=10, strict01=True):
    """Random effective integral divisor; strict part 0/1 on at most two
    strict curves (the generation rule used throughout)."""
    exc = tuple(Fraction(rng.randint(0, hi)) for _ in range(model.u))
    strict = [Fraction(0)] * len(model.strict_curves)
    if strict01:
        for s in range(min(2, len(strict))):
            strict[s] = Fraction(rng.randint(0, 1))
    return r.Divisor(model, exc, tuple(strict))


def single_chain(model, i, n):
    """The configuration of one generic chain of length n over curve i."""
    e = [int(k == i) for k in range(model.u)]
    return r.GenericConfiguration.build(model, e, [n * v for v in e])


def random_antinef(model, rng, hi=10):
    closed, _ = r.antinef_closure(random_integral_divisor(model, rng, hi))
    return closed


def random_rational(rng, bound=10, denom=12):
    return Fraction(rng.randint(-bound * denom, bound * denom),
                    rng.randint(1, denom))
