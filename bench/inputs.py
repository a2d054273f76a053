"""Seeded input generators for the resdiv benchmark.

The generators write graph text directly and never import ``resdiv``, so
the program under test receives only files and argv.  The same seed gives
byte-identical files.

The seed only changes how a model is presented: the order in which the
base curves and their meetings are declared.  The curves, meetings and
divisors are the same for every seed, so the amount of work is the same,
every report is the same up to that reordering, and one normalised digest
checks every seed (see ``run.normalise``).

Blown-up files follow the layout ``GenericConfiguration.build`` produces:
base curves first, then each chain ``-2, ..., -2, -1`` in order of its
base curve, labelled ``<base>(<point>,<step>)``.  A base curve's
self-intersection drops by one per chain on it.
"""

from __future__ import annotations

import random
from pathlib import Path

# e8: centre E1 with arms of lengths 1, 2 and 4 (as in the bundled corpus).
E8_SELF = {"E%d" % i: -2 for i in range(1, 9)}
E8_MEETS = [("E1", "E2"), ("E1", "E3"), ("E3", "E4"), ("E1", "E5"),
            ("E5", "E6"), ("E6", "E7"), ("E7", "E8")]
# Fundamental cycle of e8: Z.E_i = 0 except Z.E8 = -1.
E8_Z = {"E1": 6, "E2": 3, "E3": 4, "E4": 2, "E5": 5, "E6": 4, "E7": 3,
        "E8": 2}

# cyclic quotient (-2, -3): discrepancies -1/5 and -2/5.
CYCLIC23_SELF = {"E1": -2, "E2": -3}
CYCLIC23_MEETS = [("E1", "E2")]

LADDER_KS = (8, 16, 24)

# Chains for the dense-query models: base curve -> (chain count, length).
# Each model has 100 curves.
DENSE_MODELS = {
    "dense_e8": (E8_SELF, E8_MEETS,
                 {"E2": (2, 10), "E4": (3, 8), "E8": (4, 12)}),
    "dense_cyclic23": (CYCLIC23_SELF, CYCLIC23_MEETS,
                       {"E1": (5, 10), "E2": (4, 12)}),
}
# Antinef integral divisors on the base models; their pullbacks are G.
DENSE_G_BASE = {"dense_e8": E8_Z, "dense_cyclic23": {"E1": 1, "E2": 1}}
CLOSURE_D_COEFF = 400
MULTIPLIER_LAMBDA = "5/7"


def ladder_curves(k: int) -> int:
    """Curves of the blown-up model that ``realize`` builds for F = k Z on e8.

    All discrepancies of e8 are 0 and only E8 has F.E8 != 0, so epsilon is
    1 / (2 (6k + 1)) and there are k chains over E8 of length 10k + 1.
    """
    return 8 + k * (10 * k + 1)


def _graph_text(rng, selfs, meets, chains, divisors, comment):
    base = list(selfs)
    rng.shuffle(base)
    meet_lines = list(meets)
    rng.shuffle(meet_lines)
    lines = ["# %s" % comment]
    drops = {b: chains.get(b, (0, 0))[0] for b in base}
    for b in base:
        lines.append("curve %s genus=0 self=%d" % (b, selfs[b] - drops[b]))
    for b in base:
        count, length = chains.get(b, (0, 0))
        for point in range(1, count + 1):
            for step in range(1, length + 1):
                lines.append("curve %s(%d,%d) genus=0 self=%d"
                             % (b, point, step, -1 if step == length else -2))
    for a, b in meet_lines:
        lines.append("meet %s %s 1" % (a, b))
    for b in base:
        count, length = chains.get(b, (0, 0))
        for point in range(1, count + 1):
            prev = b
            for step in range(1, length + 1):
                label = "%s(%d,%d)" % (b, point, step)
                lines.append("meet %s %s 1" % (prev, label))
                prev = label
    for name, coeffs in divisors:
        lines.append("divisor %s %s" % (
            name, " ".join("%s=%d" % (c, v) for c, v in coeffs.items() if v)))
    return "\n".join(lines) + "\n"


def _pullback(base_coeffs, chains):
    """Each chain curve gets its base curve's coefficient."""
    out = dict(base_coeffs)
    for b, (count, length) in chains.items():
        for point in range(1, count + 1):
            for step in range(1, length + 1):
                out["%s(%d,%d)" % (b, point, step)] = base_coeffs.get(b, 0)
    return out


def write_ladder(directory, seed: int):
    """e8 with F = k Z for each rung k; returns {k: path}."""
    directory = Path(directory)
    paths = {}
    for k in LADDER_KS:
        rng = random.Random("ladder:%d:%d" % (seed, k))
        f = {c: k * v for c, v in E8_Z.items()}
        text = _graph_text(rng, E8_SELF, E8_MEETS, {}, [("F", f)],
                           "e8 with F = %d Z" % k)
        path = directory / ("e8_k%d.graph" % k)
        path.write_text(text, encoding="utf-8")
        paths[k] = path
    return paths


def write_dense(directory, seed: int):
    """The two blown-up models for dense_queries; returns {name: path}."""
    directory = Path(directory)
    paths = {}
    for name, (selfs, meets, chains) in DENSE_MODELS.items():
        rng = random.Random("dense:%d:%s" % (seed, name))
        first = next(iter(selfs))
        divisors = [("D", {first: CLOSURE_D_COEFF}),
                    ("G", _pullback(DENSE_G_BASE[name], chains))]
        text = _graph_text(rng, selfs, meets, chains, divisors,
                           "%s: chains %s" % (name, chains))
        path = directory / ("%s.graph" % name)
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths
