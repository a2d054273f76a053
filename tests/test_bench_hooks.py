"""The benchmark's tracer wraps names inside ``resdiv``; a refactor that
removes or moves one of them, or changes what its counters read, must
fail here, not only in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_tracer(body, before=""):
    """In a fresh interpreter, run ``before``, install the tracer as
    ``tracer_``, then run ``body``; the tracer patches modules for the life
    of the process."""
    script = ("import sys; sys.path[:0] = [%r, %r]\n"
              "import resdiv, tracer\n"
              "assert resdiv.__file__.startswith(%r), resdiv.__file__\n"
              % (str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "src"))
              + before + "tracer_ = tracer.Tracer()\ntracer_.install()\n"
              + body)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_against_src():
    run_with_tracer("")


def test_tracer_counts_rows_solved_by_dual_basis():
    run_with_tracer(
        "from fractions import Fraction\n"
        "from resdiv import lattice\n"
        "a2 = resdiv.build_model([('E1', 0, -2), ('E2', 0, -2)],\n"
        "                        [('E1', 'E2', 1)])\n"
        "d1, _ = lattice.dual_basis(a2)\n"
        "assert d1.exc == (Fraction(2, 3), Fraction(1, 3)), d1\n"
        "assert tracer_.counters['linalg.rows_solved'] == 2, tracer_.counters\n"
        "assert tracer_.calls['linalg.solve_columns'] == 1, tracer_.calls\n")


def test_tracer_counts_one_closure_per_realization():
    """Also, each wrapped blowup and verify name counts a call when the
    CLI's realize runs, so none of them wraps a name nothing calls."""
    run_with_tracer(
        "from resdiv import cli\n"
        "a2 = resdiv.build_model([('E1', 0, -2), ('E2', 0, -2)],\n"
        "                        [('E1', 'E2', 1)])\n"
        "cert = cli.realize(a2, resdiv.Divisor.from_coeffs(a2, exc=[2, 2]))\n"
        "assert cert.passed, cert.checks\n"
        "counters = tracer_.counters\n"
        "assert counters['antinef.realize_closures'] == 1, counters\n"
        "assert counters['realize.max_coeff_bits'] > 0, counters\n"
        "assert counters['antinef.closure_steps'] >= 0, counters\n"
        "for name in ('blowup.PullbackMap.apply',\n"
        "             'blowup.GenericConfiguration.weighted_dual_sum',\n"
        "             'blowup.GenericConfiguration.build',\n"
        "             'realize.verify_certificate'):\n"
        "    assert tracer_.calls[name] >= 1, (name, tracer_.calls)\n")


def test_tracer_sees_commands_after_the_parser_is_built():
    """The CLI builds its parser on the first call; a tracer installed
    after that still sees each command, as main looks cmd_* up by name."""
    argv = "['realize', %r, 'F']" % str(ROOT / "src/resdiv/corpus/a2.graph")
    run_with_tracer(
        "for _ in range(2):\n"
        "    assert cli.main(%s) == 0\n"
        "assert tracer_.calls['cli.realize'] == 2, tracer_.calls\n" % argv,
        before="from resdiv import cli\nassert cli.main(%s) == 0\n" % argv)
