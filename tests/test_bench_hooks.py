"""The benchmark's tracer wraps names inside ``resdiv``; a refactor that
removes or moves one of them must fail here, not only in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_src():
    script = ("import sys; sys.path[:0] = [%r, %r]\n"
              "import resdiv, tracer\n"
              "assert resdiv.__file__.startswith(%r), resdiv.__file__\n"
              "tracer.Tracer().install()\n"
              % (str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "src")))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
