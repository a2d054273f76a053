"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/workload.py <workload> <input dir> <seed> <mode>

The pass is a closed loop with one client: each operation is an in-process
call to ``resdiv.cli.main`` with its stdout captured, and the next starts
when the previous one returns.  Every report is checked after its call
returns, outside the timed region.  ``mode`` is ``plain`` (untraced),
``trace`` (spans from ``tracer.py``) or ``tracemalloc``.  The last line of
stdout is one JSON object with the per-operation records, the latencies,
the peak RSS of this process and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from inputs import DENSE_MODELS, LADDER_KS, MULTIPLIER_LAMBDA

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected.json"

WORKLOADS = ("corpus_batch", "e8_ladder", "dense_queries")
BATCH_SAMPLES = 25
# realize on k = 8 takes about a tenth of the k = 24 rung, so it is
# repeated to give it weight and a median of its own.
K8_REPEATS = 5


def plan(workload: str, input_dir, seed: int):
    """The workload's operations, in order, as (name, argv)."""
    input_dir = Path(input_dir)
    if workload == "corpus_batch":
        return [("batch", ["batch", "--samples", str(BATCH_SAMPLES),
                           "--seed", str(seed)])]
    if workload == "e8_ladder":
        ops = []
        for k in LADDER_KS:
            path = str(input_dir / ("e8_k%d.graph" % k))
            ops += [("realize_k%d" % k, ["realize", path, "F"])] * (
                K8_REPEATS if k == 8 else 1)
        return ops
    if workload == "dense_queries":
        ops = []
        for name in DENSE_MODELS:
            path = str(input_dir / ("%s.graph" % name))
            ops += [
                ("check:" + name, ["check", path]),
                ("dual_basis:" + name, ["dual-basis", path]),
                ("closure:" + name, ["closure", path, "D", "--trace"]),
                ("multiplier:" + name,
                 ["multiplier", path, "G", "--lambda", MULTIPLIER_LAMBDA]),
            ]
        return ops
    raise ValueError("unknown workload %r" % (workload,))


def normalise(text: str) -> str:
    """Digest of a report with the order of curves taken out.

    Lines are sorted, and so are the terms of each value, so a model whose
    curves are declared in another order gives the same digest.  Closure
    trace lines become a count of unit steps per curve, which the order of
    curves does not change.
    """
    lines = []
    steps = Counter()
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("trace."):
            steps[value.split()[1]] += 1
        else:
            lines.append("%s = %s" % (key, " ".join(sorted(value.split()))))
    lines += ["steps.%s = %d" % item for item in steps.items()]
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _batch_problem(text: str, expected: dict):
    values = dict(line.partition(" = ")[::2] for line in text.splitlines())
    samples = [v for k, v in values.items() if ".sample_" in k]
    failed = sum(1 for v in samples if v != "pass")
    if failed:
        return "%d fail samples" % failed
    if (len(samples) != expected["batch_cases"]
            or values.get("total_cases") != str(expected["batch_cases"])
            or values.get("total_failures") != "0"):
        return "batch report does not cover %d passing cases" % (
            expected["batch_cases"],)
    return None


def check_output(workload, op, code, text, seed, expected):
    """Why the report of one operation is wrong, or None when it is right.

    At the default seed every stdout must match its recorded sha256.  At
    any seed, a batch must pass every sample, and the other workloads must
    match their recorded order-free digest (see ``normalise``).
    """
    if code != 0:
        return "exit code %r" % (code,)
    if workload == "corpus_batch":
        problem = _batch_problem(text, expected)
        if problem:
            return problem
    elif normalise(text) != expected["normalised"][workload][op]:
        return "report differs from the recorded normalised digest"
    if seed == expected["default_seed"]:
        if (hashlib.sha256(text.encode()).hexdigest()
                != expected["sha256"][workload][op]):
            return "stdout differs from the recorded sha256"
    return None


def load_cli():
    """Import ``resdiv.cli`` from this checkout's source tree only."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("resdiv.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError("resdiv imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli


def run_ops(cli, workload, ops, seed, expected):
    """Run the operations; returns (records, latencies in seconds).

    ``expected`` holds the recorded digests; None skips the checks and
    keeps each stdout in its record, which only ``record.py`` does.
    Latencies are per realization for ``corpus_batch`` (timed around the
    ``realize`` name that ``resdiv.cli`` calls) and per operation otherwise.
    """
    cases = []
    realize = cli.realize

    def timed_realize(*args, **kwargs):
        start = time.perf_counter()
        try:
            return realize(*args, **kwargs)
        finally:
            cases.append(time.perf_counter() - start)

    cli.realize = timed_realize
    records = []
    try:
        for op, argv in ops:
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = "%s: %s" % (type(exc).__name__, exc)
            seconds = time.perf_counter() - start
            text = out.getvalue()
            records.append({
                "op": op, "s": seconds,
                "problem": None if expected is None else check_output(
                    workload, op, code, text, seed, expected),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "normalised": normalise(text),
            })
            if expected is None:
                records[-1]["stdout"] = text
    finally:
        cli.realize = realize
    latencies = cases if workload == "corpus_batch" else [
        r["s"] for r in records]
    return records, latencies


def load_expected():
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def main(argv):
    workload, input_dir, seed, mode = argv
    seed = int(seed)
    cli = load_cli()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif mode == "tracemalloc":
        tracemalloc.start()
    elif mode != "plain":
        raise ValueError("unknown mode %r" % (mode,))
    records, latencies = run_ops(cli, workload, plan(workload, input_dir, seed),
                                 seed, load_expected())
    result = {
        "records": records,
        "latencies": latencies,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    if mode == "tracemalloc":
        result["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
