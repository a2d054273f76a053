"""The resdiv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs closed-loop passes of
in-process ``resdiv.cli.main`` calls, each pass in a fresh interpreter
(``workload.py``), checks every report, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from
one untraced, one traced and one tracemalloc pass.  README.md says what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from workload import BENCH_DIR, ROOT, SRC, WORKLOADS

WORK_ROOT = ROOT / ".bench_work"
# setup_s is the median of SETUP_SAMPLES samples, taken before the first
# pass and between passes; each sample is the fastest of SETUP_BEST_OF
# interpreters started back to back.  On a shared machine a fresh
# interpreter only ever gets slower than its own cost, by 40 % in busy
# minutes, so the fastest of a few is the steady estimate of that cost.
SETUP_SAMPLES = 5
SETUP_BEST_OF = 5
PASS_TIMEOUT_S = 150


class PassError(RuntimeError):
    """A child process ended without a result."""


def write_inputs(workload, seed):
    """Generated inputs for one run; returns (input dir, files to parse)."""
    WORK_ROOT.mkdir(exist_ok=True)
    input_dir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed),
                                      dir=WORK_ROOT))
    if workload == "corpus_batch":
        files = sorted((SRC / "resdiv" / "corpus").glob("*.graph"))
    elif workload == "e8_ladder":
        files = list(inputs.write_ladder(input_dir, seed).values())
    else:
        files = list(inputs.write_dense(input_dir, seed).values())
    return input_dir, files


def _child(args, timeout):
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError("%s timed out after %ss" % (args[0], timeout)) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError("%s exited %d: %s" % (args[0], proc.returncode,
                                             proc.stderr.strip()[-2000:]))
    return proc.stdout.splitlines()[-1]


def setup_sample(files):
    """Fastest set-up time of SETUP_BEST_OF fresh interpreters."""
    return min(
        float(_child([BENCH_DIR / "setup_probe.py", SRC, *files], 60))
        for _ in range(SETUP_BEST_OF))


def run_pass(workload, input_dir, seed, mode):
    return json.loads(_child([BENCH_DIR / "workload.py", workload, input_dir,
                              seed, mode], PASS_TIMEOUT_S))


def pass_seconds(result):
    return sum(r["s"] for r in result["records"])


def end_to_end(workload, input_dir, files, seed, seconds):
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(files))
        passes.append(run_pass(workload, input_dir, seed, "plain"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(files))
    latencies = [s for p in passes for s in p["latencies"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_seconds(p) for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def _op_seconds(result, prefix):
    return [r["s"] for r in result["records"] if r["op"].startswith(prefix)]


def _breakdown(workload, plain):
    """The untraced pass broken down by operation."""
    cases = plain["latencies"] if workload == "corpus_batch" else []
    metrics = {
        "batch_s": sum(_op_seconds(plain, "batch")),
        "case_p50_ms": statistics.median(cases) * 1000 if cases else 0.0,
        "case_p97_ms": (statistics.quantiles(cases, n=100)[96] * 1000
                        if cases else 0.0),
    }
    for k in inputs.LADDER_KS:
        rung = _op_seconds(plain, "realize_k%d" % k)
        metrics["ladder_k%d_s" % k] = statistics.median(rung) if rung else 0.0
    for query in ("check", "dual_basis", "closure", "multiplier"):
        metrics[query + "_s"] = sum(_op_seconds(plain, query + ":"))
    return metrics


def per_layer(workload, input_dir, seed):
    plain = run_pass(workload, input_dir, seed, "plain")
    traced = run_pass(workload, input_dir, seed, "trace")
    malloc = run_pass(workload, input_dir, seed, "tracemalloc")
    metrics = dict(traced["layers"])
    metrics["trace.tracemalloc_peak_mb"] = malloc["tracemalloc_peak_mb"]
    metrics.update(_breakdown(workload, plain))
    return [plain, traced, malloc], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "resdiv" / "__init__.py").is_file():
        sys.exit("error: no resdiv source tree at %s" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    input_dir, files = write_inputs(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics = per_layer(args.workload, input_dir, args.seed)
        else:
            passes, metrics = end_to_end(args.workload, input_dir, files,
                                         args.seed, args.seconds)
    except PassError as exc:
        sys.exit("error: %s" % exc)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        sys.exit("error: metrics differ from BENCHMARK.json: %s"
                 % sorted(mismatch))
    records = [r for p in passes for r in p["records"]]
    problems = [r for r in records if r["problem"]]
    for r in problems:
        print("failed: %s: %s" % (r["op"], r["problem"]), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
