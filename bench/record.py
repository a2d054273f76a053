"""Record the digests that the correctness gate compares against.

    python3 bench/record.py

Runs one untraced pass of every workload at the default seed and writes
``expected.json``: the sha256 of every stdout, and for ``e8_ladder`` and
``dense_queries`` the order-free digest (``workload.normalise``), after
checking that a second seed gives the same order-free digests.  Run it
only at a commit whose reports are known to be right, and commit the file.
"""

from __future__ import annotations

import json
import shutil

from run import write_inputs
from workload import EXPECTED_FILE, WORKLOADS, load_cli, plan, run_ops

DEFAULT_SEED = 0
OTHER_SEED = 1


def unchecked_records(cli, workload, seed):
    input_dir, _ = write_inputs(workload, seed)
    try:
        records, _ = run_ops(cli, workload, plan(workload, input_dir, seed),
                             seed, None)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    return records


def batch_cases(stdout):
    """The number of cases a batch report covers; all must have passed."""
    values = dict(line.partition(" = ")[::2] for line in stdout.splitlines())
    if values.get("total_failures") != "0":
        raise SystemExit("the default-seed batch has failures")
    return int(values["total_cases"])


def main():
    cli = load_cli()
    expected = {"default_seed": DEFAULT_SEED, "sha256": {}, "normalised": {}}
    for workload in WORKLOADS:
        records = unchecked_records(cli, workload, DEFAULT_SEED)
        expected["sha256"][workload] = {r["op"]: r["sha256"] for r in records}
        if workload == "corpus_batch":
            expected["batch_cases"] = batch_cases(records[0]["stdout"])
            continue
        norm = {r["op"]: r["normalised"] for r in records}
        other = unchecked_records(cli, workload, OTHER_SEED)
        if {r["op"]: r["normalised"] for r in other} != norm:
            raise SystemExit("%s: order-free digests depend on the seed"
                             % workload)
        expected["normalised"][workload] = norm
    EXPECTED_FILE.write_text(json.dumps(expected, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
