"""Tests of the benchmark's input generators and correctness gate.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import types

import pytest

import inputs
import workload
from resdiv import report as resdiv_report
from resdiv.graphfile import parse_graph_file


def _files(directory, seed):
    inputs.write_ladder(directory, seed)
    inputs.write_dense(directory, seed)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_files(tmp_path):
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        runs[name] = _files(tmp_path / name, seed)
    assert runs["a"] == runs["b"]
    assert runs["c"].keys() == runs["a"].keys()
    assert runs["c"] != runs["a"]


@pytest.mark.parametrize("seed", [0, 5])
def test_files_parse_with_expected_curve_counts(tmp_path, seed):
    for k, path in inputs.write_ladder(tmp_path, seed).items():
        doc = parse_graph_file(path)
        assert doc.model.u == 8
        f = doc.divisors["F"]
        assert {label: int(c) for label, c in zip(doc.model.labels, f.exc)} \
            == {label: k * z for label, z in inputs.E8_Z.items()}
    for path in inputs.write_dense(tmp_path, seed).values():
        doc = parse_graph_file(path)
        assert doc.model.u == 100
        g = doc.divisors["G"]
        assert g.is_effective() and all(p <= 0 for p in g.products())


def _first_op(tmp_path, name, seed):
    """The gate's record for the first operation of a workload."""
    inputs.write_ladder(tmp_path, seed)
    op = workload.plan(name, tmp_path, seed)[0]
    records, _ = workload.run_ops(workload.load_cli(), name, [op], seed,
                                  workload.load_expected())
    return records[0]


@pytest.mark.parametrize("seed", [0, 3])
def test_correct_report_passes_the_gate(tmp_path, seed):
    assert _first_op(tmp_path, "e8_ladder", seed)["problem"] is None


# k = 24 (5792 curves) needs about 545 MB, so the test stops at k = 16.
@pytest.mark.parametrize("k, curves", [(8, 656), (16, 2584)])
def test_ladder_rung_builds_the_predicted_model(tmp_path, capsys, k, curves):
    path = inputs.write_ladder(tmp_path, 0)[k]
    assert workload.load_cli().main(["realize", str(path), "F"]) == 0
    out = capsys.readouterr().out
    assert "blown_curves = %d\n" % curves in out
    assert inputs.ladder_curves(k) == curves


@pytest.mark.parametrize("seed", [0, 3])
def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch, seed):
    render = resdiv_report.Report.render

    def corrupted(self):
        return render(self).replace("realized = true", "realized = false")

    monkeypatch.setattr(resdiv_report.Report, "render", corrupted)
    assert _first_op(tmp_path, "e8_ladder", seed)["problem"]


def test_fail_sample_counts_as_failed(tmp_path, monkeypatch):
    cli = workload.load_cli()
    monkeypatch.setattr(cli, "realize", lambda model, f0: types.SimpleNamespace(
        passed=False))
    assert _first_op(tmp_path, "corpus_batch", 4)["problem"] == "exit code 1"

    # A fail line is caught even when the exit code says success.
    lines = ["total_cases = 350", "total_failures = 0"] + [
        "a1.sample_%d = pass" % k for k in range(349)] + ["a1.sample_349 = fail"]
    problem = workload.check_output("corpus_batch", "batch", 0,
                                    "\n".join(lines) + "\n", 4,
                                    workload.load_expected())
    assert problem == "1 fail samples"
