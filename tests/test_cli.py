import importlib
import subprocess
import sys

import pytest

import resdiv as r
import resdiv.cli
from resdiv.cli import main, random_antinef_divisor
from conftest import CORPUS_DIR, CORPUS_NAMES
from oracles import generic_chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph(name):
    return str(CORPUS_DIR / ("%s.graph" % name))


# -- check --------------------------------------------------------------------

def test_check_a2(capsys):
    code, out, _ = run(capsys, "check", graph("a2"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "format_version = 1"
    assert "negative_definite = true" in lines
    assert "log_terminal = true" in lines
    assert "discrepancy.E1 = 0" in lines


def test_check_not_log_terminal(capsys):
    code, out, _ = run(capsys, "check", graph("elliptic_minus2"))
    assert code == 0  # the file itself is valid; the report carries the verdict
    assert "log_terminal = false" in out.splitlines()
    assert "offenders = E1" in out.splitlines()


def test_check_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("curve E1 genus=0 self=+2\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.graph")
    assert code == 2
    assert "error" in err


# -- dual-basis / closure / multiplier --------------------------------------------

def test_dual_basis_a2(capsys):
    code, out, _ = run(capsys, "dual-basis", graph("a2"))
    assert code == 0
    assert "dual.E1 = E1=2/3 E2=1/3" in out.splitlines()
    assert "dual.E2 = E1=1/3 E2=2/3" in out.splitlines()


def test_closure_with_trace(capsys):
    code, out, _ = run(capsys, "closure", graph("a2"), "D", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert "closure = E1=1 E2=1" in lines
    assert "steps = 1" in lines
    assert any(line.startswith("trace.0 = add E2") for line in lines)


def test_closure_unknown_divisor(capsys):
    code, _, err = run(capsys, "closure", graph("a2"), "nope")
    assert code == 2
    assert "no divisor named" in err


def test_multiplier_command(capsys):
    code, out, _ = run(capsys, "multiplier", graph("a1"), "F",
                       "--lambda", "1/2")
    assert code == 0
    assert "multiplier_divisor = 0" in out.splitlines()
    code, out, _ = run(capsys, "multiplier", graph("a1"), "F",
                       "--lambda", "1")
    assert code == 0
    assert "multiplier_divisor = E1=1" in out.splitlines()


def test_multiplier_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "multiplier", graph("a1"), "F",
                       "--lambda", "0")
    assert code == 1
    assert "lambda" in err


# -- blowup -------------------------------------------------------------------------

def test_blowup_outputs_new_model(capsys):
    code, out, _ = run(capsys, "blowup", graph("a1"),
                       "--curve", "E1", "--length", "2")
    assert code == 0
    assert "relative_canonical_of_map = E1(1,1)=1 E1(1,2)=2" in out.splitlines()
    assert "curve E1(1,2) genus=0 self=-1" in out.splitlines()
    # emitted model must parse back
    model_text = out.split("curve E1 ", 1)[1]
    r.parse_graph("curve E1 " + model_text)


def test_blowup_negative_length_rejected(capsys):
    code, out, err = run(capsys, "blowup", graph("a1"),
                         "--curve", "E1", "--length", "-1")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_blowup_matches_step_by_step_route(capsys, corpus_models):
    for name in CORPUS_NAMES:
        model = corpus_models[name]
        for i, label in enumerate(model.labels):
            for length in (0, 1, 3):
                code, out, _ = run(capsys, "blowup", graph(name),
                                   "--curve", label, "--length", str(length))
                oracle = generic_chain(model, i, length)
                assert code == 0
                assert out.endswith(r.serialize_model(oracle.new_model))
                assert "relative_canonical_of_map = %s" % (
                    r.format_divisor(oracle.K_sigma),) in out.splitlines()


# -- realize ---------------------------------------------------------------------------

def test_realize_a2(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "realize", graph("a2"), "F",
                       "--emit-certificate", str(cert_path))
    assert code == 0
    lines = out.splitlines()
    assert "realized = true" in lines
    assert all(not line.endswith("= fail") for line in lines)
    saved = cert_path.read_text()
    assert "realized = true" in saved
    assert saved.startswith("format_version = 1\n")


def test_realize_not_log_terminal(capsys, tmp_path):
    src = (CORPUS_DIR / "elliptic_minus2.graph").read_text()
    target = tmp_path / "bad.graph"
    target.write_text(src + "divisor F E1=2\n")
    code, _, err = run(capsys, "realize", str(target), "F")
    assert code == 1
    assert "not log terminal" in err


# -- batch ----------------------------------------------------------------------------

def _tiny_corpus(tmp_path):
    for name in ("a1", "a2", "elliptic_minus1"):
        text = (CORPUS_DIR / ("%s.graph" % name)).read_text()
        (tmp_path / ("%s.graph" % name)).write_text(text)
    return tmp_path


def test_batch_reports_and_skips(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    code, out, err = run(capsys, "batch", str(corpus), "--samples", "3")
    assert code == 0
    lines = out.splitlines()
    assert "a1.status = log_terminal" in lines
    assert "a1.passes = 3/3" in lines
    assert "elliptic_minus1.status = skipped (not log terminal: E1)" in lines
    assert "total_failures = 0" in lines
    assert "wall time" in err
    assert "wall time" not in out


def test_batch_deterministic_output(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    _, first, _ = run(capsys, "batch", str(corpus), "--samples", "2",
                      "--seed", "7")
    _, second, _ = run(capsys, "batch", str(corpus), "--samples", "2",
                       "--seed", "7")
    assert first == second
    _, other, _ = run(capsys, "batch", str(corpus), "--samples", "2",
                      "--seed", "8")
    assert "total_failures = 0" in other


def test_batch_verifies_each_case_once(tmp_path, capsys, monkeypatch):
    corpus = _tiny_corpus(tmp_path)
    realize_module = importlib.import_module("resdiv.realize")
    original = realize_module.verify_certificate
    calls = []

    def counted(cert):
        calls.append(cert)
        return original(cert)

    monkeypatch.setattr(resdiv.cli, "verify_certificate", counted)
    monkeypatch.setattr(realize_module, "verify_certificate", counted)
    code, out, _ = run(capsys, "batch", str(corpus), "--samples", "2",
                       "--seed", "0")
    assert code == 0
    assert "total_cases = 4" in out.splitlines()
    assert len(calls) == 4


def test_batch_corpus_env_override(tmp_path, capsys, monkeypatch):
    corpus = _tiny_corpus(tmp_path)
    monkeypatch.setenv("RESDIV_CORPUS", str(corpus))
    code, out, _ = run(capsys, "batch", "--samples", "1")
    assert code == 0
    assert "a2.passes = 1/1" in out.splitlines()


def test_random_divisor_is_seed_stable(corpus_models):
    model = corpus_models["d4"]
    one = random_antinef_divisor(model, "7:d4:0")
    two = random_antinef_divisor(model, "7:d4:0")
    other = random_antinef_divisor(model, "7:d4:1")
    assert one == two
    assert r.is_antinef(one)
    assert one != other or model.u == 0


# -- installed entry point ---------------------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "resdiv.cli", "check", graph("a1")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "negative_definite = true" in proc.stdout
