import hashlib
import importlib
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import resdiv as r
import resdiv.cli
from resdiv.cli import _certificate_report, main, random_antinef_divisor
from conftest import CORPUS_DIR, CORPUS_NAMES, LOG_TERMINAL_NAMES, load_doc
from oracles import generic_chain, random_log_terminal_model


# E1.E2 = 2 on two (-1)-curves: indefinite
INDEFINITE = ("curve E1 genus=0 self=-1\ncurve E2 genus=0 self=-1\n"
              "meet E1 E2 2\ndivisor D E1=1\n")
# E1.E2 = 1 on two (-1)-curves: singular, and D = E1 + E2 is antinef
SINGULAR = ("curve E1 genus=0 self=-1\ncurve E2 genus=0 self=-1\n"
            "meet E1 E2 1\ndivisor D E1=1 E2=1\n")


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


def test_closure_rejects_indefinite_form(tmp_path):
    # E1 + E2 has square 2: the antinef closure of D would never stop
    # growing, so the command must refuse the form before it starts
    path = tmp_path / "indefinite.graph"
    path.write_text(INDEFINITE)
    proc = subprocess.run(
        [sys.executable, "-m", "resdiv.cli", "closure", str(path), "D"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "not negative definite" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("multiplier", "D", "--lambda", "1/2"),
    ("realize", "D"),
    ("dual-basis",),
    ("batch", "--samples", "2"),
    ("closure", "D"),
])
def test_singular_form_is_a_named_error(tmp_path, capsys, argv):
    path = tmp_path / "singular.graph"
    path.write_text(SINGULAR)
    command, rest = argv[0], list(argv[1:])
    target = str(tmp_path) if command == "batch" else str(path)
    code, out, err = run(capsys, command, target, *rest)
    assert code == 1
    assert "not negative definite" in err and "pivot" in err


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
    # int() would read these as 10 and 5/7
    for lam in ("1_0", "\u0665/\u0667"):
        assert run(capsys, "multiplier", graph("a1"), "F", "--lambda", lam) == (
            1, "", "error: not an exact rational: %r\n" % lam)


def test_graph_file_integers_with_separators_are_refused(tmp_path, capsys):
    path = tmp_path / "sep.graph"
    path.write_text("curve E1 genus=0 self=-1_0\n")
    assert run(capsys, "check", str(path)) == (2, "", "error: line 1: "
                                                "self-intersection must be an "
                                                "integer, got '-1_0'\n")


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


def test_blowup_past_the_size_limit_ends_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "blowup", graph("a1"),
                         "--curve", "E1", "--length", "1000000000")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert "1000000001 curves, more than the limit of %d" % (
        r.MAX_BLOWN_CURVES,) in err


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


def _blown_graph(capsys, tmp_path, name, curve):
    """The model ``blowup <name> --curve <curve>`` prints, as a graph file."""
    code, out, _ = run(capsys, "blowup", name, "--curve", curve)
    assert code == 0
    path = tmp_path / ("blown_%s" % Path(name).name)
    path.write_text("".join(line + "\n" for line in out.splitlines()
                            if " = " not in line))
    return path


def test_blowup_of_a_blown_model_takes_the_next_point(capsys, tmp_path):
    blown = _blown_graph(capsys, tmp_path, graph("a2"), "E1")
    again = _blown_graph(capsys, tmp_path, str(blown), "E1")
    assert r.parse_graph_file(again).model.labels == (
        "E1", "E2", "E1(1,1)", "E1(2,1)")


def test_realize_on_blowup_output(capsys, tmp_path):
    """The blown a2 has curves E1, E2 and E1(1,1); realize's chains over E1
    skip the point that E1(1,1) already names."""
    path = _blown_graph(capsys, tmp_path, graph("a2"), "E1")
    model = r.parse_graph_file(path).model
    assert model.labels == ("E1", "E2", "E1(1,1)")
    closures = {"F%d" % (i + 1): r.antinef_closure(r.Divisor.curve(model, i))[0]
                for i in range(model.u)}
    path.write_text(r.serialize_model(model, closures))
    for name in closures:
        code, out, err = run(capsys, "realize", str(path), name)
        assert code == 0, err
        lines = out.splitlines()
        assert "realized = true" in lines
        assert sum(line.startswith("check.") and line.endswith(" = pass")
                   for line in lines) == 14


# -- realize ---------------------------------------------------------------------------

# sha256 of the rendered certificate reports of the 350 realizations of
# ``batch --samples 25 --seed 0``, recorded before realize and
# verify_certificate moved to the quotient by identical chains
SEED0_REPORTS_SHA256 = (
    "8e539bf97726b7f73fee0eda7197c81382ff13563066feb7739c5d777bf76e77")


def test_seed0_certificate_reports_are_byte_identical(corpus_models):
    digest = hashlib.sha256()
    cases = 0
    for name in CORPUS_NAMES:
        model = corpus_models[name]
        if not r.discrepancies(model).log_terminal:
            continue
        for k in range(25):
            f0 = random_antinef_divisor(model, "0:%s:%d" % (name, k))
            cert = r.realize(model, f0)
            digest.update(_certificate_report(cert).render().encode())
            cases += 1
    assert cases == 350
    assert digest.hexdigest() == SEED0_REPORTS_SHA256


# sha256 of the certificate report of realize on e8 with F0 = k Z, recorded
# before the divisors were written chain by chain
E8_REPORTS_SHA256 = {
    8: "ac59e2ad8911bd903bf8246370f2ecee44ba7c54c964feed2c46b05182665c2e",
    24: "ef9b613abe0844bfe0b09c826362808ea28892bd9be43e7445f620976c85a95d",
}


@pytest.mark.parametrize("k", sorted(E8_REPORTS_SHA256))
def test_e8_ladder_certificate_reports_are_byte_identical(k):
    model = load_doc("e8").model
    cert = r.realize(model, r.Divisor.from_coeffs(
        model, exc=[k * v for v in (6, 3, 4, 2, 5, 4, 3, 2)]))
    text = _certificate_report(cert).render()
    assert hashlib.sha256(text.encode()).hexdigest() == E8_REPORTS_SHA256[k]


def chain_graph(selfs, meets, chains, g_base):
    """The base curves ``selfs`` (label -> self-intersection) meeting as
    ``meets``, with ``chains`` (base label -> (count, length)) of
    -2, ..., -2, -1 curves blown up over them: 100 curves, declared in a
    scrambled order, with D = 100 E1 and G the pullback of ``g_base``."""
    curves = [(b, s - chains.get(b, (0, 0))[0]) for b, s in selfs.items()]
    meets = list(meets)
    g = dict(g_base)
    for b, (count, length) in chains.items():
        for point in range(1, count + 1):
            prev = b
            for step in range(1, length + 1):
                label = "%s(%d,%d)" % (b, point, step)
                curves.append((label, -1 if step == length else -2))
                meets.append((prev, label))
                g[label] = g_base[b]
                prev = label
    assert len(curves) == 100
    lines = ["curve %s genus=0 self=%d" % curves[37 * k % 100]
             for k in range(100)]
    lines += ["meet %s %s 1" % m for m in meets]
    lines += ["divisor D E1=100",
              "divisor G " + " ".join("%s=%d" % kv for kv in g.items())]
    return "\n".join(lines) + "\n"


def e8_chain_graph():
    """e8 with 2 chains of 10 over E2, 3 of 8 over E4 and 4 of 12 over E8
    (100 curves), with G the pullback of the fundamental cycle; the
    discrepancies are integral."""
    z = {"E1": 6, "E2": 3, "E3": 4, "E4": 2, "E5": 5, "E6": 4, "E7": 3,
         "E8": 2}
    return chain_graph(
        dict.fromkeys(z, -2),
        [("E1", "E2"), ("E1", "E3"), ("E3", "E4"), ("E1", "E5"),
         ("E5", "E6"), ("E6", "E7"), ("E7", "E8")],
        {"E2": (2, 10), "E4": (3, 8), "E8": (4, 12)}, z)


def cyclic23_chain_graph():
    """The cyclic quotient (-2, -3) with 5 chains of 10 over E1 and 4 of 12
    over E2 (100 curves), with G the pullback of E1 + E2; the
    discrepancies and the dual basis are over 5."""
    return chain_graph({"E1": -2, "E2": -3}, [("E1", "E2")],
                       {"E1": (5, 10), "E2": (4, 12)}, {"E1": 1, "E2": 1})


# sha256 of the stdout of each command on ``e8_chain_graph``, recorded
# before the exact solver eliminated in minimum-degree order
E8_CHAIN_STDOUT_SHA256 = {
    ("check",):
        "dc2b65d9a1663b686dc4b45c86338b4f46418a00bdcde2e57d3f6131a4903530",
    ("dual-basis",):
        "3d4a94ca36738d7a8fbff2212f4a3c9ad3df99e07b85aa2f7a7f5ea515e49151",
    ("closure", "D", "--trace"):
        "4d6372d705e0e0b861b6f0e0c7d11df273b22fc420973c852d92baa54f397893",
    ("multiplier", "G", "--lambda", "5/7"):
        "f7869007e2b9b8dd1a7d047865300aa2c837e92a911c7502ec3bc7b65adf3f3d",
}


@pytest.mark.parametrize("argv", sorted(E8_CHAIN_STDOUT_SHA256))
def test_e8_chain_model_reports_are_byte_identical(argv, tmp_path, capsys):
    assert_stdout_digest(tmp_path / "e8_chains.graph", e8_chain_graph(),
                         argv, E8_CHAIN_STDOUT_SHA256[argv], capsys)


def assert_stdout_digest(path, text, argv, digest, capsys):
    """``argv`` on ``text``, written to ``path``, exits 0 with stdout of
    sha256 ``digest``."""
    path.write_text(text)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of each command on ``cyclic23_chain_graph``, recorded
# before the solver kept its right-hand sides sparse
CYCLIC23_CHAIN_STDOUT_SHA256 = {
    ("check",):
        "f380370300b4f15410c80589c64e5274a139059d669773ed666aa0c0622ff518",
    ("dual-basis",):
        "d696bfbd8301008bcf23620d13d450a9e0b7c178f1904917c0facf26a640f047",
    ("closure", "D", "--trace"):
        "49f08a4ccec6cd0bcd7273809397fb9198ecd99412fdd1c5c0032ae6c11adff8",
    ("multiplier", "G", "--lambda", "5/7"):
        "07bd71d9593caa94493daa99320f37ac51fbd0f2dc6de892fed9b1093cf2560a",
}


@pytest.mark.parametrize("argv", sorted(CYCLIC23_CHAIN_STDOUT_SHA256))
def test_cyclic23_chain_model_reports_are_byte_identical(argv, tmp_path,
                                                         capsys):
    assert_stdout_digest(tmp_path / "cyclic23_chains.graph",
                         cyclic23_chain_graph(), argv,
                         CYCLIC23_CHAIN_STDOUT_SHA256[argv], capsys)


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


def test_emitted_certificate_repeats_the_report(capsys, tmp_path):
    """The file holds the certificate lines of stdout, after its own head."""
    z = "E1=6 E2=3 E3=4 E4=2 E5=5 E6=4 E7=3 E8=2"
    source = tmp_path / "e8.graph"
    source.write_text((CORPUS_DIR / "e8.graph").read_text() + "divisor Z %s\n" % z)
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "realize", str(source), "Z",
                       "--emit-certificate", str(cert_path))
    assert code == 0
    head, saved = out.splitlines(), cert_path.read_text().splitlines()
    assert head[1:4] == ["command = realize", "file = e8.graph",
                         "divisor = Z"]
    assert saved[1:3] == ["certificate_for = e8.graph", "divisor = " + z]
    assert saved[3:] == head[4:] and saved[3].startswith("epsilon = ")


def test_unwritable_certificate_path_prints_no_report(capsys, tmp_path):
    """The certificate is written first: a path that cannot be written
    exits 2, naming it, with nothing on stdout."""
    target = tmp_path / "missing" / "cert.txt"
    code, out, err = run(capsys, "realize", graph("a2"), "F",
                         "--emit-certificate", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("divisor", ["Z", "F"])
def test_realize_without_exceptional_curves(capsys, tmp_path, divisor):
    path = tmp_path / "strict.graph"
    path.write_text("strict C meets\ndivisor Z 0\ndivisor F C=2\n")
    code, out, err = run(capsys, "realize", str(path), divisor)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "mu = 1/2" in lines and "realized = true" in lines


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


def test_one_configuration_per_realization(capsys, monkeypatch):
    """batch builds one GenericConfiguration per realization, and the
    certificate's F, A, G and F' live on its model: there is no second
    layout to regroup them onto, or to spread them back over."""
    assert not hasattr(r.GenericConfiguration, "quotient")
    assert not hasattr(r.GenericConfiguration, "expand")
    init = r.GenericConfiguration.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(r.GenericConfiguration, "__init__", counted)
    code, out, _ = run(capsys, "batch", "--samples", "2")
    lines = out.splitlines()
    assert code == 0 and "total_failures = 0" in lines
    assert "total_cases = %d" % len(calls) in lines and len(calls) > 20
    for name in LOG_TERMINAL_NAMES:
        model = load_doc(name).model
        for k in range(2):
            cert = r.realize(model, random_antinef_divisor(model, "q:%d" % k))
            assert all(d.model is cert.config.model
                       for d in (cert.F, cert.A, cert.G, cert.F_prime)), name


def test_batch_on_a_missing_directory_or_a_file_is_an_io_error(tmp_path,
                                                               capsys):
    """Either path is named and nothing is printed; an existing directory
    with no graph files is an empty batch."""
    missing, plain = tmp_path / "missing", tmp_path / "plain.graph"
    plain.write_text((CORPUS_DIR / "a1.graph").read_text())
    for path in (missing, plain):
        code, out, err = run(capsys, "batch", str(path), "--samples", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run(capsys, "batch", str(empty), "--samples", "1")
    assert code == 0 and "total_cases = 0" in out.splitlines()


def test_batch_negative_samples_rejected(tmp_path, capsys):
    corpus = _tiny_corpus(tmp_path)
    code, out, err = run(capsys, "batch", str(corpus), "--samples", "-2")
    assert code == 1
    assert out == ""
    assert "--samples" in err


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


def test_check_eliminates_once(capsys, monkeypatch):
    linalg = importlib.import_module("resdiv.linalg")
    original = linalg.solve_columns
    calls = []

    def counted(matrix, columns):
        calls.append((len(matrix), original(matrix, columns)))
        return calls[-1][1]

    monkeypatch.setattr(linalg, "solve_columns", counted)
    code, out, _ = run(capsys, "check", graph("a2"))
    assert code == 0
    assert "negative_definite = true" in out.splitlines()
    # one solve of the 2-curve form: den = |det| = 3, discrepancies 0
    assert calls == [(2, (3, [[0, 0]]))]


def test_check_indefinite_reports_witness(tmp_path, capsys):
    path = tmp_path / "indefinite.graph"
    path.write_text(INDEFINITE)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[-2:] == ["negative_definite = false",
                                     "witness = 2 1"]


# The chain E4 - E1 - E2 - E3.  In index order the first wrong leading
# minor is det(E1, E2) = 0, at E2.  Minimum-degree order takes E3, E2 and
# then E1, where its first wrong pivot, 1/2, falls.  Report recorded
# before the solver eliminated in minimum-degree order.
LEAF_LAST = ("curve E1 genus=0 self=-1\ncurve E2 genus=0 self=-1\n"
             "curve E3 genus=0 self=-3\ncurve E4 genus=0 self=-3\n"
             "meet E1 E2 1\nmeet E2 E3 1\nmeet E1 E4 1\n")
LEAF_LAST_CHECK = """\
format_version = 1
command = check
file = leaf_last.graph
curves = 4
strict_curves = 0
negative_definite = false
witness = 1 1 0 0
"""


def test_check_witness_names_the_first_wrong_minor_in_index_order(
        tmp_path, capsys):
    path = tmp_path / "leaf_last.graph"
    path.write_text(LEAF_LAST)
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out) == (1, LEAF_LAST_CHECK)
    with pytest.raises(r.NotNegativeDefinite) as info:
        r.discrepancies(r.parse_graph(LEAF_LAST).model)
    assert (info.value.index, info.value.pivot) == (1, 0)


def test_check_on_an_indefinite_form_eliminates_three_times(
        tmp_path, capsys, monkeypatch):
    """discrepancies fails in minimum-degree order and again in index
    order, and the witness solves the leading block that passed: its
    index comes from the error, so nothing is eliminated twice."""
    linalg = importlib.import_module("resdiv.linalg")
    original = linalg._eliminate
    calls = []

    def counted(rows, columns, order):
        calls.append((len(rows), len(columns)))
        return original(rows, columns, order)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    path = tmp_path / "leaf_last.graph"
    path.write_text(LEAF_LAST)
    assert run(capsys, "check", str(path))[:2] == (1, LEAF_LAST_CHECK)
    assert calls == [(4, 1), (4, 0), (1, 1)]


def test_non_utf8_graph_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"curve E1 genus=0 self=-2\xff\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# -- one parser per process --------------------------------------------------------

def test_each_command_repeats_byte_identically(tmp_path, capsys):
    """Every command, twice in a row and interleaved with the others,
    prints the same report and returns the same code."""
    commands = [
        ("check", graph("a2")),
        ("dual-basis", graph("a2")),
        ("closure", graph("a2"), "D", "--trace"),
        ("multiplier", graph("a1"), "F", "--lambda", "1/2"),
        ("blowup", graph("a2"), "--curve", "E1", "--length", "2"),
        ("realize", graph("a2"), "F"),
        ("batch", str(_tiny_corpus(tmp_path)), "--samples", "1"),
    ]
    first = {}
    for _ in range(2):
        for argv in commands:
            for _ in range(2):
                code, out, _ = run(capsys, *argv)
                assert first.setdefault(argv, (code, out)) == (code, out), argv
    assert len(first) == 7
    assert all(code == 0 and out for code, out in first.values())


@pytest.mark.parametrize("bad", [
    ("multiplier", graph("a1"), "F"),
    ("blowup", graph("a2"), "--curve", "E1", "--length", "x"),
    # int() reads non-ASCII digits and "_" separators; the options do not
    ("blowup", graph("a2"), "--curve", "E1", "--length", "\u0663"),
    ("batch", "--samples", "0_1"),
])
def test_usage_error_between_good_calls(capsys, bad):
    good = run(capsys, "multiplier", graph("a1"), "F", "--lambda", "1")
    with pytest.raises(SystemExit) as info:
        main(list(bad))
    assert info.value.code == 2
    assert "usage: resdiv" in capsys.readouterr().err
    assert run(capsys, "multiplier", graph("a1"), "F", "--lambda", "1") == good
    assert good[0] == 0 and "multiplier_divisor = E1=1" in good[1].splitlines()


def test_a_command_patched_after_the_first_call_is_called(capsys, monkeypatch):
    assert run(capsys, "check", graph("a1"))[0] == 0
    monkeypatch.setattr(resdiv.cli, "cmd_check", lambda args: 7)
    assert run(capsys, "check", graph("a1")) == (7, "", "")


def test_parser_is_built_on_the_first_call_only():
    """Importing the CLI builds no parser; the first main() builds the
    top-level parser and its 7 subparsers, and later calls reuse them."""
    script = (
        "import argparse, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "sys.path.insert(0, %r)\n"
        "import resdiv.cli\n"
        "assert resdiv.cli.__file__.startswith(sys.path[0])\n"
        "assert made == [], made\n"
        "counts = [(resdiv.cli.main(['check', %r]), len(made))[1]\n"
        "          for _ in range(3)]\n"
        "assert counts == [8, 8, 8], counts\n"
        % (str(Path(resdiv.cli.__file__).parents[1]), graph("a1")))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- integers past Python's digit limit ------------------------------------------

@pytest.fixture
def limit_message():
    """The message for integers past Python's default int/str limit of
    4300 digits, which the test sets whatever the environment chose."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "integer of more than 4300 digits, the limit for integer string " \
          "conversion"
    sys.set_int_max_str_digits(old)


def test_a_self_intersection_past_the_digit_limit_is_not_echoed(
        tmp_path, capsys, limit_message):
    path = tmp_path / "long.graph"
    path.write_text("curve E1 genus=0 self=-%s\n" % ("1" * 5001))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 1: %s\n" % limit_message


def test_a_rational_past_the_digit_limit_is_not_echoed(
        tmp_path, capsys, limit_message):
    path = tmp_path / "long.graph"
    path.write_text("curve E1 genus=0 self=-2\ndivisor G E1=1/%s\n"
                    % ("3" * 5000))
    assert run(capsys, "closure", str(path), "G") == (
        2, "", "error: line 2: %s\n" % limit_message)
    assert run(capsys, "multiplier", graph("a1"), "F", "--lambda",
               "1" * 5000) == (1, "", "error: %s\n" % limit_message)


def test_report_values_past_the_digit_limit_are_one_error(
        tmp_path, capsys, limit_message):
    """The values parse, but the dual basis and the multiplier divisor
    have more digits than Python turns into text."""
    big = "1" + "0" * 3000
    meeting = tmp_path / "meeting.graph"
    meeting.write_text("curve E1 genus=0 self=-%s\ncurve E2 genus=0 self=-%s\n"
                       "meet E1 E2 1\n" % (big, big))
    assert run(capsys, "dual-basis", str(meeting)) == (
        1, "", "error: %s\n" % limit_message)
    huge = "1" + "0" * 4000
    a1 = tmp_path / "a1.graph"
    a1.write_text("curve E1 genus=0 self=-2\ndivisor G E1=%s\n" % huge)
    assert run(capsys, "multiplier", str(a1), "G", "--lambda", huge) == (
        1, "", "error: %s\n" % limit_message)


# -- declaration order ---------------------------------------------------------

def shuffled_graph_text(model, rng):
    """``model``'s graph text with its lines shuffled, each meeting's two
    curves in either order and each strict line's pairs shuffled: the same
    model, declared in another order."""
    lines = []
    for line in r.serialize_model(model).splitlines():
        words = line.split()
        if words[0] == "meet" and rng.random() < 0.5:
            words[1], words[2] = words[2], words[1]
        elif words[0] == "strict":
            pairs = words[3:]
            rng.shuffle(pairs)
            words[3:] = pairs
        lines.append(" ".join(words))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def order_free(report):
    """The report's lines, each value's words sorted, in sorted order."""
    return sorted("%s = %s" % (key, " ".join(sorted(value.split())))
                  for key, _, value in (line.partition(" = ")
                                        for line in report.splitlines()))


def assert_reports_permute(model, rng, tmp_path, capsys):
    """``check`` and ``dual-basis`` on a shuffled declaration of ``model``
    print the same lines and terms, with each curve's line and each
    value's terms in the new declaration order, and exit the same way."""
    text, shuffled = r.serialize_model(model), shuffled_graph_text(model, rng)
    rank = {line.split()[1]: k for k, line in enumerate(
        line for line in shuffled.splitlines() if line.startswith("curve "))}
    for command in ("check", "dual-basis"):
        runs = []
        for side, body in (("declared", text), ("shuffled", shuffled)):
            path = tmp_path / side / "model.graph"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
            runs.append(run(capsys, command, str(path)))
        (code, out, err), (code_s, out_s, err_s) = runs
        assert (code_s, err_s) == (code, err)
        assert order_free(out_s) == order_free(out)
        keyed = [line.partition(" = ") for line in out_s.splitlines()
                 if line.startswith(("discrepancy.", "dual.", "offenders"))]
        curves = [key.partition(".")[2] for key, _, _ in keyed if "." in key]
        assert [rank[label] for label in curves] == sorted(rank.values())
        for key, _, value in keyed:
            if key.startswith("dual.") or key == "offenders":
                labels = [term.partition("=")[0] for term in value.split()]
                ranks = [rank[label] for label in labels]
                assert ranks == sorted(ranks), (key, value)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_reports_permute_with_the_declaration_order_on_the_corpus(
        name, tmp_path, capsys):
    assert_reports_permute(load_doc(name).model, random.Random(name),
                           tmp_path, capsys)


def test_reports_permute_with_the_declaration_order_on_generated_models(
        tmp_path, capsys):
    rng = random.Random(20081024)
    for k in range(12):
        model = random_log_terminal_model(rng)
        assert_reports_permute(model, rng, tmp_path / str(k), capsys)


def test_reports_permute_with_the_declaration_order_on_a_blown_model(
        tmp_path, capsys):
    """A chain of three over each curve of d5: one point per chain, so the
    resolution() of the configuration's model is the blown-up surface (20
    curves)."""
    base = load_doc("d5").model
    model = r.GenericConfiguration.build(base, [1] * base.u,
                                         [3] * base.u).model.resolution()
    assert model.u == 20
    assert_reports_permute(model, random.Random(5), tmp_path, capsys)


def test_integral_rationals_read_as_the_int_they_equal(tmp_path, capsys):
    """``E1=6/2 C=-0`` is the divisor ``E1=3``, and closes the same way."""
    model = ("curve E1 genus=0 self=-2\ncurve E2 genus=0 self=-3\n"
             "meet E1 E2 1\nstrict C meets E2=2\n")
    outs = []
    for side, line in (("fraction", "divisor D E1=6/2 C=-0"),
                       ("int", "divisor D E1=3")):
        path = tmp_path / side / "sample.graph"
        path.parent.mkdir()
        path.write_text(model + line + "\n")
        outs.append((r.parse_graph_file(path).divisors["D"],
                     run(capsys, "closure", str(path), "D", "--trace")))
    assert outs[0] == outs[1]
    divisor, (code, _, _) = outs[0]
    assert (divisor.num, divisor.den, code) == ((3, 0, 0), 1, 0)


# -- relabelling ---------------------------------------------------------------

def relabelled(text, names):
    """``text`` with each curve label in ``names`` replaced by its image,
    wherever it stands as a word: as a key, a term, a chain's head."""
    pattern = r"(?<![\w])(%s)(?![\w])" % "|".join(
        map(re.escape, sorted(names, key=len, reverse=True)))
    return re.sub(pattern, lambda m: names[m[1]], text)


def assert_reports_follow_a_relabelling(model, rng, tmp_path, capsys):
    """Each curve renamed by a seeded bijection to fresh names, none of the
    form X(p,m): check, dual-basis, closure D --trace and realize F print
    what they printed, relabelled, chain labels <new>(p,m) included."""
    labels = model.labels + model.strict_labels
    fresh = ["w%d_%s" % (k, rng.choice("abcxyz")) for k in
             rng.sample(range(10 * len(labels)), len(labels))]
    names = dict(zip(labels, fresh))
    d = r.Divisor(model, [rng.randint(0, 3) for _ in range(model.u)],
                  [rng.randint(0, 1) for _ in model.strict_labels])
    f = r.antinef_closure(d)[0] if r.check_negative_definite(model) else d
    text = r.serialize_model(model, {"D": d, "F": f})
    for argv in (["check"], ["dual-basis"], ["closure", "D", "--trace"],
                 ["realize", "F"]):
        runs = []
        for side, body in (("declared", text), ("renamed", relabelled(text, names))):
            path = tmp_path / side / "model.graph"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
            runs.append(run(capsys, argv[0], str(path), *argv[1:]))
        (code, out, err), renamed = runs
        assert renamed == (code, relabelled(out, names), relabelled(err, names))
        if argv[0] == "realize" and code == 0 and any(f.num[:model.u]):
            assert re.search(r"\bw\d+_[a-z]\(1,1\)=", renamed[1]), out


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_reports_follow_a_relabelling_on_the_corpus(name, tmp_path, capsys):
    assert_reports_follow_a_relabelling(load_doc(name).model,
                                        random.Random(name), tmp_path, capsys)


def test_reports_follow_a_relabelling_on_generated_models(tmp_path, capsys):
    rng = random.Random(20081026)
    for k in range(12):
        assert_reports_follow_a_relabelling(random_log_terminal_model(rng), rng,
                                            tmp_path / str(k), capsys)
