import contextlib
import io
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import resdiv as r
from conftest import (CORPUS_DIR, CORPUS_NAMES, LOG_TERMINAL_NAMES, load_doc,
                      single_chain)
from oracles import (chain_spans, dense_matrix, expand, format_by_labels,
                     random_log_terminal_model, ungroup)
from resdiv.cli import main, random_antinef_divisor

SAMPLE = """\
# two curves and a strict branch
curve E1 genus=0 self=-2
curve E2 genus=0 self=-3
meet E1 E2 1
strict C meets E2=2
divisor F E1=1 E2=2 C=1/3
divisor Z 0
"""


# -- rational formatting ------------------------------------------------------

def test_parse_rational_forms():
    assert r.parse_rational("3") == 3
    assert r.parse_rational("-7/2") == Fraction(-7, 2)
    assert r.format_rational(Fraction(4, 2)) == "2"
    assert r.format_rational(Fraction(-1, 3)) == "-1/3"


def test_decimals_rejected():
    with pytest.raises(ValueError):
        r.parse_rational("0.5")
    with pytest.raises(ValueError):
        r.parse_rational("1e-3")
    # int() reads "_" separators and non-ASCII decimal digits; p/q does not
    for text in ("1_0", "1_0/3", "3/1_0", "\u0665/\u0667", "\uff15", "1/\u0663"):
        with pytest.raises(ValueError, match="not an exact rational"):
            r.parse_rational(text)


# -- parsing ---------------------------------------------------------------------

def test_parse_sample_document():
    doc = r.parse_graph(SAMPLE)
    m = doc.model
    assert m.labels == ("E1", "E2")
    assert dense_matrix(m) == ((-2, 1), (1, -3))
    assert m.strict_curves[0].label == "C"
    assert m.strict_curves[0].incidence == (0, 2)
    f = doc.divisors["F"]
    assert f.exc == (Fraction(1), Fraction(2))
    assert f.strict == (Fraction(1, 3),)
    assert doc.divisors["Z"] == r.Divisor.zero(m)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(r.GraphSyntaxError, match="line 2"):
        r.parse_graph("curve E1 genus=0 self=-2\nmeet E1\n")
    with pytest.raises(r.GraphSyntaxError, match="line 1"):
        r.parse_graph("curve E1 genus=0 self=2\n")
    with pytest.raises(r.GraphSyntaxError, match="line 1"):
        r.parse_graph("orbit E1\n")
    with pytest.raises(r.GraphSyntaxError, match="line 2"):
        r.parse_graph("curve E1 genus=0 self=-2\ndivisor F E9=1\n")
    with pytest.raises(r.GraphSyntaxError, match="line 2"):
        r.parse_graph("curve E1 genus=0 self=-2\ndivisor F E1=0.5\n")
    # integers and rationals are ASCII digits alone, without "_" separators
    for line, message in (
            ("curve E2 genus=0 self=-1_0", "self-intersection must be an "
             "integer, got '-1_0'"),
            ("curve E2 genus=\u0661 self=-2", "genus must be an integer"),
            ("meet E1 E1 1_0", "multiplicity must be an integer"),
            ("strict C meets E1=\uff11", "incidence must be an integer"),
            ("divisor F E1=1_0/3", "not an exact rational: '1_0/3'"),
            ("divisor F E1=\u0665/\u0667", "not an exact rational")):
        with pytest.raises(r.GraphSyntaxError, match="line 2: " + message):
            r.parse_graph("curve E1 genus=0 self=-2\n%s\n" % line)


def test_duplicate_divisor_rejected():
    text = "curve E1 genus=0 self=-2\ndivisor F E1=1\ndivisor F E1=2\n"
    with pytest.raises(r.GraphSyntaxError, match="duplicate"):
        r.parse_graph(text)


def test_unknown_meet_target_rejected():
    with pytest.raises(r.MalformedGraph):
        r.parse_graph("curve E1 genus=0 self=-2\nmeet E1 E9 1\n")


# -- serialization --------------------------------------------------------------

def test_round_trip_sample():
    doc = r.parse_graph(SAMPLE)
    text = r.serialize_model(doc.model, doc.divisors)
    again = r.parse_graph(text)
    assert again.model == doc.model
    assert again.divisors == doc.divisors


def test_round_trip_is_canonical():
    doc = r.parse_graph(SAMPLE)
    text = r.serialize_model(doc.model, doc.divisors)
    assert r.serialize_model(r.parse_graph(text).model,
                             r.parse_graph(text).divisors) == text


def test_round_trip_corpus():
    for name in CORPUS_NAMES:
        doc = load_doc(name)
        text = r.serialize_model(doc.model, doc.divisors)
        again = r.parse_graph(text)
        assert again.model == doc.model, name
        assert again.divisors == doc.divisors, name


def test_format_divisor():
    doc = r.parse_graph(SAMPLE)
    assert r.format_divisor(doc.divisors["F"]) == "E1=1 E2=2 C=1/3"
    assert r.format_divisor(r.Divisor.zero(doc.model)) == "0"


@seed(20081023)
@settings(max_examples=50, deadline=2000)
@given(name=st.sampled_from(LOG_TERMINAL_NAMES + ("generated",)),
       blown=st.booleans(), rng=st.randoms(use_true_random=False),
       den=st.integers(1, 6))
@example(name="a2_branch", blown=True, rng=random.Random(0), den=4)
def test_format_divisor_matches_the_label_oracle(name, blown, rng, den):
    """F0 and the divisors of its realization, which read as their
    expansions onto the blown-up surface; each also over ``den`` and, on the
    blown-up surface, with one chain copy changed so that the copies
    disagree; and zero.  The model is a corpus graph (a1_branch and
    a2_branch have strict curves) or a generated log terminal one; when
    ``blown``, a chain over E_i is blown up first, so the realization's
    chains over E_i skip the point that chain takes."""
    model = (random_log_terminal_model(rng) if name == "generated"
             else load_doc(name).model)
    f0 = random_antinef_divisor(model, "format:%d" % rng.randrange(100))
    if blown:
        config = single_chain(model, rng.randrange(model.u), rng.randint(1, 2))
        model, f0 = config.model, config.pullback.apply(f0)
    cert = r.realize(model, f0)
    config, full = cert.config, ungroup(cert.config)
    for d in (f0, cert.F, cert.A, cert.G, cert.F_prime,
              r.Divisor.zero(config.model)):
        for v in (d, d.scale(Fraction(-1, den))):
            if v.model is not config.model:
                assert r.format_divisor(v) == format_by_labels(v)
                continue
            w = expand(config, v)
            assert r.format_divisor(v) == format_by_labels(w)
            if full.chains:
                _, span = rng.choice(chain_spans(full))
                w += r.Divisor.curve(full.model,
                                     rng.randrange(span.start, span.stop))
                assert r.format_divisor(w) == format_by_labels(w)
    assert r.format_divisor(r.Divisor.zero(config.model)) == "0"


def test_corpus_files_are_negative_definite():
    assert len(CORPUS_NAMES) >= 10
    for name in CORPUS_NAMES:
        model = load_doc(name).model
        assert r.check_negative_definite(model), name


def test_corpus_dir_exists():
    assert CORPUS_DIR.is_dir()
    assert sorted(p.stem for p in CORPUS_DIR.glob("*.graph")) == CORPUS_NAMES


def test_repeated_curve_in_strict_line_rejected():
    text = "curve E1 genus=0 self=-2\nstrict S meets E1=1 E1=3\n"
    with pytest.raises(r.GraphSyntaxError, match="line 2: curve 'E1' repeated"):
        r.parse_graph(text)


def test_repeated_curve_in_divisor_line_rejected():
    text = ("curve E1 genus=0 self=-2\nstrict S meets E1=1\n"
            "divisor D E1=1 E1=5\n")
    with pytest.raises(r.GraphSyntaxError, match="line 3: curve 'E1' repeated"):
        r.parse_graph(text)
    with pytest.raises(r.GraphSyntaxError, match="line 3: curve 'S' repeated"):
        r.parse_graph(text.replace("E1=1 E1=5", "S=1 E1=2 S=1"))


@pytest.mark.parametrize("text, lineno", [
    ("curve E=1 genus=0 self=-2\n", 1),
    ("curve E1 genus=0 self=-2\nstrict S=1 meets E1=1\n", 2),
])
def test_label_with_equals_sign_rejected(text, lineno):
    with pytest.raises(r.GraphSyntaxError,
                       match="line %d: name .* must not contain '='" % lineno):
        r.parse_graph(text)


# tokens that are valid somewhere, or nearly so, for the mutations to use
EXTRA_TOKENS = ["curve", "meet", "strict", "divisor", "meets", "genus=0",
                "genus=-1", "self=-2", "self=0", "E1", "E1=1", "E1=1/2",
                "E1=0.5", "=", "x=", "1/0", "-1", "0", "#", "\n", "\xe9"]


@st.composite
def mutated_corpus_texts(draw):
    """A corpus file with one to four tokens inserted, deleted, replaced
    or duplicated; newlines count as tokens."""
    path = CORPUS_DIR / ("%s.graph" % draw(st.sampled_from(CORPUS_NAMES)))
    tokens = re.findall(r"\S+|\n", path.read_text())
    pool = st.sampled_from(sorted(set(tokens)) + EXTRA_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "duplicate"]))
        k = draw(st.integers(0, len(tokens) - (op != "insert")))
        if op == "insert":
            tokens.insert(k, draw(pool))
        elif op == "delete":
            del tokens[k]
        elif op == "replace":
            tokens[k] = draw(pool)
        else:
            tokens.insert(k, tokens[k])
    return " ".join(tokens)


@seed(20080919)
@given(text=mutated_corpus_texts())
@settings(deadline=None, max_examples=300)
def test_parse_graph_raises_only_malformed_graph(text):
    """GraphSyntaxError is a MalformedGraph; a text that parses
    round-trips through serialize_model."""
    try:
        doc = r.parse_graph(text)
    except r.MalformedGraph:
        return
    again = r.parse_graph(r.serialize_model(doc.model, doc.divisors))
    assert again.model == doc.model and again.divisors == doc.divisors


# every command, as (argv after the file, with DIV for the divisor's name)
COMMANDS = [["check"], ["dual-basis"], ["closure", "DIV", "--trace"],
            ["multiplier", "DIV", "--lambda", "1/2"],
            ["blowup", "--curve", "E1", "--length", "2"], ["realize", "DIV"]]


@seed(20080920)
@given(text=mutated_corpus_texts())
@settings(deadline=None, max_examples=100)
def test_every_command_on_a_mutated_text_ends_in_a_documented_exit(text):
    """Through ``main``, each command, ``batch`` over the file's directory
    included, exits 0, 1 or 2 and prints no traceback."""
    name = re.search(r"divisor (\S+)", text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.graph"
        path.write_text(text, encoding="utf-8")
        argvs = [[argv[0], str(path)] + [name[1] if name and a == "DIV"
                                         else a for a in argv[1:]]
                 for argv in COMMANDS] + [["batch", tmp, "--samples", "2"]]
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_an_all_int_divisor_line_skips_the_fraction_step(monkeypatch):
    """``p`` and ``p/1`` reach Divisor as ints, so as_rational is not
    called; ``1/3`` still is."""
    import resdiv.divisor

    def refuse(value):
        raise AssertionError("as_rational(%r)" % (value,))

    monkeypatch.setattr(resdiv.divisor, "as_rational", refuse)
    doc = r.parse_graph(SAMPLE.replace("C=1/3", "C=4/1"))
    assert (doc.divisors["F"].num, doc.divisors["F"].den) == ((1, 2, 4), 1)
    with pytest.raises(AssertionError, match="as_rational"):
        r.parse_graph(SAMPLE)
