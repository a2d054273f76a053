"""Mutation sweep over the certificate checker in resdiv.realize.

Each mutant changes one operator or constant in verify_certificate,
_run_checks, _domination_break or _first_break (a comparison flipped at
its boundary, a boolean operator swapped, an arithmetic operator
replaced, an int moved by one, one of the operator functions lt, le, gt,
ge, eq swapped for its neighbour, a negation doubled).  The mutated
function is written back with ast.unparse into a copy of src/, tests/ and
bench/ in a temporary directory, and a named subset of the tier-1 tests
runs on that copy; a mutant that every test passes on survives.  The
accepted list below names the survivors known to be equivalent to the
original, each with its reason; any other survivor is reported, and the
exit status is 1.

Run from the repository root, standard library and pytest only:

    python tests/mutate_checks.py              # the default subset
    python tests/mutate_checks.py --confirm    # rerun survivors on all of tier-1
    python tests/mutate_checks.py --list       # print the mutants, run nothing

The file name does not match test_*.py, so pytest does not collect it.
"""

import argparse
import ast
import copy
import functools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src") / "resdiv" / "realize.py"
FUNCTIONS = ("verify_certificate", "_run_checks", "_domination_break",
             "_first_break")
# test_realize, test_acceptance without its chain monotonicity suite, test_cli
SUBSET = ("tests/test_realize.py", "tests/test_acceptance.py",
          "tests/test_cli.py", "-k", "not chain_monotonicity_suite")
TIER1 = ()  # pytest's own collection from the root: tests/ and bench/

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
           ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
OPERATOR_NAMES = {"lt": "le", "le": "lt", "gt": "ge", "ge": "gt", "eq": "le"}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
          ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
          ast.FloorDiv: "//", ast.Mod: "%", ast.And: "and", ast.Or: "or"}

# "<function>: <code of the line> :: <mutation>" -> why it is equivalent
ACCEPTED = {
    "_domination_break: def sides(i, k, xn, xd, vn=0, vd=1): :: 1 -> 2":
        "vd is left at its default only with vn = 0, where it cancels",
    "_domination_break: (vn * fp.den * xd - total[i] * xn * vd, fp.den * xd * vd), le)]) :: le -> lt":
        "sides is called only on a strict break, which fails lt as well",
    "verify_certificate: and min(i.points, default=1) >= 1 for i in config.chains) :: 1 -> 2 #2":
        "the default is read only on empty points, which the row before names",
    "verify_certificate: and min(i.points, default=1) >= 1 for i in config.chains) :: 1 -> 0 #2":
        "the default is read only on empty points, which the row before names",
    "_run_checks: neg = [-p // c if fp.den == 1 else Fraction(-p, fp.den * c) :: 1 -> 0":
        "the Fraction path gives the same weights: c divides a class curve's p",
    "_run_checks: rows = [(\"epsilon\", (0, 1), (p, q), lt), (\"epsilon\", (p, q), (1, 2), lt)] :: 1 -> 2":
        "the denominator of a zero: 0/2 = 0/1",
    "_run_checks: rows += [(label, (p * c // (q * den_a), 1), (0, 1), eq) :: 1 -> 2 #2":
        "the denominator of a zero: 0/2 = 0/1",
    "_run_checks: rows = [(\"epsilon\", (0, 1), (p, q), lt)] :: 1 -> 2":
        "the denominator of a zero: 0/2 = 0/1",
    "_run_checks: [(\"mu\", (mn, md), (0, 1), gt)] + [(label, (p, a_div.den * c), (0, 1), lt) :: 1 -> 2":
        "the denominator of a zero: 0/2 = 0/1",
    "_run_checks: [(\"mu\", (mn, md), (0, 1), gt)] + [(label, (p, a_div.den * c), (0, 1), lt) :: 1 -> 2 #2":
        "the denominator of a zero: 0/2 = 0/1",
    "_run_checks: (label, (p, fk.den * c), (0, 1), le) for label, p, c in :: 1 -> 2":
        "the denominator of a zero: 0/2 = 0/1",
}


def _changes(node):
    """(description, edit) for each mutation of ``node`` alone; edit
    applies it to a copy of the node in place."""
    def swap(attr, table, k=None):
        def edit(n):
            ops = getattr(n, attr)
            if k is None:
                setattr(n, attr, table[type(ops)]())
            else:
                ops[k] = table[type(ops[k])]()
        return edit

    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            yield ("%s -> %s" % (SYMBOL[type(op)], SYMBOL[COMPARE[type(op)]]),
                   swap("ops", COMPARE, k))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
        yield ("%s -> %s" % (SYMBOL[type(node.op)], SYMBOL[BINARY[type(node.op)]]),
               swap("op", BINARY))
    elif isinstance(node, ast.BoolOp):
        yield ("%s -> %s" % (SYMBOL[type(node.op)], SYMBOL[BOOLEAN[type(node.op)]]),
               swap("op", BOOLEAN))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not -> not not", lambda n: setattr(
            n, "operand", ast.UnaryOp(ast.Not(), n.operand))
    elif isinstance(node, ast.Name) and node.id in OPERATOR_NAMES:
        yield ("%s -> %s" % (node.id, OPERATOR_NAMES[node.id]),
               lambda n: setattr(n, "id", OPERATOR_NAMES[n.id]))
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield ("%s -> %s" % (node.value, not node.value),
               lambda n: setattr(n, "value", not n.value))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for step in (1, -1):
            yield ("%d -> %d" % (node.value, node.value + step),
                   lambda n, step=step: setattr(n, "value", n.value + step))


def mutants(source):
    """(key, line, text) for each mutant of the functions named in
    FUNCTIONS, in source order; the key names the function, the line's
    text and the mutation, with #k on the k-th repeat of a key, and
    text() writes the mutated source (ast.unparse, the slow part, runs
    only there, so the keys alone come quickly)."""
    tree, lines = ast.parse(source), source.splitlines()
    seen, out = {}, []
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name in FUNCTIONS):
            continue
        docstring = func.body[0].value if ast.get_docstring(func) else None
        for index, node in enumerate(ast.walk(func)):
            if node is docstring:
                continue
            for desc, edit in _changes(node):
                code = lines[node.lineno - 1].split("  #")[0].strip()
                key = "%s: %s :: %s" % (func.name, code, desc)
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:
                    key += " #%d" % seen[key]
                text = functools.partial(_mutated, lines, func, index, edit)
                out.append((key, node.lineno, text))
    return sorted(out, key=lambda m: m[1])


def _mutated(lines, func, index, edit):
    """The source ``lines`` with ``func`` written back by ast.unparse after
    ``edit`` to a copy of its ``index``-th node in ast.walk order."""
    twin = copy.deepcopy(func)
    edit(next(n for k, n in enumerate(ast.walk(twin)) if k == index))
    return "\n".join(lines[:func.lineno - 1] + [ast.unparse(twin)]
                     + lines[func.end_lineno:]) + "\n"


def unparsed(source):
    """``source`` with each function named in FUNCTIONS written back by
    ast.unparse and not mutated, which the tests must pass on."""
    tree, lines = ast.parse(source), source.splitlines()
    for func in reversed(tree.body):
        if isinstance(func, ast.FunctionDef) and func.name in FUNCTIONS:
            lines[func.lineno - 1:func.end_lineno] = [ast.unparse(func)]
    return "\n".join(lines) + "\n"


def _copy_tree(dest):
    # without test_mutate_checks.py, which reads realize.py for the keys
    # and so holds only on the source as written, not on a mutant
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache", "test_mutate_checks.py"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(work, text, args, timeout):
    """'killed', 'timeout' or 'survived': ``args`` run by pytest on the copy
    in ``work`` with ``text`` as realize.py (no example database kept)."""
    (work / TARGET).write_text(text)
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *args], cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="copies run side by side (default 2)")
    parser.add_argument("--confirm", action="store_true",
                        help="rerun each survivor on all of tier-1")
    parser.add_argument("--match", default="",
                        help="only the mutants whose key contains this text")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants' keys and run nothing")
    opts = parser.parse_args(argv)

    source = (ROOT / TARGET).read_text()
    todo = [m for m in mutants(source) if opts.match in m[0]]
    if opts.list:
        for key, line, _ in todo:
            print("realize.py:%d  %s" % (line, key))
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate_checks_") as tmp:
        works = Queue()
        for k in range(max(1, opts.workers)):
            work = Path(tmp) / ("w%d" % k)
            _copy_tree(work)
            works.put(work)
        work = works.get()
        started = time.perf_counter()
        if _run(work, unparsed(source), SUBSET, None) != "survived":
            print("the unparsed, unmutated copy fails the subset", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.perf_counter() - started))
        works.put(work)

        def one(mutant, args=SUBSET):
            work = works.get()
            try:
                verdict = _run(work, mutant[2](), args, timeout)
            finally:
                works.put(work)
            print(verdict[0], end="", file=sys.stderr, flush=True)  # k, t or s
            return verdict

        with ThreadPoolExecutor(max(1, opts.workers)) as pool:
            verdicts = list(pool.map(one, todo))
            survivors = [m for m, v in zip(todo, verdicts) if v == "survived"]
            if opts.confirm:
                survivors = [m for m, v in zip(survivors, pool.map(
                    lambda m: one(m, TIER1), survivors)) if v == "survived"]
        print(file=sys.stderr)

    print("%d mutants: %d killed, %d timed out, %d survived" % (
        len(todo), verdicts.count("killed"), verdicts.count("timeout"),
        len(survivors)))
    unexplained = 0
    for key, line, _ in survivors:
        reason = ACCEPTED.get(key)
        unexplained += reason is None
        print("realize.py:%d  %s\n    %s" % (
            line, key, "accepted: " + reason if reason else "SURVIVED"))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
