"""Every name a module of ``resdiv`` imports is read somewhere in it.

A stand-in for a linter's unused-import rule: each module is parsed with
``ast``, and a name bound by ``import`` or ``from ... import`` must occur
as a loaded name, or in ``__all__``.  An import line marked
``# noqa: F401`` is exempt; such a name is imported so that something
outside the package can find it there.

And every name the package exports is read by one of its own modules:
what only the tests read belongs with the tests.
"""

import ast
from pathlib import Path

import pytest

import resdiv

SRC = Path(__file__).resolve().parents[1] / "src" / "resdiv"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def loaded_names(source):
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_read_inside_the_package():
    read = set()
    for module in MODULES:
        if module != "__init__.py":
            read |= loaded_names((SRC / module).read_text())
    assert sorted(set(resdiv.__all__) - read) == []


def test_detector_flags_an_unused_name():
    source = ("from a import b, c  # noqa: F401\n"
              "from d import e, f\n"
              "import g.h\n"
              "__all__ = ['f']\n"
              "print(g)\n")
    assert unused_imports(source) == [(2, "e")]
