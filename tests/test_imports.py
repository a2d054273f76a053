"""Every name a module of ``resdiv`` imports is read somewhere in it.

A stand-in for a linter's unused-import rule: each module is parsed with
``ast``, and a name bound by ``import`` or ``from ... import`` must occur
as a loaded name, or in ``__all__``.  An import line marked
``# noqa: F401`` is exempt; such a name is imported so that something
outside the package can find it there.

And no function imports in its body: a module's imports are its top
lines, so its dependencies, and any cycle among them, show there.

And every name the package exports, and every public method or property
of its classes, is read by one of its own modules: what only the tests
read belongs with the tests.  Methods are matched by attribute name, so a
method counts as read when any attribute of that name is.

And no class defines ``__getattr__`` or subclasses ``ResolutionModel``: a
model is built and checked by its constructor, or is a value read off its
chains, never something built on an attribute miss.

And a fresh interpreter imports ``resdiv.cli`` without ``dataclasses`` or
the modules it brings (``inspect``, ``ast``, ``dis``): every command pays
for its imports before it reads its input.
"""

import ast
import os
import subprocess
import sys
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


def imports_in_functions(source):
    """The line of each import statement inside a function body, nested
    functions and methods included."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    assert imports_in_functions((SRC / module).read_text()) == []


def test_function_import_detector_flags_each_form():
    source = ("import a\n"
              "def f():\n"
              "    from b import c\n"
              "    def g():\n"
              "        import d\n"
              "class K:\n"
              "    import e\n"
              "    async def h(self):\n"
              "        if self:\n"
              "            import i\n"
              "if a:\n"
              "    import j\n")
    assert imports_in_functions(source) == [3, 5, 10]


def loaded_names(source):
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_read_inside_the_package():
    read = set()
    for module in MODULES:
        if module != "__init__.py":
            read |= loaded_names((SRC / module).read_text())
    assert sorted(set(resdiv.__all__) - read) == []


# public methods that no module of the package reads, and why they stay
UNREAD_METHODS = {
    "Divisor.curve": "the README's library example builds a divisor with it",
    "Divisor.products": "bench/tracer.py wraps it",
}


def unread_methods(sources):
    """``Class.method`` for each public method or property defined in
    ``sources`` whose name no attribute read in them uses."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined.update("%s.%s" % (node.name, item.name)
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
    return {name for name in defined if name.split(".")[1] not in read}


def test_every_method_is_read_inside_the_package():
    sources = [(SRC / module).read_text() for module in MODULES]
    assert sorted(unread_methods(sources) - set(UNREAD_METHODS)) == []
    for name in UNREAD_METHODS:  # the allowance names methods that exist
        cls, method = name.split(".")
        assert hasattr(getattr(resdiv, cls), method), name


def test_method_detector_flags_an_unread_method():
    source = ("class A:\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    def _private(self): pass\n"
              "    @property\n"
              "    def prop(self): pass\n"
              "print(A().used(), A().prop)\n")
    assert unread_methods([source]) == {"A.unused"}


def test_detector_flags_an_unused_name():
    source = ("from a import b, c  # noqa: F401\n"
              "from d import e, f\n"
              "import g.h\n"
              "__all__ = ['f']\n"
              "print(g)\n")
    assert unused_imports(source) == [(2, "e")]


def lazy_model_classes(sources):
    """The classes in ``sources`` that define ``__getattr__`` (by ``def`` or
    assignment) or subclass ``ResolutionModel`` (by name or attribute)."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            defined.update(t.id for item in node.body
                           if isinstance(item, ast.Assign)
                           for t in item.targets if isinstance(t, ast.Name))
            bases = {getattr(b, "id", getattr(b, "attr", None))
                     for b in node.bases}
            if "__getattr__" in defined or "ResolutionModel" in bases:
                found.add(node.name)
    return found


def test_no_class_builds_a_model_on_an_attribute_miss():
    sources = [(SRC / module).read_text() for module in MODULES]
    assert lazy_model_classes(sources) == set()


def test_lazy_model_detector_flags_each_form():
    source = ("class A(ResolutionModel): pass\n"
              "class B(model.ResolutionModel): pass\n"
              "class C:\n"
              "    def __getattr__(self, name): pass\n"
              "class D:\n"
              "    __getattr__ = print\n"
              "class E(object):\n"
              "    def __getattribute__(self, name): pass\n"
              "    resolution = ResolutionModel\n")
    assert lazy_model_classes([source]) == {"A", "B", "C", "D"}


def test_the_cli_imports_no_dataclasses():
    """Modules new to ``sys.modules`` after the import, so a site hook that
    loads some of them first cannot fail the test."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import resdiv.cli\n"
            "print(resdiv.cli.__file__)\n"
            "print(*sorted(set(sys.modules) - before))\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    where, loaded = out.splitlines()
    assert Path(where).parent == SRC
    assert "resdiv.cli" in loaded.split()
    assert sorted({"dataclasses", "inspect", "ast", "dis"}
                  & set(loaded.split())) == []
