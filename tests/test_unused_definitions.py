"""No module of the package defines a function, class or name that nothing
uses.

A module-level function, class or assigned name, and a method or property
of a module-level class, counts as used when some module of the package
reads its name (``ast.Name`` in a load context, or the attribute of an
attribute access) or when ``nswrank.__all__`` exports it.  Dunder names are
the interpreter's to read and are left out.
"""

import ast
from pathlib import Path

import nswrank

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nswrank").glob("*.py"))

# (module, name) definitions that are kept on purpose although no module of
# the package reads them, each with its reason; an allowance for a name that
# is read or gone is stale and fails the test
TRACED = "perfbench/tracer.py wraps it by attribute"
ALLOWED = {
    ("io", "load_metrics"): "the reader of the metrics format that evaluate "
                            "writes",
    ("_kernels", "perfect_matching"): TRACED,
    ("core", "renormalize_doubly_stochastic"): TRACED,
    ("bvn", "renormalize_doubly_stochastic"): TRACED,
    ("solvers", "linprog"): TRACED,
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defined_names(tree):
    """Each module-level function, class or assigned name, and each method
    or property of a module-level class, with its line."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found = [(node.name, node.lineno)] + [
                (method.name, method.lineno) for method in node.body
                if isinstance(method, FUNCTIONS)]
        elif isinstance(node, FUNCTIONS):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            found = [(name.id, name.lineno) for target in targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name, line in found:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, line


def read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_definitions(trees, exported):
    """(module, name, line) of each definition no tree reads or exports."""
    used = set(exported).union(*map(read_names, trees.values()))
    return [(module, name, line)
            for module, tree in trees.items()
            for name, line in defined_names(tree) if name not in used]


def test_every_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert "core" in trees
    unused = unused_definitions(trees, nswrank.__all__)
    unallowed = [entry for entry in unused if entry[:2] not in ALLOWED]
    assert not unallowed, f"definitions that nothing uses: {unallowed}"
    stale = ALLOWED.keys() - {entry[:2] for entry in unused}
    assert not stale, f"allowed definitions that are read or gone: {stale}"


def test_the_checker_sees_an_unused_definition():
    trees = {
        "a": ast.parse("def read():\n    pass\n\ndef dead():\n    pass\n\n"
                       "class Exported:\n    def method(self):\n        pass\n\n"
                       "    def __init__(self):\n        pass\n\n"
                       "    @property\n    def size(self):\n        pass\n\n"
                       "    def orphan(self):\n        pass\n\n"
                       "def __getattr__(name):\n    pass\n\n"
                       "LIMIT = 3\nunread = None\n__all__ = []\n"),
        "b": ast.parse("from . import a\n\ndef caller():\n    return a.read()\n"
                       "\n\nclass Orphan:\n    pass\n\n"
                       "x, (y, spare) = a.LIMIT, (1, 2)\nlate: int = x + y\n"
                       "a.Exported().method()\na.Exported().size\n"),
    }
    assert unused_definitions(trees, ["Exported", "caller"]) == [
        ("a", "dead", 4), ("a", "orphan", 18), ("a", "unread", 25),
        ("b", "Orphan", 7), ("b", "spare", 10), ("b", "late", 11)]
