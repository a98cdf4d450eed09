"""No module of the package defines a function or class that nothing uses.

A module-level function or class counts as used when some module of the
package reads its name (``ast.Name`` in a load context, or the attribute of
an attribute access) or when ``nswrank.__all__`` exports it.  Dunder
functions are the interpreter's to call and are left out.
"""

import ast
from pathlib import Path

import nswrank

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nswrank").glob("*.py"))

# (module, name) definitions that are kept on purpose although no module of
# the package reads them
ALLOWED = {
    # the reader of the metrics format that evaluate writes
    ("io", "load_metrics"),
}


def defined_names(tree):
    """Each module-level function or class name, with its line."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node.lineno


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
    unused = [(module, name, line)
              for module, name, line in unused_definitions(trees, nswrank.__all__)
              if (module, name) not in ALLOWED]
    assert not unused, f"definitions that nothing uses: {unused}"


def test_the_checker_sees_an_unused_definition():
    trees = {
        "a": ast.parse("def read():\n    pass\n\ndef dead():\n    pass\n\n"
                       "class Exported:\n    def method(self):\n        pass\n\n"
                       "def __getattr__(name):\n    pass\n"),
        "b": ast.parse("from . import a\n\ndef caller():\n    return a.read()\n"
                       "\n\nclass Orphan:\n    pass\n"),
    }
    assert unused_definitions(trees, ["Exported", "caller"]) == [
        ("a", "dead", 4), ("b", "Orphan", 7)]
