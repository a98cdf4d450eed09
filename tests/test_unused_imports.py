"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere (``ast.Name`` in a
load context, which includes the base of every attribute access and every
annotation).  Imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nswrank").glob("*.py"))

# (module, name) bindings that are kept on purpose although the module never
# reads them
ALLOWED = {
    # cmd_sweep loads these before the pool forks, so its workers inherit them
    ("cli", "metrics"), ("cli", "solvers"), ("cli", "synth"),
}


def imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree)
    unused = [(name, line) for name, line in imported_names(tree)
              if name not in used and (path.stem, name) not in ALLOWED]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_checker_sees_an_unused_import():
    tree = ast.parse("import math\nfrom .core import item_impact, merit\n"
                     "def f(x):\n    return merit(x)\n")
    used = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == [
        "math", "item_impact"]
