"""Every package module uses each name it imports.  A name imported and
never read is left over from code that moved, and it hides which module
a computation really lives in."""

import ast
from pathlib import Path

import zetafix

# bench/test_bench.py checks that zetafix.cli binds invariants.lefschetz
# and that zetafix.invariants binds algebra.det, so each imports the name
# without reading it.
ALLOWED = {("cli", "lefschetz"), ("invariants", "det")}


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(Path(zetafix.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":     # re-exports the public names
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(path.stem, name) for name in _imported(tree) - used}
    assert unused == ALLOWED


def test_no_module_imports_dataclasses():
    # the records are named tuples; dataclasses would bring inspect, ast
    # and dis into every start-up
    importers = set()
    for path in sorted(Path(zetafix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if "dataclasses" in modules:
                importers.add(path.name)
    assert importers == set()
