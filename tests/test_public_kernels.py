"""Every public function of the exact algebra and rational-function
layers is read by the package itself or bound by the benchmark's tracer.
A public wrapper that only tests read is a second route to a result the
package computes another way, and it drifts from the route that counts.
Every public method or property of a package class is read somewhere,
by the package or its tests: one that nothing reads is dead code."""

import ast
from pathlib import Path

import zetafix

PACKAGE = Path(zetafix.__file__).parent
TESTS = Path(__file__).parent
TRACER = TESTS.parent / "bench" / "tracer.py"
LAYERS = ("algebra", "ratfunc")


def _traced() -> dict:
    """bench/tracer.py's TRACED, read from its source."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


def _public_functions(module: str) -> set:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _public_members() -> set:
    """(module, class, name) of every public method or property defined
    in a class body of the package."""
    return {(path.stem, node.name, item.name)
            for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _read_names(paths=None) -> set:
    """Every name read in the files at paths, by default the package
    modules other than __init__, which only re-exports."""
    names = set()
    if paths is None:
        paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_layer_function_has_a_caller():
    traced, read = _traced(), _read_names()
    unread = {(module, name) for module in LAYERS
              for name in _public_functions(module)
              if name not in read and name not in traced.get(module, ())}
    assert unread == set()


def test_the_layers_define_public_functions():
    # the check above is vacuous if the parse finds nothing
    assert {"det", "char_poly", "poly_gcd"} <= _public_functions("algebra")
    assert {"zeta_from_terms", "radius_of_convergence"} <= _public_functions("ratfunc")


def test_every_public_member_is_read():
    read = _read_names([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    unread = {m for m in _public_members() if m[2] not in read}
    assert unread == set()


def test_the_package_defines_public_members():
    # the check above is vacuous if the parse finds nothing
    assert {("ratfunc", "RationalFunction", "compose_scale"),
            ("manifolds", "PlusSplit", "plus_indices")} <= _public_members()
