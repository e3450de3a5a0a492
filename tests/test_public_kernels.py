"""Every public function of every package module is read by the package
itself, bound by the benchmark's tracer, or on a short allow-list of
documented entry points that no module calls.  A public wrapper that
only tests read is a second route to a result the package computes
another way, and it drifts from the route that counts.  Every public
method or property of a package class is read by the package: one that
only tests read is numeric code kept for them alone, and tests take
such references from tests/_fraction_ref.py instead.  The same holds
for operator methods, whose readers no name search can find: each one
is on an allow-list that names a package function applying it."""

import ast
from pathlib import Path

import zetafix

PACKAGE = Path(zetafix.__file__).parent
TESTS = Path(__file__).parent
TRACER = TESTS.parent / "bench" / "tracer.py"

# Public functions that no package module calls, with the reason each
# stays public.
UNCALLED = {
    ("invariants", "torus_periodic_points"):
        "the torus oracle, |det(I - D^n)| by Bareiss elimination, that "
        "acceptance criterion 08 checks the averaged N(f^n) against; no "
        "report section reads it yet",
    ("zetas", "torsion_special_value"):
        "the paper's link to the Reidemeister torsion of the mapping "
        "torus, an API entry point that no report prints yet",
    ("fixtures", "klein_type"):
        "documented fixture builder for library users",
    ("fixtures", "builtin_fixtures"):
        "documented fixture builder for library users",
}

# Operator methods of package classes, each with a package function that
# applies it, as "module.function" or "module.Class.method".
OPERATOR_READERS = {
    ("algebra", "Polynomial", "__call__"): "zetas.torsion_special_value",
    ("algebra", "RationalMatrix", "__add__"): "invariants.cyclic_decomposition",
    ("algebra", "RationalMatrix", "__sub__"): "invariants.cyclic_decomposition",
    ("algebra", "RationalMatrix", "__matmul__"): "manifolds.compute_plus_split",
    ("algebra", "_ScaledPowers", "__call__"): "algebra.AveragingKernel._block_dets",
    ("ratfunc", "SequenceOracle", "__call__"): "congruences.check_euler",
}

# The syntax that applies each operator method.
OPERATOR_SYNTAX = {
    "__add__": ast.Add, "__sub__": ast.Sub, "__mul__": ast.Mult,
    "__rmul__": ast.Mult, "__matmul__": ast.MatMult, "__pow__": ast.Pow,
    "__truediv__": ast.Div, "__neg__": ast.USub, "__call__": ast.Call,
}


def _traced() -> dict:
    """bench/tracer.py's TRACED, read from its source."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


def _modules() -> list:
    return sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _operator_members(sources=None) -> set:
    """(module, class, name) of every operator method of OPERATOR_SYNTAX
    defined in a class body, by def or by assignment (__rmul__ =
    __mul__), in sources, a dict module -> source text, by default the
    package's."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef) else
                         [t.id for t in item.targets if isinstance(t, ast.Name)]
                         if isinstance(item, ast.Assign) else [])
                found |= {(module, node.name, n) for n in names if n in OPERATOR_SYNTAX}
    return found


def _function(path: str):
    """The ast of the package function at path, "module.function" or
    "module.Class.method"."""
    module, *names = path.split(".")
    body = ast.parse((PACKAGE / f"{module}.py").read_text()).body
    for name in names:
        node = next(n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name)
        body = node.body
    return node


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
    # the names the tracer binds are the benchmark's layers: it reads them
    traced, read = _traced(), _read_names()
    unread = {(module, name) for module in _modules()
              for name in _public_functions(module)
              if name not in read and name not in traced.get(module, ())}
    assert unread == set(UNCALLED)


def test_the_layers_define_public_functions():
    # the check above is vacuous if the parse finds nothing
    assert {"det", "char_poly", "poly_gcd"} <= _public_functions("algebra")
    assert {"zeta_from_terms", "radius_of_convergence"} <= _public_functions("ratfunc")
    assert len(_modules()) == 11
    assert {m for m, _ in UNCALLED} <= set(_modules())


def test_every_public_member_is_read():
    read = _read_names()
    unread = {m for m in _public_members() if m[2] not in read}
    assert unread == set()


def test_the_package_defines_public_members():
    # the check above is vacuous if the parse finds nothing
    assert {("algebra", "Polynomial", "exact_div"),
            ("manifolds", "PlusSplit", "plus_indices")} <= _public_members()


def test_every_operator_method_names_its_reader():
    # a name search skips operator methods, so each is listed with the
    # package function that applies it
    assert _operator_members() == set(OPERATOR_READERS)


def test_each_named_reader_applies_its_operator():
    for (_, _, name), reader in OPERATOR_READERS.items():
        syntax = OPERATOR_SYNTAX[name]
        assert any(isinstance(node, syntax) or isinstance(getattr(node, "op", None), syntax)
                   for node in ast.walk(_function(reader))), (name, reader)


def test_the_operator_parse_finds_defs_and_assignments():
    # the checks above are vacuous if the parse misses a spelling
    source = ("class A:\n    def __mul__(self, o): pass\n    __rmul__ = __mul__\n"
              "    def __len__(self): pass\n    def mul(self): pass\n")
    assert _operator_members({"m": source}) == {("m", "A", "__mul__"), ("m", "A", "__rmul__")}
