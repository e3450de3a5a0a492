"""Every functools.lru_cache in the package is on a short allow-list.  A
cache keyed by matrices or specs has to hash and compare their integer
forms on every hit, and it hides which object owns a computed fact; a map's
spectrum lives on the map, a group table on its spec, and a problem's
work in its kernel and context."""

import importlib
import inspect
import pkgutil

import zetafix

ALLOWED = {
    "invariants.map_context":
        "the one context per (spec, map); keeps the most recent problem",
    "manifolds.averaging_kernel":
        "the one kernel per problem; the entry points validate through it",
    "algebra._classify":
        "the one spectral cache shared across problems: without it a "
        "workload repeating a map re-roots the expanding log product with "
        "numpy each time (see README, 'computed once per problem')",
    "algebra.max_root_of_unity_order": "a function of the dimension alone",
    "algebra._cyclotomic": "a function of k alone, recursive over divisors",
    "congruences._squarefree_mobius": "a function of n_max alone",
}


def _lru_caches() -> dict:
    """Every lru_cache wrapper bound in a zetafix module or on one of its
    classes, by the module and qualified name of the function it wraps,
    each wrapper once however many names bind it."""
    found = {}
    for info in pkgutil.iter_modules(zetafix.__path__):
        mod = importlib.import_module(f"zetafix.{info.name}")
        spaces = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                if inspect.isclass(c)]
        for space in spaces:
            for obj in space.values():
                if hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
                    name = f"{obj.__module__}.{obj.__qualname__}"
                    found[id(obj)] = name.removeprefix("zetafix.")
    return found


def test_every_lru_cache_is_on_the_allow_list():
    assert sorted(_lru_caches().values()) == sorted(ALLOWED)

