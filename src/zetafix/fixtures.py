"""Built-in worked examples, shipped as spec files plus two families
generated in code: Klein-bottle type maps and Sol-manifold Reidemeister
sequences."""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from importlib import resources

from .manifolds import AffineMapSpec, ManifoldSpec
from .ratfunc import SequenceOracle
from .specio import ParsedSpec, parse_spec_data

import json

_SPEC_FILES = (
    "klein_bottle_ex1",
    "heisenberg_ex3",
    "torus_cat_map",
    "identity_torus",
    "klein_type_3_5",
    "klein_type_3_0",
    "halfturn_coincidence",
    "quarter_rotation",
)


class SequenceFixture(namedtuple("SequenceFixture",
                                 "name description degree_bound fn")):
    """A raw invariant sequence with no underlying manifold spec; used
    to exercise zeta reconstruction and congruence checks directly.
    fn maps n to the n-th term."""

    __slots__ = ()

    def oracle(self) -> SequenceOracle:
        return SequenceOracle(self.fn, self.degree_bound, name=self.name)


def load_fixture(name: str) -> ParsedSpec:
    """Load one of the shipped spec files by name (no .json suffix)."""
    if name not in _SPEC_FILES:
        raise KeyError(f"no builtin spec fixture {name!r}")
    text = resources.files("zetafix.data").joinpath(f"{name}.json").read_text()
    return parse_spec_data(json.loads(text))


def klein_type(r: int, l: int, q: int) -> ParsedSpec:
    """Klein-bottle self-map of type (r, l, q): linear part diag(r, q),
    or [[r,0],[2l,0]] in the degenerate q = 0 family.  Realizable maps
    have r odd or q = 0; the arithmetic works for any integers."""
    d = [[r, 0], [0, q]] if q != 0 else [[r, 0], [2 * l, 0]]
    spec = ManifoldSpec.make(f"klein_type_{r}_{l}_{q}", 2,
                             [("I", [[1, 0], [0, 1]]),
                              ("A", [[1, 0], [0, -1]])])
    return ParsedSpec(spec, AffineMapSpec.make("f", d))


def sol_r_sequence(r: int) -> SequenceFixture:
    """Reidemeister sequence |1 - r^n| of the standard Sol-manifold
    map family; its zeta is (1-z)/(1-rz) for r >= 2."""
    if r == 1:
        raise ValueError("r = 1 makes every term zero and the zeta trivial")
    return SequenceFixture(
        name=f"sol_r_{r}",
        description=f"Sol-manifold Reidemeister sequence |1 - {r}^n|",
        degree_bound=4,
        fn=lambda n: abs(1 - r ** n))


def _builtin_loaders() -> dict:
    """Every builtin name with a function of no arguments that builds
    it: spec fixtures first, then sequence fixtures.  Order is stable
    for listings."""
    out = {name: partial(load_fixture, name) for name in _SPEC_FILES}
    out.update({f"sol_r_{r}": partial(sol_r_sequence, r) for r in (2, 3)})
    return out


def builtin_fixtures() -> dict:
    """All named builtins, in the order of _builtin_loaders."""
    return {name: load() for name, load in _builtin_loaders().items()}
