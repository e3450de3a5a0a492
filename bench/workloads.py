"""Seeded inputs for the three benchmark workloads.

Every case is a plain dict: ``id``, ``kind`` (what the checker does with
it), ``spec`` (the JSON document the library receives) and, for some
kinds, the data the checker needs.  Nothing here imports zetafix: the
library only ever sees the generated JSON.

- ``fixtures``: the 8 shipped spec files, in a seeded order per pass.
- ``ladder``: diagonal-sign holonomy of order 1, 2, 4, 8 crossed with
  dimension 2..6, kept while B = |Phi| * 2^dim <= 64 (13 rungs).
- ``corpus``: stratified passes of small specs: one compatible map per
  holonomy group, one cyclic orientable coincidence pair per group, and
  one malformed spec of each kind, tagged with the error it must raise.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

FIXTURE_NAMES = (
    "klein_bottle_ex1",
    "heisenberg_ex3",
    "torus_cat_map",
    "identity_torus",
    "klein_type_3_5",
    "klein_type_3_0",
    "halfturn_coincidence",
    "quarter_rotation",
)

LADDER_MAX_B = 64
CORPUS_PASSES = 8


# --------------------------------------------------------------------------
# integer matrix helpers (the benchmark's own, independent of the library)
# --------------------------------------------------------------------------


def ident(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def compatible(group, d) -> bool:
    """True when for every A in the group some A' in it has A' D = D A."""
    for a in group:
        da = matmul(d, a)
        if not any(matmul(b, d) == da for b in group):
            return False
    return True


def _spec(name, group, d, d2=None) -> dict:
    data = {
        "schema": 1,
        "name": name,
        "dimension": len(group[0]),
        "holonomy": [{"label": f"g{i}", "matrix": m} for i, m in enumerate(group)],
        "map": {"label": "f", "D": d},
    }
    if d2 is not None:
        data["map2"] = {"label": "g", "D": d2}
    return data


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------


def fixture_cases(root: Path, seed: int) -> list:
    """One pass over the shipped fixtures, in an order drawn from seed."""
    data_dir = root / "src" / "zetafix" / "data"
    names = list(FIXTURE_NAMES)
    random.Random(f"fixtures:{seed}").shuffle(names)
    return [{"id": name, "kind": "fixture",
             "spec": json.loads((data_dir / f"{name}.json").read_text())}
            for name in names]


# --------------------------------------------------------------------------
# ladder
# --------------------------------------------------------------------------


def sign_group(dim: int, k: int) -> list:
    """The order-2^k subgroup of {+-1}^dim that flips any of the first k
    coordinates, as sign vectors."""
    return [[-1 if i < k and (mask >> i) & 1 else 1 for i in range(dim)]
            for mask in range(2 ** k)]


def ladder_rungs() -> list:
    """(dim, k) for every rung with 2^k <= 2^dim and B <= LADDER_MAX_B."""
    return [(dim, k) for dim in range(2, 7) for k in range(4)
            if k <= dim and 2 ** k * 2 ** dim <= LADDER_MAX_B]


def ladder_cases(seed: int) -> list:
    """One spec per rung.  D is diagonal with entries from {+-2, +-3}:
    the magnitudes are a balanced multiset (ceil(dim/2) threes, the rest
    twos) in a seeded order, and each sign is drawn from the seed, so the
    arithmetic size of a rung barely moves between seeds."""
    rng = random.Random(f"ladder:{seed}")
    cases = []
    for dim, k in ladder_rungs():
        mags = [3] * ((dim + 1) // 2) + [2] * (dim // 2)
        rng.shuffle(mags)
        d = [m * rng.choice((1, -1)) for m in mags]
        signs = sign_group(dim, k)
        cases.append({
            "id": f"ladder_d{dim}_o{2 ** k}",
            "kind": "ladder",
            "d": d,
            "signs": signs,
            "spec": _spec(f"ladder_d{dim}_o{2 ** k}", [diag(s) for s in signs],
                          diag(d)),
        })
    return cases


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------

R90 = [[0, -1], [1, 0]]
R180 = [[-1, 0], [0, -1]]
R270 = [[0, 1], [-1, 0]]
C3 = [[0, -1], [1, -1]]
C3SQ = [[-1, 1], [-1, 0]]
ROT_TAU = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def _powers(g, order):
    out = [ident(len(g))]
    for _ in range(order - 1):
        out.append(matmul(out[-1], g))
    return out


# Samplers: each draws a linear part compatible with its group, with
# entries from [-3, 3].


def _e(rng) -> int:
    return rng.randint(-3, 3)


def _any(dim):
    return lambda rng: [[_e(rng) for _ in range(dim)] for _ in range(dim)]


def _diag(dim):
    return lambda rng: diag([_e(rng) for _ in range(dim)])


def _column(dim, col):
    """Only column ``col`` is nonzero."""
    return lambda rng: [[_e(rng) if j == col else 0 for j in range(dim)]
                        for _ in range(dim)]


def _cycle3(perm):
    """Row i has its one entry in column perm[i]."""
    return lambda rng: [[_e(rng) if j == perm[i] else 0 for j in range(3)]
                        for i in range(3)]


def _antidiag2(rng):
    return [[0, _e(rng)], [_e(rng), 0]]


def _circulant2(rng):
    a, b = _e(rng), _e(rng)
    return [[a, b], [b, a]]


def _equal_columns2(rng):
    a, c = _e(rng), _e(rng)
    return [[a, a], [c, c]]


def _rot2(reflect):
    """D with D R = R D for the quarter turn R, or D R = R^-1 D when
    ``reflect``."""
    def draw(rng):
        a, b = _e(rng), _e(rng)
        return [[a, b], [b, -a]] if reflect else [[a, -b], [b, a]]
    return draw


def _c3_commutant(rng):
    a, b = _e(rng), _e(rng)
    return [[a, -b], [b, a - b]]


def _c3_reflection(rng):
    a, b = _e(rng), _e(rng)
    return [[a, b], [a + b, -a]]


def _blocks(*parts):
    """Block-diagonal matrix of the parts' draws, in order."""
    def draw(rng):
        blocks = [part(rng) for part in parts]
        dim = sum(map(len, blocks))
        out, at = [], 0
        for block in blocks:
            out += [[0] * at + row + [0] * (dim - at - len(row)) for row in block]
            at += len(block)
        return out
    return draw


GROUPS = [
    ("t1", [ident(1)], [_any(1)]),
    ("pm1", [ident(1), [[-1]]], [_any(1)]),
    ("t2", [ident(2)], [_any(2)]),
    ("hm2", [ident(2), R180], [_any(2)]),
    ("kb2", [ident(2), diag([1, -1])], [_diag(2), _column(2, 0)]),
    ("sw2", [ident(2), [[0, 1], [1, 0]]], [_circulant2, _equal_columns2]),
    ("r4", _powers(R90, 4), [_rot2(False), _rot2(True)]),
    ("v4", [ident(2), R180, diag([1, -1]), diag([-1, 1])],
     [_diag(2), _antidiag2, _column(2, 0), _column(2, 1)]),
    ("c3", [ident(2), C3, C3SQ], [_c3_commutant, _c3_reflection]),
    ("t3", [ident(3)], [_any(3)]),
    ("hm3", [ident(3), diag([-1, -1, -1])], [_any(3)]),
    ("s3a", [ident(3), diag([1, -1, -1])],
     [_blocks(_any(1), _any(2)), _column(3, 0)]),
    ("s3b", [ident(3), diag([-1, -1, 1])],
     [_blocks(_any(2), _any(1)), _column(3, 2)]),
    ("r4z", _powers([[0, -1, 0], [1, 0, 0], [0, 0, 1]], 4),
     [_blocks(_rot2(False), _any(1)), _blocks(_rot2(True), _any(1))]),
    ("v4z", [ident(3), diag([-1, -1, 1]), diag([1, -1, -1]), diag([-1, 1, -1])],
     [_diag(3), _cycle3((1, 2, 0)), _cycle3((2, 0, 1))]),
]

# Cyclic orientable holonomy for coincidence pairs; f and g share a sampler.
CYCLIC_GROUPS = [
    ("ct_t2", [ident(2)], [_any(2)]),
    ("ct_hm2", [ident(2), R180], [_any(2)]),
    ("ct_r4", _powers(R90, 4), [_rot2(False), _rot2(True)]),
    ("ct_s3a", [ident(3), diag([1, -1, -1])], [_blocks(_any(1), _any(2))]),
    ("ct_s3b", [ident(3), diag([-1, -1, 1])], [_blocks(_any(2), _any(1))]),
    ("ct_rt4", _powers(ROT_TAU, 4),
     [_blocks(_rot2(False), _any(2)), _blocks(_rot2(True), _any(2))]),
]

# Malformed kinds and the zetafix error each must raise.
MALFORMED = (
    ("not_a_group", "NotAGroup"),
    ("dimension_mismatch", "DimensionMismatch"),
    ("float_entry", "InvalidSpecFile"),
    ("incompatible", "NonInvariantSubspace"),
)


def _verified(name: str, group, *ds) -> None:
    """A sampler that draws an incompatible map is a bug: fail loudly
    rather than shrink the corpus."""
    for d in ds:
        if not compatible(group, d):
            raise AssertionError(f"sampler for {name} drew incompatible {d}")


def _malformed(kind: str, rng) -> dict:
    dim = rng.choice((2, 3))
    d = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
    if kind == "not_a_group":
        # two distinct coordinate flips without their product
        i, j = rng.sample(range(dim), 2)
        flip_i = [-1 if t == i else 1 for t in range(dim)]
        flip_j = [-1 if t == j else 1 for t in range(dim)]
        return _spec("bad_group", [ident(dim), diag(flip_i), diag(flip_j)], d)
    if kind == "dimension_mismatch":
        small = [row[:-1] for row in d[:-1]]
        return _spec("bad_dimension", [ident(dim)], small)
    if kind == "float_entry":
        d[rng.randrange(dim)][rng.randrange(dim)] = float(rng.randint(-3, 3))
        return _spec("bad_float", [ident(dim)], d)
    # Klein-bottle holonomy and an upper-triangular D with a nonzero
    # corner: no A' has A' D = D A for the reflection.
    group = [ident(2), diag([1, -1])]
    d = [[rng.choice((2, 3)), rng.choice((1, -1))], [0, rng.choice((2, 3))]]
    if compatible(group, d):
        raise AssertionError(f"incompatible draw {d} is compatible")
    return _spec("bad_incompatible", group, d)


def corpus_cases(seed: int) -> list:
    """CORPUS_PASSES stratified passes: 15 fixed-point specs, 6 coincidence
    pairs and 4 malformed specs each."""
    rng = random.Random(f"corpus:{seed}")
    cases = []
    for p in range(CORPUS_PASSES):
        for name, group, samplers in GROUPS:
            d = rng.choice(samplers)(rng)
            _verified(name, group, d)
            cases.append({"id": f"p{p}:{name}", "kind": "fixed",
                          "spec": _spec(f"{name}_{p}", group, d)})
        for name, group, samplers in CYCLIC_GROUPS:
            sampler = rng.choice(samplers)
            d, e = sampler(rng), sampler(rng)
            _verified(name, group, d, e)
            cases.append({"id": f"p{p}:{name}", "kind": "coincidence",
                          "spec": _spec(f"{name}_{p}", group, d, e)})
        for kind, error in MALFORMED:
            cases.append({"id": f"p{p}:{kind}", "kind": "reject",
                          "error": error, "spec": _malformed(kind, rng)})
    return cases


# Cases per pass of each workload; the corpus list holds CORPUS_PASSES passes.
PASS_SIZE = {
    "fixtures": len(FIXTURE_NAMES),
    "ladder": len(ladder_rungs()),
    "corpus": len(GROUPS) + len(CYCLIC_GROUPS) + len(MALFORMED),
}


def cases_for(workload: str, root: Path, seed: int) -> list:
    if workload == "fixtures":
        return fixture_cases(root, seed)
    if workload == "ladder":
        return ladder_cases(seed)
    if workload == "corpus":
        return corpus_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")
