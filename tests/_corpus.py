"""Randomized instance corpora shared across the test modules.

Each holonomy group in the catalog comes with sampler patterns that
produce integer linear parts compatible with it, meaning for every A in
the group some A' satisfies A' D = D A.  Every draw is re-verified
against that definition exactly, so a bug in a pattern fails loudly
instead of silently shrinking the corpus.
"""

import functools
import itertools
import random
import types
from fractions import Fraction
from pathlib import Path

from zetafix import AffineMapSpec, ManifoldSpec, RationalMatrix, det

ROOT = Path(__file__).resolve().parents[1]
R90 = ((0, -1), (1, 0))
R180 = ((-1, 0), (0, -1))
R270 = ((0, 1), (-1, 0))
C3 = ((0, -1), (1, -1))          # companion of z^2 + z + 1
C3SQ = ((-1, 1), (-1, 0))


def _e(rng):
    return rng.randint(-3, 3)


def compatible(spec: ManifoldSpec, d: RationalMatrix) -> bool:
    mats = [m for _, m in spec.holonomy]
    for a in mats:
        da = d @ a
        if not any(ap @ d == da for ap in mats):
            return False
    return True


def rref(rows, ncols: int):
    """Gauss-Jordan elimination in Fractions, the reference for the
    package's fraction-free elimination: the reduced row echelon form of
    rows and its pivot columns.  Only the first ncols columns are
    eligible as pivots; any further columns are carried along, as in an
    augmented matrix."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _any_matrix(dim):
    def draw(rng):
        return [[_e(rng) for _ in range(dim)] for _ in range(dim)]
    return draw


def _diag(dim):
    def draw(rng):
        return [[_e(rng) if i == j else 0 for j in range(dim)] for i in range(dim)]
    return draw


def _single_column(dim, col):
    def draw(rng):
        return [[_e(rng) if j == col else 0 for j in range(dim)] for i in range(dim)]
    return draw


def _antidiag2(rng):
    return [[0, _e(rng)], [_e(rng), 0]]


def _circulant2(rng):
    a, b = _e(rng), _e(rng)
    return [[a, b], [b, a]]


def _equal_columns2(rng):
    a, c = _e(rng), _e(rng)
    return [[a, a], [c, c]]


def _rot_commutant2(rng):
    a, b = _e(rng), _e(rng)
    return [[a, -b], [b, a]]


def _rot_reflection2(rng):
    a, b = _e(rng), _e(rng)
    return [[a, b], [b, -a]]


def _c3_commutant(rng):
    a, b = _e(rng), _e(rng)
    return [[a, -b], [b, a - b]]


def _c3_reflection(rng):
    a, b = _e(rng), _e(rng)
    return [[a, b], [a + b, -a]]


def _block_1_2(rng):
    a = _e(rng)
    return [[a, 0, 0],
            [0, _e(rng), _e(rng)],
            [0, _e(rng), _e(rng)]]


def _block_2_1(rng):
    return [[_e(rng), _e(rng), 0],
            [_e(rng), _e(rng), 0],
            [0, 0, _e(rng)]]


def _rot_block_scalar(refl):
    def draw(rng):
        a, b, c = _e(rng), _e(rng), _e(rng)
        top = [[a, b], [b, -a]] if refl else [[a, -b], [b, a]]
        return [[top[0][0], top[0][1], 0],
                [top[1][0], top[1][1], 0],
                [0, 0, c]]
    return draw


def _signed_permutation3(rng):
    # scaled signed 3-cycle; conjugation cycles the diagonal sign group
    s = rng.choice([1, 2, 3]) * rng.choice([1, -1])
    signs = [rng.choice([1, -1]) for _ in range(3)]
    perm = rng.choice([(1, 2, 0), (2, 0, 1)])
    rows = [[0] * 3 for _ in range(3)]
    for i in range(3):
        rows[i][perm[i]] = s * signs[i]
    return rows


def _ident(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _group(name, dim, elements):
    return ManifoldSpec.make(name, dim, elements)


GROUPS = [
    (_group("t1", 1, [("I", [[1]])]), [_any_matrix(1)]),
    (_group("pm1", 1, [("I", [[1]]), ("J", [[-1]])]), [_any_matrix(1)]),
    (_group("t2", 2, [("I", _ident(2))]), [_any_matrix(2)]),
    (_group("hm2", 2, [("I", _ident(2)), ("J", R180)]), [_any_matrix(2)]),
    (_group("kb2", 2, [("I", _ident(2)), ("A", [[1, 0], [0, -1]])]),
     [_diag(2), _single_column(2, 0)]),
    (_group("sw2", 2, [("I", _ident(2)), ("S", [[0, 1], [1, 0]])]),
     [_circulant2, _equal_columns2]),
    (_group("r4", 2, [("I", _ident(2)), ("R", R90), ("R2", R180), ("R3", R270)]),
     [_rot_commutant2, _rot_reflection2]),
    (_group("v4", 2, [("I", _ident(2)), ("J", R180),
                      ("A", [[1, 0], [0, -1]]), ("B", [[-1, 0], [0, 1]])]),
     [_diag(2), _antidiag2, _single_column(2, 0), _single_column(2, 1)]),
    (_group("c3", 2, [("I", _ident(2)), ("C", C3), ("C2", C3SQ)]),
     [_c3_commutant, _c3_reflection]),
    (_group("t3", 3, [("I", _ident(3))]), [_any_matrix(3)]),
    (_group("hm3", 3, [("I", _ident(3)),
                       ("J", [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])]),
     [_any_matrix(3)]),
    (_group("s3a", 3, [("I", _ident(3)),
                       ("A", [[1, 0, 0], [0, -1, 0], [0, 0, -1]])]),
     [_block_1_2, _single_column(3, 0)]),
    (_group("s3b", 3, [("I", _ident(3)),
                       ("A", [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])]),
     [_block_2_1, _single_column(3, 2)]),
    (_group("r4z", 3, [("I", _ident(3)),
                       ("R", [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
                       ("R2", [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                       ("R3", [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])]),
     [_rot_block_scalar(False), _rot_block_scalar(True)]),
    (_group("v4z", 3, [("I", _ident(3)),
                       ("A", [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                       ("B", [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                       ("AB", [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])]),
     [_diag(3), _signed_permutation3]),
]


def random_instances(seed: int, count: int):
    """count verified (ManifoldSpec, AffineMapSpec) pairs, dim <= 3 and
    holonomy order <= 4, linear-part entries in [-3, 3]."""
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < count:
        spec, patterns = GROUPS[i % len(GROUPS)]
        i += 1
        rows = rng.choice(patterns)(rng)
        d = RationalMatrix(rows)
        assert compatible(spec, d), (spec.name, rows)
        out.append((spec, AffineMapSpec.make(f"f{len(out)}", d)))
    return out


def product_instances(seed: int, count: int):
    """count (product, first, second) triples of (spec, map) pairs.
    first and second are consecutive draws of random_instances(seed,
    2 * count); product is their _product with the map D1 (+) D2, so
    dim <= 6 and holonomy order <= 16."""
    rng = random.Random(f"product:{seed}")
    draws = random_instances(seed, 2 * count)
    out = []
    for (spec1, f1), (spec2, f2) in zip(draws[::2], draws[1::2]):
        spec, (d,) = _product(rng, spec1, spec2, (f1.linear, f2.linear))
        out.append(((spec, AffineMapSpec.make(f"{f1.label}x{f2.label}", d)),
                    (spec1, f1), (spec2, f2)))
    return out


def coincidence_product_instances(seed: int, count: int):
    """count (product, first, second) triples of (spec, f, g) pairs.
    first and second are consecutive draws of
    random_coincidence_instances(seed, 2 * count) after a seeded
    shuffle, which mixes the cyclic groups that the draws cycle through;
    product is their _product with the maps f1 (+) f2 and g1 (+) g2, so
    dim <= 8 and holonomy order <= 16."""
    rng = random.Random(f"coincidence-product:{seed}")
    draws = random_coincidence_instances(seed, 2 * count)
    rng.shuffle(draws)
    out = []
    for (spec1, f1, g1), (spec2, f2, g2) in zip(draws[::2], draws[1::2]):
        spec, (d, e) = _product(rng, spec1, spec2, (f1.linear, f2.linear),
                                (g1.linear, g2.linear))
        out.append(((spec, AffineMapSpec.make(f"{f1.label}x{f2.label}", d),
                     AffineMapSpec.make(f"{g1.label}x{g2.label}", e)),
                    (spec1, f1, g1), (spec2, f2, g2)))
    return out


def _product(rng, spec1, spec2, *blocks):
    """The manifold of holonomy Phi1 x Phi2 acting by A1 (+) A2 (labels
    "l1.l2", the second factor varying fastest) and the linear parts
    D1 (+) D2 for each (D1, D2) in blocks, all of it conjugated by one
    random unimodular P, which hides the blocks and keeps every matrix
    integral."""
    dim = spec1.dimension + spec2.dimension
    p = RationalMatrix(_unimodular(rng, dim))
    p_inv = p.inverse()

    def hide(a, b):
        return p @ RationalMatrix(_direct_sum(a, b)) @ p_inv

    spec = _group(f"{spec1.name}x{spec2.name}", dim, [
        (f"{l1}.{l2}", hide(a1, a2))
        for l1, a1 in spec1.holonomy for l2, a2 in spec2.holonomy])
    linear = [hide(d1, d2) for d1, d2 in blocks]
    assert all(compatible(spec, d) for d in linear), spec.name
    return spec, linear


def _direct_sum(a: RationalMatrix, b: RationalMatrix):
    pad = [0] * b.dim
    return ([list(row) + pad for row in a.rows]
            + [[0] * a.dim + list(row) for row in b.rows])


def _unimodular(rng, dim):
    """A random integer matrix of determinant +-1: a signed permutation
    times dim + 2 elementary row additions."""
    rows = _ident(dim)
    for _ in range(dim + 2):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((1, -1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return [[s * v for v in rows[k]]
            for s, k in zip(signs, rng.sample(range(dim), dim))]


# ---------------------------------------------------------------------------
# cyclic orientable pairs for the coincidence trichotomy
# ---------------------------------------------------------------------------

_ROT_TAU_ELEMENTS = [
    ("I", _ident(4)),
    ("G", [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
    ("G2", [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ("G3", [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
]


def _rot_tau_block(rng):
    a, b = _e(rng), _e(rng)
    refl = rng.random() < 0.5
    top = [[a, b], [b, -a]] if refl else [[a, -b], [b, a]]
    bot = [[_e(rng), _e(rng)], [_e(rng), _e(rng)]]
    return [[top[0][0], top[0][1], 0, 0],
            [top[1][0], top[1][1], 0, 0],
            [0, 0, bot[0][0], bot[0][1]],
            [0, 0, bot[1][0], bot[1][1]]]


CYCLIC_ORIENTABLE = [
    (_group("ct_i2", 2, [("I", _ident(2))]), [_any_matrix(2)]),
    (_group("ct_hm2", 2, [("I", _ident(2)), ("J", R180)]), [_any_matrix(2)]),
    (_group("ct_r4", 2, [("I", _ident(2)), ("R", R90),
                         ("R2", R180), ("R3", R270)]),
     [_rot_commutant2, _rot_reflection2]),
    (_group("ct_s3", 3, [("I", _ident(3)),
                         ("A", [[1, 0, 0], [0, -1, 0], [0, 0, -1]])]),
     [_block_1_2]),
    (_group("ct_s3b", 3, [("I", _ident(3)),
                          ("A", [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])]),
     [_block_2_1]),
    (_group("ct_rt4", 4, _ROT_TAU_ELEMENTS), [_rot_tau_block]),
]


def isotypic_mixing_instance():
    """(spec, map): cyclic orientable holonomy of order 4 generated by
    G = diag(-1, -1) + R90, and a compatible linear part (D G = G^2 D)
    that sends the sign piece into the rotation piece, so it preserves
    no isotypic splitting."""
    g = [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    elements = [RationalMatrix.identity(4)]
    for _ in range(3):
        elements.append(elements[-1] @ RationalMatrix(g))
    spec = _group("c4_mix", 4, [(f"G{k}", m) for k, m in enumerate(elements)])
    d = RationalMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [1, 2, 0, 0], [3, 1, 0, 0]])
    assert compatible(spec, d)
    return spec, AffineMapSpec.make("f", d)


def random_coincidence_instances(seed: int, count: int):
    """count verified (spec, f, g) triples with cyclic orientable
    holonomy; both linear parts drawn from the same pattern family."""
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < count:
        spec, patterns = CYCLIC_ORIENTABLE[i % len(CYCLIC_ORIENTABLE)]
        i += 1
        pat = rng.choice(patterns)
        d = RationalMatrix(pat(rng))
        e = RationalMatrix(pat(rng))
        assert compatible(spec, d) and compatible(spec, e), spec.name
        out.append((spec,
                    AffineMapSpec.make(f"f{len(out)}", d),
                    AffineMapSpec.make(f"g{len(out)}", e)))
    return out


def ladder_instances(seed: int):
    """The shape of the benchmark's ladder: for dim 2..6 and k <= dim with
    2^k * 2^dim <= 64 (13 rungs), the order-2^k group of diagonal sign
    matrices flipping any of the first k coordinates, and a diagonal D
    with entries drawn from {+-2, +-3}."""
    rng = random.Random(f"ladder:{seed}")
    out = []
    for dim in range(2, 7):
        for k in range(dim + 1):
            if 2 ** k * 2 ** dim > 64:
                continue
            signs = itertools.product(*([(1, -1)] * k + [(1,)] * (dim - k)))
            spec = _group(f"ladder_d{dim}_o{2 ** k}", dim, [
                (f"g{i}", _diagonal(s)) for i, s in enumerate(signs)])
            d = _diagonal([rng.choice((2, 3)) * rng.choice((1, -1))
                           for _ in range(dim)])
            out.append((spec, AffineMapSpec.make("f", d)))
    return out


def dense_torus(dim: int, seed: int):
    """(spec, map): the torus T^dim (holonomy {I}) and a dense integer
    linear part with entries in [-2, 2] drawn from random.Random(seed)."""
    rng = random.Random(seed)
    spec = _group(f"dense_t{dim}", dim, [("I", _ident(dim))])
    d = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    return spec, AffineMapSpec.make("f", RationalMatrix(d))


def _diagonal(values):
    return [[v if i == j else 0 for j in range(len(values))]
            for i, v in enumerate(values)]


def random_integer_matrices(seed: int, count: int, dims=(1, 2, 3)):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        dim = dims[k % len(dims)]
        out.append(RationalMatrix([[_e(rng) for _ in range(dim)]
                                   for _ in range(dim)]))
    return out


def brute_force_torus_count(d: RationalMatrix, n: int) -> int:
    """Grid count of solutions of D^n x = x mod Z^m.

    Every solution of (I - D^n) x in Z^m has coordinates with
    denominator dividing q = |det(I - D^n)| (Cramer), so scanning the
    (1/q)-grid of the unit cube is exhaustive.  Only practical for
    small dimension and q.
    """
    m = RationalMatrix.identity(d.dim) - d.power(n)
    q = abs(det(m))
    assert q != 0 and q.denominator == 1
    q = int(q)
    count = 0
    for coords in itertools.product(range(q), repeat=d.dim):
        x = [Fraction(c, q) for c in coords]
        image = [sum(m.rows[i][j] * x[j] for j in range(d.dim))
                 for i in range(d.dim)]
        if all(v.denominator == 1 for v in image):
            count += 1
    return count


@functools.lru_cache(maxsize=None)
def _bench_workloads():
    # executed from its source text, so no bytecode is written under bench/
    path = ROOT / "bench" / "workloads.py"
    mod = types.ModuleType("bench_workloads")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def bench_cases(workload: str, seed: int) -> list:
    """The benchmark's cases of one workload ("fixtures", "ladder" or
    "corpus") at seed, as bench/workloads.py generates them."""
    return _bench_workloads().cases_for(workload, ROOT, seed)
