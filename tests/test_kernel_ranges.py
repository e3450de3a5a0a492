"""The averaging kernel's range fills against a per-iterate reference.

For n = 1..40 the kernel's numerators and common denominators of
det(E^n - A D^n) (E = I without a target) and det(A - D^n) must be those
of whole-matrix powers and exact determinants taken one iterate at a
time (cofactor expansion to size 3, Fraction elimination beyond),
whichever path the kernel takes (traces for integer problems with blocks
of size 1 or 2, powers otherwise) and however the iterates are grouped
into reads.  The problems are every builtin fixture, the ladder rungs,
the benchmark corpus at seeds 0-2, the random, product and coincidence
instances of _corpus, and generated problems with 2 x 2 blocks whose D
is rational, singular or of trace zero, or whose holonomy is rational,
and diagonal problems with a target whose holonomy, D or target has a
denominator.  Reads come in any order, repeats included; each kind's
table fills only from its end, through the largest iterate read so far,
and an iterate below 1 raises ValueError.  test_path_selection holds the
fixtures and the benchmark's ladder and corpus cases to the rule that
picks the path, so no change sends them to the powers path unnoticed.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import zetafix.algebra
from _corpus import (bench_cases, ladder_instances, product_instances,
                     random_coincidence_instances, random_instances)
from zetafix import RationalMatrix, builtin_fixtures, parse_spec_data
from zetafix.algebra import AveragingKernel

N_MAX = 40


def _det(rows):
    """Exact determinant of an integer matrix: the cofactor expansion to
    size 3, Gaussian elimination over the rationals beyond."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(map(Fraction, r)) for r in rows]
    n, out = len(a), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return out


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _reference(holonomy, d, e=None):
    """Per iterate n = 1..N_MAX: the fixed-point numerators and
    denominator, then the shifted ones, as the kernel states them: with
    A = A_int / s, D = D_int / q and E = E_int / r, the determinants of
    c E_int^n - r^n A_int D_int^n and q^n A_int - s D_int^n (c = s q^n),
    on whole-matrix powers, one iterate at a time."""
    s = math.lcm(1, *(a.den for a in holonomy))
    q, r, dim = d.den, 1 if e is None else e.den, d.dim
    mats = [[[x * (s // a.den) for x in row] for row in a.ints] for a in holonomy]
    dn = en = [[int(i == j) for j in range(dim)] for i in range(dim)]
    out = []
    for n in range(1, N_MAX + 1):
        dn = _mul(dn, d.ints)
        if e is not None:
            en = _mul(en, e.ints)
        c, rn = s * q ** n, r ** n
        fixed = [_det([[c * x - rn * y for x, y in zip(er, ar)]
                                for er, ar in zip(en, _mul(a, dn))]) for a in mats]
        shifted = [_det([[q ** n * x - s * y for x, y in zip(ar, pr)]
                                  for ar, pr in zip(a, dn)]) for a in mats]
        out.append(([int(v) for v in fixed], (rn * c) ** dim,
                    [int(v) for v in shifted], c ** dim))
    return out


def _check(holonomy, d, e=None) -> AveragingKernel:
    want = _reference(holonomy, d, e)
    # one range; a second kernel read by pieces, the two kinds apart at
    # first; a third read in descending order first, then with repeats,
    # then iterates already read, then by a descending step
    whole, pieces, unordered = (AveragingKernel(holonomy, d, e) for _ in range(3))
    reads = [(whole, range(1, N_MAX + 1), (False, True)),
             (pieces, [5], (False,)), (pieces, [3, 9], (True,))]
    reads += [(pieces, ns, (False, True))
              for ns in (range(1, 4), [7, 12], range(2, N_MAX + 1))]
    reads += [(unordered, ns, (False, True))
              for ns in ([12, 7, 3, 1], [9, 2, 9, 9, 2], [12, 3], [N_MAX - 9, 20, 13],
                         [4, 1, 4], range(N_MAX, 0, -7))]
    top = {}
    for kernel, ns, kinds in reads:
        for shifted in kinds:
            got = (kernel.shifted_dets if shifted else kernel.fixed_point_dets)(ns)
            assert got == [want[n - 1][2:] if shifted else want[n - 1][:2] for n in ns]
            # either path fills a table from its end only, each iterate
            # once, and never past the largest iterate read
            table = kernel._shifted if shifted else kernel._fixed
            top[id(table)] = max(top.get(id(table), 0), *ns)
            assert None not in table[1:] and len(table) - 1 == top[id(table)]
    for read in (unordered.fixed_point_dets, unordered.shifted_dets):
        for ns in ([-1], [3, -2], [0]):
            with pytest.raises(ValueError):
                read(ns)
    return whole


def _maps(parsed) -> list:
    return [parsed.mapping] + ([parsed.mapping2] if parsed.is_coincidence else [])


def _bench_problems(workload: str) -> dict:
    """Test id -> (spec, maps) for the workload's distinct cases at
    seeds 0-2 that parse."""
    out, seen = {}, set()
    for seed in (0, 1, 2):
        for case in bench_cases(workload, seed):
            key = json.dumps(case["spec"], sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            try:
                parsed = parse_spec_data(json.loads(json.dumps(case["spec"])))
            except zetafix.ZetafixError:
                continue
            out[f"{seed}-{case['id']}"] = parsed.spec, _maps(parsed)
    return out


FIXTURES = [fx for fx in builtin_fixtures().values() if hasattr(fx, "spec")]
CORPUS = _bench_problems("corpus")


@pytest.mark.parametrize("parsed", FIXTURES, ids=lambda fx: fx.spec.name)
def test_fixtures(parsed):
    _check([a for _, a in parsed.spec.holonomy], *(m.linear for m in _maps(parsed)))


@pytest.mark.parametrize("spec_maps", CORPUS.values(), ids=list(CORPUS))
def test_benchmark_corpus(spec_maps):
    spec, maps = spec_maps
    _check([a for _, a in spec.holonomy], *(m.linear for m in maps))


def _block_sizes(mats, dim: int) -> list[int]:
    """Sizes of the connected components of the graph that joins i and
    j when some matrix of mats has a nonzero (i, j) entry."""
    seen, sizes = set(), []
    for start in range(dim):
        if start in seen:
            continue
        seen.add(start)
        todo, size = [start], 0
        while todo:
            i, size = todo.pop(), size + 1
            for j in range(dim):
                if j not in seen and any(m.ints[i][j] or m.ints[j][i] for m in mats):
                    seen.add(j)
                    todo.append(j)
        sizes.append(size)
    return sizes


@pytest.mark.parametrize("workload", ["fixtures", "ladder", "corpus"])
def test_path_selection(workload):
    # A problem takes the traces path exactly when its holonomy, D and E
    # are integer matrices, its common blocks have size at most 2, and a
    # target, if any, comes with 1 x 1 blocks only; every builtin fixture
    # and ladder rung takes it, and the corpus has problems on both paths
    if workload == "fixtures":
        problems = [(fx.spec, _maps(fx)) for fx in FIXTURES]
    else:
        problems = list((CORPUS if workload == "corpus" else _bench_problems(workload)).values())
    traces = 0
    for spec, maps in problems:
        hol = [a for _, a in spec.holonomy]
        mats = hol + [m.linear for m in maps]
        sizes = _block_sizes(mats, spec.dimension)
        want = (all(m.den == 1 for m in mats) and max(sizes) <= 2
                and (len(maps) == 1 or max(sizes) == 1))
        kernel = AveragingKernel(hol, *(m.linear for m in maps))
        assert (kernel._traces is not None) == want, spec.name
        traces += want
    if workload == "corpus":
        assert 0 < traces < len(problems)
    else:
        assert traces == len(problems) > 0


@pytest.mark.parametrize("make", [
    lambda: ladder_instances(0),
    lambda: random_instances(0, 120),
    lambda: [prod for prod, _, _ in product_instances(0, 30)],
], ids=["ladder", "random", "products"])
def test_fixed_point_instances(make):
    for spec, f in make():
        _check([a for _, a in spec.holonomy], f.linear)


def test_coincidence_instances():
    for spec, f, g in random_coincidence_instances(0, 40):
        _check([a for _, a in spec.holonomy], f.linear, g.linear)


def _two_by_two(rng, kind):
    """A holonomy of signs and a rotation block on two 2 x 2 blocks, and
    a D commuting with it, of the kind asked for."""
    def block(a, b, c, d):
        return [[a, b], [c, d]]

    if kind == "rational":
        d1, d2 = block(Fraction(rng.randint(-7, 7), 2), 1, 1, Fraction(3, 2)), block(2, 1, 1, 1)
    elif kind == "singular":
        x, y = rng.randint(1, 4), rng.randint(-3, 3) or 1
        d1, d2 = block(x, x * y, 1, y), block(3, 1, 2, 1)
    elif kind == "trace-zero":
        x = rng.randint(1, 5)
        d1, d2 = block(x, 2, 3, -x), block(0, 1, 1, 0)
    else:
        d1, d2 = block(2, 1, 1, 1), block(rng.randint(1, 4), 1, 1, 2)
    rot = [[0, -1], [1, 0]]
    d = RationalMatrix(_direct_sum(d1, d2))
    if kind == "rational-holonomy":
        # conjugating by diag(1, 1/3) on the second block keeps the
        # holonomy a group and gives its elements denominator 3
        p = RationalMatrix(_direct_sum([[1, 0], [0, 1]], [[1, 0], [0, Fraction(1, 3)]]))
        pinv = p.inverse()
        hol = [pinv @ RationalMatrix(_direct_sum(x, y)) @ p for x, y in
               (([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
                ([[-1, 0], [0, -1]], [[0, 1], [1, 0]]))]
        d = pinv @ d @ p
    else:
        hol = [RationalMatrix(_direct_sum(x, y)) for x, y in
               (([[1, 0], [0, 1]], [[1, 0], [0, 1]]), ([[-1, 0], [0, -1]], rot))]
    return hol, d


def _direct_sum(x, y):
    return ([list(r) + [0] * len(y) for r in x]
            + [[0] * len(x) + list(r) for r in y])


@pytest.mark.parametrize("kind", ["rational", "singular", "trace-zero",
                                  "rational-holonomy"])
def test_generated_two_by_two_blocks(kind):
    rng = random.Random(kind)
    for _ in range(6):
        hol, d = _two_by_two(rng, kind)
        kernel = _check(hol, d)
        if kind == "rational":
            # a denominator sends a problem to the powers path
            assert d.den > 1 and kernel._traces is None
            continue
        if kind == "rational-holonomy":
            assert math.lcm(*(a.den for a in hol)) > 1 and kernel._traces is None
            continue
        assert kernel._traces is not None and {k for k, *_ in kernel._rec} == {2}
        if kind == "singular":
            assert 0 in [delta for _, _, delta, _ in kernel._rec]
        else:
            assert 0 in [t for _, t, _, _ in kernel._rec]


def test_generated_diagonal_targets_with_denominators():
    # a denominator on the holonomy, D or the target alone, or on all
    # three, sends these diagonal problems to the powers path; the
    # averaging identities hold for any matrices, so this holonomy need
    # not be a group
    rng = random.Random("scaled-diagonal")

    def diagonal(dim, den):
        return RationalMatrix([[Fraction(rng.choice([k for k in range(-6, 7)
                                                     if den == 1 or k % den]), den)
                                if i == j else 0 for j in range(dim)] for i in range(dim)])

    for dim in (1, 2, 3, 4):
        for dens in ((2, 3, 5, 7), (1, 3, 1, 1), (1, 1, 5, 1), (1, 1, 1, 7)):
            hol = [diagonal(dim, dens[0]), diagonal(dim, dens[1])]
            d, e = diagonal(dim, dens[2]), diagonal(dim, dens[3])
            kernel = _check(hol, d, e)
            assert kernel._diagonal and kernel._traces is None
            assert (kernel._s, d.den, e.den) == (dens[0] * dens[1], *dens[2:])
