"""Fixed-point and coincidence invariants by holonomy averaging, and
the one computation context of each (spec, map).

Lefschetz numbers are signed averages of det(I - A D^n) over the
holonomy; Nielsen numbers average the absolute values; Reidemeister
numbers average sigma(det(A - D^n)) where sigma maps 0 to infinity.
Coincidence versions replace I by the second map's linear part.  All
averages are exact, and any non-integer average is an error in the
input data, never rounded away.

MapContext holds everything computed for one (spec, map).  Building it
decides the plus split, whose counts give the sign formula's sigma and
eps, and the L, N and R sequences read from one averaging kernel, each
with the proven degree bound of the zeta it feeds.  The Lefschetz and
Nielsen zetas are certified by the L and N oracles when first needed,
which then read every term past their window off them.  It is the only
route to a map's numbers: lefschetz, nielsen and reidemeister and the
public sequences all read its oracles.  Two cross-checks run there:
every finite R(f^n), past N's window too, must equal N(f^n), and an
infinite one needs a vanishing det(I - A D^n); and every N(f^k) in the
Nielsen window must be +-L(f^k), or +-(L(f+^k) - L(f^k)) for a proper
split.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import cached_property, lru_cache, partial

from .algebra import (AveragingKernel, RationalMatrix, _ScaledPowers,
                      _gauss_jordan, _scaled_det, _sign)
# unused here, but bench/test_bench.py checks that zetafix.invariants binds it
from .algebra import det  # noqa: F401
from .errors import (DegenerateFixedSet, NielsenFormulaMismatch,
                     NonIntegralLefschetz, NonIntegralNielsen, NotBlockCompatible,
                     NotCyclic, TrichotomyMismatch, ZetafixError)
from .manifolds import (AffineMapSpec, ManifoldSpec, PlusSplit,
                        ZetaDefinedness, averaging_kernel, compute_plus_split,
                        exterior_ranks, reidemeister_zeta_defined,
                        validate_spec)
from .ratfunc import RationalFunction, SequenceOracle, zeta_from_terms


def default_degree_bound(spec: ManifoldSpec) -> int:
    """The cap on every zeta degree bound: 2^dim, the dimension of the
    whole exterior algebra, whatever |Phi| is (see zeta_degree_bound)."""
    return 2 ** spec.dimension


def zeta_degree_bound(spec: ManifoldSpec, ranks: tuple[int, int],
                      invertible: bool = False) -> int:
    """The proven order bound of a zeta prod_i det(I - z M_i)^((-1)^(i+1))
    whose factors M_i have sizes summing to E over even i and to O over
    odd i, for ranks = (E, O): numerator degree <= O, denominator degree
    <= E, so order max(E, O + 1); max(E, O) + 1 when the sign formula
    may also invert it.  Capped by default_degree_bound.

    With P_i = (1/|Phi|) sum_A Lambda^i A and M = Lambda^i D, the
    averaging formula reads L(f^n) = sum_i (-1)^i tr(P_i M^n).  P_i is a
    projection of rank r_i, and P_i Lambda^i B = P_i for every B in Phi.
    Compatibility (D A = A' D, D possibly singular) gives
    M P_i = (1/|Phi|) sum_A Lambda^i A' M, so P_i M P_i = P_i M: M keeps
    ker P_i, and L_f(z) = prod_i det(I - z M | im P_i)^((-1)^(i+1)),
    whose (E, O) exterior_ranks returns.  For a proper split, the sign
    character s of the plus subgroup gives the projection
    Q_i = (1/|Phi|) sum_A s(A) Lambda^i A of rank r_i^+ - r_i, and
    s(A') = s(A) (A' D = D A and A D share their nonzero eigenvalues), so
    Q_i M Q_i = Q_i M the same way: the twisted zeta of
    L(f+^n) - L(f^n) = sum_i (-1)^i tr(Q_i M^n) has (E, O) =
    (E+ - E, O+ - O), with (E+, O+) the ranks over the plus subgroup.
    """
    e, o = ranks
    bound = max(e, o) + 1 if invertible else max(e, o + 1)
    return min(bound, default_degree_bound(spec))


def _average(dets, den: int, err) -> int:
    """Exact average of the values dets[k] / den, one per holonomy
    element."""
    total, count = sum(dets), den * len(dets)
    q, r = divmod(total, count)
    if r:
        raise err(f"holonomy average {Fraction(total, count)} is not an integer")
    return q


def _lefschetz_terms(kernel: AveragingKernel, lo: int, hi: int,
                     members=None) -> list[int]:
    """L(f^n) for n = lo..hi, or with members (indices into the
    holonomy) the signed averages over that subgroup alone, read from
    the same determinants."""
    return [_average(dets if members is None else [dets[i] for i in members],
                     den, NonIntegralLefschetz)
            for dets, den in kernel.fixed_point_dets(range(lo, hi + 1))]


def _nielsen_terms(kernel: AveragingKernel, lo: int, hi: int) -> list[int]:
    """N(f^n) for n = lo..hi."""
    return [_average([abs(v) for v in dets], den, NonIntegralNielsen)
            for dets, den in kernel.fixed_point_dets(range(lo, hi + 1))]


def lefschetz(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1) -> int:
    """L(f^n) = (1/|Phi|) sum_A det(I - A D^n), from the shared context
    (see MapContext)."""
    return map_context(spec, mapping).l_seq(n)


def nielsen(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1) -> int:
    """N(f^n) = (1/|Phi|) sum_A |det(I - A D^n)|, from the shared
    context (see MapContext)."""
    return map_context(spec, mapping).n_seq(n)


def reidemeister(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1):
    """R(f^n) = (1/|Phi|) sum_A sigma(det(A - D^n)), sigma(0) = inf,
    from the shared context (see MapContext.r_seq)."""
    return map_context(spec, mapping).r_seq(n)


# --------------------------------------------------------------------------
# one context per (spec, map): its sequences, their bounds and its zetas
# --------------------------------------------------------------------------


class Construction(namedtuple("Construction", "kind case p n",
                              defaults=(None, None, None))):
    """How a zeta function was assembled: kind "direct" reconstruction
    from its own sequence, or the "sign-formula" route through Lefschetz
    zetas (case "plus-equal" when the plus subgroup is everything,
    "plus-proper" otherwise, with the counts p and n of the split)."""

    __slots__ = ()


class ZetaResult(namedtuple("ZetaResult", "which function construction")):
    """A zeta function: which (Lefschetz | Nielsen | Reidemeister |
    ArtinMazur), the RationalFunction, and its Construction."""

    __slots__ = ()


def _reidemeister_terms(kernel: AveragingKernel, n_seq: SequenceOracle,
                        lo: int, hi: int) -> list:
    """R(f^n) for n = lo..hi from det(A - D^n), math.inf when one
    vanishes.  Inversion permutes the holonomy, and det(A - D^n) =
    det(A) det(I - A^-1 D^n), so a finite R(f^n) that is not N(f^n),
    N's tail included, raises NielsenFormulaMismatch, and so does an
    infinite one unless some det(I - B D^n) vanishes too."""
    out = [math.inf if 0 in dets else
           _average([abs(v) for v in dets], den, NonIntegralNielsen)
           for dets, den in kernel.shifted_dets(range(lo, hi + 1))]
    infinite = [n for n, r in zip(range(lo, hi + 1), out) if r == math.inf]
    for n, (dets, _) in zip(infinite, kernel.fixed_point_dets(infinite)):
        if 0 not in dets:
            raise NielsenFormulaMismatch(
                f"R(f^{n}) is infinite, but no det(I - A D^{n}) vanishes")
    want = []
    with suppress(ZetafixError):    # N in one read; if it fails, n_seq(n) finds the first fault
        want = n_seq.terms(max(set(range(lo, hi + 1)) - set(infinite), default=0))
    for n, r in zip(range(lo, hi + 1), out):
        if r != math.inf and r != (v := want[n - 1] if want else n_seq(n)):
            raise NielsenFormulaMismatch(f"R(f^{n}) = {r} differs from N(f^{n}) = {v}")
    return out


def _twisted_terms(kernel: AveragingKernel, members, lo: int, hi: int) -> list[int]:
    """L(f+^n) - L(f^n) for n = lo..hi, both averages read from the
    kernel's determinants: reading L(f^n) through its oracle past L's
    window would certify the Lefschetz zeta, which the twisted zeta does
    not need."""
    return list(map(operator.sub, _lefschetz_terms(kernel, lo, hi, members),
                    _lefschetz_terms(kernel, lo, hi)))


def _sign_formula_zeta(source: SequenceOracle, split: PlusSplit,
                       n_seq: SequenceOracle) -> RationalFunction:
    """n_seq's zeta by the sign formula F = S(sigma z)^eps, S the zeta
    of source, certified by the checks of MapContext.n_zeta."""
    zeta = source.zeta
    sigma, eps = (-1) ** split.n, (-1) ** (split.p + split.n)
    formula = zeta.compose_scale(sigma) ** eps
    b = n_seq.degree_bound
    if max(formula.den.degree, formula.num.degree + 1) > b:
        raise NielsenFormulaMismatch(
            f"sign-formula zeta {formula} has order above the bound {b}")
    # numerator and denominator swap places when eps = -1
    for got, p in zip((formula.num, formula.den), (zeta.num, zeta.den)[::eps]):
        if got.den != p.den or got.ints != tuple(c * sigma ** k for k, c in enumerate(p.ints)):
            raise NielsenFormulaMismatch(
                f"sign-formula zeta {formula} is not ({zeta})(({sigma})z)^{eps}")
    top = 3 * b + 4
    for n, got, s in zip(range(1, top + 1), n_seq.terms(top), source.terms(top)):
        if got != (want := eps * sigma ** n * s):
            raise NielsenFormulaMismatch(
                f"N(f^{n}) = {got} differs from the sign formula's {want}")
    return formula


def _oracle(spec: ManifoldSpec, mapping: AffineMapSpec, kind: str, fn, bound: int,
            zeta=None) -> SequenceOracle:
    return SequenceOracle.from_ranges(fn, bound, f"{kind}:{spec.name}:{mapping.label}",
                                      zeta)


class MapContext:
    """Everything computed for one (spec, map), decided when the
    context is built: its averaging kernel (from
    manifolds.averaging_kernel), the plus split, and the L, N and R
    sequences read from the kernel (L and N from the same determinants
    det(I - A D^n)), with twisted_seq, L(f+^n) - L(f^n), for a proper
    split (None otherwise); on first read, the Reidemeister definedness
    and the Lefschetz and Nielsen zetas.  Each oracle carries the proven
    order bound of the zeta it feeds (see zeta_degree_bound): N and R
    share the sign-formula zeta's.  The L, N and twisted oracles own
    their certified zetas and read every term past their windows off
    them.  An oracle holds the kernel and sibling oracles, never the
    context, so a context is freed as soon as it is dropped.  Obtain it
    from map_context, so that every caller asking about the same problem
    shares one instance.

    The oracles take range functions over the kernel: fn(lo, hi)
    averages the determinants of n = lo..hi, read off the kernel's tables
    (trace recurrences on integer blocks of size 1 and 2, powers
    otherwise; see AveragingKernel), and readers take seq.terms(n)."""

    def __init__(self, spec: ManifoldSpec, mapping: AffineMapSpec):
        self.spec, self.mapping = spec, mapping
        self.kernel = kernel = averaging_kernel(spec, mapping)
        e, o = ranks = exterior_ranks(spec)
        self.l_seq = _oracle(spec, mapping, "lefschetz", partial(_lefschetz_terms, kernel),
                             zeta_degree_bound(spec, ranks), zeta_from_terms)
        self.split = split = compute_plus_split(spec, mapping)
        self.twisted_seq = None
        source = self.l_seq
        if split.is_proper:
            plus = split.plus_indices()
            e_plus, o_plus = exterior_ranks(spec, plus)
            ranks = e_plus - e, o_plus - o
            self.twisted_seq = source = _oracle(
                spec, mapping, "lefschetz-twisted", partial(_twisted_terms, kernel, plus),
                zeta_degree_bound(spec, ranks), zeta_from_terms)
        bound = zeta_degree_bound(spec, ranks, invertible=True)
        self.n_seq = _oracle(spec, mapping, "nielsen", partial(_nielsen_terms, kernel),
                             bound, partial(_sign_formula_zeta, source, split))
        self.r_seq = _oracle(spec, mapping, "reidemeister",
                             partial(_reidemeister_terms, kernel, self.n_seq), bound)

    @cached_property
    def definedness(self) -> ZetaDefinedness:
        return reidemeister_zeta_defined(self.spec, self.mapping)

    @cached_property
    def l_zeta(self) -> ZetaResult:
        return ZetaResult("Lefschetz", self.l_seq.zeta, Construction("direct"))

    @cached_property
    def n_zeta(self) -> ZetaResult:
        """The sign formula F = S(sigma z)^eps, sigma = (-1)^n and
        eps = (-1)^(p+n), with S = L_f, or the twisted zeta L_f+ / L_f
        for a proper plus subgroup, certified for its own sequence s.  F
        is never rebuilt; three checks certify it as n_seq's zeta.  They
        pass exactly when zeta_from_terms(n_seq) would return F, that is
        when (1) F has order <= B, n_seq's bound, and F's series is
        exp(sum N(f^n) z^n / n) through z^(3B+4) (two functions of order
        <= B that share 2B coefficients are equal).  Series that start
        with 1 agree iff their log coefficients do.  S's are s(n) at
        every n (by s's rebuild, then its tail), so given (2) F's stored
        forms are S(sigma z)^eps's (true unless compose_scale or inverse
        is at fault), the series condition is (3) N(f^n) = eps sigma^n
        s(n) for n <= 3B + 4."""
        split = self.split
        case = "plus-proper" if split.is_proper else "plus-equal"
        return ZetaResult("Nielsen", self.n_seq.zeta,
                          Construction("sign-formula", case, split.p, split.n))


@lru_cache(maxsize=1)
def map_context(spec: ManifoldSpec, mapping: AffineMapSpec) -> MapContext:
    """The shared context of one problem.  Only the most recent one is
    kept, so a context never outlives the next problem asked about."""
    return MapContext(spec, mapping)


def lefschetz_sequence(spec: ManifoldSpec, mapping: AffineMapSpec) -> SequenceOracle:
    """L(f^n): the shared context's oracle (see MapContext)."""
    return map_context(spec, mapping).l_seq


def nielsen_sequence(spec: ManifoldSpec, mapping: AffineMapSpec) -> SequenceOracle:
    """N(f^n): the shared context's oracle (see MapContext)."""
    return map_context(spec, mapping).n_seq


def reidemeister_sequence(spec: ManifoldSpec,
                          mapping: AffineMapSpec) -> SequenceOracle:
    """R(f^n): the shared context's oracle (see MapContext).  Values may
    be math.inf."""
    return map_context(spec, mapping).r_seq


# --------------------------------------------------------------------------
# coincidence invariants
# --------------------------------------------------------------------------


class CoincidenceNumbers(namedtuple("CoincidenceNumbers",
                                    "lefschetz nielsen reidemeister")):
    """L, N, R for a pair of maps on one manifold.  nielsen is None when
    the manifold is non-orientable (the averaging formula needs
    orientability); reidemeister is an int or math.inf."""

    __slots__ = ()


def coincidence_numbers(spec: ManifoldSpec, map_f: AffineMapSpec,
                        map_g: AffineMapSpec, n: int = 1) -> CoincidenceNumbers:
    """Averaged coincidence invariants of the iterate pair (f^n, g^n):
    determinants det(E^n - A D^n) over the holonomy.  Where the
    trichotomy applies (orientable, cyclic holonomy, block compatible
    maps), N is checked against its prediction at n, and a mismatch
    raises TrichotomyMismatch."""
    kernel = averaging_kernel(spec, map_f, map_g)
    if n < 1:
        raise ValueError("iterate must be >= 1")
    coin, = _coincidence_terms(kernel, n, n, spec.orientable)
    with suppress(NotCyclic, NotBlockCompatible):   # where it does not apply
        if spec.orientable:
            _Trichotomy(spec, map_f, map_g, kernel).at(n, coin)
    return coin


def _coincidence_terms(kernel: AveragingKernel, lo: int, hi: int,
                       orientable: bool) -> list[CoincidenceNumbers]:
    """L, N and R for n = lo..hi, unchecked, each from one |det|
    average: R is N's average unless a determinant vanishes, and that
    average is taken only when N or R needs it."""
    out = []
    for dets, den in kernel.fixed_point_dets(range(lo, hi + 1)):
        lef = _average(dets, den, NonIntegralLefschetz)
        infinite = 0 in dets
        avg = (_average([abs(v) for v in dets], den, NonIntegralNielsen)
               if orientable or not infinite else None)
        out.append(CoincidenceNumbers(lef, avg if orientable else None,
                                      math.inf if infinite else avg))
    return out


# --------------------------------------------------------------------------
# cyclic holonomy decomposition and the coincidence trichotomy
# --------------------------------------------------------------------------


class CyclicDecomposition(namedtuple(
        "CyclicDecomposition", "generator_label order trivial sign rotation")):
    """Isotypic decomposition of a cyclic holonomy representation under
    a generator A (labelled generator_label, of the group's order), as
    tuples of integer columns: the trivial part ker(A - I), the sign
    part ker(A + I) and the rotation part im(A^2 - I)."""

    __slots__ = ()

    @property
    def m_triv(self) -> int:
        return len(self.trivial)

    @property
    def k_tau(self) -> int:
        return len(self.sign)


def cyclic_decomposition(spec: ManifoldSpec) -> CyclicDecomposition:
    """Find a generator of the holonomy and split space into its
    trivial, sign, and rotation isotypic parts.  Raises NotAGroup (or
    another validation error) when the holonomy is not a finite group,
    and NotCyclic when no element generates the whole group.  Each
    part is read on the integer form M_int of its matrix M_int / s."""
    group = validate_spec(spec)
    gen_label = next((l for l, o in group.element_orders
                      if o == spec.order), None)
    if gen_label is None:
        raise NotCyclic(f"holonomy of {spec.name!r} has no generator")
    a0 = spec.matrix(gen_label)
    ident = RationalMatrix.identity(spec.dimension)
    triv = tuple((a0 - ident).nullspace())
    tau = tuple((a0 + ident).nullspace())
    rot_ints = (spec.matrix(group.products[gen_label, gen_label]) - ident).ints
    _, pivots = _gauss_jordan(rot_ints, spec.dimension)
    rot = tuple(tuple(row[c] for row in rot_ints) for c in pivots)
    filled = len(triv) + len(tau) + len(rot)
    if filled != spec.dimension:
        raise NotCyclic(
            f"decomposition of {gen_label!r} does not fill the space "
            f"(got {filled} columns for dimension {spec.dimension})")
    return CyclicDecomposition(gen_label, spec.order, triv, tau, rot)


class TrichotomyReport(namedtuple(
        "TrichotomyReport", "case predicted_nielsen averaged_nielsen "
        "det_diff_sign det_sum_sign m_triv k_tau")):
    """Coincidence Nielsen number predicted by the cyclic-holonomy case
    analysis, with the sign data that selected the case: det_diff_sign
    and det_sum_sign are the signs of det(E_tau - D_tau) and
    det(E_tau + D_tau)."""

    __slots__ = ()


class _Trichotomy:
    """The case analysis of one coincidence pair under cyclic orientable
    holonomy, at every iterate.  The decomposition, the tau-blocks
    D_tau and E_tau and the index-2 subgroup are found once; the pair
    (f^n, g^n) has linear parts (D^n, E^n), whose blocks are the n-th
    powers of D's and E's, so the case at n comes from the signs of
    det(E_tau^n -+ D_tau^n), and L and L_0 from the pair kernel's
    determinants at n.  Raises NotCyclic or NotBlockCompatible where
    the analysis does not apply.  With B the integer columns of
    cyclic_decomposition and B^-1 = W / w (adj(B) / det(B) in lowest
    terms), B^-1 M B is W M_int B / (w q) for M = M_int / q: the blocks
    are read on that integer form."""

    def __init__(self, spec: ManifoldSpec, map_f: AffineMapSpec,
                 map_g: AffineMapSpec, kernel: AveragingKernel):
        self.kernel = kernel
        dec = cyclic_decomposition(spec)
        basis = RationalMatrix._from_ints(list(zip(*dec.trivial, *dec.sign,
                                                   *dec.rotation)))
        binv = basis.inverse()
        self.m_triv, self.k_tau = mt, kt = dec.m_triv, dec.k_tau
        piece = [0] * mt + [1] * kt + [2] * len(dec.rotation)

        def tau_powers(mat: RationalMatrix) -> _ScaledPowers:
            conj = binv @ mat @ basis
            x = conj.ints
            for i, row in enumerate(x):
                for j, v in enumerate(row):
                    if v and piece[i] != piece[j]:
                        raise NotBlockCompatible(
                            f"linear part does not preserve the isotypic "
                            f"pieces (entry {i},{j} nonzero)")
            one = [[[int(i == j) for j in range(kt)] for i in range(kt)]]
            return _ScaledPowers([[row[mt:mt + kt] for row in x[mt:mt + kt]]],
                                 one, conj.den)

        self._d, self._e = tau_powers(map_f.linear), tau_powers(map_g.linear)
        self._half = None
        if kt:
            # the index-2 subgroup: powers of the generator's square
            group = validate_spec(spec)
            g = dec.generator_label
            sq = group.products[g, g]
            half = [group.identity]
            while (p := group.products[half[-1], sq]) != group.identity:
                half.append(p)
            labels = spec.labels()
            self._half = [labels.index(l) for l in half]

    def at(self, n: int, coin: CoincidenceNumbers) -> TrichotomyReport:
        """The case and prediction for (f^n, g^n) from L = coin.lefschetz,
        checked against the averaged N = coin.nielsen; TrichotomyMismatch
        when they differ."""
        lef, nielsen = coin.lefschetz, coin.nielsen
        if not self.k_tau:
            case, predicted, s1, s2 = 1, abs(lef), 0, 0
        else:
            # det(E_tau^n -+ D_tau^n) is det(q^n X_e^n -+ r^n X_d^n) over
            # (q r)^(n k_tau) > 0, for D_tau = X_d / q and E_tau = X_e / r
            xd, qn = self._d(n)
            xe, rn = self._e(n)
            s1, s2 = (_sign(_scaled_det(qn, xe, v, xd)) for v in (rn, -rn))
            if s1 * s2 >= 0:
                case, predicted = 2, abs(lef)
            else:
                lef0, = _lefschetz_terms(self.kernel, n, n, self._half)
                case, predicted = 3, abs(lef0 - lef)
        if nielsen != predicted:
            what = "N" if n == 1 else f"N(f^{n}, g^{n})"
            raise TrichotomyMismatch(
                f"case {case} predicts {what} = {predicted} but averaging "
                f"gives {nielsen}")
        return TrichotomyReport(case, predicted, nielsen, s1, s2,
                                self.m_triv, self.k_tau)


def coincidence_trichotomy(spec: ManifoldSpec, map_f: AffineMapSpec,
                           map_g: AffineMapSpec) -> TrichotomyReport:
    """Case analysis for coincidence Nielsen numbers under cyclic
    orientable holonomy.

    Case 1 (no sign part): N = |L|.  Case 2 (det(E_tau - D_tau) and
    det(E_tau + D_tau) not of opposite sign): N = |L|.  Case 3: N =
    |L_0 - L| where L_0 averages over the index-2 subgroup generated by
    the generator's square.  The prediction is cross-checked against
    the averaged Nielsen number; disagreement raises TrichotomyMismatch.
    L and L_0 are read from the n = 1 determinants of the pair's kernel
    (see _Trichotomy, which the report also checks every printed
    iterate with).
    """
    kernel = averaging_kernel(spec, map_f, map_g)
    if not spec.orientable:
        raise ValueError("trichotomy requires an orientable manifold")
    tri = _Trichotomy(spec, map_f, map_g, kernel)
    return tri.at(1, _coincidence_terms(kernel, 1, 1, True)[0])


# --------------------------------------------------------------------------
# torus periodic-point oracle
# --------------------------------------------------------------------------


def _snf_diagonal(a) -> list[int]:
    """Diagonal of an integer Smith-type reduction (no divisibility
    normalization; the absolute product is what matters here)."""
    n = len(a)
    diag = []
    a = [list(row) for row in a]
    for t in range(n):
        # find smallest nonzero entry in the trailing submatrix
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                diag.append(0)
                break
            bi, bj = best
            a[t], a[bi] = a[bi], a[t]
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                q = a[i][t] // piv
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                if a[i][t] != 0:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // piv
                if q:
                    for i in range(t, n):
                        a[i][j] -= q * a[i][t]
                if a[t][j] != 0:
                    dirty = True
            if not dirty:
                diag.append(piv)
                break
    return diag


def torus_periodic_points(d_mat: RationalMatrix, n: int) -> int:
    """Number of n-periodic points of the toral endomorphism induced by
    an integer matrix: solutions of (I - D^n) x = 0 mod Z^m, counted by
    Smith-form coset enumeration.  Equals |det(I - D^n)| when finite;
    DegenerateFixedSet when the fixed set is a positive-dimensional
    subtorus (det = 0)."""
    if not d_mat.is_integral():
        raise ValueError("torus endomorphisms need an integer matrix")
    if n < 1:
        raise ValueError("iterate must be >= 1")
    m = RationalMatrix.identity(d_mat.dim) - d_mat.power(n)
    diag = _snf_diagonal(m.ints)
    if any(v == 0 for v in diag):
        raise DegenerateFixedSet(
            f"det(I - D^{n}) = 0: fixed set is a subtorus")
    count = 1
    for v in diag:
        count *= abs(v)
    return count
