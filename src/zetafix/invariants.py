"""Fixed-point and coincidence invariants by holonomy averaging.

Lefschetz numbers are signed averages of det(I - A D^n) over the
holonomy; Nielsen numbers average the absolute values; Reidemeister
numbers average sigma(det(A - D^n)) where sigma maps 0 to infinity.
Coincidence versions replace I by the second map's linear part.  All
averages are exact, and any non-integer average is an error in the
input data, never rounded away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AveragingKernel, RationalMatrix, det, rref
from .errors import (DegenerateFixedSet, NielsenFormulaMismatch,
                     NonIntegralLefschetz, NonIntegralNielsen, NotBlockCompatible,
                     NotCyclic, TrichotomyMismatch)
from .manifolds import (AffineMapSpec, ManifoldSpec, PlusSplit,
                        ensure_compatible, plus_subgroup_spec, validate_spec)
from .ratfunc import SequenceOracle


def default_degree_bound(spec: ManifoldSpec) -> int:
    """Degree budget for zeta reconstruction: 2^dim, whatever |Phi| is.

    For a linear part D compatible with the holonomy, the averaged
    exterior powers P_i = (1/|Phi|) sum_A Lambda^i A commute with
    Lambda^i D, and L_f(z) = prod_i det(I - z P_i Lambda^i D)^((-1)^(i+1)).
    Its numerator and denominator therefore have degree at most
    sum over odd (or even) i of C(dim, i) = 2^(dim-1); by the sign
    formula the same holds for N_f.  So the recurrence order of the
    zeta's series is at most 2^dim: averaging over Phi cannot raise it.
    """
    return 2 ** spec.dimension


def _average(dets, den: int, err) -> int:
    """Exact average of the values dets[k] / den, one per holonomy
    element."""
    s = Fraction(sum(dets), den * len(dets))
    if s.denominator != 1:
        raise err(f"holonomy average {s} is not an integer")
    return s.numerator


def _kernel(spec: ManifoldSpec, mapping: AffineMapSpec,
            target: AffineMapSpec | None = None) -> AveragingKernel:
    ensure_compatible(spec, mapping)
    if target is not None:
        ensure_compatible(spec, target)
    return AveragingKernel([a for _, a in spec.holonomy], mapping.linear,
                           None if target is None else target.linear)


def _lefschetz_at(kernel: AveragingKernel, n: int) -> int:
    dets, den = kernel.fixed_point_dets(n)
    return _average(dets, den, NonIntegralLefschetz)


def _nielsen_at(kernel: AveragingKernel, n: int) -> int:
    dets, den = kernel.fixed_point_dets(n)
    return _average([abs(v) for v in dets], den, NonIntegralNielsen)


def _reidemeister_at(kernel: AveragingKernel, n: int):
    dets, den = kernel.shifted_dets(n)
    if any(v == 0 for v in dets):
        return math.inf
    return _average([abs(v) for v in dets], den, NonIntegralNielsen)


def _iterate(spec: ManifoldSpec, mapping: AffineMapSpec, n: int,
             target: AffineMapSpec | None = None) -> AveragingKernel:
    kernel = _kernel(spec, mapping, target)
    if n < 1:
        raise ValueError("iterate must be >= 1")
    return kernel


def lefschetz(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1) -> int:
    """L(f^n) = (1/|Phi|) sum_A det(I - A D^n)."""
    return _lefschetz_at(_iterate(spec, mapping, n), n)


def nielsen(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1) -> int:
    """N(f^n) = (1/|Phi|) sum_A |det(I - A D^n)|."""
    return _nielsen_at(_iterate(spec, mapping, n), n)


def reidemeister(spec: ManifoldSpec, mapping: AffineMapSpec, n: int = 1):
    """R(f^n) = (1/|Phi|) sum_A sigma(det(A - D^n)), sigma(0) = inf.

    Deliberately uses the det(A - D^n) form rather than det(I - A D^n);
    the two agree because inversion permutes the holonomy, which makes
    agreement with the Nielsen number a genuine cross-check.
    """
    return _reidemeister_at(_iterate(spec, mapping, n), n)


def lefschetz_plus(spec: ManifoldSpec, mapping: AffineMapSpec,
                   split: PlusSplit, n: int = 1) -> int:
    """Lefschetz number of the lift to the orientation double cover
    determined by the plus part of the holonomy."""
    return lefschetz(plus_subgroup_spec(spec, split), mapping, n)


def nielsen_from_lefschetz(spec: ManifoldSpec, mapping: AffineMapSpec,
                           split: PlusSplit, k: int = 1) -> int:
    """Nielsen number via the sign formula
    N(f^k) = (-1)^(p + (k+1)n) * L(f^k)                 (plus part = all)
    N(f^k) = (-1)^(p + (k+1)n) * (L(f+^k) - L(f^k))     (proper plus part)
    cross-checked against the averaging route on every call."""
    sign = (-1) ** (split.p + (k + 1) * split.n)
    if not split.is_proper:
        value = sign * lefschetz(spec, mapping, k)
    else:
        value = sign * (lefschetz_plus(spec, mapping, split, k)
                        - lefschetz(spec, mapping, k))
    direct = nielsen(spec, mapping, k)
    if value != direct:
        raise NielsenFormulaMismatch(
            f"sign formula gives {value} but averaging gives {direct} "
            f"for iterate {k} of {mapping.label!r}")
    return value


# --------------------------------------------------------------------------
# invariant sequences (for zeta reconstruction)
# --------------------------------------------------------------------------


def _sequence(kind: str, at, spec: ManifoldSpec, mapping: AffineMapSpec,
              degree_bound: int | None) -> SequenceOracle:
    """The oracle n -> at(kernel, n) over one kernel, whose powers of D
    grow by one integer product per iterate."""
    kernel = _kernel(spec, mapping)
    bound = default_degree_bound(spec) if degree_bound is None else degree_bound
    return SequenceOracle(lambda n: at(kernel, n), bound,
                          name=f"{kind}:{spec.name}:{mapping.label}")


def lefschetz_sequence(spec: ManifoldSpec, mapping: AffineMapSpec,
                       degree_bound: int | None = None) -> SequenceOracle:
    return _sequence("lefschetz", _lefschetz_at, spec, mapping, degree_bound)


def nielsen_sequence(spec: ManifoldSpec, mapping: AffineMapSpec,
                     degree_bound: int | None = None) -> SequenceOracle:
    return _sequence("nielsen", _nielsen_at, spec, mapping, degree_bound)


def reidemeister_sequence(spec: ManifoldSpec, mapping: AffineMapSpec,
                          degree_bound: int | None = None) -> SequenceOracle:
    """Values may be math.inf; zeta construction must check definedness
    before consuming this."""
    return _sequence("reidemeister", _reidemeister_at, spec, mapping,
                     degree_bound)


# --------------------------------------------------------------------------
# coincidence invariants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceNumbers:
    """L, N, R for a pair of maps on one manifold.  nielsen is None when
    the manifold is non-orientable (the averaging formula needs
    orientability); reidemeister may be math.inf."""

    lefschetz: int
    nielsen: int | None
    reidemeister: object  # int or math.inf


def coincidence_numbers(spec: ManifoldSpec, map_f: AffineMapSpec,
                        map_g: AffineMapSpec, n: int = 1) -> CoincidenceNumbers:
    """Averaged coincidence invariants of the iterate pair (f^n, g^n):
    determinants det(E^n - A D^n) over the holonomy."""
    return _coincidence_at(_iterate(spec, map_f, n, map_g), n, spec.orientable)


def coincidence_table(spec: ManifoldSpec, map_f: AffineMapSpec,
                      map_g: AffineMapSpec, n_max: int) -> list[CoincidenceNumbers]:
    """coincidence_numbers for n = 1..n_max, from one kernel."""
    kernel, orientable = _kernel(spec, map_f, map_g), spec.orientable
    return [_coincidence_at(kernel, n, orientable) for n in range(1, n_max + 1)]


def _coincidence_at(kernel: AveragingKernel, n: int,
                    orientable: bool) -> CoincidenceNumbers:
    dets, den = kernel.fixed_point_dets(n)
    lef = _average(dets, den, NonIntegralLefschetz)
    mags = [abs(v) for v in dets]
    nie = _average(mags, den, NonIntegralNielsen) if orientable else None
    if any(v == 0 for v in dets):
        rei = math.inf
    else:
        rei = _average(mags, den, NonIntegralNielsen)
    return CoincidenceNumbers(lef, nie, rei)


# --------------------------------------------------------------------------
# cyclic holonomy decomposition and the coincidence trichotomy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicDecomposition:
    """Isotypic decomposition of a cyclic holonomy representation under
    a generator A, as exact column bases: the trivial part ker(A - I),
    the sign part ker(A + I) and the rotation part im(A^2 - I), whose
    rotation pairs have the listed angles in (0, pi)."""

    generator_label: str
    order: int
    trivial: tuple[tuple[Fraction, ...], ...]
    sign: tuple[tuple[Fraction, ...], ...]
    rotation: tuple[tuple[Fraction, ...], ...]
    rotation_angles: tuple[float, ...]

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
    and NotCyclic when no element generates the whole group."""
    group = validate_spec(spec)
    gen_label = next((l for l, o in group.element_orders
                      if o == spec.order), None)
    if gen_label is None:
        raise NotCyclic(f"holonomy of {spec.name!r} has no generator")
    a0 = spec.matrix(gen_label)
    ident = RationalMatrix.identity(spec.dimension)
    triv = tuple((a0 - ident).nullspace())
    tau = tuple((a0 + ident).nullspace())
    square = spec.matrix(group.products[gen_label, gen_label])
    rot = tuple(_column_space(square - ident))
    filled = len(triv) + len(tau) + len(rot)
    if filled != spec.dimension:
        raise NotCyclic(
            f"decomposition of {gen_label!r} does not fill the space "
            f"(got {filled} columns for dimension {spec.dimension})")
    order = spec.order
    thetas = sorted(math.atan2(w.imag, w.real)
                    for w in np.linalg.eigvals(a0.to_float()) if w.imag > 1e-9)
    angles = tuple(2 * math.pi * round(t * order / (2 * math.pi)) / order
                   for t in thetas)
    return CyclicDecomposition(gen_label, order, triv, tau, rot, angles)


def _column_space(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    _, pivots = rref(m.rows, m.dim)
    cols = list(zip(*m.rows))
    return [tuple(cols[c]) for c in pivots]


@dataclass(frozen=True)
class TrichotomyReport:
    """Coincidence Nielsen number predicted by the cyclic-holonomy case
    analysis, with the sign data that selected the case."""

    case: int
    predicted_nielsen: int
    averaged_nielsen: int
    det_diff_sign: int   # sign of det(E_tau - D_tau)
    det_sum_sign: int    # sign of det(E_tau + D_tau)
    m_triv: int
    k_tau: int


def coincidence_trichotomy(spec: ManifoldSpec, map_f: AffineMapSpec,
                           map_g: AffineMapSpec) -> TrichotomyReport:
    """Case analysis for coincidence Nielsen numbers under cyclic
    orientable holonomy.

    Case 1 (no sign part): N = |L|.  Case 2 (det(E_tau - D_tau) and
    det(E_tau + D_tau) not of opposite sign): N = |L|.  Case 3: N =
    |L_0 - L| where L_0 averages over the index-2 subgroup generated by
    the generator's square.  The prediction is cross-checked against
    the averaged Nielsen number; disagreement raises TrichotomyMismatch.
    """
    if not spec.orientable:
        raise ValueError("trichotomy requires an orientable manifold")
    ensure_compatible(spec, map_f)
    ensure_compatible(spec, map_g)
    dec = cyclic_decomposition(spec)
    basis = RationalMatrix(list(zip(*(dec.trivial + dec.sign + dec.rotation))))
    binv = basis.inverse()
    mt, kt = dec.m_triv, dec.k_tau

    def _piece(i: int) -> int:
        if i < mt:
            return 0
        return 1 if i < mt + kt else 2

    def blocks(mat: RationalMatrix) -> RationalMatrix:
        conj = binv @ mat @ basis
        for i in range(spec.dimension):
            for j in range(spec.dimension):
                pi, pj = _piece(i), _piece(j)
                if pi != pj and min(pi, pj) < 2 and conj.rows[i][j] != 0:
                    raise NotBlockCompatible(
                        f"linear part does not preserve the isotypic "
                        f"pieces (entry {i},{j} nonzero)")
        return RationalMatrix([[conj.rows[i][j] for j in range(mt, mt + kt)]
                               for i in range(mt, mt + kt)]) if kt else None

    d_tau = blocks(map_f.linear)
    e_tau = blocks(map_g.linear)

    coin = coincidence_numbers(spec, map_f, map_g, 1)
    lef = coin.lefschetz
    if kt == 0:
        case, predicted, s1, s2 = 1, abs(lef), 0, 0
    else:
        d1 = det(e_tau - d_tau)
        d2 = det(e_tau + d_tau)
        s1 = (d1 > 0) - (d1 < 0)
        s2 = (d2 > 0) - (d2 < 0)
        if d1 * d2 >= 0:
            case, predicted = 2, abs(lef)
        else:
            # the index-2 subgroup: powers of the generator's square
            group = validate_spec(spec)
            g = dec.generator_label
            sq = group.products[g, g]
            half = [group.identity]
            while (p := group.products[half[-1], sq]) != group.identity:
                half.append(p)
            sub = ManifoldSpec(spec.name + "0", spec.dimension,
                               tuple((l, spec.matrix(l)) for l in half))
            lef0 = coincidence_numbers(sub, map_f, map_g, 1).lefschetz
            case, predicted = 3, abs(lef0 - lef)
    if coin.nielsen != predicted:
        raise TrichotomyMismatch(
            f"case {case} predicts N = {predicted} but averaging gives "
            f"{coin.nielsen}")
    return TrichotomyReport(case, predicted, coin.nielsen, s1, s2, mt, kt)


# --------------------------------------------------------------------------
# torus periodic-point oracle
# --------------------------------------------------------------------------


def _snf_diagonal(a: list[list[int]]) -> list[int]:
    """Diagonal of an integer Smith-type reduction (no divisibility
    normalization; the absolute product is what matters here)."""
    n = len(a)
    diag = []
    a = [row[:] for row in a]
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
    rows = [[int(x) for x in r] for r in m.rows]
    diag = _snf_diagonal(rows)
    if any(v == 0 for v in diag):
        raise DegenerateFixedSet(
            f"det(I - D^{n}) = 0: fixed set is a subtorus")
    count = 1
    for v in diag:
        count *= abs(v)
    return count
