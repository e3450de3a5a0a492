"""Input model: flat-quotient manifold data and affine self-maps.

A manifold is described by its dimension and the finite holonomy group,
given as exact rational matrices; a self-map by the linear part D of an
affine lift (plus an optional translation, echoed but never needed by
the invariant formulas).  This module validates that data, reads the
ranks of the holonomy's averaged exterior powers (which bound the zeta
degrees), checks that D is compatible with the holonomy, builds the
averaging kernel of each problem, splits the holonomy by orientation
behaviour on the expanding subspace of D, and decides whether the
Reidemeister zeta function can exist at all.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .algebra import (AveragingKernel, EigenClassification, RationalMatrix,
                      _berkowitz, _int_matmul, _integer_form, as_rational,
                      classify_eigenvalues, max_root_of_unity_order)
from .errors import DimensionMismatch, NonInvariantSubspace, NotAGroup


class ManifoldSpec(namedtuple("ManifoldSpec", "name dimension holonomy")):
    """Finite holonomy data for a flat-quotient manifold.

    holonomy maps labels to exact rational matrices; it must form a
    group under matrix product (checked by validate_spec, which parsing
    and build_report call; the result is kept on the spec object).
    Fields: name (str), dimension (int), holonomy (a tuple of
    (label, RationalMatrix) pairs).
    """

    @staticmethod
    def make(name: str, dimension: int, holonomy) -> "ManifoldSpec":
        return ManifoldSpec(name, int(dimension),
                            tuple((str(l), m if isinstance(m, RationalMatrix)
                                   else RationalMatrix(m)) for l, m in holonomy))

    @property
    def order(self) -> int:
        return len(self.holonomy)

    @property
    def orientable(self) -> bool:
        """Whether every holonomy element has determinant 1, as decided
        by validate_spec (an invalid spec raises its validation error)."""
        return self._group.orientable

    def labels(self) -> list[str]:
        return [l for l, _ in self.holonomy]

    def matrix(self, label: str) -> RationalMatrix:
        for l, m in self.holonomy:
            if l == label:
                return m
        raise KeyError(label)

    @cached_property
    def _group(self) -> "ValidationReport":
        return _check_group(self)

    def __reduce__(self):
        # copies leave the cached group table behind; it is rebuilt on use
        return ManifoldSpec, (self.name, self.dimension, self.holonomy)


class AffineMapSpec(namedtuple("AffineMapSpec", "label linear translation",
                               defaults=(None,))):
    """Affine self-map data: label (str), linear part D (a
    RationalMatrix) and optional translation (a tuple of Fractions, or
    None)."""

    @staticmethod
    def make(label: str, linear, translation=None) -> "AffineMapSpec":
        lin = linear if isinstance(linear, RationalMatrix) else RationalMatrix(linear)
        tr = None if translation is None else tuple(as_rational(t) for t in translation)
        return AffineMapSpec(str(label), lin, tr)

    @cached_property
    def spectrum(self) -> EigenClassification:
        """classify_eigenvalues of the linear part, kept on the object
        for every spectral reader of the map."""
        return classify_eigenvalues(self.linear)


class ValidationReport(namedtuple("ValidationReport",
                                  "orientable element_orders identity")):
    """A validated holonomy group: orientability, each element's order,
    its multiplication table (label pair -> label of the product), and
    per element, in holonomy order, the integers e_0(A), ..., e_dim(A):
    the elementary symmetric functions of its eigenvalues, so
    e_i(A) = tr Lambda^i A and e_dim(A) = det A.  They come from the
    integer Berkowitz polynomial of each element.  The table (products,
    a read-only mapping) and the e_i (exterior_traces) are kept beside
    the tuple, outside ==, hash and repr."""

    def __new__(cls, orientable, element_orders, identity, products=None,
                exterior_traces=()):
        self = super().__new__(cls, orientable, element_orders, identity)
        self.products, self.exterior_traces = products, exterior_traces
        return self

    def _replace(self, **changes):
        return type(self)(*super()._replace(**changes), self.products,
                          self.exterior_traces)


def validate_spec(spec: ManifoldSpec) -> ValidationReport:
    """Check the holonomy is a finite matrix group of the right size.

    Raises DimensionMismatch or NotAGroup; on success reports
    orientability, each element's order and the multiplication table.
    The elements must be distinct and nonsingular, include the identity
    and be closed under products: a finite set of invertible matrices
    closed under products is a group, so inverses need no check.  The
    closure check takes the |Phi|^2 products once, on the integer forms
    A_int of the elements over one common denominator q: A B is the
    element A' with A_int B_int = q A'_int.  Orders are read from the
    table.  The report is kept on the spec object, so later calls with
    the same object read it back.
    """
    return spec._group


def _check_group(spec: ManifoldSpec) -> ValidationReport:
    n = spec.dimension
    if n < 1:
        raise DimensionMismatch("dimension must be >= 1")
    if not spec.holonomy:
        raise NotAGroup("holonomy is empty")
    labels = spec.labels()
    if len(set(labels)) != len(labels):
        raise NotAGroup("duplicate holonomy labels")
    # A = A_int / q with one common q, so A B = A' exactly when
    # A_int B_int = q A'_int: elements are looked up by the integer
    # tuples of q A_int
    ints, q = _integer_form([m for _, m in spec.holonomy])
    scaled = {}
    for (l, m), a in zip(spec.holonomy, ints):
        if m.dim != n:
            raise DimensionMismatch(
                f"holonomy element {l!r} is {m.dim}x{m.dim}, expected {n}x{n}")
        key = a if q == 1 else tuple(tuple(q * x for x in row) for row in a)
        if key in scaled:
            raise NotAGroup(f"elements {scaled[key]!r} and {l!r} share a matrix")
        scaled[key] = l
    # the identity's integer form is q I, so its key is q^2 I
    ident = scaled.get(tuple(tuple(q * q * (i == j) for j in range(n))
                             for i in range(n)))
    if ident is None:
        raise NotAGroup("holonomy does not contain the identity")
    products = {}
    polys = []
    for l, a in zip(labels, ints):
        polys.append(_berkowitz(a))
        if polys[-1][-1] == 0:
            raise NotAGroup(f"element {l!r} is singular")
        for l2, b in zip(labels, ints):
            p = scaled.get(tuple(map(tuple, _int_matmul(a, b))))
            if p is None:
                raise NotAGroup(f"product {l!r}*{l2!r} is not in the holonomy")
            products[l, l2] = p
    # the holonomy is a group (see validate_spec), so the powers of each
    # element reach the identity within |Phi| steps
    orders = []
    for l in labels:
        p, order = l, 1
        while p != ident:
            p, order = products[p, l], order + 1
        orders.append((l, order))
    # det(zI - A) = sum_i (-1)^i e_i(A) z^(dim-i), and A = A_int / q.  An
    # element of finite order has integer e_i(A) (rational sums of
    # products of roots of unity), so the divisions below are exact.
    traces = tuple(tuple((-1) ** i * c // q ** i for i, c in enumerate(poly))
                   for poly in polys)
    return ValidationReport(all(e[-1] == 1 for e in traces), tuple(orders),
                            ident, MappingProxyType(products), traces)


def exterior_ranks(spec: ManifoldSpec, members=None) -> tuple[int, int]:
    """(E, O): the sums over even and over odd i of r_i, the rank of the
    averaged exterior power P_i = (1/|Phi'|) sum_A Lambda^i A over the
    subgroup Phi' of the holonomy (all of it, or the elements at the
    indices members).  P_i is a projection, so r_i = tr P_i =
    (1/|Phi'|) sum_A e_i(A), an integer for a subgroup; a remainder
    raises NotAGroup."""
    traces = validate_spec(spec).exterior_traces
    if members is not None:
        traces = [traces[k] for k in members]
    sums = [0, 0]
    for i, column in enumerate(zip(*traces)):
        r, rem = divmod(sum(column), len(traces))
        if rem:
            raise NotAGroup(
                f"the averaged exterior power {i} has trace "
                f"{Fraction(sum(column), len(traces))}, not an integer rank")
        sums[i % 2] += r
    return sums[0], sums[1]


def ensure_compatible(spec: ManifoldSpec, mapping: AffineMapSpec) -> None:
    """Check that the map fits the averaging formulas: its sizes match the
    manifold, and its linear part D is compatible with the holonomy, so
    every element A has some A' in the holonomy with D A = A' D.  The
    holonomy is validated first (see validate_spec), so an invalid spec
    raises its validation error; otherwise raises DimensionMismatch or
    NonInvariantSubspace.  The |Phi| products A' D are hashed once and
    each D A looked up, on integer forms over one shared denominator."""
    validate_spec(spec)
    if mapping.linear.dim != spec.dimension:
        raise DimensionMismatch(
            f"map {mapping.label!r} linear part is {mapping.linear.dim}-dimensional, "
            f"manifold is {spec.dimension}-dimensional")
    if mapping.translation is not None and len(mapping.translation) != spec.dimension:
        raise DimensionMismatch("translation length does not match dimension")
    mats, _ = _integer_form([a for _, a in spec.holonomy])
    d = mapping.linear.ints
    right = {tuple(map(tuple, _int_matmul(a, d))) for a in mats}
    for (label, _), a in zip(spec.holonomy, mats):
        if tuple(map(tuple, _int_matmul(d, a))) not in right:
            raise NonInvariantSubspace(
                f"map {mapping.label!r} is incompatible with holonomy element "
                f"{label!r}: D*A = A'*D holds for no holonomy element A'")


@lru_cache(maxsize=1)
def averaging_kernel(spec: ManifoldSpec, *maps: AffineMapSpec) -> AveragingKernel:
    """The averaging kernel of one problem, (spec, f) or the coincidence
    pair (spec, f, g), after ensure_compatible on each map.  Every
    (spec, map) entry point reads it, directly or through
    invariants.map_context, and so validates.  Only the most recent
    problem is kept, as with map_context.  The maps are positional, so
    every caller asking about one problem hits the same entry."""
    for mapping in maps:
        ensure_compatible(spec, mapping)
    return AveragingKernel([a for _, a in spec.holonomy],
                           *(m.linear for m in maps))


class PlusSplit(namedtuple("PlusSplit", "plus_membership is_proper p n")):
    """Holonomy split by orientation behaviour on the expanding subspace.

    plus_membership: (label, True when the element acts with
    determinant +1 on the expanding spectral subspace of D) pairs.
    is_proper: True when the plus part is a proper (index-2) subgroup.
    p / n: exact counts of real eigenvalues of D above 1 / below -1.
    """

    __slots__ = ()

    def plus_indices(self) -> list[int]:
        """Positions in the holonomy of the plus part's elements."""
        return [i for i, (_, inside) in enumerate(self.plus_membership)
                if inside]


def compute_plus_split(spec: ManifoldSpec, mapping: AffineMapSpec) -> PlusSplit:
    """Determine, exactly, which holonomy elements preserve orientation
    on the expanding subspace of the map's linear part D.

    For compatible D, (A D)^k = B_k D^k with B_k in the holonomy, so A D
    expands exactly on the quotient by the non-expanding subspace of D,
    which the holonomy preserves.  There the signs of det(A) and det(D)
    multiply to (-1)^(number of real eigenvalues of A D below -1), so A
    is in the plus part exactly when that number has the parity of n,
    the count for D itself.  Each parity is read on integers, from one
    Berkowitz polynomial per element (see _odd_roots_below_minus_one).
    """
    averaging_kernel(spec, mapping)
    d_mat = mapping.linear
    cls = mapping.spectrum
    membership = tuple((l, _odd_roots_below_minus_one(a @ d_mat)
                        == (cls.n % 2 == 1))
                       for l, a in spec.holonomy)
    is_proper = not all(inside for _, inside in membership)
    return PlusSplit(membership, is_proper, cls.p, cls.n)


def _odd_roots_below_minus_one(m: RationalMatrix) -> bool:
    """Whether m has an odd number of real eigenvalues below -1, counted
    with multiplicity.  For m = M_int / t the monic Berkowitz polynomial
    c of M_int (highest degree first) has the roots t lambda.  With its
    roots -t removed by synthetic division, whose remainder is the value
    at -t, c changes sign between -t and -infinity exactly then."""
    t = m.den
    c = _berkowitz(m.ints)
    while True:
        q = list(itertools.accumulate(c, lambda acc, x: acc * -t + x))
        if q[-1]:
            # c is positive at -infinity exactly when its degree is even
            return (q[-1] > 0) != (len(c) % 2 == 1)
        c = q[:-1]


def is_virtually_unipotent(spec: ManifoldSpec, mapping: AffineMapSpec) -> bool:
    """True when every eigenvalue of the linear part lies on the unit
    circle (decided exactly)."""
    averaging_kernel(spec, mapping)
    return mapping.spectrum.unit_modulus_count == spec.dimension


class ZetaDefinedness(namedtuple("ZetaDefinedness",
                                 "status witness_n witness_label",
                                 defaults=(None, None))):
    """Outcome of the Reidemeister-zeta definedness scan.

    status is 'defined' (no root-of-unity eigenvalue, so every R(f^n) is
    finite) or 'undefined' (witness iterate and holonomy label recorded
    in witness_n and witness_label, else None).
    """

    __slots__ = ()


def reidemeister_zeta_defined(spec: ManifoldSpec,
                              mapping: AffineMapSpec) -> ZetaDefinedness:
    """Decide definedness of the Reidemeister zeta function.

    Without root-of-unity eigenvalues all R(f^n) are finite: defined.
    Otherwise the first n with det(I - A D^n) = 0 (exactly) is the
    undefined witness, read from the problem's averaging kernel.
    Scanning n <= max_root_of_unity_order(dim) always finds one: a
    primitive k-th root of unity among the eigenvalues has phi(k) <= dim
    and makes det(I - D^k) vanish, and the identity is in the holonomy.
    """
    kernel = averaging_kernel(spec, mapping)
    if not mapping.spectrum.root_of_unity_eigenvalue:
        return ZetaDefinedness("defined")
    for n in range(1, max_root_of_unity_order(spec.dimension) + 1):
        (dets, _), = kernel.fixed_point_dets([n])
        for (l, _), v in zip(spec.holonomy, dets):
            if v == 0:
                return ZetaDefinedness("undefined", witness_n=n, witness_label=l)
    raise NotAGroup("holonomy does not contain the identity")
