"""Input model: flat-quotient manifold data and affine self-maps.

A manifold is described by its dimension and the finite holonomy group,
given as exact rational matrices; a self-map by the linear part D of an
affine lift (plus an optional translation, echoed but never needed by
the invariant formulas).  This module validates that data, checks that
D is compatible with the holonomy, splits the holonomy by orientation
behaviour on the expanding subspace of D, and decides whether the
Reidemeister zeta function can exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .algebra import (AveragingKernel, Polynomial, RationalMatrix, _int_matmul,
                      _integer_form, _strip_root, as_rational, char_poly,
                      classify_eigenvalues, has_root_of_unity_eigenvalue,
                      max_root_of_unity_order)
from .errors import (DimensionMismatch, InfiniteOrderElement, NotAGroup,
                     NonInvariantSubspace)


@dataclass(frozen=True)
class ManifoldSpec:
    """Finite holonomy data for a flat-quotient manifold.

    holonomy maps labels to exact rational matrices; it must form a
    group under matrix product (checked by validate_spec, which parsing
    and build_report call; the result is kept on the spec object).
    """

    name: str
    dimension: int
    holonomy: tuple[tuple[str, RationalMatrix], ...]

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
        from .algebra import det
        return all(det(m) == 1 for _, m in self.holonomy)

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


@dataclass(frozen=True)
class AffineMapSpec:
    """Affine self-map data: linear part D and optional translation."""

    label: str
    linear: RationalMatrix
    translation: tuple[Fraction, ...] | None = None

    @staticmethod
    def make(label: str, linear, translation=None) -> "AffineMapSpec":
        lin = linear if isinstance(linear, RationalMatrix) else RationalMatrix(linear)
        tr = None if translation is None else tuple(as_rational(t) for t in translation)
        return AffineMapSpec(str(label), lin, tr)


@dataclass(frozen=True)
class ValidationReport:
    """A validated holonomy group: orientability, each element's order,
    and its multiplication table (label pair -> label of the product)."""

    orientable: bool
    element_orders: tuple[tuple[str, int], ...]
    products: MappingProxyType = field(repr=False, compare=False)
    identity: str


def validate_spec(spec: ManifoldSpec) -> ValidationReport:
    """Check the holonomy is a finite matrix group of the right size.

    Raises DimensionMismatch, NotAGroup, or InfiniteOrderElement; on
    success reports orientability, each element's order and the
    multiplication table.  The closure check takes the |Phi|^2 matrix
    products once; inverses and orders are read from the table.  The
    report is kept on the spec object, so later calls with the same
    object read it back.
    """
    return spec._group


def _check_group(spec: ManifoldSpec) -> ValidationReport:
    from .algebra import det
    n = spec.dimension
    if n < 1:
        raise DimensionMismatch("dimension must be >= 1")
    if not spec.holonomy:
        raise NotAGroup("holonomy is empty")
    labels = spec.labels()
    if len(set(labels)) != len(labels):
        raise NotAGroup("duplicate holonomy labels")
    mats = {}
    for l, m in spec.holonomy:
        if m.dim != n:
            raise DimensionMismatch(
                f"holonomy element {l!r} is {m.dim}x{m.dim}, expected {n}x{n}")
        if m in mats:
            raise NotAGroup(f"elements {mats[m]!r} and {l!r} share a matrix")
        mats[m] = l
    ident = mats.get(RationalMatrix.identity(n))
    if ident is None:
        raise NotAGroup("holonomy does not contain the identity")
    products = {}
    dets = []
    for l, m in spec.holonomy:
        dets.append(det(m))
        if dets[-1] == 0:
            raise NotAGroup(f"element {l!r} is singular")
        for l2, m2 in spec.holonomy:
            p = mats.get(m @ m2)
            if p is None:
                raise NotAGroup(f"product {l!r}*{l2!r} is not in the holonomy")
            products[l, l2] = p
    # closure + identity + finiteness make inverses automatic, but check
    # explicitly so the failure message is precise
    for l in labels:
        if not any(products[l, l2] == ident for l2 in labels):
            raise NotAGroup(f"element {l!r} has no inverse in the holonomy")
    orders = []
    for l in labels:
        p = l
        order = 1
        while p != ident:
            p = products[p, l]
            order += 1
            if order > spec.order:
                raise InfiniteOrderElement(f"element {l!r} has order > {spec.order}")
        orders.append((l, order))
    return ValidationReport(all(d == 1 for d in dets), tuple(orders),
                            MappingProxyType(products), ident)


def ensure_compatible(spec: ManifoldSpec, mapping: AffineMapSpec) -> None:
    """Check that the map fits the averaging formulas: its sizes match the
    manifold, and its linear part D is compatible with the holonomy, so
    every element A has some A' in the holonomy with D A = A' D.  Raises
    DimensionMismatch or NonInvariantSubspace."""
    if mapping.linear.dim != spec.dimension:
        raise DimensionMismatch(
            f"map {mapping.label!r} linear part is {mapping.linear.dim}-dimensional, "
            f"manifold is {spec.dimension}-dimensional")
    if mapping.translation is not None and len(mapping.translation) != spec.dimension:
        raise DimensionMismatch("translation length does not match dimension")
    label = _incompatible_element(spec, mapping.linear)
    if label is not None:
        raise NonInvariantSubspace(
            f"map {mapping.label!r} is incompatible with holonomy element "
            f"{label!r}: D*A = A'*D holds for no holonomy element A'")


@lru_cache(maxsize=8)
def _incompatible_element(spec: ManifoldSpec, linear: RationalMatrix) -> str | None:
    """The label of the first holonomy element A for which no A' gives
    D A = A' D, or None when D is compatible.  The |Phi| products A' D
    are hashed once and each D A is looked up, all on integer forms over
    one shared denominator; kept per (spec, D), so a report checks each
    map once."""
    mats, _ = _integer_form([a for _, a in spec.holonomy])
    (d,), _ = _integer_form([linear])
    right = {tuple(map(tuple, _int_matmul(a, d))) for a in mats}
    for (label, _), a in zip(spec.holonomy, mats):
        if tuple(map(tuple, _int_matmul(d, a))) not in right:
            return label
    return None


@dataclass(frozen=True)
class PlusSplit:
    """Holonomy split by orientation behaviour on the expanding subspace.

    plus_membership: label -> True when the element acts with
    determinant +1 on the expanding spectral subspace of D.
    is_proper: True when the plus part is a proper (index-2) subgroup.
    p / n: exact counts of real eigenvalues of D above 1 / below -1.
    """

    plus_membership: tuple[tuple[str, bool], ...]
    is_proper: bool
    p: int
    n: int
    expanding_dim: int

    def plus_labels(self) -> list[str]:
        return [l for l, inside in self.plus_membership if inside]

    def member(self, label: str) -> bool:
        for l, inside in self.plus_membership:
            if l == label:
                return inside
        raise KeyError(label)


def compute_plus_split(spec: ManifoldSpec, mapping: AffineMapSpec,
                       tol: float = 1e-10) -> PlusSplit:
    """Determine, exactly, which holonomy elements preserve orientation
    on the expanding subspace of the map's linear part D.

    For compatible D, (A D)^k = B_k D^k with B_k in the holonomy, so A D
    expands exactly on the quotient by the non-expanding subspace of D,
    which the holonomy preserves.  There the signs of det(A) and det(D)
    multiply to (-1)^(number of real eigenvalues of A D below -1), so A
    is in the plus part exactly when that number has the parity of n,
    the count for D itself.  tol reaches only the classification of D
    (p, n and the expanding dimension).
    """
    ensure_compatible(spec, mapping)
    d_mat = mapping.linear
    cls = classify_eigenvalues(d_mat, tol)
    membership = tuple((l, _odd_roots_below_minus_one(char_poly(a @ d_mat))
                        == (cls.n % 2 == 1))
                       for l, a in spec.holonomy)
    is_proper = not all(inside for _, inside in membership)
    return PlusSplit(membership, is_proper, cls.p, cls.n, cls.expanding_count)


def _odd_roots_below_minus_one(p: Polynomial) -> bool:
    """Whether monic p has an odd number of real roots below -1, counted
    with multiplicity: with its roots -1 removed, p changes sign between
    -infinity and -1 exactly then."""
    q, _ = _strip_root(p, Fraction(-1))
    return (q(Fraction(-1)) > 0) != (q.degree % 2 == 0)


def plus_subgroup_spec(spec: ManifoldSpec, split: PlusSplit) -> ManifoldSpec:
    """The manifold data of the orientation-preserving double cover
    associated with a proper split (or the same spec when not proper)."""
    if not split.is_proper:
        return spec
    kept = tuple((l, m) for l, m in spec.holonomy if split.member(l))
    return ManifoldSpec(spec.name + "+", spec.dimension, kept)


def is_virtually_unipotent(spec: ManifoldSpec, mapping: AffineMapSpec,
                           tol: float = 1e-10) -> bool:
    """True when every eigenvalue of the linear part lies on the unit
    circle (decided exactly)."""
    ensure_compatible(spec, mapping)
    cls = classify_eigenvalues(mapping.linear, tol)
    return cls.unit_modulus_count == spec.dimension


@dataclass(frozen=True)
class ZetaDefinedness:
    """Outcome of the Reidemeister-zeta definedness scan.

    status is 'defined' (no root-of-unity eigenvalue, so every R(f^n) is
    finite) or 'undefined' (witness iterate and holonomy label recorded).
    """

    status: str
    witness_n: int | None = None
    witness_label: str | None = None


def reidemeister_zeta_defined(spec: ManifoldSpec,
                              mapping: AffineMapSpec) -> ZetaDefinedness:
    """Decide definedness of the Reidemeister zeta function.

    Without root-of-unity eigenvalues all R(f^n) are finite: defined.
    Otherwise the first n with det(I - A D^n) = 0 (exactly) is the
    undefined witness.  Scanning n <= max_root_of_unity_order(dim)
    always finds one: a primitive k-th root of unity among the
    eigenvalues has phi(k) <= dim and makes det(I - D^k) vanish, and
    the identity is in the holonomy.
    """
    ensure_compatible(spec, mapping)
    return _zeta_definedness(spec, mapping, AveragingKernel(
        [a for _, a in spec.holonomy], mapping.linear))


def _zeta_definedness(spec: ManifoldSpec, mapping: AffineMapSpec,
                      kernel: AveragingKernel) -> ZetaDefinedness:
    """The definedness scan over the fixed-point determinants of kernel,
    the averaging kernel of (spec, mapping)."""
    if not has_root_of_unity_eigenvalue(mapping.linear):
        return ZetaDefinedness("defined")
    for n in range(1, max_root_of_unity_order(spec.dimension) + 1):
        dets, _ = kernel.fixed_point_dets(n)
        for (l, _), v in zip(spec.holonomy, dets):
            if v == 0:
                return ZetaDefinedness("undefined", witness_n=n, witness_label=l)
    raise NotAGroup("holonomy does not contain the identity")
