"""Input model: flat-quotient manifold data and affine self-maps.

A manifold is described by its dimension and the finite holonomy group,
given as exact rational matrices; a self-map by the linear part D of an
affine lift (plus an optional translation, echoed but never needed by
the invariant formulas).  This module validates that data, splits the
holonomy by orientation behaviour on the expanding subspace of D, and
decides whether the Reidemeister zeta function can exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import (AveragingKernel, RationalMatrix, as_rational,
                      classify_eigenvalues, has_root_of_unity_eigenvalue,
                      max_root_of_unity_order, spectral_isolation)
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
    if mapping.linear.dim != spec.dimension:
        raise DimensionMismatch(
            f"map {mapping.label!r} linear part is {mapping.linear.dim}-dimensional, "
            f"manifold is {spec.dimension}-dimensional")
    if mapping.translation is not None and len(mapping.translation) != spec.dimension:
        raise DimensionMismatch("translation length does not match dimension")


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
    """Determine which holonomy elements preserve orientation on the
    expanding subspace of the map's linear part.

    The expanding spectral subspace itself need not be holonomy
    invariant; its complement (the non-expanding generalized eigenspace)
    always is for consistent input, so each element's determinant on
    the expanding side is computed as det(A) / det(A restricted to the
    non-expanding subspace).  Restriction residues above 1e-6, or
    determinants that fail to round to +/-1 within 1e-6, raise
    NonInvariantSubspace.
    """
    ensure_compatible(spec, mapping)
    d_mat = mapping.linear
    cls, on_roots, off_roots = spectral_isolation(d_mat, tol)
    m = spec.dimension
    k = cls.expanding_count
    from .algebra import det as exact_det

    if k == 0:
        membership = tuple((l, True) for l, _ in spec.holonomy)
        return PlusSplit(membership, False, cls.p, cls.n, 0)

    if k == m:
        dets = {l: float(exact_det(a)) for l, a in spec.holonomy}
        basis = None
    else:
        nonexp = list(on_roots) + [r for r in off_roots if abs(r) < 1.0]
        ann = np.poly(np.array(nonexp))        # annihilator of the non-expanding part
        ann = np.real(ann)                     # roots are conjugation-closed
        df = d_mat.to_float()
        qd = np.zeros_like(df)
        for c in ann:
            qd = qd @ df + c * np.eye(m)
        # ker q(D) = non-expanding subspace, dimension m - k
        _, sing, vt = np.linalg.svd(qd)
        if k > 0 and sing[k - 1] < 1e4 * (sing[k] if k < m else 0.0) + 1e-12:
            raise NonInvariantSubspace(
                "cannot separate the expanding subspace numerically")
        basis = vt[k:].T                       # orthonormal, shape (m, m-k)
        dets = {}
        for l, a in spec.holonomy:
            af = a.to_float()
            aq = af @ basis
            restricted = basis.T @ aq
            residual = np.linalg.norm(aq - basis @ restricted)
            if residual > 1e-6 * max(1.0, np.linalg.norm(af)):
                raise NonInvariantSubspace(
                    f"holonomy element {l!r} moves the non-expanding subspace "
                    f"(residual {residual:.3e})")
            det_restricted = np.linalg.det(restricted)
            if abs(det_restricted) < 1e-9:
                raise NonInvariantSubspace(
                    f"holonomy element {l!r} degenerates on the non-expanding subspace")
            dets[l] = float(exact_det(a)) / det_restricted

    membership = []
    for l, _ in spec.holonomy:
        v = dets[l]
        if abs(v - 1.0) <= 1e-6:
            membership.append((l, True))
        elif abs(v + 1.0) <= 1e-6:
            membership.append((l, False))
        else:
            raise NonInvariantSubspace(
                f"expanding-subspace determinant of {l!r} is {v:.9f}, "
                f"not within 1e-6 of +/-1")
    membership = tuple(membership)
    is_proper = not all(inside for _, inside in membership)
    return PlusSplit(membership, is_proper, cls.p, cls.n, k)


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
