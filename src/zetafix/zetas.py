"""Zeta functions of iterate-invariant sequences, with functional
equation, asymptotics, and torsion special values.

Every zeta here is exp(sum a_n z^n / n) for an integer sequence a_n and
is reconstructed as an exact rational function.  The Nielsen zeta is
built twice, once directly from its sequence and once from Lefschetz
zetas through the eigenvalue-sign formula, and the two are required to
agree exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import classify_eigenvalues, det
from .errors import (NielsenFormulaMismatch, NonAcyclicBundle, NotConstantRatio,
                     RadiusMismatch, ZetaUndefined)
from .invariants import (lefschetz_sequence, nielsen_sequence,
                         reidemeister_sequence)
from .manifolds import (AffineMapSpec, ManifoldSpec, PlusSplit,
                        ZetaDefinedness, compute_plus_split,
                        plus_subgroup_spec, reidemeister_zeta_defined)
from .ratfunc import (RationalFunction, radius_of_convergence,
                      substitute_reciprocal_scale, zeta_from_terms)


@dataclass(frozen=True)
class Construction:
    """How a zeta function was assembled: "direct" reconstruction from
    its own sequence, or the "sign-formula" route through Lefschetz
    zetas (case "plus-equal" when the plus subgroup is everything,
    "plus-proper" otherwise)."""

    kind: str
    case: str | None = None
    p: int | None = None
    n: int | None = None


@dataclass(frozen=True)
class ZetaResult:
    which: str                  # Lefschetz | Nielsen | Reidemeister | ArtinMazur
    function: RationalFunction
    construction: Construction


class MapContext:
    """Everything computed for one (spec, map, tolerance): the L, N and R
    sequences (each caching its terms and the powers of D), the plus
    split, the Reidemeister definedness, and the Lefschetz and Nielsen
    zetas.  Obtain it from map_context, so that every caller asking
    about the same problem shares one instance."""

    def __init__(self, spec: ManifoldSpec, mapping: AffineMapSpec, tol: float):
        self.spec, self.mapping, self.tol = spec, mapping, tol
        self.l_seq = lefschetz_sequence(spec, mapping)
        self.n_seq = nielsen_sequence(spec, mapping)
        self.r_seq = reidemeister_sequence(spec, mapping)

    @cached_property
    def split(self) -> PlusSplit:
        return compute_plus_split(self.spec, self.mapping, tol=self.tol)

    @cached_property
    def definedness(self) -> ZetaDefinedness:
        return reidemeister_zeta_defined(self.spec, self.mapping)

    @cached_property
    def l_zeta(self) -> ZetaResult:
        return ZetaResult("Lefschetz", zeta_from_terms(self.l_seq),
                          Construction("direct"))

    @cached_property
    def n_zeta(self) -> ZetaResult:
        split = self.split
        direct = zeta_from_terms(self.n_seq)
        scale = (-1) ** split.n
        lf = self.l_zeta.function.compose_scale(scale)
        if split.is_proper:
            lplus = zeta_from_terms(lefschetz_sequence(plus_subgroup_spec(
                self.spec, split), self.mapping)).compose_scale(scale)
            num, den = lplus.num * lf.den, lplus.den * lf.num
            case = "plus-proper"
        else:
            num, den = lf.num, lf.den
            case = "plus-equal"
        if (-1) ** (split.p + split.n) != 1:
            num, den = den, num
        # compare by cross-multiplication; reduce num/den only to report
        if num * direct.den != den * direct.num:
            raise NielsenFormulaMismatch(
                f"sign-formula zeta {RationalFunction(num, den)} differs "
                f"from direct reconstruction {direct}")
        return ZetaResult("Nielsen", direct,
                          Construction("sign-formula", case, split.p, split.n))


@lru_cache(maxsize=1)
def map_context(spec: ManifoldSpec, mapping: AffineMapSpec,
                tol: float) -> MapContext:
    """The shared context of one problem.  Only the most recent one is
    kept, so a context never outlives the next problem asked about."""
    return MapContext(spec, mapping, tol)


def lefschetz_zeta(spec: ManifoldSpec, mapping: AffineMapSpec) -> ZetaResult:
    """L_f(z) = exp(sum L(f^n) z^n / n), reconstructed exactly."""
    return map_context(spec, mapping, 1e-10).l_zeta


def nielsen_zeta(spec: ManifoldSpec, mapping: AffineMapSpec,
                 tol: float = 1e-10) -> ZetaResult:
    """N_f(z) by the sign formula N_f(z) = L_f((-1)^n z)^((-1)^(p+n))
    (or the quotient with the plus-cover Lefschetz zeta when the plus
    subgroup is proper), cross-checked exactly against direct
    reconstruction from the Nielsen sequence."""
    return map_context(spec, mapping, tol).n_zeta


def reidemeister_zeta(spec: ManifoldSpec, mapping: AffineMapSpec,
                      tol: float = 1e-10) -> ZetaResult:
    """R_f(z), which equals N_f(z) whenever all R(f^n) are finite.
    Raises ZetaUndefined, with a witness iterate, when some R(f^n) is
    infinite."""
    ctx = map_context(spec, mapping, tol)
    d = ctx.definedness
    if d.status == "undefined":
        raise ZetaUndefined(
            f"R(f^{d.witness_n}) is infinite (holonomy element "
            f"{d.witness_label!r})",
            witness_n=d.witness_n, witness_label=d.witness_label,
            status="undefined")
    return replace(ctx.n_zeta, which="Reidemeister")


def artin_mazur_zeta(spec: ManifoldSpec, mapping: AffineMapSpec,
                     tol: float = 1e-10) -> ZetaResult:
    """Periodic-point zeta; every fixed point class of an iterate is
    essential and isolated here, so it coincides with the Nielsen zeta."""
    return replace(map_context(spec, mapping, tol).n_zeta, which="ArtinMazur")


@dataclass(frozen=True)
class FunctionalEquationReport:
    holds: bool
    epsilon: Fraction
    degree_d: Fraction
    case: str          # plus-equal | plus-proper


def verify_functional_equation(spec: ManifoldSpec, mapping: AffineMapSpec,
                               zeta: ZetaResult,
                               tol: float = 1e-10) -> FunctionalEquationReport:
    """Check zeta(1/(dz)) = zeta(z)^(+-(-1)^m) * constant with d the
    degree of the map (det of the linear part) and m the dimension,
    and unwind the constant into the equation's epsilon.

    For Nielsen-type zetas the constant is epsilon^((-1)^(p+n)) when
    the plus subgroup is everything and epsilon^(-1) when it is proper;
    for the Lefschetz zeta it is epsilon itself (the Euler
    characteristic is 0, so no power of z survives).
    """
    if not spec.orientable:
        raise ValueError("functional equation requires an orientable manifold")
    d = det(mapping.linear)
    if d == 0:
        raise ValueError("degree of the map is zero")
    split = map_context(spec, mapping, tol).split
    case = "plus-proper" if split.is_proper else "plus-equal"
    m = spec.dimension
    g = substitute_reciprocal_scale(zeta.function, d)
    h = zeta.function ** ((-1) ** m)
    # g/h is the constant c iff g.num * h.den = c * g.den * h.num
    top, bottom = g.num * h.den, g.den * h.num
    c = Fraction(0) if top.is_zero else top.leading() / bottom.leading()
    if top != bottom * c:
        raise NotConstantRatio(
            f"zeta(1/(dz)) / zeta(z)^((-1)^{m}) is "
            f"{RationalFunction(top, bottom)}, not a constant")
    if zeta.which == "Lefschetz":
        eps = c
    elif case == "plus-equal":
        eps = c if (-1) ** (split.p + split.n) == 1 else 1 / c
    else:
        eps = 1 / c
    return FunctionalEquationReport(True, eps, d, case)


def asymptotic_nielsen(spec: ManifoldSpec, mapping: AffineMapSpec,
                      tol: float = 1e-10) -> float:
    """Growth rate N_infinity = limsup N(f^n)^(1/n): the product of the
    expanding eigenvalue moduli of the linear part, at least 1.  Warns
    when 1 is an eigenvalue, where the spectral formula can fail."""
    cls = classify_eigenvalues(mapping.linear, tol=tol)
    if cls.one_in_spectrum:
        warnings.warn("1 is an eigenvalue of the linear part; the "
                      "spectral growth formula is not guaranteed",
                      stacklevel=2)
    return max(1.0, math.exp(cls.expanding_log_product))


def entropy_lower_bound(spec: ManifoldSpec, mapping: AffineMapSpec,
                        tol: float = 1e-10) -> float:
    """log of the asymptotic Nielsen number: the topological entropy of
    the affine representative and a lower bound for every map in the
    homotopy class."""
    cls = classify_eigenvalues(mapping.linear, tol=tol)
    return max(0.0, cls.expanding_log_product)


def radius_report(spec: ManifoldSpec, mapping: AffineMapSpec,
                  zeta: ZetaResult, tol: float = 1e-10) -> float:
    """Radius of convergence of the zeta's power series.  For
    Nielsen-type zetas this must equal 1/N_infinity; the product
    radius * N_infinity is checked against 1 within 1e-6 unless 1 is
    an eigenvalue of the linear part (where the growth formula does
    not apply and the check is suppressed with a warning)."""
    r = radius_of_convergence(zeta.function)
    if zeta.which == "Lefschetz":
        return r
    if classify_eigenvalues(mapping.linear, tol=tol).one_in_spectrum:
        warnings.warn("1 is an eigenvalue of the linear part; skipping "
                      "the radius cross-check", stacklevel=2)
        return r
    n_inf = asymptotic_nielsen(spec, mapping, tol=tol)
    if math.isinf(r) or abs(r * n_inf - 1.0) > 1e-6:
        raise RadiusMismatch(
            f"radius {r} times growth rate {n_inf} is not 1")
    return r


def torsion_special_value(zeta: ZetaResult, lam: complex,
                          zeta_plus: ZetaResult | None = None) -> float:
    """Special value 1/|zeta(lam)| at a unit-modulus point lam, the
    absolute torsion of the associated mapping-torus bundle.  With a
    plus-cover zeta the pair value |zeta_plus(lam)/zeta(lam)| is
    returned instead.  Points where either function has a zero or pole
    are rejected: the twisted bundle is not acyclic there."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("special values live on the unit circle")

    def _value(zr: ZetaResult) -> complex:
        num = complex(zr.function.num(lam))
        den = complex(zr.function.den(lam))
        scale = max(1.0, max((abs(complex(c)) for c in zr.function.num.coeffs),
                             default=1.0),
                    max((abs(complex(c)) for c in zr.function.den.coeffs),
                        default=1.0))
        if abs(den) <= 1e-12 * scale:
            raise NonAcyclicBundle(f"{zr.which} zeta has a pole at {lam}")
        if abs(num) <= 1e-12 * scale:
            raise NonAcyclicBundle(f"{zr.which} zeta vanishes at {lam}")
        return num / den

    v = _value(zeta)
    if zeta_plus is None:
        return 1.0 / abs(v)
    return abs(_value(zeta_plus) / v)
