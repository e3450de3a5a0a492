"""Zeta functions of iterate-invariant sequences, with functional
equation, asymptotics, and torsion special values.

Every zeta here is exp(sum a_n z^n / n) for an integer sequence a_n and
is reconstructed as an exact rational function.  The Nielsen zeta is
built from Lefschetz zetas through the eigenvalue-sign formula and
certified term by term against its own sequence: it must be the function
that a direct reconstruction from the Nielsen sequence would return.  The
sequences, their bounds and the rebuilt zetas live in one context per
(spec, map), invariants.map_context; this module reads it.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction

from .algebra import _int_poly_mul, det
from .errors import (NonAcyclicBundle, NotConstantRatio, RadiusMismatch,
                     ZetaUndefined)
from .invariants import ZetaResult, map_context
from .manifolds import AffineMapSpec, ManifoldSpec, averaging_kernel
from .ratfunc import RationalFunction, radius_of_convergence


def lefschetz_zeta(spec: ManifoldSpec, mapping: AffineMapSpec) -> ZetaResult:
    """L_f(z) = exp(sum L(f^n) z^n / n), reconstructed exactly."""
    return map_context(spec, mapping).l_zeta


def nielsen_zeta(spec: ManifoldSpec, mapping: AffineMapSpec) -> ZetaResult:
    """N_f(z) by the sign formula N_f(z) = L_f((-1)^n z)^((-1)^(p+n))
    (or, when the plus subgroup is proper, the same with the twisted
    zeta L_f+ / L_f rebuilt from L(f+^n) - L(f^n)), certified term by
    term against the Nielsen sequence (see MapContext.n_zeta)."""
    return map_context(spec, mapping).n_zeta


def reidemeister_zeta(spec: ManifoldSpec, mapping: AffineMapSpec) -> ZetaResult:
    """R_f(z), which equals N_f(z) whenever all R(f^n) are finite.
    Raises ZetaUndefined, with a witness iterate, when some R(f^n) is
    infinite."""
    ctx = map_context(spec, mapping)
    d = ctx.definedness
    if d.status == "undefined":
        raise ZetaUndefined(
            f"R(f^{d.witness_n}) is infinite (holonomy element "
            f"{d.witness_label!r})",
            witness_n=d.witness_n, witness_label=d.witness_label,
            status="undefined")
    return ctx.n_zeta._replace(which="Reidemeister")


def artin_mazur_zeta(spec: ManifoldSpec, mapping: AffineMapSpec) -> ZetaResult:
    """The Nielsen zeta, relabelled as the periodic-point zeta.

    That is the Artin-Mazur zeta exp(sum #Fix(f^n) z^n / n) under one
    hypothesis: the Reidemeister zeta is defined, i.e. det(I - A D^n)
    != 0 for every holonomy element A and every n.  Then each fixed
    point class of the affine f^n is one point of index +-1, so
    #Fix(f^n) = R(f^n) = N(f^n).  Where some det(I - A D^n) vanishes,
    the classes of A are empty or positive-dimensional, depending on
    translation parts that the spec does not carry, and the returned
    function need not be the Artin-Mazur zeta: on klein_bottle_ex1, D =
    diag(-1, 2) and the lift (x, y) -> (x, 4y) of f^2 fixes the line
    y = 0 pointwise."""
    return map_context(spec, mapping).n_zeta._replace(which="ArtinMazur")


class FunctionalEquationReport(namedtuple("FunctionalEquationReport",
                                          "holds epsilon degree_d case")):
    """Outcome of verify_functional_equation: whether it holds, the
    equation's epsilon and the map's degree d (Fractions), and the
    split's case (plus-equal | plus-proper)."""

    __slots__ = ()


def verify_functional_equation(spec: ManifoldSpec, mapping: AffineMapSpec,
                               zeta: ZetaResult) -> FunctionalEquationReport:
    """Check zeta(1/(dz)) = zeta(z)^(+-(-1)^m) * constant with d the
    degree of the map (det of the linear part) and m the dimension,
    and unwind the constant into the equation's epsilon.

    For Nielsen-type zetas the constant is epsilon^((-1)^(p+n)) when
    the plus subgroup is everything and epsilon^(-1) when it is proper;
    for the Lefschetz zeta it is epsilon itself (the Euler
    characteristic is 0, so no power of z survives).  The problem's
    context, read first, checks the map and gives the plus split.
    """
    ctx = map_context(spec, mapping)
    if not spec.orientable:
        raise ValueError("functional equation requires an orientable manifold")
    d = det(mapping.linear)
    if d == 0:
        raise ValueError("degree of the map is zero")
    split = ctx.split
    case = "plus-proper" if split.is_proper else "plus-equal"
    m = spec.dimension
    f = zeta.function
    if f.num.is_zero:
        c = Fraction(0)
    else:
        # g = f(1/(dz)) and h = f^((-1)^m) on integer coefficient lists
        # (f = num/s_num over den/s_den): g's two lifts share one scale,
        # and h's numerator and denominator are num and den, swapped for
        # odd m, so g/h = (top * t) / (bottom * b) with the scales below.
        # It is a constant iff top and bottom are proportional.
        num, den, s_num, s_den = f.num.ints, f.den.ints, f.num.den, f.den.den
        k = max(len(num), len(den)) - 1
        if m % 2 == 0:
            h_num, h_den, t, b = num, den, 1, 1
        else:
            h_num, h_den, t, b = den, num, s_den * s_den, s_num * s_num
        top = _int_poly_mul(_reciprocal_lift(num, k, d), h_den)
        bottom = _int_poly_mul(_reciprocal_lift(den, k, d), h_num)
        if [x * bottom[-1] for x in top] != [x * top[-1] for x in bottom]:
            ratio = RationalFunction([x * t for x in top], [x * b for x in bottom])
            raise NotConstantRatio(
                f"zeta(1/(dz)) / zeta(z)^((-1)^{m}) is {ratio}, not a constant")
        c = Fraction(top[-1] * t, bottom[-1] * b)
    if zeta.which == "Lefschetz":
        eps = c
    elif case == "plus-equal":
        eps = c if (-1) ** (split.p + split.n) == 1 else 1 / c
    else:
        eps = 1 / c
    return FunctionalEquationReport(True, eps, d, case)


def _reciprocal_lift(c: list[int], k: int, d: Fraction) -> list[int]:
    """q^k (dz)^k c(1/(dz)) for d = p/q on integer coefficients:
    coefficient k - j is c_j p^(k-j) q^j."""
    p, q = d.numerator, d.denominator
    out = [0] * (k + 1)
    for j, x in enumerate(c):
        out[k - j] = x * p ** (k - j) * q ** j
    while out[-1] == 0:
        out.pop()
    return out


def asymptotic_nielsen(spec: ManifoldSpec, mapping: AffineMapSpec) -> float:
    """Growth rate N_infinity = limsup N(f^n)^(1/n): the product of the
    expanding eigenvalue moduli of the linear part, at least 1.  Warns
    when 1 is an eigenvalue, where the spectral formula can fail."""
    averaging_kernel(spec, mapping)
    cls = mapping.spectrum
    if cls.one_in_spectrum:
        warnings.warn("1 is an eigenvalue of the linear part; the "
                      "spectral growth formula is not guaranteed",
                      stacklevel=2)
    return max(1.0, math.exp(cls.expanding_log_product))


def entropy_lower_bound(spec: ManifoldSpec, mapping: AffineMapSpec) -> float:
    """log of the asymptotic Nielsen number: the topological entropy of
    the affine representative and a lower bound for every map in the
    homotopy class."""
    averaging_kernel(spec, mapping)
    return max(0.0, mapping.spectrum.expanding_log_product)


def radius_report(spec: ManifoldSpec, mapping: AffineMapSpec,
                  zeta: ZetaResult) -> float:
    """Radius of convergence of the zeta's power series.  For
    Nielsen-type zetas this must equal 1/N_infinity; the product
    radius * N_infinity is checked against 1 within 1e-6 unless 1 is
    an eigenvalue of the linear part (where the growth formula does
    not apply and the check is suppressed with a warning)."""
    averaging_kernel(spec, mapping)
    r = radius_of_convergence(zeta.function)
    if zeta.which == "Lefschetz":
        return r
    if mapping.spectrum.one_in_spectrum:
        warnings.warn("1 is an eigenvalue of the linear part; skipping "
                      "the radius cross-check", stacklevel=2)
        return r
    n_inf = asymptotic_nielsen(spec, mapping)
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
    are rejected: the twisted bundle is not acyclic there.  At lam = +-1
    the zeta is evaluated exactly, so only an exact zero or pole is
    rejected; elsewhere a value within 1e-12 of the coefficient scale
    counts as one."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("special values live on the unit circle")
    exact = lam in (1, -1)

    def _value(zr: ZetaResult):
        f = zr.function
        if exact:
            x = Fraction(int(lam.real))
            num, den, cut = f.num(x), f.den(x), 0
        else:
            num, den = complex(f.num(lam)), complex(f.den(lam))
            cut = 1e-12 * max([1.0] + [abs(c) / p.den for p in (f.num, f.den)
                                       for c in p.ints])
        if abs(den) <= cut:
            raise NonAcyclicBundle(f"{zr.which} zeta has a pole at {lam}")
        if abs(num) <= cut:
            raise NonAcyclicBundle(f"{zr.which} zeta vanishes at {lam}")
        return num / den

    v = _value(zeta)
    if zeta_plus is None:
        return float(1 / abs(v))
    return float(abs(_value(zeta_plus) / v))
