"""Exception types raised by the zetafix library.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for caller contract violations
(bad argument shapes, out-of-range parameters).
"""

from __future__ import annotations


class ZetafixError(Exception):
    """Base class for all library-specific failures."""


# ---------------------------------------------------------------- algebra


class AmbiguousClassification(ZetafixError):
    """Numeric eigenvalue isolation could not be reconciled with the exact
    unit-circle count at the requested tolerance.  Retry with a refined
    tolerance or better-conditioned input."""


# ----------------------------------------------------------- reconstruction


class InsufficientTerms(ZetafixError):
    """Too few sequence terms to pin down the minimal linear recurrence."""


class NotRational(ZetafixError):
    """The Euler-product series is not a rational function within the
    supplied degree bound."""


class PoleAtPoint(ZetafixError):
    """Evaluation point lies on (or numerically too close to) a pole."""


# --------------------------------------------------------------- manifolds


class NotAGroup(ZetafixError):
    """Holonomy matrices are not closed under product/inverse."""


class InfiniteOrderElement(ZetafixError):
    """A holonomy element has no finite order."""


class DimensionMismatch(ZetafixError):
    """A matrix does not match the declared manifold dimension."""


class NonInvariantSubspace(ZetafixError):
    """A map's linear part D is incompatible with the holonomy: for some
    element A no element A' gives D A = A' D, so the averaging formulas
    do not apply."""


# -------------------------------------------------------------- invariants


class NonIntegralLefschetz(ZetafixError):
    """The holonomy average for a Lefschetz number is not an integer."""


class NonIntegralNielsen(ZetafixError):
    """The holonomy average for a Nielsen number is not an integer."""


class NielsenFormulaMismatch(ZetafixError):
    """The sign-formula route and the averaging route disagree on a
    Nielsen number; the input data is inconsistent."""


class NotCyclic(ZetafixError):
    """The holonomy group has no generator (not cyclic)."""


class NotBlockCompatible(ZetafixError):
    """A linear part is not block-triangular with respect to the cyclic
    holonomy decomposition within tolerance."""


class TrichotomyMismatch(ZetafixError):
    """The case-analysis prediction disagrees with the averaged coincidence
    Nielsen number."""


class DegenerateFixedSet(ZetafixError):
    """det(I - D^n) = 0: the periodic-point set is not finite."""


# ------------------------------------------------------------------- zetas


class ZetaUndefined(ZetafixError):
    """The Reidemeister zeta function is undefined: some R(f^n) is
    infinite."""

    def __init__(self, message: str, witness_n: int | None = None,
                 witness_label: str | None = None, status: str = "undefined"):
        super().__init__(message)
        self.witness_n = witness_n
        self.witness_label = witness_label
        self.status = status


class NotConstantRatio(ZetafixError):
    """The functional-equation ratio is not a constant."""


class RadiusMismatch(ZetafixError):
    """Radius of convergence disagrees with the reciprocal asymptotic
    growth rate beyond tolerance."""


class NonAcyclicBundle(ZetafixError):
    """The requested unit-circle parameter is a zero or pole of the zeta
    function; no torsion value is defined there."""


# ------------------------------------------------------------- congruences


class InfinityInSequence(ZetafixError):
    """An infinite term appeared where a finite sequence is required."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# --------------------------------------------------------------- file layer


class InvalidSpecFile(ZetafixError):
    """A spec file failed structural checks before any mathematics ran:
    wrong schema version, missing fields, or malformed entries."""
