"""Exception types raised by the zetafix library.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for caller contract violations
(bad argument shapes, out-of-range parameters).
"""

from __future__ import annotations


class ZetafixError(Exception):
    """Base class for all library-specific failures."""


# ----------------------------------------------------------- reconstruction


class InsufficientTerms(ZetafixError):
    """Too few sequence terms to pin down the minimal linear recurrence."""


class NotRational(ZetafixError):
    """The Euler-product series is not a rational function within the
    supplied degree bound."""


# --------------------------------------------------------------- manifolds


class NotAGroup(ZetafixError):
    """Holonomy matrices do not form a finite group: empty, duplicated,
    singular, without the identity, or not closed under products."""


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
    """Two routes to a Nielsen number disagree: the sign-formula zeta
    and the averaged Nielsen sequence, a finite Reidemeister number
    R(f^n) and N(f^n), or an infinite R(f^n) and the det(I - A D^n),
    none of which vanishes.  The input data is inconsistent."""


class NotCyclic(ZetafixError):
    """The holonomy group has no generator (not cyclic)."""


class NotBlockCompatible(ZetafixError):
    """A linear part is not block-triangular with respect to the cyclic
    holonomy decomposition (decided exactly)."""


class TrichotomyMismatch(ZetafixError):
    """The case-analysis prediction disagrees with the averaged coincidence
    Nielsen number N(f^n, g^n) of some iterate."""


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
    """Radius of convergence times the asymptotic growth rate differs
    from 1 by more than 1e-6."""


class OutOfFloatRange(ZetafixError):
    """A float output (entropy, N_infinity, a radius of convergence) needs
    a value beyond the float range; every exact result stays available."""


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
