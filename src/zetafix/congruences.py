"""Divisibility laws satisfied by fixed-point counting sequences.

A sequence of the form sum of n-th powers (traces of matrix powers,
periodic-point counts) obeys the Gauss congruences
sum_{d|n} mu(d) a_{n/d} = 0 mod n, whose prime-power case is the Euler
congruence a_{p^r} = a_{p^(r-1)} mod p^r.  Lefschetz sequences satisfy
them unconditionally; Nielsen/Reidemeister sequences do whenever all
iterates have finite Reidemeister number.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import InfinityInSequence
from .invariants import lefschetz_sequence
from .manifolds import AffineMapSpec, ManifoldSpec
from .ratfunc import SequenceOracle


def mobius(n: int) -> int:
    """Moebius function by trial factorization."""
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=8)
def _squarefree_mobius(n_max: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree d <= n_max, in increasing order."""
    return tuple((d, mu) for d in range(1, n_max + 1) if (mu := mobius(d)))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


class CongruenceReport(namedtuple("CongruenceReport",
                                  "kind checked_range violations skipped",
                                  defaults=((),))):
    """Outcome of one congruence family.  checked_range lists the
    tested points (integers n, or (p, r) pairs for the prime-power
    law); violations pair each failing point with its residue, reduced
    to [0, n); skipped lists points whose terms were infinite.  All
    three are tuples."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def check_gauss(seq: SequenceOracle, n_max: int,
                kind: str = "Gauss") -> CongruenceReport:
    """sum_{d|n} mu(d) a_{n/d} = 0 mod n for n <= n_max.  Iterates
    whose divisor terms include an infinite value are skipped and
    flagged rather than failed: the law assumes finite counts.

    The sums are taken together by a Moebius sieve: each term a_j is
    read once and mu(d) a_j is added into the sum of n = j d for every
    squarefree d.  An infinite a_k skips every multiple of k, whatever
    the Moebius weight of its divisor term, and counts as 0 in the
    sums, which are then not reported."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = [None] + seq.terms(n_max)
    skip = [False] * (n_max + 1)
    for k in range(1, n_max + 1):
        if a[k] == math.inf:
            skip[k::k] = [True] * (n_max // k)
            a[k] = 0
    sums = [0] * (n_max + 1)
    for d, mu in _squarefree_mobius(n_max):
        for j in range(1, n_max // d + 1):
            sums[j * d] += mu * a[j]
    checked, violations, skipped = [], [], []
    for n in range(1, n_max + 1):
        if skip[n]:
            skipped.append(n)
            continue
        checked.append(n)
        residue = sums[n] % n
        if residue != 0:
            violations.append((n, int(residue)))
    return CongruenceReport(kind, tuple(checked), tuple(violations),
                            tuple(skipped))


def check_euler(seq: SequenceOracle, p: int, r_max: int) -> CongruenceReport:
    """a_{p^r} = a_{p^(r-1)} mod p^r for r <= r_max, p prime."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    checked, violations = [], []
    for r in range(1, r_max + 1):
        hi, lo = p ** r, p ** (r - 1)
        a, b = seq(hi), seq(lo)
        if a == math.inf:
            raise InfinityInSequence(f"term {hi} is infinite", index=hi)
        if b == math.inf:
            raise InfinityInSequence(f"term {lo} is infinite", index=lo)
        checked.append((p, r))
        residue = (a - b) % hi
        if residue != 0:
            violations.append(((p, r), int(residue)))
    return CongruenceReport("Euler", tuple(checked), tuple(violations))


def check_dold_lefschetz(spec: ManifoldSpec, mapping: AffineMapSpec,
                         n_max: int) -> CongruenceReport:
    """Gauss congruences for the Lefschetz sequence, which hold for
    every map (the sequence is a difference of trace sequences)."""
    return check_gauss(lefschetz_sequence(spec, mapping), n_max, kind="Dold")
