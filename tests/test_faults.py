"""Fault injection: each planted fault in the averaging kernel's
determinants must make build_report raise a typed error.

The faults are planted by wrapping AveragingKernel.fixed_point_dets or
AveragingKernel.shifted_dets so that one iterate's list comes back with
one entry changed, for every reader.  They run on the fixed-point
fixtures and on the 13 ladder rungs of seed 0, so both kernel paths are
covered: the ladder and half the fixtures are diagonal, the rest take
the block path.  With Phi the holonomy and den the list's common
denominator, a change of |Phi| den moves the average by exactly 1, so
no integrality check can catch it.

1. flip the sign of one nonzero det(I - A D^n);
2. move one det(I - A D^n) away from 0 by |Phi| den;
3. move one nonzero det(A - D^n) away from 0 by |Phi| den, at an n
   where R(f^n) is finite;
4. set one such det(A - D^n) to 0.

Faults 1 and 2 go at n = 1 and at n = 3B + 4, the last iterate of the
Lefschetz oracle's window (B its degree bound); faults 3 and 4 at n = 1
and at the largest n <= 30 where R(f^n) is finite.  A fault that does
not apply to a problem (no nonzero determinant, or no finite R(f^n)) is
not generated for it.

One fault is left out: R averages |det(A - D^n)|, so a sign flip of
det(A - D^n) changes no number and cannot show.

Coincidence pairs get two more, on halfturn_coincidence and on the
pairs of _corpus.random_coincidence_instances(0, 40) where the
trichotomy applies (orientable, cyclic, block compatible), each of
which must raise TrichotomyMismatch:

5. add 1 to the averaged N(f^n, g^n), at n = 3 and at n = n_max;
6. flip the sign of one nonzero det(E^n - A D^n) at n = 3, chosen so
   that the averages stay integers and the predicted |L| (or |L_0 - L|
   in case 3) moves away from N, which a sign flip leaves alone.
"""

import math

import pytest

import zetafix.algebra
import zetafix.invariants
import zetafix.manifolds
from _corpus import ladder_instances, random_coincidence_instances
from conftest import FIXED_POINT_NAMES
from zetafix import (NotBlockCompatible, NotCyclic, ParsedSpec, TrichotomyMismatch,
                     ZetafixError, build_report, load_fixture)
from zetafix.report import CONGRUENCE_N_MAX

PROBLEMS = {name: load_fixture(name) for name in FIXED_POINT_NAMES}
PROBLEMS.update((spec.name, ParsedSpec(spec, f)) for spec, f in ladder_instances(0))


def _faults():
    """pytest params (problem, fault, method, n, index), computed on an
    unplanted context of each problem."""
    out = []
    for name, parsed in PROBLEMS.items():
        ctx = zetafix.invariants.MapContext(parsed.spec, parsed.mapping)
        for n in (1, 3 * ctx.l_seq.degree_bound + 4):
            dets = ctx.kernel.fixed_point_dets(n)[0]
            nonzero = next((k for k, v in enumerate(dets) if v), None)
            for fault, index in (("flip", nonzero), ("move", 0)):
                if index is not None:
                    out.append(pytest.param(name, fault, "fixed_point_dets", n, index,
                                            id=f"{name}-{fault}-fixed-{n}"))
        finite = [n for n in range(1, CONGRUENCE_N_MAX + 1)
                  if ctx.r_seq(n) != math.inf]
        for n in ([1] if 1 in finite else []) + [n for n in finite[-1:] if n != 1]:
            for fault in ("move", "zero"):
                out.append(pytest.param(name, fault, "shifted_dets", n, 0,
                                        id=f"{name}-{fault}-shifted-{n}"))
    zetafix.invariants.map_context.cache_clear()
    zetafix.manifolds.averaging_kernel.cache_clear()
    return out


def _planted(fault: str, value: int, shift: int) -> int:
    if fault == "flip":
        return -value
    if fault == "zero":
        return 0
    return value + (shift if value >= 0 else -shift)


@pytest.mark.parametrize("name,fault,method,n,index", _faults())
def test_planted_fault_raises(monkeypatch, name, fault, method, n, index):
    parsed = PROBLEMS[name]
    orig = getattr(zetafix.algebra.AveragingKernel, method)

    def planted(kernel, m):
        dets, den = orig(kernel, m)
        if m != n:
            return dets, den
        dets = list(dets)
        dets[index] = _planted(fault, dets[index], len(dets) * den)
        return dets, den

    monkeypatch.setattr(zetafix.algebra.AveragingKernel, method, planted)
    with pytest.raises(ZetafixError):
        build_report(parsed)


def test_every_problem_and_fault_is_planted():
    # 7 fixtures and 13 rungs; faults 3 and 4 reach the 18 problems with
    # a finite R(f^n) for some n <= 30, at n = 1 where R(f) is finite
    ids = [p.id for p in _faults()]
    assert len(PROBLEMS) == 20
    shifted = {i.split("-")[0] for i in ids if "-shifted-" in i}
    assert len(shifted) == 18
    for fault in ("flip-fixed", "move-fixed", "move-shifted", "zero-shifted"):
        assert any(f"-{fault}-" in i for i in ids)


PAIRS = {"halfturn_coincidence": load_fixture("halfturn_coincidence")}
PAIRS.update((f"{spec.name}:{f.label}", ParsedSpec(spec, f, g))
             for spec, f, g in random_coincidence_instances(0, 40))


def _flip(dets: list, den: int, k: int, members) -> int | None:
    """The trichotomy's |L|, or |L_0 - L| with members the index-2
    subgroup, after flipping the sign of dets[k]; None when an average
    is no longer an integer."""
    dets = [-v if i == k else v for i, v in enumerate(dets)]
    averages = []
    for part in (dets, None if members is None else [dets[i] for i in members]):
        if part is not None:
            q, r = divmod(sum(part), den * len(part))
            if r:
                return None
            averages.append(q)
    return abs(averages[0]) if len(averages) == 1 else abs(averages[1] - averages[0])


def _coincidence_faults():
    """pytest params (pair, fault, n, index) on the pairs where the
    trichotomy applies, computed on an unplanted kernel."""
    out = []
    for name, parsed in PAIRS.items():
        spec, f, g = parsed.spec, parsed.mapping, parsed.mapping2
        kernel = zetafix.manifolds.averaging_kernel(spec, f, g)
        try:
            tri = zetafix.invariants._Trichotomy(spec, f, g, kernel)
        except (NotCyclic, NotBlockCompatible):
            continue
        for n in (3, parsed.options.n_max):
            out.append(pytest.param(name, "plus-one", n, None,
                                    id=f"{name}-plus-one-{n}"))
        rec = tri.at(3, zetafix.invariants._coincidence_at(kernel, 3, True))
        members = tri._half if rec.case == 3 else None
        dets, den = kernel.fixed_point_dets(3)
        index = next((k for k, v in enumerate(dets)
                      if v and _flip(dets, den, k, members) not in
                      (None, rec.averaged_nielsen)), None)
        if index is not None:
            out.append(pytest.param(name, "flip", 3, index, id=f"{name}-flip-3"))
    zetafix.manifolds.averaging_kernel.cache_clear()
    return out


@pytest.mark.parametrize("name,fault,n,index", _coincidence_faults())
def test_planted_coincidence_fault_raises(monkeypatch, name, fault, n, index):
    if fault == "plus-one":
        orig = zetafix.invariants._nielsen_at
        monkeypatch.setattr(zetafix.invariants, "_nielsen_at",
                            lambda kernel, m: orig(kernel, m) + (m == n))
    else:
        orig = zetafix.algebra.AveragingKernel.fixed_point_dets

        def planted(kernel, m):
            dets, den = orig(kernel, m)
            if m != n:
                return dets, den
            return [-v if k == index else v for k, v in enumerate(dets)], den

        monkeypatch.setattr(zetafix.algebra.AveragingKernel, "fixed_point_dets",
                            planted)
    with pytest.raises(TrichotomyMismatch):
        build_report(PAIRS[name])


def test_every_coincidence_pair_and_fault_is_planted():
    ids = [p.id for p in _coincidence_faults()]
    plus_one = {i.rsplit("-plus-one-", 1)[0] for i in ids if "-plus-one-" in i}
    flips = {i.rsplit("-flip-", 1)[0] for i in ids if "-flip-" in i}
    # the trichotomy applies to the halfturn pair and all 40 corpus pairs;
    # 30 of them have a sign flip that moves the prediction
    assert "halfturn_coincidence" in plus_one and flips <= plus_one
    assert (len(plus_one), len(flips)) == (41, 30)
