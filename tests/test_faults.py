"""Fault injection: each planted fault in the averaging kernel's
determinants must make build_report raise a typed error.

The faults are planted by wrapping AveragingKernel.fixed_point_dets or
AveragingKernel.shifted_dets, which read ranges of iterates, so that
one iterate's list comes back with one entry changed, for every reader
and whatever range it reads.  They run on the fixed-point fixtures and
on the 13 ladder rungs of seed 0, all on the kernel's traces path: the
ladder and half the fixtures are diagonal (1 x 1 blocks), the rest have
a 2 x 2 block.  With Phi the holonomy and den the list's common
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

Two more go into the traces path's recurrences, on the fixtures:
+1 on tau_n = tr(A D^n) of one element and block at one n
inside the Lefschetz window, and +1 on sigma_n = tr(adj(A) D^n) at the
largest n in (3 B_N + 4, 30] where R(f^n) is finite; each must raise a
typed error.

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
import zetafix.report
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
            (dets, _), = ctx.kernel.fixed_point_dets([n])
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

    def change(dets, den):
        dets = list(dets)
        dets[index] = _planted(fault, dets[index], len(dets) * den)
        return dets

    _plant(monkeypatch, method, n, change)
    with pytest.raises(ZetafixError):
        build_report(parsed)


def _plant(monkeypatch, method, n, change):
    """Replace iterate n's list of AveragingKernel.<method> by
    change(dets, den) in every range read."""
    orig = getattr(zetafix.algebra.AveragingKernel, method)

    def planted(kernel, ns):
        return [(change(dets, den), den) if m == n else (dets, den)
                for m, (dets, den) in zip(ns, orig(kernel, ns))]

    monkeypatch.setattr(zetafix.algebra.AveragingKernel, method, planted)


def _recurrence_faults():
    """pytest params (problem, kind, n) for the fixtures: +1 on tau_n
    (kind 0) inside the Lefschetz window, +1 on sigma_n (kind 1) at the
    largest n in (3 B_N + 4, 30] with a finite R(f^n); each only where
    it changes a determinant (on identity_torus every det(I - A D^n)
    has the factor 0 of a block that is left alone)."""
    out = []
    for name in FIXED_POINT_NAMES:
        parsed = PROBLEMS[name]
        ctx = zetafix.invariants.MapContext(parsed.spec, parsed.mapping)
        past = [n for n in range(3 * ctx.n_seq.degree_bound + 5, CONGRUENCE_N_MAX + 1)
                if ctx.r_seq(n) != math.inf]
        for kind, n in [(0, 3 * ctx.l_seq.degree_bound + 3)] + [(1, n) for n in past[-1:]]:
            read = [_kernel(parsed, plant) for plant in (None, (kind, n))]
            if len({str((k.shifted_dets if kind else k.fixed_point_dets)([n]))
                    for k in read}) == 2:
                out.append(pytest.param(name, kind, n,
                                        id=f"{name}-{('tau', 'sigma')[kind]}"))
    zetafix.invariants.map_context.cache_clear()
    zetafix.manifolds.averaging_kernel.cache_clear()
    return out


def _kernel(parsed, plant):
    """The problem's shared kernel, with plant = (kind, n) adding 1 to
    tau_n (kind 0) or sigma_n (kind 1) of its first element and block,
    after a fill of n = 1..31, which no table keeps, has extended the
    sequences past 30."""
    zetafix.manifolds.averaging_kernel.cache_clear()
    kernel = zetafix.manifolds.averaging_kernel(parsed.spec, parsed.mapping)
    if plant is not None:
        kind, n = plant
        kernel._trace_dets(range(1, CONGRUENCE_N_MAX + 2), bool(kind))
        kernel._traces[0][0][1][kind][n] += 1
    return kernel


@pytest.mark.parametrize("name,kind,n", _recurrence_faults())
def test_planted_recurrence_fault_raises(name, kind, n):
    # the report reads the shared kernel, planted here
    parsed = PROBLEMS[name]
    zetafix.invariants.map_context.cache_clear()
    _kernel(parsed, (kind, n))
    try:
        with pytest.raises(ZetafixError):
            build_report(parsed)
    finally:
        zetafix.invariants.map_context.cache_clear()
        zetafix.manifolds.averaging_kernel.cache_clear()


def test_every_recurrence_fault_is_planted():
    ids = [p.id for p in _recurrence_faults()]
    assert {i.rsplit("-", 1)[0] for i in ids} == set(FIXED_POINT_NAMES) - {"identity_torus"}
    assert sum(i.endswith("-sigma") for i in ids) >= 3


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
        rec = tri.at(3, zetafix.invariants._coincidence_terms(kernel, 3, 3, True)[0])
        members = tri._half if rec.case == 3 else None
        (dets, den), = kernel.fixed_point_dets([3])
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
        orig = zetafix.invariants._coincidence_terms

        def planted(kernel, lo, hi, orientable):
            return [c._replace(nielsen=c.nielsen + 1) if m == n else c
                    for m, c in enumerate(orig(kernel, lo, hi, orientable), lo)]

        # the report reads the pair's rows through its own binding
        for module in (zetafix.invariants, zetafix.report):
            monkeypatch.setattr(module, "_coincidence_terms", planted)
    else:
        _plant(monkeypatch, "fixed_point_dets", n,
               lambda dets, den: [-v if k == index else v for k, v in enumerate(dets)])
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
