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

Two faults are left out.  R averages |det(A - D^n)|, so a sign flip of
det(A - D^n) changes no number and cannot show.  A wrong coincidence
term past n = 1 is printed unchecked: coincidence iterates have no
second route yet, a known open defect, so that plant would pass.
"""

import math

import pytest

import zetafix.algebra
import zetafix.invariants
import zetafix.manifolds
from _corpus import ladder_instances
from conftest import FIXED_POINT_NAMES
from zetafix import ParsedSpec, ZetafixError, build_report, load_fixture
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
