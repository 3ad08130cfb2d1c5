"""The benchmark's workloads: fixed equation lists with the verdict each one
must get, derived from how the equation is built.

By Boillat's theorem an equation is completely exceptional exactly when it
is Monge-Ampere, i.e. an affine combination of Hessian minors whose
coefficients depend on (x, u, p) only.  Each case records its expected
class (the set of classes accepted) and whether it is exceptional; the
comment beside it says why.  No expectation is taken from cepde's output.

A round runs every case of a workload once.  Every run attempts whole
rounds, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

MA_FAMILY = ("linear", "quasi-linear", "monge-ampere")


@dataclass(frozen=True)
class Case:
    name: str
    expression: str
    n: int
    classes: tuple[str, ...]  # classifications accepted as correct
    exceptional: bool
    # Cases that fail because of a known fault in cepde run at cepde seeds
    # 0-7 (cycled by round), so their inputs do not depend on --seed.
    known_fault: str = ""

    def cepde_seed(self, bench_seed: int, round_index: int) -> int:
        if self.known_fault:
            return round_index % 8
        key = f"{bench_seed}:{round_index}:{self.name}".encode()
        return zlib.crc32(key) & 0x7FFFFFFF


def _ma(name, expression, n, cls="monge-ampere", **kw):
    return Case(name, expression, n, (cls,), True, **kw)


def _non_ma(name, expression, n):
    return Case(name, expression, n, ("non-ma",), False)


DET3 = ("u11*(u22*u33 - u23^2) - u12*(u12*u33 - u13*u23)"
        " + u13*(u12*u23 - u13*u22)")
SIGMA2_N3 = "u11*u22 - u12^2 + u11*u33 - u13^2 + u22*u33 - u23^2"
SIGMA2_N4 = ("u11*u22 - u12^2 + u11*u33 - u13^2 + u11*u44 - u14^2"
             " + u22*u33 - u23^2 + u22*u44 - u24^2 + u33*u44 - u34^2")

_MA_REPRESENTATIVE_FAULT = (
    "ma.fit_minor_expansion fits the representative F, not the equation "
    "{F = 0}, against minors at off-locus Hessians: exit 3")

WORKLOADS: dict[str, tuple[Case, ...]] = {
    # The 10 bundled-corpus equations plus two non-polynomial representatives
    # of MA equations.  Every layer works here, and only here do the n = 2
    # characteristics and serialization weigh much.
    "corpus-n2": (
        _ma("laplace", "u11 + u22", 2, "linear"),                # constant coefficients
        _ma("wave", "u11 - u22", 2, "linear"),
        _ma("quasilinear-transport", "u12 + u1*u11", 2, "quasi-linear"),  # coefficient in p
        _ma("ma-det-minus-1", "u11*u22 - u12^2 - 1", 2),        # det H = 1
        _ma("ma-det-plus-1", "u11*u22 - u12^2 + 1", 2),         # det H = -1
        _ma("ma-homogeneous", "u11*u22 - u12^2", 2),            # det H = 0
        _non_ma("nonma-quadratic", "u11^2 - u22", 2),           # u11^2 is no minor
        _non_ma("nonma-cubic-speed", "u11 - u22^3/3 - u22", 2),
        _ma("ma-transcendental", "sin(x1)*u11 + u*(u11*u22 - u12^2)", 2),
        _non_ma("nonma-elliptic", "u11 + u22 + u11^2", 2),
        # {sqrt(u11) = 1} is {u11 = 1}: linear.  {log det H = 0} is
        # {det H = 1}: Monge-Ampere.  Neither representative is affine in
        # the minors, so any class of the MA family is accepted.
        Case("sqrt-u11", "sqrt(u11) - 1", 2, MA_FAMILY, True,
             known_fault=_MA_REPRESENTATIVE_FAULT),
        Case("log-det", "log(u11*u22 - u12^2)", 2, MA_FAMILY, True,
             known_fault=_MA_REPRESENTATIVE_FAULT),
    ),
    # n = 2 equations whose zero locus fills a thin part of the sampling box
    # [-2, 2]^8, so most pivot solves find no bracket.  Each equation finds
    # its 64 samples with a wide margin over the 32 below which cepde gives
    # up.  det H = 3.5 is not used: it found 33-50 of 64 at 60 seeds, but
    # only 29 at another, and then cepde exits 2.
    "sparse-locus-n2": (
        _non_ma("circle-0.1", "u11^2 + u22^2 - 0.01", 2),      # radius 0.1 in (u11, u22)
        _ma("det-3", "u11*u22 - u12^2 - 3", 2),                # needs |u11|, |u22| >= 1.5
        _non_ma("exp-sum-13", "exp(u11) + exp(u22) - 13", 2),  # needs u11, u22 > 1.6
    ),
    # n = 3 and n = 4: no characteristics, many minors and second partials.
    "highdim": (
        _ma("det3-1", DET3 + " - 1", 3),
        _ma("sigma2-n3", SIGMA2_N3 + " - 1", 3),   # sum of principal 2-minors
        _non_ma("nonma-n3", "u11^2 - u22 + u33", 3),
        _ma("sigma2-n4", SIGMA2_N4 + " - 1", 4),
        _non_ma("nonma-n4", "u11 + u22 + u33 + u44 + u11^2", 4),
    ),
}
