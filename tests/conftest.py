from __future__ import annotations

import pytest

from qderiv.derivative import DerivativeSpec, IsotopyTriple
from qderiv.parastrophe import ParastropheSym
from qderiv.qcore import Quasigroup, TranslationKind, from_table
from qderiv.units import UnitKind

Z3_ROWS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# a second order-3 quasigroup: left unit 1, constant diagonal 1
Q2_ROWS = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
# the two derived tables of the built-in worked example (a=0, 23:L,Pi,E)
DERIVED_1 = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
DERIVED_2 = ((1, 2, 0), (2, 0, 1), (0, 1, 2))

_L, _LI, _E = TranslationKind.L, TranslationKind.LINV, TranslationKind.E
# The three claims of `verify theorem`: the derivative spec and the unit it claims.
THEOREM_CLAIMS = {
    1: (DerivativeSpec(ParastropheSym.ID, IsotopyTriple(_L, _L, _E)), UnitKind.LEFT),
    2: (DerivativeSpec(ParastropheSym.S12, IsotopyTriple(_L, _L, _E)), UnitKind.RIGHT),
    3: (DerivativeSpec(ParastropheSym.S23, IsotopyTriple(_L, _LI, _E)), UnitKind.LEFT),
}


def unit_equation_holds(table, unit: UnitKind, u: int, x: int) -> bool:
    """The unit equation of candidate u at x, read off a whole Cayley table."""
    if unit is UnitKind.LEFT:
        return table[u][x] == x
    if unit is UnitKind.RIGHT:
        return table[x][u] == x
    return table[x][x] == u


# The six division identities over all (x, y).  The first four hold by
# construction of the division tables; the last two then follow.
DIVISION_IDENTITIES = {
    "x*(x\\y) = y": lambda q, x, y: q.mul(x, q.ldiv(x, y)) == y,
    "(y/x)*x = y": lambda q, x, y: q.mul(q.rdiv(y, x), x) == y,
    "x\\(x*y) = y": lambda q, x, y: q.ldiv(x, q.mul(x, y)) == y,
    "(y*x)/x = y": lambda q, x, y: q.rdiv(q.mul(y, x), x) == y,
    "x/(y\\x) = y": lambda q, x, y: q.rdiv(x, q.ldiv(y, x)) == y,
    "(x/y)\\x = y": lambda q, x, y: q.ldiv(q.rdiv(x, y), x) == y,
}


def failing_division_identities(q: Quasigroup) -> list[str]:
    """The names of the division identities that fail at some (x, y) of q."""
    rng = range(q.n)
    return [
        name for name, holds in DIVISION_IDENTITIES.items()
        if not all(holds(q, x, y) for x in rng for y in rng)
    ]


@pytest.fixture
def z3() -> Quasigroup:
    return from_table(Z3_ROWS)


@pytest.fixture
def q2() -> Quasigroup:
    return from_table(Q2_ROWS)


def small_corpus(max_order: int = 4):
    """All quasigroups of orders 1..max_order."""
    from qderiv.corpus import enumerate_all

    for n in range(1, max_order + 1):
        yield from enumerate_all(n)
