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
