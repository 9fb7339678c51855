from __future__ import annotations

from conftest import DERIVED_1, DERIVED_2, small_corpus
from qderiv.corpus import random_square
from qderiv.qcore import from_table
from qderiv.units import (
    UnitKind,
    find_unit,
    left_unit,
    middle_unit,
    right_unit,
)


def test_group_identity_is_left_and_right_unit(z3):
    assert left_unit(z3) == 0
    assert right_unit(z3) == 0
    assert middle_unit(z3) is None  # diagonal 0, 2, 1


def test_second_square_units(q2):
    assert left_unit(q2) == 1  # its row 1 reads 0 1 2
    assert middle_unit(q2) == 1  # diagonal reads 1, 1, 1


def test_derived_example_tables():
    d1 = from_table(DERIVED_1)
    assert (left_unit(d1), right_unit(d1), middle_unit(d1)) == (None, None, None)
    d2 = from_table(DERIVED_2)
    assert middle_unit(d2) is None


def test_order_one_has_all_units():
    q = from_table([[0]])
    assert (left_unit(q), right_unit(q), middle_unit(q)) == (0, 0, 0)


def test_returned_units_satisfy_their_equations():
    squares = list(small_corpus(4)) + [random_square(6, s) for s in range(20)]
    for q in squares:
        f, e, s = left_unit(q), right_unit(q), middle_unit(q)
        if f is not None:
            assert all(q.mul(f, x) == x for x in range(q.n))
        if e is not None:
            assert all(q.mul(x, e) == x for x in range(q.n))
        if s is not None:
            assert all(q.mul(x, x) == s for x in range(q.n))


def test_units_unique_when_present():
    for q in small_corpus(4):
        lefts = [f for f in range(q.n) if all(q.mul(f, x) == x for x in range(q.n))]
        rights = [e for e in range(q.n) if all(q.mul(x, e) == x for x in range(q.n))]
        assert len(lefts) <= 1 and len(rights) <= 1
        assert left_unit(q) == (lefts[0] if lefts else None)
        assert right_unit(q) == (rights[0] if rights else None)


def test_find_unit_dispatch(z3):
    assert find_unit(z3, UnitKind.LEFT) == 0
    assert find_unit(z3, UnitKind.RIGHT) == 0
    assert find_unit(z3, UnitKind.MIDDLE) is None


def test_unit_tokens():
    assert [k.token for k in (UnitKind.LEFT, UnitKind.RIGHT, UnitKind.MIDDLE)] == [
        "f",
        "e",
        "s",
    ]
