"""Left, right and middle unit detection for finite quasigroups."""

from __future__ import annotations

from enum import Enum

from .qcore import Quasigroup


class UnitKind(Enum):
    LEFT = "f"    # f*x = x for all x
    RIGHT = "e"   # x*e = x for all x
    MIDDLE = "s"  # x*x = s for all x

    # Members are singletons and compare by identity, so they hash by it too.
    __hash__ = object.__hash__

    @property
    def token(self) -> str:
        return self.value


def find_unit_in_table(table: tuple[tuple[int, ...], ...], kind: UnitKind) -> int | None:
    """The unit of the given kind in a Cayley table, or None.

    A left unit f is the row equal to the identity (f*x = x), a right unit
    e the column equal to it (x*e = x), and a middle unit the value of a
    constant diagonal (x*x = s).  Two identity rows or columns would repeat
    values, so at most one of each exists.  Rows must be tuples, as in
    Quasigroup.mul_table: a list never equals the identity tuple.
    """
    ident = tuple(range(len(table)))
    if kind is UnitKind.MIDDLE:
        diagonal = {row[x] for x, row in enumerate(table)}
        return diagonal.pop() if len(diagonal) == 1 else None
    lines = table if kind is UnitKind.LEFT else tuple(zip(*table))
    return lines.index(ident) if ident in lines else None


def left_unit(q: Quasigroup) -> int | None:
    """The unique f with f*x = x for all x, if any."""
    return find_unit_in_table(q.mul_table, UnitKind.LEFT)


def right_unit(q: Quasigroup) -> int | None:
    """The unique e with x*e = x for all x, if any."""
    return find_unit_in_table(q.mul_table, UnitKind.RIGHT)


def middle_unit(q: Quasigroup) -> int | None:
    """The constant diagonal value s = x*x, if the diagonal is constant."""
    return find_unit_in_table(q.mul_table, UnitKind.MIDDLE)


def find_unit(q: Quasigroup, kind: UnitKind) -> int | None:
    return find_unit_in_table(q.mul_table, kind)
