"""Left, right and middle unit detection for finite quasigroups."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .qcore import Quasigroup


class UnitKind(Enum):
    LEFT = "f"    # f*x = x for all x
    RIGHT = "e"   # x*e = x for all x
    MIDDLE = "s"  # x*x = s for all x

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class UnitProfile:
    left: int | None
    right: int | None
    middle: int | None


def left_unit(q: Quasigroup) -> int | None:
    """The unique f with f*x = x for all x, if any.

    Two identity rows would repeat values in columns, so at most one exists.
    """
    for f in range(q.n):
        row = q.mul_table[f]
        if all(row[x] == x for x in range(q.n)):
            return f
    return None


def right_unit(q: Quasigroup) -> int | None:
    """The unique e with x*e = x for all x, if any."""
    for e in range(q.n):
        if all(q.mul_table[x][e] == x for x in range(q.n)):
            return e
    return None


def middle_unit(q: Quasigroup) -> int | None:
    """The constant diagonal value s = x*x, if the diagonal is constant."""
    s = q.mul_table[0][0]
    for x in range(1, q.n):
        if q.mul_table[x][x] != s:
            return None
    return s


def find_unit(q: Quasigroup, kind: UnitKind) -> int | None:
    if kind is UnitKind.LEFT:
        return left_unit(q)
    if kind is UnitKind.RIGHT:
        return right_unit(q)
    return middle_unit(q)


def unit_profile(q: Quasigroup) -> UnitProfile:
    return UnitProfile(left_unit(q), right_unit(q), middle_unit(q))
