"""Finite quasigroups as Cayley tables, with divisions and translations.

Elements are dense integer indices 0..n-1.  A quasigroup stores its
multiplication table together with both division tables, so that the six
translations at any element are plain table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class QuasigroupError(Exception):
    """Base class for table validation errors."""


class BadEntryError(QuasigroupError):
    """A table entry is not an integer in [0, n)."""

    def __init__(self, row: int, col: int, value: object, order: int):
        self.row, self.col, self.value, self.order = row, col, value, order
        super().__init__(f"entry {value!r} at ({row},{col}) not in [0,{order})")


class NotLatinError(QuasigroupError):
    """A row or column of the table repeats a value."""

    def __init__(self, axis: str, index: int, value: int):
        self.axis, self.index, self.value = axis, index, value
        super().__init__(f"{axis} {index} repeats value {value}")


class TranslationKind(Enum):
    """A translation at a, named by its token, or E, the identity.

    ``roles`` is (fixed, input, output) over the three roles of x*y = z
    (0 left argument, 1 right argument, 2 product): the translation at a
    holds role ``fixed`` at a and sends the value in role ``input`` to the
    value in role ``output``.  E has no roles.
    """

    def __new__(cls, token: str, roles: tuple[int, int, int] | None):
        member = object.__new__(cls)
        member._value_ = token
        member.roles = roles
        return member

    E = "E", None
    L = "L", (0, 1, 2)
    LINV = "Li", (0, 2, 1)
    R = "R", (1, 0, 2)
    RINV = "Ri", (1, 2, 0)
    P = "P", (2, 0, 1)
    PINV = "Pi", (2, 1, 0)

    # Members are singletons and compare by identity, so they hash by it too.
    __hash__ = object.__hash__

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def with_roles(cls, roles: tuple[int, int, int] | None) -> "TranslationKind":
        return _KIND_BY_ROLES[roles]

    @property
    def inverse(self) -> "TranslationKind":
        """The inverse translation: input and output swap roles."""
        if self.roles is None:
            return self
        fixed, source, target = self.roles
        return _KIND_BY_ROLES[fixed, target, source]


_KIND_BY_ROLES = {kind.roles: kind for kind in TranslationKind}


def invert_images(images: Sequence[int]) -> tuple[int, ...]:
    """The images of the inverse of the bijection with the given images."""
    out = [0] * len(images)
    for i, v in enumerate(images):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True)
class Quasigroup:
    """An order-n quasigroup: Latin multiplication table plus divisions.

    ``mul(x, y)`` is row x, column y.  ``ldiv(x, y)`` is the unique z with
    x*z = y and ``rdiv(y, x)`` the unique z with z*x = y.  Immutable.
    """

    n: int
    mul_table: tuple[tuple[int, ...], ...]
    ldiv_table: tuple[tuple[int, ...], ...]
    rdiv_table: tuple[tuple[int, ...], ...]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def ldiv(self, x: int, y: int) -> int:
        """z with mul(x, z) = y."""
        return self.ldiv_table[x][y]

    def rdiv(self, y: int, x: int) -> int:
        """z with mul(z, x) = y."""
        return self.rdiv_table[y][x]

    def row(self, a: int) -> tuple[int, ...]:
        return self.mul_table[a]

    def col(self, a: int) -> tuple[int, ...]:
        return tuple(self.mul_table[x][a] for x in range(self.n))

    def __repr__(self) -> str:
        return f"Quasigroup(n={self.n}, rows={list(map(list, self.mul_table))})"


def translation_images(q: Quasigroup, kind: TranslationKind, a: int) -> tuple[int, ...]:
    """The images of the translation at a, read off the tables by definition.

    L_a(x) = a*x, R_a(x) = x*a, P_a(x) = x\\a (so x * P_a(x) = a); the
    inverse kinds are the inverse permutations: Li_a(x) = a\\x,
    Ri_a(x) = x/a, Pi_a(x) = a/x.  E is the identity.

    Deliberately not derived from ``kind.roles``, so that checks of the
    role algebra against data (verify_translation_transfer) test something.
    """
    n = q.n
    if kind is TranslationKind.E:
        return tuple(range(n))
    if kind is TranslationKind.L:
        return q.mul_table[a]
    if kind is TranslationKind.LINV:
        return q.ldiv_table[a]
    if kind is TranslationKind.R:
        return tuple(q.mul_table[x][a] for x in range(n))
    if kind is TranslationKind.RINV:
        return tuple(q.rdiv_table[x][a] for x in range(n))
    if kind is TranslationKind.P:
        return tuple(q.ldiv_table[x][a] for x in range(n))
    if kind is TranslationKind.PINV:
        return q.rdiv_table[a]
    raise ValueError(f"unknown translation kind {kind!r}")


def from_table(rows: Sequence[Sequence[int]]) -> Quasigroup:
    """Validate an n x n Cayley table and build the quasigroup.

    Raises BadEntryError for out-of-range entries and NotLatinError when a
    row or column repeats a value.  Division tables are materialized here;
    the surveys perform millions of divisions.
    """
    n = len(rows)
    if n == 0:
        raise BadEntryError(0, 0, None, 0)
    table = []
    for i, r in enumerate(rows):
        r = tuple(r)
        if len(r) != n:
            raise BadEntryError(i, len(r), None, n)
        for j, v in enumerate(r):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise BadEntryError(i, j, v, n)
        table.append(r)

    ldiv = [[-1] * n for _ in range(n)]
    rdiv = [[-1] * n for _ in range(n)]
    for x in range(n):
        row = table[x]
        for z in range(n):
            y = row[z]
            if ldiv[x][y] != -1:
                raise NotLatinError("row", x, y)
            ldiv[x][y] = z
            if rdiv[y][z] != -1:
                raise NotLatinError("col", z, y)
            rdiv[y][z] = x
    return Quasigroup(
        n=n,
        mul_table=tuple(table),
        ldiv_table=tuple(map(tuple, ldiv)),
        rdiv_table=tuple(map(tuple, rdiv)),
    )
