"""The six parastrophes of a quasigroup and translation transfer between them.

Each parastrophe permutes the three roles (0 left argument, 1 right
argument, 2 product) of the base operation.  The symbol-to-operation
mapping used throughout is:

    e -> x*y    12 -> y*x    23 -> x\\y    132 -> y\\x
    13 -> y/x   123 -> x/y

The role algebra has a single source: _ROLE_MAP, one role permutation pi
per symbol, together with the (fixed, input, output) roles of each
TranslationKind.  Everything else follows from them:

  * apply_parastrophe places each triple (x, y, x*y) of q by pi;
  * B-role j of the sigma-parastrophe B sits at base role pi.index(j), so a
    translation of B with roles (f, i, o) is the translation of q with
    roles (pi.index(f), pi.index(i), pi.index(o)).  That is TRANSFER.
    For example pi = (1, 2, 0) for 132 takes R = (1, 0, 2) to
    (0, 2, 1) = Li: R_a of B(x, y) = y\\x is x -> a\\x, which is Li_a of q;
  * the rows, columns and middle translations of B are TRANSFER[sigma] of
    L, R and P; the survey's family table is read off the rows;
  * the tau-parastrophe of a derivative with sigma-parastrophe B is a
    derivative with the parastrophe of pi_tau after pi_sigma and its
    triple's slots permuted by pi_tau (act_roles).

verify_translation_transfer checks all 36 transfer cells against
translations read off the actual tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .qcore import Quasigroup, TranslationKind, from_table, translation_images


class ParastropheSym(Enum):
    ID = "e"
    S12 = "12"
    S13 = "13"
    S23 = "23"
    S123 = "123"
    S132 = "132"

    # Members are singletons and compare by identity, so they hash by it too.
    __hash__ = object.__hash__

    @property
    def token(self) -> str:
        return self.value


# For each symbol, the index map pi such that the derived operation B
# satisfies: B(d0, d1) = d2  iff  A(d[pi[0]], d[pi[1]]) = d[pi[2]].
_ROLE_MAP = {
    ParastropheSym.ID: (0, 1, 2),
    ParastropheSym.S12: (1, 0, 2),
    ParastropheSym.S23: (0, 2, 1),
    ParastropheSym.S132: (1, 2, 0),
    ParastropheSym.S13: (2, 0, 1),
    ParastropheSym.S123: (2, 1, 0),
}

# The six translation kinds, all but E: L, Li, R, Ri, P, Pi.
KINDS = tuple(TranslationKind)[1:]

# Table rows in display order: xy, yx, x\y, y\x, y/x, x/y.
ROW_ORDER = (
    ParastropheSym.ID,
    ParastropheSym.S12,
    ParastropheSym.S23,
    ParastropheSym.S132,
    ParastropheSym.S13,
    ParastropheSym.S123,
)

ROW_LABELS = {
    ParastropheSym.ID: "xy",
    ParastropheSym.S12: "yx",
    ParastropheSym.S23: "x\\y",
    ParastropheSym.S132: "y\\x",
    ParastropheSym.S13: "y/x",
    ParastropheSym.S123: "x/y",
}


def apply_parastrophe(q: Quasigroup, sigma: ParastropheSym) -> Quasigroup:
    """The sigma-parastrophe of q, as a validated quasigroup."""
    pi = _ROLE_MAP[sigma]
    r0, r1, r2 = (pi.index(j) for j in range(3))
    rows = [[0] * q.n for _ in range(q.n)]
    for x, row in enumerate(q.mul_table):
        for y, z in enumerate(row):
            t = (x, y, z)
            rows[t[r0]][t[r1]] = t[r2]
    return from_table(rows)


def act_roles(
    tau: ParastropheSym, sigma: ParastropheSym
) -> tuple[ParastropheSym, tuple[int, ...]]:
    """(sigma', slots): tau acting on the derivatives with sigma-parastrophe.

    sigma' has the role map i -> pi_tau[pi_sigma[i]], and slot i of the new
    isotopy triple is slot slots[i] = pi_tau^-1(i) of the old one; the
    constant role r of a unit becomes pi_tau[r], so slots[0] is the role
    that becomes a left unit's.
    """
    pt, ps = _ROLE_MAP[tau], _ROLE_MAP[sigma]
    roles = tuple(pt[i] for i in ps)
    moved = next(s for s, pi in _ROLE_MAP.items() if pi == roles)
    return moved, tuple(pt.index(i) for i in range(3))


def _transferred(kind: TranslationKind, pi: tuple[int, int, int]) -> TranslationKind:
    return TranslationKind.with_roles(tuple(pi.index(role) for role in kind.roles))


# Translation transfer: for parastrophe B of q, the translation of B of a
# given kind at a equals a (possibly different) kind of translation of q at
# the same a.  TRANSFER[sigma][kind] names that kind of q.
TRANSFER: dict[ParastropheSym, dict[TranslationKind, TranslationKind]] = {
    sigma: {kind: _transferred(kind, pi) for kind in KINDS}
    for sigma, pi in _ROLE_MAP.items()
}


def transfer_kind(kind: TranslationKind, sigma: ParastropheSym) -> TranslationKind:
    """Which translation of q equals the given translation of the sigma-parastrophe.

    E, the identity, is the identity in every parastrophe.
    """
    return TRANSFER[sigma].get(kind, kind)


@dataclass(frozen=True)
class TransferCell:
    kind: TranslationKind
    sigma: ParastropheSym
    designated: TranslationKind
    ok: bool
    failure: tuple[int, int] | None  # (a, x) of the first mismatch


def verify_translation_transfer(q: Quasigroup) -> tuple[TransferCell, ...]:
    """Check all 36 (kind, parastrophe) transfer cells at every element a."""
    cells = []
    paras = {s: apply_parastrophe(q, s) for s in ParastropheSym}
    for kind in KINDS:
        for sigma in ParastropheSym:
            designated = TRANSFER[sigma][kind]
            ok, failure = True, None
            b = paras[sigma]
            for a in range(q.n):
                lhs = translation_images(b, kind, a)
                rhs = translation_images(q, designated, a)
                if lhs != rhs:
                    bad = next(x for x in range(q.n) if lhs[x] != rhs[x])
                    ok, failure = False, (a, bad)
                    break
            cells.append(TransferCell(kind, sigma, designated, ok, failure))
    return tuple(cells)
