"""Exhaustive enumeration and seeded random sampling of Latin squares.

One depth-first search fills cells in row-major order from row and column
bitmasks.  Trying each cell's candidates in ascending order yields every
square in lexicographic row-major order, the order that defines "minimal
counterexample" everywhere downstream (branching on the most constrained
cell first would not keep it).  A random square is the first one found
when a seeded RNG shuffles each cell's candidates.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from .qcore import Quasigroup, from_table

DEFAULT_MAX_ORDER = 5
MAX_ORDER = 256  # the scan stores permutations as bytes


class OrderTooLargeError(Exception):
    def __init__(self, n: int, bound: int):
        self.n, self.bound = n, bound
        super().__init__(
            f"exhaustive enumeration of order {n} exceeds the bound {bound}"
        )


def exhaustive_bound() -> int:
    """The exhaustive-order bound; QD_MAX_ORDER raises it with a warning."""
    env = os.environ.get("QD_MAX_ORDER")
    if env is None:
        return DEFAULT_MAX_ORDER
    try:
        bound = int(env)
    except ValueError:
        raise ValueError(f"QD_MAX_ORDER must be an integer, got {env!r}") from None
    if bound >= 6:
        print(
            f"warning: QD_MAX_ORDER={bound}: order-6 enumeration has ~8e8 squares",
            file=sys.stderr,
        )
    return bound


@dataclass(frozen=True)
class CorpusDescriptor:
    """A corpus of Latin squares: exhaustive/reduced up to an order, or random.

    Exhaustive and reduced corpora scan every order from 3 up to ``order``
    (orders 1 and 2 are excluded from refutation search: each of their
    three Latin squares has a left, a right and a middle unit, and so does
    every derivative of one, so they refute no case).  Random corpora hold
    ``count`` seeded squares of exactly ``order``.
    """

    mode: str  # exhaustive | reduced | random
    order: int
    seed: int | None = None
    count: int | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "reduced", "random"):
            raise ValueError(f"bad corpus mode {self.mode!r}")
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"bad corpus order {self.order}: must be in 1..{MAX_ORDER}")
        if self.mode == "random" and (self.seed is None or self.count is None):
            raise ValueError("random corpus requires seed and count")

    @classmethod
    def parse(cls, text: str) -> "CorpusDescriptor":
        parts = text.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"bad corpus descriptor {text!r}")
        mode = parts[0]
        order = int(parts[1])
        if mode in ("exhaustive", "reduced"):
            if len(parts) != 2:
                raise ValueError(f"bad corpus descriptor {text!r}")
            return cls(mode, order)
        if mode == "random":
            fields: dict[str, int] = {}
            for part in parts[2:]:
                key, _, value = part.partition("=")
                if key not in ("seed", "count"):
                    raise ValueError(f"bad corpus field {part!r} in {text!r}")
                if key in fields:
                    raise ValueError(f"repeated corpus field {key!r} in {text!r}")
                fields[key] = int(value)
            return cls(mode, order, seed=fields.get("seed"), count=fields.get("count"))
        raise ValueError(f"bad corpus mode {mode!r} in {text!r}")

    @property
    def token(self) -> str:
        if self.mode == "random":
            return f"random:{self.order}:seed={self.seed}:count={self.count}"
        return f"{self.mode}:{self.order}"

    def orders(self) -> tuple[int, ...]:
        if self.mode == "random":
            return (self.order,)
        return tuple(range(3, self.order + 1))

    def check_refutable(self) -> None:
        """Raise ValueError unless the corpus holds a square of order 3 or more.

        Refutation search, like the exhaustive corpora, starts at order 3,
        so a survey over anything less would report verdicts from nothing.
        """
        if self.mode == "random" and self.count < 1:
            raise ValueError(f"corpus {self.token} holds no squares")
        if not any(n >= 3 for n in self.orders()):
            raise ValueError(f"corpus {self.token} holds no squares of order 3 or more")

    def __str__(self) -> str:
        return self.token


def _latin_squares(
    n: int, reduced: bool = False, getrandbits: Callable[[int], int] | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Order-n Latin squares as row tuples, filled row-major on an explicit stack.

    The squares come in lexicographic order unless ``getrandbits`` shuffles
    each cell's candidates as random_rows describes.  ``reduced`` pins row 0
    and column 0 to their index.
    """
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    col_free = [full] * n
    draw_bits = [(i + 1).bit_length() for i in range(n)]  # per swap index below i + 1
    # One list per cell filled: its untried values, the next one last.
    stack: list[list[int]] = []
    r = c = 0
    row_free = full  # values free in row r before cell (r, c)
    while True:
        avail = row_free & col_free[c]
        if reduced:
            if r == 0:
                avail &= 1 << c
            elif c == 0:
                avail &= 1 << r
        if avail & (avail - 1):
            values = []  # descending, so that pop() gives the least
            while avail:
                v = avail.bit_length() - 1
                avail ^= 1 << v
                values.append(v)
            if getrandbits:  # shuffle in reverse: ascending index i is last - i
                last = len(values) - 1
                for i in range(last, 0, -1):
                    k = draw_bits[i]
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    values[last - i], values[last - j] = values[last - j], values[last - i]
            v = values.pop()
        elif avail:
            v = avail.bit_length() - 1
            values = []
        else:
            # Dead end: step back to the last cell with an untried value.
            while True:
                if not stack:
                    return
                if c:
                    c -= 1
                else:
                    r -= 1
                    c = n - 1
                    row_free = 0
                bit = 1 << grid[r][c]
                col_free[c] ^= bit
                row_free ^= bit
                values = stack.pop()
                if values:
                    v = values.pop()
                    break
        stack.append(values)
        bit = 1 << v
        grid[r][c] = v
        col_free[c] ^= bit
        row_free ^= bit
        c += 1
        if c == n:
            r += 1
            c = 0
            row_free = full
            if r == n:
                # Column 0 is full now, so the next step backtracks.
                yield tuple(map(tuple, grid))


def _check_order(n: int) -> None:
    """Raise unless n is an order exhaustive enumeration accepts.

    ValueError below 1; OrderTooLargeError above exhaustive_bound().
    """
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    bound = exhaustive_bound()
    if n > bound:
        raise OrderTooLargeError(n, bound)


def enumerate_all(n: int) -> Iterator[Quasigroup]:
    """Every order-n Latin square exactly once, lexicographic row-major."""
    _check_order(n)
    return map(from_table, _latin_squares(n))


def enumerate_reduced(n: int) -> Iterator[Quasigroup]:
    """Order-n Latin squares with first row and column in natural order."""
    _check_order(n)
    return map(from_table, _latin_squares(n, reduced=True))


def count_all(n: int) -> int:
    """Cardinality of enumerate_all(n), without storing squares."""
    _check_order(n)
    return sum(1 for _ in _latin_squares(n))


def count_reduced(n: int) -> int:
    _check_order(n)
    return sum(1 for _ in _latin_squares(n, reduced=True))


def random_rows(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """One Latin square from seeded randomized backtracking.

    Not uniform over Latin squares; refutation search needs variety, not
    uniformity.  Deterministic for fixed (n, seed): the first square of the
    exhaustive search with each cell's candidates shuffled.

    The draw contract: each cell entered takes its candidates (the values
    free in its row and column) in ascending order and shuffles them with
    Fisher-Yates, drawing each swap index j <= i by rejection sampling from
    ``getrandbits((i + 1).bit_length())``, then tries them in shuffled
    order.  These are exactly the draws of ``Random.shuffle`` (the same
    code in Python 3.10 to 3.13), so the squares are those of shuffling
    with it; a cell with no or one candidate draws nothing.
    """
    return next(_latin_squares(n, getrandbits=random.Random(f"{n}:{seed}").getrandbits))


def random_square(n: int, seed: int) -> Quasigroup:
    return from_table(random_rows(n, seed))


def iter_corpus_rows(
    desc: CorpusDescriptor,
) -> Iterator[tuple[int, int, tuple[tuple[int, ...], ...]]]:
    """(order, stream index, rows) triples for a corpus, in canonical order.

    Stream indices restart at 0 for each order.  This is the raw-row
    iterator used by the survey engine; enumerate_all/enumerate_reduced are
    the validated public streams.  The exhaustive bound is checked here, at
    the call, not at the first pull: a caller that pulls nothing still
    learns that the corpus is out of bounds.
    """
    if desc.mode != "random":
        _check_order(desc.order)
    return _corpus_rows(desc)


def _corpus_rows(
    desc: CorpusDescriptor,
) -> Iterator[tuple[int, int, tuple[tuple[int, ...], ...]]]:
    if desc.mode == "random":
        for i in range(desc.count):
            yield desc.order, i, random_rows(desc.order, desc.seed + i)
        return
    for order in desc.orders():
        for i, rows in enumerate(_latin_squares(order, reduced=desc.mode == "reduced")):
            yield order, i, rows


def iter_corpus(desc: CorpusDescriptor) -> Iterator[tuple[int, int, Quasigroup]]:
    for order, i, rows in iter_corpus_rows(desc):
        yield order, i, from_table(rows)
