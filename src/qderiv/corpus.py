"""Exhaustive enumeration and seeded random sampling of Latin squares.

Exhaustive streams are emitted in lexicographic row-major order; that order
defines "minimal counterexample" everywhere downstream.  Column-wise cell
filling inside each row preserves the lexicographic guarantee (branching on
the most constrained cell first would not), with bitmask pruning doing the
heavy lifting.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Iterator

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
    bound = int(env)
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
    (degenerate orders 1 and 2 trivially satisfy many unit claims and are
    excluded from refutation search).  Random corpora hold ``count`` seeded
    squares of exactly ``order``.
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
            seed = count = None
            for part in parts[2:]:
                key, _, value = part.partition("=")
                if key == "seed":
                    seed = int(value)
                elif key == "count":
                    count = int(value)
                else:
                    raise ValueError(f"bad corpus field {part!r} in {text!r}")
            return cls(mode, order, seed=seed, count=count)
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


def _iter_latin_rows(
    n: int, reduced: bool = False
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All n x n Latin squares as row tuples, lexicographic row-major."""
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    col_free = [full] * n

    def fill(r: int, c: int, row_free: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if c == n:
            if r + 1 == n:
                yield tuple(tuple(row) for row in grid)
            else:
                yield from fill(r + 1, 0, full)
            return
        avail = row_free & col_free[c]
        if reduced:
            if r == 0:
                avail &= 1 << c
            elif c == 0:
                avail &= 1 << r
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            grid[r][c] = v
            col_free[c] ^= bit
            yield from fill(r, c + 1, row_free ^ bit)
            col_free[c] ^= bit

    yield from fill(0, 0, full)


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
    return map(from_table, _iter_latin_rows(n))


def enumerate_reduced(n: int) -> Iterator[Quasigroup]:
    """Order-n Latin squares with first row and column in natural order."""
    _check_order(n)
    return map(from_table, _iter_latin_rows(n, reduced=True))


def count_all(n: int) -> int:
    """Cardinality of enumerate_all(n), without storing squares."""
    _check_order(n)
    return sum(1 for _ in _iter_latin_rows(n))


def count_reduced(n: int) -> int:
    _check_order(n)
    return sum(1 for _ in _iter_latin_rows(n, reduced=True))


def random_rows(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """One Latin square from seeded randomized backtracking.

    Not uniform over Latin squares; refutation search needs variety, not
    uniformity.  Deterministic for fixed (n, seed).  Cells are filled in
    row-major order by a depth-first search on an explicit stack, so the
    caller's stack depth does not matter at any order.
    """
    rng = random.Random(f"{n}:{seed}")
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    col_free = [full] * n

    def candidates(c: int, row_free: int) -> tuple[Iterator[int], int]:
        avail = row_free & col_free[c]
        values = []
        while avail:
            bit = avail & -avail
            avail ^= bit
            values.append(bit.bit_length() - 1)
        rng.shuffle(values)
        return iter(values), row_free

    # One frame per cell entered: its untried values and the row's free values.
    stack = [candidates(0, full)]
    while True:
        r, c = divmod(len(stack) - 1, n)
        untried, row_free = stack[-1]
        v = next(untried, None)
        if v is None:
            stack.pop()
            assert stack, "backtracking always completes"
            r, c = divmod(len(stack) - 1, n)
            col_free[c] ^= 1 << grid[r][c]
            continue
        bit = 1 << v
        grid[r][c] = v
        col_free[c] ^= bit
        if len(stack) == n * n:
            return tuple(tuple(row) for row in grid)
        if c + 1 == n:
            stack.append(candidates(0, full))
        else:
            stack.append(candidates(c + 1, row_free ^ bit))


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
    reduced = desc.mode == "reduced"
    for order in desc.orders():
        for i, rows in enumerate(_iter_latin_rows(order, reduced=reduced)):
            yield order, i, rows


def iter_corpus(desc: CorpusDescriptor) -> Iterator[tuple[int, int, Quasigroup]]:
    for order, i, rows in iter_corpus_rows(desc):
        yield order, i, from_table(rows)
