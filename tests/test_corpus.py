from __future__ import annotations

import hashlib
import math
import random

import pytest

from conftest import Z3_ROWS, failing_division_identities
from qderiv.corpus import (
    CorpusDescriptor,
    OrderTooLargeError,
    count_all,
    count_reduced,
    enumerate_all,
    enumerate_reduced,
    exhaustive_bound,
    iter_corpus_rows,
    random_rows,
    random_square,
)


def test_counts_small_orders():
    assert count_all(1) == 1
    assert count_all(2) == 2
    assert count_all(3) == 12
    assert count_all(4) == 576


def test_reduced_counts():
    assert count_reduced(2) == 1
    assert count_reduced(3) == 1
    assert count_reduced(4) == 4
    assert count_reduced(5) == 56


def test_total_equals_reduced_times_row_column_relabelings():
    for n in range(1, 5):
        expected = count_reduced(n) * math.factorial(n) * math.factorial(n - 1)
        assert count_all(n) == expected


def test_stream_is_lexicographic_and_duplicate_free():
    streams = [(enumerate_all, n, count) for n, count in zip(range(1, 5), (1, 2, 12, 576))]
    streams += [(enumerate_reduced, n, count) for n, count in zip(range(1, 6), (1, 1, 1, 4, 56))]
    for enumerate_n, n, count in streams:
        flats = [tuple(v for row in q.mul_table for v in row) for q in enumerate_n(n)]
        assert len(flats) == count, (enumerate_n.__name__, n)
        assert all(a < b for a, b in zip(flats, flats[1:])), (enumerate_n.__name__, n)
    assert next(iter(enumerate_all(3))).mul_table == Z3_ROWS


def test_every_emitted_square_validates():
    for q in enumerate_all(3):
        assert failing_division_identities(q) == []
    for q in enumerate_reduced(4):
        assert failing_division_identities(q) == []


def test_reduced_squares_have_natural_first_row_and_column():
    for q in enumerate_reduced(4):
        assert q.mul_table[0] == (0, 1, 2, 3)
        assert tuple(q.mul_table[r][0] for r in range(4)) == (0, 1, 2, 3)


def test_order_too_large():
    with pytest.raises(OrderTooLargeError):
        count_all(6)
    with pytest.raises(OrderTooLargeError):
        list(enumerate_all(7))


def test_bound_override_via_environment(monkeypatch, capsys):
    monkeypatch.setenv("QD_MAX_ORDER", "6")
    assert exhaustive_bound() == 6
    assert "warning" in capsys.readouterr().err
    monkeypatch.delenv("QD_MAX_ORDER")
    assert exhaustive_bound() == 5


def test_bound_override_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("QD_MAX_ORDER", "abc")
    with pytest.raises(ValueError, match="^QD_MAX_ORDER must be an integer, got 'abc'$"):
        exhaustive_bound()


def test_random_square_deterministic_and_valid():
    a = random_square(8, 1)
    b = random_square(8, 1)
    assert a.mul_table == b.mul_table
    assert random_square(8, 2).mul_table != a.mul_table
    for seed in range(5):
        assert failing_division_identities(random_square(5, seed)) == []
    assert random_square(1, 0).mul_table == ((0,),)


def test_descriptor_parse_and_token_round_trip():
    for text in ("exhaustive:4", "reduced:5", "random:8:seed=42:count=1000"):
        desc = CorpusDescriptor.parse(text)
        assert desc.token == text
        assert CorpusDescriptor.parse(desc.token) == desc
    assert CorpusDescriptor.parse("exhaustive:4").orders() == (3, 4)
    assert CorpusDescriptor.parse("random:8:seed=1:count=2").orders() == (8,)


def test_descriptor_rejects_bad_input():
    with pytest.raises(ValueError):
        CorpusDescriptor.parse("exhaustive")
    with pytest.raises(ValueError):
        CorpusDescriptor.parse("random:8")  # needs seed and count
    with pytest.raises(ValueError):
        CorpusDescriptor.parse("weird:4")
    for text in (
        "random:8:seed=1:count=5:seed=2",
        "random:8:seed=1:count=5:count=6",
        "random:8:seed=1:seed=1:count=5",
        "random:8:count=5:seed=1:count=5",
    ):
        with pytest.raises(ValueError, match="repeated corpus field"):
            CorpusDescriptor.parse(text)


def test_iter_corpus_rows_spans_orders_in_order():
    triples = list(iter_corpus_rows(CorpusDescriptor.parse("exhaustive:4")))
    orders = [o for o, _, _ in triples]
    assert orders == sorted(orders)
    assert orders.count(3) == 12 and orders.count(4) == 576
    assert [i for o, i, _ in triples if o == 3] == list(range(12))


def test_iter_corpus_rows_random_mode_is_seed_indexed():
    desc = CorpusDescriptor.parse("random:5:seed=9:count=4")
    rows = [r for _, _, r in iter_corpus_rows(desc)]
    assert rows[0] == random_square(5, 9).mul_table
    assert rows[3] == random_square(5, 12).mul_table


def test_iter_corpus_rows_checks_the_bound_at_the_call(monkeypatch):
    monkeypatch.delenv("QD_MAX_ORDER", raising=False)
    with pytest.raises(OrderTooLargeError):
        iter_corpus_rows(CorpusDescriptor.parse("exhaustive:6"))  # nothing pulled


def test_orders_below_one_are_rejected():
    with pytest.raises(ValueError):
        count_all(0)
    with pytest.raises(ValueError):
        enumerate_all(-1)  # at the call, before any square is pulled
    for check in (count_reduced, enumerate_reduced):
        with pytest.raises(ValueError):
            check(0)


def test_check_refutable():
    for token in ("exhaustive:3", "reduced:4", "random:3:seed=0:count=1"):
        CorpusDescriptor.parse(token).check_refutable()
    for token in ("exhaustive:2", "reduced:1", "random:2:seed=0:count=4", "random:5:seed=0:count=0"):
        with pytest.raises(ValueError):
            CorpusDescriptor.parse(token).check_refutable()


# First 16 hex digits of the sha256 of repr(random_rows(n, s)) over seeds
# 0-2 (orders below 24) or seed 1 (orders 24 and up; higher orders are slow
# at some seeds), recorded from the recursive generator that preceded the
# explicit-stack one.
RANDOM_ROWS_DIGESTS = {
    3: "b524477f32e8d0b0",
    4: "e08d8e52cdd4f28a",
    5: "bb03c89c1894cc37",
    6: "775967f83bb3b206",
    7: "8d2bdc32e16468b0",
    8: "b4e1bada6523592a",
    9: "d699e42197abcd43",
    10: "5fd5b23ba01a802c",
    11: "62ffe32bd180dc86",
    12: "8e74db97b164509d",
    13: "b3086a3e643ff237",
    14: "1c0536a36205e9c6",
    15: "15c4b7b3cd677d38",
    16: "88a49ebb005efb76",
    17: "d048afb9bff9f13f",
    18: "5ba12f34dca1e7b3",
    19: "dde4b3bd91397f39",
    20: "aa2d6ab9c1f20d15",
    21: "a14b6d699ee0df0f",
    22: "116e2c1ece6b3c56",
    23: "ea1840f9f63813da",
    24: "563fc97b3ce8fe30",
    25: "d28b9fbbd056b9a7",
    26: "f4b770a7dc4ee81f",
    27: "a201e3b770be9799",
    28: "f1e4fb9d7edc0d73",
    29: "563440444f5b731e",
    30: "f6454acffe1026c1",
    31: "ac767bb14ff1a05b",
}


def test_random_rows_are_unchanged():
    for n, digest in RANDOM_ROWS_DIGESTS.items():
        h = hashlib.sha256()
        for seed in (0, 1, 2) if n < 24 else (1,):
            h.update(repr(random_rows(n, seed)).encode())
        assert h.hexdigest()[:16] == digest, n


def shuffling_random_rows(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The reference generator: the same search, shuffling with Random.shuffle."""
    rng = random.Random(f"{n}:{seed}")
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    col_free = [full] * n

    def candidates(c, row_free):
        avail = row_free & col_free[c]
        values = []
        while avail:
            bit = avail & -avail
            avail ^= bit
            values.append(bit.bit_length() - 1)
        rng.shuffle(values)
        return iter(values), row_free

    stack = [candidates(0, full)]
    while True:
        r, c = divmod(len(stack) - 1, n)
        untried, row_free = stack[-1]
        v = next(untried, None)
        if v is None:
            stack.pop()
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


def test_random_rows_draw_like_random_shuffle():
    cases = [(n, seed) for n in range(1, 21) for seed in range(50)]
    cases += [(16, seed) for seed in range(1, 101)]  # the benchmark's order
    for n, seed in cases:
        assert random_rows(n, seed) == shuffling_random_rows(n, seed), (n, seed)


def test_random_rows_does_not_depend_on_stack_depth():
    def deep(frames):
        return random_rows(31, 0) if frames == 0 else deep(frames - 1)

    assert deep(200) == random_rows(31, 0)


def test_random_orders_above_the_engine_limit_are_rejected():
    CorpusDescriptor.parse("random:256:seed=0:count=1")
    with pytest.raises(ValueError, match="256"):
        CorpusDescriptor.parse("random:257:seed=0:count=1")
