from __future__ import annotations

import pytest

from conftest import DIVISION_IDENTITIES, Z3_ROWS, failing_division_identities, small_corpus
from qderiv.qcore import (
    BadEntryError,
    NotLatinError,
    TranslationKind,
    Quasigroup,
    from_table,
    invert_images,
    translation_images,
)


def test_from_table_accepts_cyclic_group():
    q = from_table(Z3_ROWS)
    assert q.n == 3
    assert q.mul_table == Z3_ROWS


def test_from_table_accepts_trivial_order_one():
    q = from_table([[0]])
    assert q.n == 1
    assert q.mul(0, 0) == 0


def test_from_table_rejects_row_duplicate():
    with pytest.raises(NotLatinError) as exc:
        from_table([[0, 0], [1, 1]])
    assert exc.value.axis == "row"


def test_from_table_rejects_column_duplicate():
    with pytest.raises(NotLatinError) as exc:
        from_table([[0, 1], [0, 1]])
    assert exc.value.axis == "col"


def test_from_table_rejects_out_of_range_entry():
    with pytest.raises(BadEntryError):
        from_table([[0, 1], [1, 2]])
    with pytest.raises(BadEntryError):
        from_table([[0, 1], [1]])


def test_mul_examples(z3):
    assert z3.mul(1, 2) == 0
    assert [z3.mul(0, y) for y in range(3)] == [0, 1, 2]


def test_division_examples(z3):
    assert z3.ldiv(1, 0) == 2
    assert z3.rdiv(0, 2) == 1


def test_divisions_solve_their_equations():
    for q in small_corpus(4):
        for x in range(q.n):
            for y in range(q.n):
                assert q.mul(x, q.ldiv(x, y)) == y
                assert q.mul(q.rdiv(y, x), x) == y
                assert q.rdiv(x, q.ldiv(y, x)) == y


def test_translation_examples(z3):
    assert translation_images(z3, TranslationKind.L, 1) == (1, 2, 0)
    assert translation_images(z3, TranslationKind.P, 0) == (0, 2, 1)


def test_translation_rows_and_columns():
    for q in small_corpus(3):
        for a in range(q.n):
            assert translation_images(q, TranslationKind.L, a) == q.row(a)
            assert translation_images(q, TranslationKind.R, a) == q.col(a)


def test_inverse_translations_are_inverses():
    pairs = [
        (TranslationKind.L, TranslationKind.LINV),
        (TranslationKind.R, TranslationKind.RINV),
        (TranslationKind.P, TranslationKind.PINV),
    ]
    for q in small_corpus(4):
        for a in range(q.n):
            for kind, inv_kind in pairs:
                t = translation_images(q, kind, a)
                assert translation_images(q, inv_kind, a) == invert_images(t)


def test_middle_translation_defining_equation():
    # x * P_a(x) = a, and Pi_a(y) = a/y is the left translation of / at a
    for q in small_corpus(4):
        for a in range(q.n):
            p = translation_images(q, TranslationKind.P, a)
            for x in range(q.n):
                assert q.mul(x, p[x]) == a
            pi = translation_images(q, TranslationKind.PINV, a)
            assert pi == tuple(q.rdiv(a, y) for y in range(q.n))


def test_check_identities_on_examples(z3, q2):
    assert failing_division_identities(z3) == []
    assert failing_division_identities(q2) == []


def test_check_identities_reports_six_named_checks(z3):
    assert len(DIVISION_IDENTITIES) == 6
    assert failing_division_identities(z3) == []
    # x\y read off the multiplication table breaks the four that use it
    broken = Quasigroup(3, z3.mul_table, z3.mul_table, z3.rdiv_table)
    assert failing_division_identities(broken) == [
        "x*(x\\y) = y", "x\\(x*y) = y", "x/(y\\x) = y", "(x/y)\\x = y"
    ]


def test_division_identities_exhaustive_small_orders():
    for q in small_corpus(4):
        assert failing_division_identities(q) == []


def test_permutation_compose_and_inverse():
    p = (1, 2, 0)
    inv = invert_images(p)
    assert inv == (2, 0, 1)
    assert tuple(p[v] for v in inv) == tuple(inv[v] for v in p) == (0, 1, 2)
    assert invert_images(range(4)) == (0, 1, 2, 3)


def test_translation_roles_match_the_tables():
    # a kind with roles (f, i, o) sends t[i] to t[o] for every triple
    # t = (x, y, x*y) with t[f] = a; its inverse swaps input and output
    for q in small_corpus(3):
        for kind in TranslationKind:
            for a in range(q.n):
                images = translation_images(q, kind, a)
                assert translation_images(q, kind.inverse, a) == invert_images(images)
                if kind is TranslationKind.E:
                    assert kind.roles is None and images == tuple(range(q.n))
                    continue
                f, i, o = kind.roles
                for x, row in enumerate(q.mul_table):
                    for y, z in enumerate(row):
                        t = (x, y, z)
                        if t[f] == a:
                            assert images[t[i]] == t[o], (kind, a, t)
