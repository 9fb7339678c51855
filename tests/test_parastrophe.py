from __future__ import annotations

import itertools

from conftest import small_corpus
from qderiv.corpus import enumerate_all, random_square
from qderiv.parastrophe import (
    ParastropheSym,
    apply_parastrophe,
    compose,
    transfer_kind,
    verify_translation_transfer,
)
from qderiv.qcore import TranslationKind, check_identities, translation_images


def test_s12_of_commutative_square_is_itself(z3):
    assert apply_parastrophe(z3, ParastropheSym.S12).mul_table == z3.mul_table


def test_s23_of_cyclic_group(z3):
    b = apply_parastrophe(z3, ParastropheSym.S23)
    assert b.mul_table == ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def test_symbol_operation_mapping(z3, q2):
    # e->xy, 12->yx, 23->x\y, 132->y\x, 13->y/x, 123->x/y
    for q in (z3, q2):
        ops = {
            ParastropheSym.ID: lambda x, y: q.mul(x, y),
            ParastropheSym.S12: lambda x, y: q.mul(y, x),
            ParastropheSym.S23: lambda x, y: q.ldiv(x, y),
            ParastropheSym.S132: lambda x, y: q.ldiv(y, x),
            ParastropheSym.S13: lambda x, y: q.rdiv(y, x),
            ParastropheSym.S123: lambda x, y: q.rdiv(x, y),
        }
        for sigma, op in ops.items():
            expected = tuple(tuple(op(x, y) for y in range(3)) for x in range(3))
            assert apply_parastrophe(q, sigma).mul_table == expected, sigma


def test_parastrophes_stay_latin():
    for q in small_corpus(4):
        for sigma in ParastropheSym:
            assert check_identities(apply_parastrophe(q, sigma)).all_hold


def test_compose_identity_and_involutions():
    for t in ParastropheSym:
        assert compose(ParastropheSym.ID, t) == t
        assert compose(t, ParastropheSym.ID) == t
    assert compose(ParastropheSym.S12, ParastropheSym.S12) == ParastropheSym.ID


def test_compose_s12_s13():
    assert compose(ParastropheSym.S12, ParastropheSym.S13) in (
        ParastropheSym.S123,
        ParastropheSym.S132,
    )


def test_compose_matches_functional_equation_exhaustively():
    # apply(compose(s,t), q) == apply(s, apply(t, q)) for all 36 pairs
    squares = list(enumerate_all(3)) + [random_square(5, seed) for seed in range(3)]
    for q in squares:
        for s, t in itertools.product(ParastropheSym, repeat=2):
            lhs = apply_parastrophe(q, compose(s, t))
            rhs = apply_parastrophe(apply_parastrophe(q, t), s)
            assert lhs.mul_table == rhs.mul_table, (s, t)


def test_tags_form_a_group_of_order_six():
    syms = set(ParastropheSym)
    for s in syms:
        assert {compose(s, t) for t in syms} == syms


def test_transfer_example_cell(z3):
    # the (R, 132) cell designates Li
    assert transfer_kind(TranslationKind.R, ParastropheSym.S132) == TranslationKind.LINV
    b = apply_parastrophe(z3, ParastropheSym.S132)
    assert translation_images(b, TranslationKind.R, 1) == (2, 0, 1)
    assert translation_images(z3, TranslationKind.LINV, 1) == (2, 0, 1)


def test_transfer_identity_column():
    for kind in TranslationKind:
        assert transfer_kind(kind, ParastropheSym.ID) == kind


def test_translation_transfer_small_corpus():
    for q in small_corpus(3):
        cells = verify_translation_transfer(q)
        assert len(cells) == 36
        assert all(cell.ok for cell in cells)


def test_translation_transfer_random_order_five():
    for seed in range(5):
        q = random_square(5, seed)
        assert all(cell.ok for cell in verify_translation_transfer(q))
