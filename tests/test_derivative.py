from __future__ import annotations

import pytest

from conftest import DERIVED_1, DERIVED_2, THEOREM_CLAIMS, small_corpus
from qderiv.cli import THEOREM_CASES, run
from qderiv.corpus import enumerate_all, random_square
from qderiv.derivative import (
    CONVENTION_A,
    Convention,
    DerivativeSpec,
    IsotopyTriple,
    all_conventions,
    apply_derivative,
    enumerate_specs,
    enumerate_triples,
    left_derivative,
    middle_derivative,
    middle_inverse_derivative,
    right_derivative,
)
from qderiv.parastrophe import ParastropheSym
from qderiv.qcore import TranslationKind, check_identities, from_table, translation_images
from qderiv.survey import CaseId
from qderiv.units import find_unit, left_unit, right_unit

E, L, LI, R, RI, P, PI = (
    TranslationKind.E,
    TranslationKind.L,
    TranslationKind.LINV,
    TranslationKind.R,
    TranslationKind.RINV,
    TranslationKind.P,
    TranslationKind.PINV,
)


def spec(sigma: ParastropheSym, a, b, c) -> DerivativeSpec:
    return DerivativeSpec(sigma, IsotopyTriple(a, b, c))


EXAMPLE_SPEC = spec(ParastropheSym.S23, L, PI, E)


def test_triple_requires_exactly_one_identity():
    with pytest.raises(ValueError):
        IsotopyTriple(L, L, L)
    with pytest.raises(ValueError):
        IsotopyTriple(E, E, L)


def test_enumerate_specs_count_and_head():
    specs = enumerate_specs()
    assert len(specs) == 648
    assert len(set(specs)) == 648
    assert specs[0] == spec(ParastropheSym.ID, L, L, E)
    assert len(enumerate_triples()) == 108
    # 648 specs x 3 unit kinds = 1944 survey cases
    assert len(specs) * 3 == 1944


def test_spec_block_layout():
    specs = enumerate_specs()
    # rows of the first block run through the six parastrophes in table order
    sigmas = [s.sigma for s in specs[:6]]
    assert sigmas == [
        ParastropheSym.ID,
        ParastropheSym.S12,
        ParastropheSym.S23,
        ParastropheSym.S132,
        ParastropheSym.S13,
        ParastropheSym.S123,
    ]
    # second block keeps alpha=L and moves beta to Li
    assert specs[6].triple == IsotopyTriple(L, LI, E)
    # the three patterns for base kind L come in order (L,*,E), (L,E,*), (E,L,*)
    assert specs[36].triple == IsotopyTriple(L, E, L)
    assert specs[72].triple == IsotopyTriple(E, L, L)


def test_example_derivative_tables(z3, q2):
    d1 = apply_derivative(z3, 0, EXAMPLE_SPEC, CONVENTION_A)
    assert d1.mul_table == DERIVED_1
    d2 = apply_derivative(q2, 0, EXAMPLE_SPEC, CONVENTION_A)
    assert d2.mul_table == DERIVED_2


def test_derivative_at_group_identity_is_identity_isotopy(z3):
    # a=0 is the group identity, so L_0 = id and (Id,(L,E,L)) returns z3
    d = apply_derivative(z3, 0, spec(ParastropheSym.ID, L, E, L), CONVENTION_A)
    assert d.mul_table == z3.mul_table


def test_right_derivative_of_cyclic_group(z3):
    assert right_derivative(z3, 1).mul_table == z3.mul_table


def test_derivatives_always_latin():
    # full at order 3: every spec, square and element (apply_derivative
    # revalidates the Latin property internally)
    for q in enumerate_all(3):
        for s in enumerate_specs():
            for a in range(q.n):
                apply_derivative(q, a, s, CONVENTION_A)
    # spot-sampled at order 4, across all conventions
    q = random_square(4, 7)
    for s in enumerate_specs()[::29]:
        for conv in all_conventions():
            assert check_identities(apply_derivative(q, 1, s, conv)).all_hold


def test_conv_a_matches_direct_formula_when_gamma_is_identity():
    # independent recomputation: x . y = B(alpha x, beta y) for every
    # gamma=E block (the arguments transform directly, nothing hits the
    # product), with B written out from the six operations
    q = random_square(4, 3)
    ident = tuple(range(q.n))
    ops = {
        ParastropheSym.ID: lambda x, y: q.mul(x, y),
        ParastropheSym.S12: lambda x, y: q.mul(y, x),
        ParastropheSym.S23: lambda x, y: q.ldiv(x, y),
        ParastropheSym.S132: lambda x, y: q.ldiv(y, x),
        ParastropheSym.S13: lambda x, y: q.rdiv(y, x),
        ParastropheSym.S123: lambda x, y: q.rdiv(x, y),
    }

    def images(component, a):
        if component is E:
            return ident
        return translation_images(q, component, a)

    checked = 0
    for s in enumerate_specs():
        if s.triple.gamma is not E:
            continue
        checked += 1
        op = ops[s.sigma]
        for a in range(q.n):
            alpha = images(s.triple.alpha, a)
            beta = images(s.triple.beta, a)
            expected = tuple(
                tuple(op(alpha[x], beta[y]) for y in range(q.n)) for x in range(q.n)
            )
            assert apply_derivative(q, a, s, CONVENTION_A).mul_table == expected
    assert checked == 216


def test_right_derivative_satisfies_its_defining_equation():
    # (a*x)*y = a*(x . y), exhaustively on small orders
    for q in small_corpus(3):
        for a in range(q.n):
            rd = right_derivative(q, a)
            for x in range(q.n):
                for y in range(q.n):
                    assert q.mul(q.mul(a, x), y) == q.mul(a, rd.mul(x, y))


def test_left_derivative_satisfies_its_defining_equation():
    # (b . c)*a = b*(c*a)
    for q in small_corpus(3):
        for a in range(q.n):
            ld = left_derivative(q, a)
            for b in range(q.n):
                for c in range(q.n):
                    assert q.mul(ld.mul(b, c), a) == q.mul(b, q.mul(c, a))


def test_classical_derivative_units_with_witnesses():
    for q in small_corpus(4):
        for a in range(q.n):
            assert left_unit(right_derivative(q, a)) == q.ldiv(a, a)
            assert right_unit(left_derivative(q, a)) == q.rdiv(a, a)
            assert left_unit(middle_derivative(q, a)) == q.rdiv(a, a)
            assert right_unit(middle_inverse_derivative(q, a)) == q.ldiv(a, a)


def test_translation_source_irrelevant_for_identity_parastrophe():
    q = random_square(5, 11)
    base = Convention("direct", "inverse", "base")
    para = Convention("direct", "inverse", "parastrophe")
    for s in enumerate_specs():
        if s.sigma is not ParastropheSym.ID:
            continue
        for a in (0, 3):
            assert (
                apply_derivative(q, a, s, base).mul_table
                == apply_derivative(q, a, s, para).mul_table
            )


def test_translation_source_changes_other_parastrophes():
    q = random_square(5, 11)
    base = Convention("direct", "inverse", "base")
    para = Convention("direct", "inverse", "parastrophe")
    differing = sum(
        apply_derivative(q, 0, s, base).mul_table != apply_derivative(q, 0, s, para).mul_table
        for s in enumerate_specs()
        if s.sigma is not ParastropheSym.ID
    )
    assert differing > 0


def test_theorem_check_examples(z3, capsys):
    def claimed_unit(q, a, claim):
        s, kind = THEOREM_CLAIMS[claim]
        return find_unit(apply_derivative(q, a, s, CONVENTION_A), kind)

    assert claimed_unit(z3, 1, 1) == 1
    for a in range(3):
        assert claimed_unit(z3, a, 3) is not None
    one = from_table([[0]])
    for claim in (1, 2, 3):
        assert claimed_unit(one, 0, claim) == 0
    # verify theorem checks exactly these three claims and refuses any other
    assert THEOREM_CASES == {c: CaseId(*claim) for c, claim in THEOREM_CLAIMS.items()}
    assert run(["verify", "theorem", "--claim", "4"]) == 1


def test_convention_tokens_and_alias():
    assert CONVENTION_A.token == "args=direct;result=inverse;trans=base"
    assert len(all_conventions()) == 8
    assert len({c.token for c in all_conventions()}) == 8
    with pytest.raises(ValueError):
        Convention("sideways", "inverse", "base")
