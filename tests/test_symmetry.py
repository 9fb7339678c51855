"""The S3 action on the 648 derivative specs and the 1944 cases.

The tau-parastrophe of a derivative of q at a is again a derivative of q at
a (derivative.act), and a unit with constant role r (f 0, e 1, s 2) becomes
one with constant role pi_tau[r].  These tests check the action against the
derived tables, and the survey and the reference table against the orbits.
"""

from __future__ import annotations

import functools
import itertools

from qderiv.corpus import CorpusDescriptor, enumerate_all, random_square
from qderiv.derivative import CONVENTION_A, act, all_conventions, apply_derivative, enumerate_specs
from qderiv.parastrophe import _ROLE_MAP, ParastropheSym, apply_parastrophe
from qderiv.survey import (
    PLUS,
    MINUS,
    UNKNOWN,
    UNIT_ORDER,
    CaseId,
    Certificate,
    all_cases,
    case_probe,
    compute_table,
    embedded_paper_table,
    run_survey_multi,
)
from qderiv.units import UnitKind

_SYM_BY_MAP = {pi: sym for sym, pi in _ROLE_MAP.items()}


def product(s: ParastropheSym, t: ParastropheSym) -> ParastropheSym:
    """s after t in S3: the symbol whose role map is i -> pi_s[pi_t[i]]."""
    ps, pt = _ROLE_MAP[s], _ROLE_MAP[t]
    return _SYM_BY_MAP[tuple(ps[pt[i]] for i in range(3))]


def act_case(tau: ParastropheSym, case: CaseId) -> CaseId:
    role = UNIT_ORDER.index(case.unit)
    return CaseId(act(tau, case.spec), UNIT_ORDER[_ROLE_MAP[tau][role]])


def orbit(case: CaseId) -> frozenset[CaseId]:
    return frozenset(act_case(tau, case) for tau in ParastropheSym)


@functools.cache
def orbits() -> tuple[frozenset[CaseId], ...]:
    return tuple({orbit(case) for case in all_cases()})


@functools.cache
def exhaustive_four_surveys():
    return run_survey_multi(CorpusDescriptor.parse("exhaustive:4"), all_conventions())


def test_act_is_a_group_action_of_s3():
    specs = enumerate_specs()
    for spec in specs:
        assert act(ParastropheSym.ID, spec) == spec
        for s, t in itertools.product(ParastropheSym, repeat=2):
            assert act(s, act(t, spec)) == act(product(s, t), spec), (spec.token, s, t)
    for tau in ParastropheSym:
        assert sorted(act(tau, s).token for s in specs) == sorted(s.token for s in specs)


def test_act_is_free_on_the_cases_with_324_orbits_of_six():
    cases = set(all_cases())
    for case in cases:
        assert len(orbit(case)) == 6 and orbit(case) <= cases, case.token
    assert len(orbits()) == 324
    assert sum(map(len, orbits())) == 1944


def test_parastrophe_of_a_derivative_is_the_acted_derivative():
    # every a on order-4 squares 5, 28 and 37, and a=0 on one order-7 square
    order4 = list(enumerate_all(4))
    points = [(order4[i], a) for i in (5, 28, 37) for a in range(4)]
    points.append((random_square(7, 1), 0))
    specs = enumerate_specs()
    for q, a in points:
        derived = {spec: apply_derivative(q, a, spec) for spec in specs}
        for spec, d in derived.items():
            for tau in ParastropheSym:
                assert apply_parastrophe(d, tau) == derived[act(tau, spec)], (spec.token, tau, a)


def test_each_case_compiles_as_either_left_unit_orbit_mate():
    for case in all_cases():
        role = UNIT_ORDER.index(case.unit)
        taus = [tau for tau in ParastropheSym if _ROLE_MAP[tau][role] == 0]
        assert len(taus) == 2
        for tau in taus:
            mate = act_case(tau, case)
            assert mate.unit is UnitKind.LEFT
            assert case_probe(mate, CONVENTION_A) == case_probe(case, CONVENTION_A), case.token


def test_exhaustive_four_is_orbit_constant_under_every_convention():
    # under C a case (s, u) names the derivative of (conv.relabel(s), u) under A,
    # so its orbit is the preimage of an orbit of A cases
    results = exhaustive_four_surveys()
    for conv, result in results.items():
        signs = compute_table(result)
        named_by = {conv.relabel(s): s for s in enumerate_specs()}
        for o in ({CaseId(named_by[c.spec], c.unit) for c in o} for o in orbits()):
            assert len({signs[c] for c in o}) == 1, (conv.token, sorted(c.token for c in o))
            kills = {
                (s.rows, s.a) for s in (result.statuses[c] for c in o) if isinstance(s, Certificate)
            }
            assert len(kills) <= 1, (conv.token, sorted(c.token for c in o))
    a_signs = compute_table(results[CONVENTION_A])
    per_orbit = [a_signs[next(iter(o))] for o in orbits()]
    assert (per_orbit.count(PLUS), per_orbit.count(MINUS)) == (36, 288)


def test_reference_table_is_orbit_constant_but_at_its_unknown_cell():
    paper = embedded_paper_table()
    (unknown,) = (c for c, sign in paper.items() if sign == UNKNOWN)
    assert unknown.token == "e:E,R,L/e"
    for o in orbits():
        signs = {paper[c] for c in o}
        if unknown in o:
            assert sorted(c.token for c in o - {unknown}) == [
                "123:L,R,E/e", "12:R,E,L/f", "132:L,E,R/s", "13:R,L,E/f", "23:E,L,R/s"
            ]
            assert signs == {UNKNOWN, MINUS}
        else:
            assert len(signs) == 1, sorted(c.token for c in o)
    # every convention settles the unknown cell as its orbit-mates are settled
    for result in exhaustive_four_surveys().values():
        assert isinstance(result.statuses[unknown], Certificate)

