from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import weakref

import pytest

from conftest import Z3_ROWS, unit_equation_holds
from qderiv.corpus import CorpusDescriptor, OrderTooLargeError, enumerate_all, random_square
from qderiv.derivative import (
    CONVENTION_A,
    Convention,
    all_conventions,
    apply_derivative,
    derivative_maps,
    enumerate_specs,
)
from qderiv.qcore import from_table, translation_images, TranslationKind
from qderiv import survey
from qderiv.reportio import survey_to_json
from qderiv.survey import (
    CaseId,
    Certificate,
    MalformedCertificateError,
    NoCounterexample,
    SurveyError,
    UNIT_ORDER,
    agreement_counts,
    all_cases,
    build_certificate,
    case_probe,
    case_proof,
    compute_table,
    convention_agreement_table,
    diff_against_paper,
    embedded_paper_table,
    minimal_counterexample,
    probe_scan,
    run_survey,
    run_survey_multi,
    tautology_proof,
    verify_certificate,
)
from qderiv.units import UnitKind, find_unit

EX4 = CorpusDescriptor.parse("exhaustive:4")
EX3 = CorpusDescriptor.parse("exhaustive:3")


def case(token: str) -> CaseId:
    from qderiv.reportio import parse_spec

    spec_tok, _, unit_tok = token.rpartition("/")
    return CaseId(parse_spec(spec_tok), UnitKind(unit_tok))


def reference_probe_eval(q, a: int, probe) -> bool:
    """Independent probe evaluation over tuples, against the bytes engine."""
    i, j, fam = probe
    kinds = (None, "L", "Li", "R", "Ri", "P", "Pi")
    ident = tuple(range(q.n))

    def perm(k):
        if k == 0:
            return ident
        return translation_images(q, TranslationKind(kinds[k]), a)

    ti, tj = perm(i), perm(j)
    comp = tuple(ti[tj[x]] for x in range(q.n))
    if fam == 0:
        family = {q.row(u) for u in range(q.n)}
    elif fam == 1:
        family = {q.col(u) for u in range(q.n)}
    else:
        family = {
            tuple(q.ldiv(x, u) for x in range(q.n)) for u in range(q.n)
        }
    return comp in family


def test_case_space_is_complete_and_canonical():
    cases = all_cases()
    assert len(cases) == 1944
    assert len(set(cases)) == 1944
    assert [c.unit for c in cases[:3]] == list(UNIT_ORDER)
    assert cases[0].spec == enumerate_specs()[0]


def test_probe_matches_direct_unit_detection_everywhere_small():
    # probe verdict == unit existence on the fully built derivative,
    # for every case, at every (square, a) of order 3, under three conventions
    convs = [
        CONVENTION_A,
        Convention("inverse", "direct", "base"),
        Convention("direct", "direct", "parastrophe"),
    ]
    squares = list(enumerate_all(3))
    for conv in convs:
        for c in all_cases()[::7]:
            probe = case_probe(c, conv)
            for q in squares:
                for a in range(3):
                    direct = find_unit(apply_derivative(q, a, c.spec, conv), c.unit)
                    assert reference_probe_eval(q, a, probe) == (direct is not None)


def test_probe_matches_direct_on_random_order_five():
    q = random_square(5, 42)
    for conv in all_conventions():
        for c in all_cases()[::31]:
            probe = case_probe(c, conv)
            for a in range(5):
                direct = find_unit(apply_derivative(q, a, c.spec, conv), c.unit)
                assert reference_probe_eval(q, a, probe) == (direct is not None)


def test_probe_scan_agrees_with_reference_eval():
    # engine kills == first (order, square, a) where the reference eval fails,
    # for all 144 probes of the eight conventions; the last kills fall on
    # order-4 squares 5 and 28
    probes = sorted({case_probe(c, conv) for conv in all_conventions() for c in all_cases()})
    assert len(probes) == 144
    kills = probe_scan(EX4, probes)
    squares = [(n, idx, q) for n in (3, 4) for idx, q in enumerate(enumerate_all(n))]
    for probe in probes:
        expected = next(
            (
                (n, idx, a, q.mul_table)
                for n, idx, q in squares
                for a in range(n)
                if not reference_probe_eval(q, a, probe)
            ),
            None,
        )
        assert kills[probe] == expected
    assert {kill[:2] for kill in kills.values() if kill and kill[0] == 4} == {(4, 5), (4, 28)}


def test_survey_example_cases_at_order_three():
    result = run_survey(EX3, CONVENTION_A)
    st = result.statuses[case("23:L,Pi,E/f")]
    assert isinstance(st, Certificate)
    assert st.rows == Z3_ROWS and st.a == 0
    st = result.statuses[case("23:L,Pi,E/s")]
    assert isinstance(st, Certificate)
    assert st.rows == Z3_ROWS and st.a == 0


def test_survey_lemma_cases_have_no_counterexample():
    result = run_survey(EX4, CONVENTION_A)
    for token in ("e:L,E,L/f", "e:E,R,R/e", "e:R,Li,E/f", "e:Ri,L,E/e"):
        st = result.statuses[case(token)]
        assert st == NoCounterexample(4, "exhaustive:4")


def test_survey_covers_all_cases_deterministically():
    r1 = run_survey(EX4, CONVENTION_A)
    assert list(r1.statuses) == list(all_cases())
    assert run_survey(EX4, CONVENTION_A) == r1


def test_survey_monotone_in_corpus():
    minus3 = {
        c
        for c, s in run_survey(EX3, CONVENTION_A).statuses.items()
        if isinstance(s, Certificate)
    }
    minus4 = {
        c
        for c, s in run_survey(EX4, CONVENTION_A).statuses.items()
        if isinstance(s, Certificate)
    }
    assert minus3 <= minus4


def test_run_survey_multi_shares_one_scan():
    multi = run_survey_multi(EX3, list(all_conventions()))
    assert set(multi) == set(all_conventions())
    assert multi[CONVENTION_A] == run_survey(EX3, CONVENTION_A)


def test_all_survey_certificates_verify():
    result = run_survey(EX3, CONVENTION_A)
    certs = [s for s in result.statuses.values() if isinstance(s, Certificate)]
    assert certs
    assert all(verify_certificate(c) for c in certs)


def test_certificate_tamper_detection():
    cert = run_survey(EX3, CONVENTION_A).statuses[case("23:L,Pi,E/f")]
    table = apply_derivative(from_table(cert.rows), cert.a, cert.case.spec, cert.convention)
    u, x_sat = next(
        (u, x)
        for u in range(3)
        for x in range(3)
        if table.mul(u, x) == x
    )
    tampered = dataclasses.replace(
        cert,
        refutation=tuple((c, x_sat if c == u else w) for c, w in cert.refutation),
    )
    assert verify_certificate(cert)
    assert not verify_certificate(tampered)


def test_certificate_structural_errors():
    cert = run_survey(EX3, CONVENTION_A).statuses[case("23:L,Pi,E/f")]
    with pytest.raises(MalformedCertificateError):
        verify_certificate(dataclasses.replace(cert, refutation=cert.refutation[:-1]))
    with pytest.raises(MalformedCertificateError):
        verify_certificate(dataclasses.replace(cert, a=99))
    dup = (cert.refutation[0],) + cert.refutation[1:-1] + (cert.refutation[0],)
    with pytest.raises(MalformedCertificateError):
        verify_certificate(dataclasses.replace(cert, refutation=dup))


def test_certificate_with_non_latin_table_is_false():
    cert = run_survey(EX3, CONVENTION_A).statuses[case("23:L,Pi,E/f")]
    broken = dataclasses.replace(cert, rows=((0, 1, 2), (1, 2, 0), (2, 0, 2)))
    assert not verify_certificate(broken)


def test_a_non_latin_table_is_false_on_every_repeat():
    cert = run_survey(EX3, CONVENTION_A).statuses[case("23:L,Pi,E/f")]
    broken = dataclasses.replace(cert, rows=((0, 1, 2), (1, 2, 0), (2, 0, 2)))
    assert [verify_certificate(broken) for _ in range(3)] == [False] * 3


@pytest.mark.parametrize("odd_first", [False, True], ids=["verified-first", "odd-first"])
@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
def test_a_table_cell_equal_to_an_int_but_not_one_is_false(value, odd_first):
    # True and 1.0 equal 1 and hash alike, so a square built from the honest
    # table must never stand in for this one, which from_table rejects
    cert = run_survey(EX3, CONVENTION_A).statuses[case("23:L,Pi,E/f")]
    rows = [list(r) for r in cert.rows]
    rows[0][rows[0].index(1)] = value
    odd = dataclasses.replace(cert, rows=tuple(map(tuple, rows)))
    assert odd == cert
    verdicts = [verify_certificate(c) for c in ((odd, cert) if odd_first else (cert, odd))]
    assert verdicts == ([False, True] if odd_first else [True, False])


def test_verifying_many_squares_keeps_few_alive(monkeypatch):
    # the squares verify_certificate keeps between calls are bounded: once
    # more distinct squares are verified than it holds, no more stay alive
    from qderiv import parastrophe

    built = []
    for module in (survey, parastrophe):
        real = module.from_table

        def tracked(rows, real=real):
            q = real(rows)
            built.append(weakref.ref(q))
            return q

        monkeypatch.setattr(module, "from_table", tracked)
    squares = [q.mul_table for q in enumerate_all(4)]
    cases = all_cases()
    assert len(squares) == 576

    def verify(k: int) -> None:
        # the case, and so the parastrophe, varies with k; the witnesses need not refute
        refutation = tuple((u, 0) for u in range(4))
        verify_certificate(Certificate(squares[k], 0, cases[k], CONVENTION_A, refutation))

    def alive() -> int:
        return sum(ref() is not None for ref in built)

    for k in range(288):
        verify(k)
    first = alive()
    for k in range(288, 576):
        verify(k)
    assert alive() <= first < 288


def test_build_certificate_rejects_satisfiable_case():
    # (Id,(L,E,L)) always has a left unit, so no refutation, and no
    # certificate, can exist: the witness search raises on that unit
    c = case("e:L,E,L/f")
    q = from_table(Z3_ROWS)
    table = apply_derivative(q, 0, c.spec, CONVENTION_A).mul_table
    units = [u for u in range(3) if all(unit_equation_holds(table, c.unit, u, x) for x in range(3))]
    assert units == [0]
    maps = derivative_maps(q, q, 0, c.spec, CONVENTION_A)
    with pytest.raises(SurveyError, match="probe unsound: candidate 0 is a f-unit for case e:L,E,L/f"):
        survey._refutation(q, maps, c, 0)


def test_minimal_counterexample_examples():
    cert = minimal_counterexample(case("23:L,Pi,E/e"), CONVENTION_A, max_order=3)
    assert cert is not None and cert.order == 3 and cert.rows == Z3_ROWS
    assert minimal_counterexample(case("e:L,E,L/f"), CONVENTION_A, max_order=4) is None
    cert = minimal_counterexample(case("e:L,L,E/f"), CONVENTION_A, max_order=5)
    assert cert is not None and cert.order <= 5
    assert verify_certificate(cert)


def test_embedded_paper_table_shape_and_quoted_cells():
    paper = embedded_paper_table()
    assert paper is embedded_paper_table()
    assert len(paper) == 1944
    unknowns = [c for c, s in paper.items() if s == "?"]
    assert len(unknowns) == 1
    anomaly = unknowns[0]
    assert anomaly.spec.token == "e:E,R,L" and anomaly.unit is UnitKind.RIGHT
    assert [paper[case(f"e:L,L,E/{u}")] for u in "fes"] == ["+", "-", "-"]
    assert [paper[case(f"e:P,E,Pi/{u}")] for u in "fes"] == ["-", "-", "+"]
    assert [paper[case(f"23:L,Pi,E/{u}")] for u in "fes"] == ["-", "-", "-"]
    assert paper[case("e:L,E,L/f")] == "-"
    with pytest.raises(TypeError):
        paper[anomaly] = "+"  # the shared reference table is read-only


def test_diff_against_paper_statuses_and_certificates():
    survey = run_survey(EX4, CONVENTION_A)
    report = diff_against_paper(survey, embedded_paper_table())
    assert len(report.cells) == 1944
    by_case = {c.case: c for c in report.cells}
    # the example row agrees with the reference minus entries
    for u in "fes":
        assert by_case[case(f"23:L,Pi,E/{u}")].status == "agree"
    # the anomaly cell
    assert by_case[case("e:E,R,L/e")].status == "paper_unknown"
    # reference minus but computed plus: flagged, no certificate possible
    cell = by_case[case("e:L,E,L/f")]
    assert cell.status == "disagree" and cell.computed == "+" and cell.certificate is None
    # every computed-minus disagreement carries a verifying certificate
    minus_disagreements = [
        c for c in report.cells if c.status == "disagree" and c.computed == "-"
    ]
    assert minus_disagreements
    assert all(
        c.certificate is not None and verify_certificate(c.certificate)
        for c in minus_disagreements
    )
    agree, disagree, unknown = report.counts()
    assert agree + disagree + unknown == 1944 and unknown == 1


def test_agreement_counts_shape_mismatch():
    survey = run_survey(EX3, CONVENTION_A)
    table = compute_table(survey)
    short = dict(list(table.items())[:10])
    with pytest.raises(SurveyError):
        agreement_counts(short, embedded_paper_table())


def test_convention_agreement_table_has_eight_rows():
    counts = convention_agreement_table(EX3, embedded_paper_table())
    assert len(counts) == 8
    assert all(a + d + u == 1944 for a, d, u in counts.values())


def test_scan_kills_every_refutable_probe_at_order_four(monkeypatch):
    # with the classifier bypassed, the scan alone must leave exactly the six
    # probes the classifier calls tautological
    probes = {case_probe(c, conv) for conv in all_conventions() for c in all_cases()}
    tautologies = {p for p in probes if tautology_proof(p) is not None}
    monkeypatch.setattr(survey, "tautology_proof", lambda probe: None)
    kills = probe_scan(EX4, probes)
    assert len(probes) == 144
    assert {p for p, kill in kills.items() if kill is None} == tautologies
    assert tautologies == {
        (0, 1, 0), (1, 0, 0), (0, 3, 1), (3, 0, 1), (0, 5, 2), (5, 0, 2)
    }


def test_tautological_cases_have_their_unit_in_the_direct_derivative():
    # every square of order <= 3, one seeded square of order 4 and one of order 8
    rng = random.Random(20)
    squares = [q for n in (1, 2, 3) for q in enumerate_all(n)]
    squares += [random_square(n, rng.randrange(1 << 30)) for n in (4, 8)]
    checked = 0
    for conv in all_conventions():
        proved = [c for c in all_cases() if case_proof(c, conv) is not None]
        assert proved
        for c in proved:
            for q in squares:
                for a in range(q.n):
                    derived = apply_derivative(q, a, c.spec, conv)
                    assert find_unit(derived, c.unit) is not None, (c.token, conv.token, a)
                    checked += 1
    assert checked == 1728 * (1 + 2 * 2 + 12 * 3 + 4 + 8)


def test_proved_cases_are_the_plus_cells_of_exhaustive_four():
    result = run_survey(EX4, CONVENTION_A)
    proved = {c for c in all_cases() if case_proof(c, CONVENTION_A) is not None}
    plus = {c for c, s in result.statuses.items() if isinstance(s, NoCounterexample)}
    assert proved == plus and len(plus) == 216


def test_tautologies_are_settled_without_pulling_a_square(monkeypatch):
    pulled = []

    def rows(desc):
        pulled.append(desc)
        return iter(())

    monkeypatch.setattr(survey, "iter_corpus_rows", rows)
    probe = case_probe(case("e:L,E,L/f"), CONVENTION_A)
    assert probe_scan(EX4, [probe]) == {probe: None}
    assert len(pulled) == 1  # the stream is opened, for its bound check, but never pulled


def test_scan_stops_pulling_once_every_probe_is_dead(monkeypatch):
    real = survey.iter_corpus_rows
    pulled = []

    def rows(desc):
        for item in real(desc):
            pulled.append(item)
            yield item

    monkeypatch.setattr(survey, "iter_corpus_rows", rows)
    probe = case_probe(case("23:L,Pi,E/f"), CONVENTION_A)
    kills = probe_scan(CorpusDescriptor.parse("exhaustive:5"), [probe])
    assert kills[probe][:3] == (3, 0, 0)
    assert len(pulled) == survey._BATCH  # one batch, not the next


def test_scan_skips_squares_after_the_last_kill(monkeypatch):
    real = survey._scan_square
    scanned = []

    def scan_square(rows, groups):
        scanned.append(rows)
        return real(rows, groups)

    monkeypatch.setattr(survey, "_scan_square", scan_square)
    probe = case_probe(case("23:L,Pi,E/f"), CONVENTION_A)
    kills = probe_scan(EX3, [probe])
    assert kills[probe][:3] == (3, 0, 0)
    assert len(scanned) == 1


def test_tautology_bound_is_checked_before_the_scan(monkeypatch):
    monkeypatch.delenv("QD_MAX_ORDER", raising=False)
    with pytest.raises(OrderTooLargeError):
        minimal_counterexample(case("e:L,E,L/f"), CONVENTION_A, max_order=6)


@pytest.mark.parametrize(
    "token", ["random:5:seed=0:count=0", "random:2:seed=0:count=5", "exhaustive:2"]
)
def test_vacuous_corpora_are_rejected(token):
    with pytest.raises(ValueError):
        run_survey(CorpusDescriptor.parse(token), CONVENTION_A)


def _eight_surveys(desc):
    return run_survey_multi(desc, list(all_conventions()))


@pytest.mark.parametrize(
    "scan",
    [
        lambda desc, proved: _eight_surveys(desc),
        lambda desc, proved: convention_agreement_table(desc, embedded_paper_table()),
        lambda desc, proved: minimal_counterexample(proved, CONVENTION_A, max_order=desc.order),
    ],
    ids=["run_survey_multi", "convention_agreement_table", "minimal_counterexample"],
)
def test_unsound_probe_raises_on_every_path(monkeypatch, scan):
    # a proved case compiled to a refutable probe must be caught by the unit
    # its derivative has, through the witness search every path shares, for
    # each kind of unit
    refutable = case_probe(case("23:L,Pi,E/f"), CONVENTION_A)
    real = survey.case_probe
    for unit in UnitKind:
        proved = next(
            c for c in all_cases() if c.unit is unit and case_proof(c, CONVENTION_A) is not None
        )

        def unsound(c, conv, proved=proved):
            return refutable if (c, conv) == (proved, CONVENTION_A) else real(c, conv)

        monkeypatch.setattr(survey, "case_probe", unsound)
        message = f"probe unsound: candidate \\d+ is a {unit.token}-unit for case {proved.token} "
        with pytest.raises(SurveyError, match=message):
            scan(EX4, proved)


def test_shared_derived_tables_give_the_uncached_certificates():
    # each witness is the first x at which the unit equation fails in the
    # whole derived table of the case under its own convention
    for conv, result in _eight_surveys(EX4).items():
        certs = [s for s in result.statuses.values() if isinstance(s, Certificate)]
        assert len(certs) == 1728
        for cert in certs:
            spec, unit, n = cert.case.spec, cert.case.unit, cert.order
            table = apply_derivative(from_table(cert.rows), cert.a, spec, conv).mul_table
            refutation = tuple(
                (u, next(x for x in range(n) if not unit_equation_holds(table, unit, u, x)))
                for u in range(n)
            )
            assert cert == build_certificate(cert.rows, cert.a, cert.case, conv, refutation)
            assert verify_certificate(cert)


def test_certify_files_the_certificate_the_survey_files():
    surveys = _eight_surveys(EX4)
    pairs = list(itertools.product(all_cases(), all_conventions()))[::61]
    assert len(pairs) == 255
    for c, conv in pairs:
        status = surveys[conv].statuses[c]
        want = status if isinstance(status, Certificate) else None
        assert minimal_counterexample(c, conv, max_order=4) == want, (c.token, conv.token)


def test_convention_table_builds_each_derived_table_once(monkeypatch):
    from qderiv import derivative, parastrophe

    calls = []
    for module in (survey, parastrophe, derivative):
        real = module.from_table
        monkeypatch.setattr(
            module, "from_table", lambda rows, real=real: calls.append(1) or real(rows)
        )
    desc = CorpusDescriptor.parse("random:16:seed=1:count=300")
    convention_agreement_table(desc, embedded_paper_table())
    # one base square and its five other parastrophes; no derived table
    assert len(calls) == 1 + 5


def test_convention_table_counts_equal_the_full_surveys():
    paper = embedded_paper_table()
    counts = convention_agreement_table(EX4, paper)
    assert counts == {
        conv.token: agreement_counts(compute_table(run_survey(EX4, conv)), paper)
        for conv in all_conventions()
    }


def test_orders_one_and_two_refute_no_probe():
    # why corpora start at order 3: no refutable probe fails on any of the
    # three squares of order 1 or 2
    probes = {case_probe(c, conv) for conv in all_conventions() for c in all_cases()}
    refutable = sorted(p for p in probes if tautology_proof(p) is None)
    assert len(refutable) == 138
    squares = [q.mul_table for n in (1, 2) for q in enumerate_all(n)]
    assert len(squares) == 3
    for rows in squares:
        assert survey._scan_square(rows, refutable) == []


@pytest.mark.parametrize("which", [0, 1, 2], ids=["alpha", "beta", "gamma"])
def test_a_derived_table_that_is_not_latin_raises(monkeypatch, which):
    # the derivative's maps are checked to be permutations, each of the three
    real = survey.derivative_maps

    def collapsed(*args):
        maps = list(real(*args))
        maps[which] = (maps[which][0],) * len(maps[which])
        return tuple(maps)

    monkeypatch.setattr(survey, "derivative_maps", collapsed)
    with pytest.raises(SurveyError, match=r"derived table of \S+ at a=\d+ is not Latin"):
        run_survey(EX3, CONVENTION_A)


def test_a_survey_under_a_convention_is_the_a_survey_relabeled():
    # each case under C carries the refutation A gives (pi_C(s), unit)
    a_survey = run_survey(EX3, CONVENTION_A)
    for conv in all_conventions():
        for c, status in run_survey(EX3, conv).statuses.items():
            a_status = a_survey.statuses[CaseId(conv.relabel(c.spec), c.unit)]
            assert type(status) is type(a_status)
            if isinstance(status, Certificate):
                assert (status.case, status.convention) == (c, conv)
                assert (status.rows, status.a, status.refutation) == (
                    a_status.rows, a_status.a, a_status.refutation
                )


def test_no_derived_table_is_composed_on_the_survey_path(monkeypatch):
    # refutations are read at single cells of the derivative, never from a
    # composed table, under any name the survey module could hold
    from qderiv import derivative
    from test_pinned import SURVEY_DIGESTS

    paper = embedded_paper_table()
    r16 = CorpusDescriptor.parse("random:16:seed=1:count=3")
    want_r16 = convention_agreement_table(r16, paper)

    def refuse(*args, **kwargs):
        raise AssertionError("a derived table was composed")

    monkeypatch.setattr(derivative, "compose_derivative", refuse)
    monkeypatch.setattr(survey, "compose_derivative", refuse, raising=False)
    results = _eight_surveys(EX4)
    digests = tuple(
        hashlib.sha256(survey_to_json(results[conv]).encode()).hexdigest()
        for conv in all_conventions()
    )
    assert digests == SURVEY_DIGESTS["exhaustive:4"]
    assert convention_agreement_table(EX4, paper) == {
        conv.token: agreement_counts(compute_table(result), paper)
        for conv, result in results.items()
    }
    assert convention_agreement_table(r16, paper) == want_r16
