"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 10 runs the full exhaustive:5 diff and the
faster exhaustive:4 variant; both are quick enough for CI here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager

from conftest import failing_division_identities
from test_pinned import SURVEY_DIGESTS
from qderiv.cli import verify_example, verify_lemma, verify_table1
from qderiv.corpus import (
    CorpusDescriptor,
    count_all,
    count_reduced,
    enumerate_all,
    random_square,
)
from qderiv.derivative import (
    CONVENTION_A,
    apply_derivative,
    enumerate_specs,
    left_derivative,
    right_derivative,
)
from qderiv.qcore import from_table
from qderiv import survey
from qderiv.reportio import parse_spec, survey_to_json
from qderiv.survey import (
    CaseId,
    Certificate,
    all_cases,
    convention_agreement_table,
    diff_against_paper,
    embedded_paper_table,
    run_survey,
    verify_certificate,
)
from qderiv.units import UnitKind


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if failed is None and elapsed <= budget_s else "FAIL"
        print(f"criterion {number} [{status}] {label} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def small_squares():
    for n in (1, 2, 3, 4):
        yield from enumerate_all(n)


def test_criterion_1_example_reproduction():
    with criterion(1, "worked example rebuilt bit-exact", 1.0):
        assert verify_example()


def test_criterion_2_cardinalities():
    with criterion(2, "648 specs and 1944 cases", 5.0):
        assert len(enumerate_specs()) == 648
        assert len(all_cases()) == 1944


def test_criterion_3_lemma_suite():
    with criterion(3, "classical derivative units, orders <=4 + 1000 random order-8", 10.0):
        n_small = sum(1 for _ in small_squares())
        assert n_small == 591
        assert verify_lemma()


def test_criterion_4_defining_equations():
    with criterion(4, "right/left derivative defining equations, orders <=4", 30.0):
        failures = 0
        for q in small_squares():
            for a in range(q.n):
                rd = right_derivative(q, a)
                ld = left_derivative(q, a)
                for x in range(q.n):
                    for y in range(q.n):
                        if q.mul(q.mul(a, x), y) != q.mul(a, rd.mul(x, y)):
                            failures += 1
                        if q.mul(ld.mul(x, y), a) != q.mul(x, q.mul(y, a)):
                            failures += 1
        assert failures == 0


def test_criterion_5_translation_transfer():
    with criterion(5, "all 36 transfer cells, orders <=4 + 100 random order-8", 30.0):
        assert verify_table1()


def test_criterion_6_division_identity_closure():
    with criterion(6, "all six division identities on every corpus square", 30.0):
        for q in small_squares():
            assert failing_division_identities(q) == []
        for seed in range(1000):
            assert failing_division_identities(random_square(8, seed)) == []


def test_criterion_7_enumeration_counts():
    with criterion(7, "counts 1, 2, 12, 576 and the order-5 cross-check", 120.0):
        assert [count_all(n) for n in (1, 2, 3, 4)] == [1, 2, 12, 576]
        reduced5 = count_reduced(5)
        assert reduced5 == 56
        assert count_all(5) == reduced5 * math.factorial(5) * math.factorial(4) == 161280


def test_criterion_8_survey_determinism(monkeypatch):
    with criterion(8, "survey bytes identical for scan batches of 1, 7 and 512", 120.0):
        desc = CorpusDescriptor.parse("exhaustive:5")
        docs = set()
        for batch in (1, 7, 512):
            monkeypatch.setattr(survey, "_BATCH", batch)
            docs.add(survey_to_json(run_survey(desc, CONVENTION_A)))
        assert len(docs) == 1
        # a random corpus is pulled a square at a time whatever _BATCH is,
        # so its bytes are held to the digest recorded when it was batched
        token = "random:16:seed=1:count=300"
        doc = survey_to_json(run_survey(CorpusDescriptor.parse(token), CONVENTION_A))
        assert hashlib.sha256(doc.encode()).hexdigest() == SURVEY_DIGESTS[token][0]


def test_criterion_9_certificate_soundness():
    with criterion(9, "every exhaustive:4 certificate verifies; mutation fails", 60.0):
        result = run_survey(CorpusDescriptor.parse("exhaustive:4"), CONVENTION_A)
        certs = [s for s in result.statuses.values() if isinstance(s, Certificate)]
        assert len(certs) == 1944 - 216
        assert all(verify_certificate(c) for c in certs)
        # flip one witness of some certificate to a satisfying x
        tampered = None
        for cert in certs:
            table = apply_derivative(
                from_table(cert.rows), cert.a, cert.case.spec, cert.convention
            )
            for u in range(cert.order):
                for x in range(cert.order):
                    if cert.case.unit is UnitKind.LEFT and table.mul(u, x) == x:
                        refutation = tuple(
                            (c, x if c == u else w) for c, w in cert.refutation
                        )
                        tampered = dataclasses.replace(cert, refutation=refutation)
                        break
                if tampered:
                    break
            if tampered:
                break
        assert tampered is not None
        assert not verify_certificate(tampered)


def _run_diff(order: int):
    desc = CorpusDescriptor.parse(f"exhaustive:{order}")
    survey = run_survey(desc, CONVENTION_A)
    paper = embedded_paper_table()
    counts = convention_agreement_table(desc, paper)
    report = diff_against_paper(survey, paper, counts)

    # the four classical-derivative cases stay counterexample-free
    for token in ("e:L,E,L/f", "e:E,R,R/e", "e:R,Li,E/f", "e:Ri,L,E/e"):
        spec_tok, _, unit_tok = token.rpartition("/")
        status = survey.statuses[CaseId(parse_spec(spec_tok), UnitKind(unit_tok))]
        assert not isinstance(status, Certificate)

    assert len(report.cells) == 1944
    by_case = {c.case: c for c in report.cells}
    example_spec = parse_spec("23:L,Pi,E")
    for unit in UnitKind:
        cell = by_case[CaseId(example_spec, unit)]
        assert cell.status == "agree" and cell.paper == "-"
    anomaly = by_case[CaseId(parse_spec("e:E,R,L"), UnitKind.RIGHT)]
    assert anomaly.status == "paper_unknown"
    for cell in report.cells:
        if cell.status == "disagree" and cell.computed == "-":
            assert cell.certificate is not None and verify_certificate(cell.certificate)
    assert len(counts) == 8
    assert all(a + d + u == 1944 for a, d, u in counts.values())
    # the counts are reported per convention; none is asserted as correct
    return report


def test_criterion_10_paper_diff_order_4_ci_mode():
    with criterion(10, "full 1944-cell diff at exhaustive:4 (CI mode)", 60.0):
        _run_diff(4)


def test_criterion_10_paper_diff_order_5_full():
    with criterion(10, "full 1944-cell diff at exhaustive:5", 1800.0):
        _run_diff(5)
