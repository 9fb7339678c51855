"""Survey documents share each distinct square, and certificates are checked at their witness cells.

The writer serializes each distinct square once and splices it in; the
reader gives every certificate that cites a square one shared ``rows``
object; verify_certificate evaluates the derivative only at the cells
its witnesses name.  Each must agree with the plain construction.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from qderiv.corpus import CorpusDescriptor
from qderiv.derivative import all_conventions, apply_derivative
from qderiv.qcore import QuasigroupError, from_table
from qderiv import survey
from qderiv.reportio import (
    ParseError,
    certificate_to_doc,
    survey_from_json,
    survey_to_json,
)
from qderiv.survey import (
    Certificate,
    SurveyResult,
    _unit_equation_holds,
    run_survey,
    run_survey_multi,
    verify_certificate,
)
from test_fuzz import JSON_VALUES, _edit, _paths
from test_pinned import SURVEY_DIGESTS

EX3 = CorpusDescriptor.parse("exhaustive:3")


def plain_json(result: SurveyResult) -> str:
    """The survey document built as one dict and dumped in one call."""
    cases = []
    for case, status in result.statuses.items():
        entry = {"spec": case.spec.token, "unit": case.unit.token}
        if isinstance(status, Certificate):
            entry["status"] = "counterexample"
            entry["certificate"] = certificate_to_doc(status)
        else:
            entry["status"] = "no_counterexample"
            entry["max_order_checked"] = status.max_order_checked
            entry["corpus"] = status.corpus
        cases.append(entry)
    doc = {
        "format": "qderiv-survey/1.0",
        "convention": result.convention.token,
        "corpus": result.corpus.token,
        "orders_scanned": list(result.corpus.orders()),
        "unit_quantification": "a plus requires the unit for every square scanned and every element a",
        "cases": cases,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("token", sorted(SURVEY_DIGESTS))
def test_writer_equals_one_json_dump_on_the_pinned_corpora(token):
    results = run_survey_multi(CorpusDescriptor.parse(token), all_conventions())
    for result in results.values():
        assert survey_to_json(result) == plain_json(result)


def test_writer_equals_one_json_dump_on_the_fuzz_documents():
    text = survey_to_json(run_survey(EX3))
    rng = random.Random("survey_to_json:fuzz")
    docs = [_edit(rng, text, 3000) for _ in range(30)]
    doc = json.loads(text)
    targets = [p for p in _paths(doc["cases"][:30]) if p]
    for _ in range(70):
        *route, last = rng.choice(targets)
        edited = json.loads(text)
        parent = edited["cases"]
        for key in route:
            parent = parent[key]
        parent[last] = rng.choice(JSON_VALUES)
        docs.append(json.dumps(edited))
    parsed = 0
    for edited in docs:
        try:
            result = survey_from_json(edited)
        except (ParseError, QuasigroupError):
            continue
        parsed += 1
        assert survey_to_json(result) == plain_json(result)
    assert parsed >= 5


def test_writer_writes_a_misfiled_certificate_as_it_is():
    result = run_survey(EX3)
    first, second = [c for c, s in result.statuses.items() if isinstance(s, Certificate)][:2]
    statuses = dict(result.statuses)
    statuses[first] = statuses[second]
    misfiled = dataclasses.replace(result, statuses=statuses)
    assert survey_to_json(misfiled) == plain_json(misfiled)


def test_parsed_random_survey_shares_one_rows_object():
    desc = CorpusDescriptor.parse("random:16:seed=1:count=300")
    parsed = survey_from_json(survey_to_json(run_survey(desc)))
    certs = [s for s in parsed.statuses.values() if isinstance(s, Certificate)]
    assert len(certs) == 1728
    assert len({id(c.rows) for c in certs}) == 1
    assert type(certs[0].rows) is tuple and type(certs[0].rows[0]) is tuple


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("which", [0, 1])
def test_an_equal_square_of_another_json_type_is_still_rejected(bad, which):
    # true and 1.0 hash and compare equal to 1, so a shared square must not
    # stand in for a table that was never type-checked
    doc = json.loads(survey_to_json(run_survey(EX3)))
    certs = [e["certificate"] for e in doc["cases"] if e["status"] == "counterexample"]
    first = certs[0]
    second = next(c for c in certs[1:] if c["table"] == first["table"])
    target = (first, second)[which]
    row = target["table"][0]
    row[row.index(1)] = bad
    with pytest.raises(ParseError, match="table must be a list of lists of integers"):
        survey_from_json(json.dumps(doc))


def full_table_verdict(cert: Certificate) -> bool:
    """verify_certificate's verdict from the whole derived table."""
    try:
        q = from_table(cert.rows)
    except QuasigroupError:
        return False
    table = apply_derivative(q, cert.a, cert.case.spec, cert.convention).mul_table
    return all(
        not _unit_equation_holds(table, cert.case.unit, u, x) for u, x in cert.refutation
    )


def _swap_two_cells(rows):
    """The rows with two unequal cells of row 0 swapped: rows stay permutations, columns do not."""
    table = [list(r) for r in rows]
    table[0][0], table[0][1] = table[0][1], table[0][0]
    return tuple(map(tuple, table))


def test_witness_cells_agree_with_the_full_derived_table():
    results = run_survey_multi(CorpusDescriptor.parse("exhaustive:4"), all_conventions())
    changed = 0
    for result in results.values():
        certs = [s for s in result.statuses.values() if isinstance(s, Certificate)]
        for k, cert in enumerate(certs):
            assert verify_certificate(cert) is True
            assert full_table_verdict(cert) is True
            n = cert.order
            i = k % n  # the witness to change, spread over the candidates
            u, x = cert.refutation[i]
            refutation = list(cert.refutation)
            refutation[i] = (u, (x + 1) % n)
            tampered = dataclasses.replace(cert, refutation=tuple(refutation))
            assert verify_certificate(tampered) == full_table_verdict(tampered)
            changed += not verify_certificate(tampered)
            broken = dataclasses.replace(cert, rows=_swap_two_cells(cert.rows))
            assert verify_certificate(broken) is False
            assert full_table_verdict(broken) is False
    assert changed > 0


def test_a_derivative_whose_maps_are_not_permutations_does_not_verify(monkeypatch):
    # never the case for a Latin base square, but it is the Latin check that
    # stands in for validating the derived table
    cert = next(s for s in run_survey(EX3).statuses.values() if isinstance(s, Certificate))
    real = survey.derivative_maps

    def collapsed(*args):
        alpha, beta, gamma = real(*args)
        return (alpha[0],) * len(alpha), beta, gamma

    assert verify_certificate(cert)
    monkeypatch.setattr(survey, "derivative_maps", collapsed)
    assert not verify_certificate(cert)
