from __future__ import annotations

import json
from importlib import resources

import pytest

from conftest import Z3_ROWS, small_corpus, spellings
from qderiv.corpus import CorpusDescriptor
from qderiv.derivative import CONVENTION_A, all_conventions, enumerate_specs
from qderiv.qcore import NotLatinError, from_table
from qderiv.reportio import (
    FormatVersionError,
    MultipleEError,
    NoEError,
    ParseError,
    diff_report_markdown,
    emit_cayley,
    parse_cayley,
    parse_convention,
    parse_paper_table,
    parse_spec,
    survey_from_json,
    survey_to_json,
)
from qderiv.survey import (
    convention_agreement_table,
    diff_against_paper,
    embedded_paper_table,
    run_survey,
)

Z3_TEXT = "3\n0 1 2\n1 2 0\n2 0 1\n"
EX3 = CorpusDescriptor.parse("exhaustive:3")


def test_parse_cayley_example():
    assert parse_cayley(Z3_TEXT).mul_table == Z3_ROWS


def test_parse_cayley_ignores_comments_and_blank_lines():
    text = "# a comment\n\n3\n0 1 2\n# inner\n1 2 0\n2 0 1\n"
    assert parse_cayley(text).mul_table == Z3_ROWS


def test_parse_cayley_errors():
    with pytest.raises(NotLatinError):
        parse_cayley("2\n0 0\n1 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_cayley("x\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="rows"):
        parse_cayley("3\n0 1 2\n1 2 0\n")
    with pytest.raises(ParseError, match="column 2"):
        parse_cayley("2\n0 ?\n1 0\n")
    with pytest.raises(ParseError):
        parse_cayley("# only a comment\n")


def test_emit_cayley_canonical_form(z3):
    assert emit_cayley(z3) == Z3_TEXT
    assert emit_cayley(from_table([[0]])) == "1\n0\n"


def test_cayley_round_trip_exhaustive():
    for q in small_corpus(4):
        assert parse_cayley(emit_cayley(q)).mul_table == q.mul_table


def test_spec_parse_example():
    spec = parse_spec("23:L,Pi,E")
    assert spec.sigma.token == "23"
    assert spec.triple.token == "L,Pi,E"


def test_spec_round_trip_all_648():
    for spec in enumerate_specs():
        assert parse_spec(spec.token) == spec


def test_spec_parse_errors():
    with pytest.raises(NoEError):
        parse_spec("e:L,L,L")
    with pytest.raises(MultipleEError):
        parse_spec("e:E,E,L")
    with pytest.raises(ParseError, match="'Q'"):
        parse_spec("e:Q,L,E")
    with pytest.raises(ParseError, match="'99'"):
        parse_spec("99:L,L,E")
    with pytest.raises(ParseError):
        parse_spec("no-colon")


def test_convention_alias_and_round_trip():
    assert parse_convention("A") == CONVENTION_A
    for conv in all_conventions():
        assert parse_convention(conv.token) == conv
    assert parse_convention("args=inverse;result=direct;trans=para").translation_source == "parastrophe"


def test_convention_parse_errors():
    with pytest.raises(ParseError):
        parse_convention("args=direct;result=inverse")
    with pytest.raises(ParseError):
        parse_convention("args=up;result=inverse;trans=base")
    with pytest.raises(ParseError, match="repeated field 'args'"):
        parse_convention("args=direct;args=inverse;result=direct;trans=base")


def test_paper_table_parser_rejects_bad_documents():
    text = resources.files("qderiv").joinpath("data/paper_table.txt").read_text()
    assert parse_paper_table(text) == embedded_paper_table()
    with pytest.raises(ParseError):
        parse_paper_table(text.replace("f=+", "f=x", 1))
    with pytest.raises(ParseError):
        parse_paper_table("\n".join(text.splitlines()[:-1]) + "\n")  # 647 lines
    with pytest.raises(ParseError):
        parse_paper_table(text + text.splitlines()[0] + "\n")  # duplicate cell


def test_survey_json_round_trip():
    result = run_survey(EX3, CONVENTION_A)
    text = survey_to_json(result)
    assert survey_from_json(text) == result
    assert text.endswith("\n")


def test_survey_json_rejects_unknown_major():
    result = run_survey(EX3, CONVENTION_A)
    text = survey_to_json(result).replace("qderiv-survey/1.0", "qderiv-survey/2.0")
    with pytest.raises(FormatVersionError):
        survey_from_json(text)
    with pytest.raises(FormatVersionError):
        survey_from_json('{"format":"something-else/1.0","cases":[]}')
    with pytest.raises(ParseError):
        survey_from_json("not json")


def test_survey_json_malformed_documents_raise_parse_error():
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    entry = doc["cases"][0]
    malformed = [
        [],
        None,
        {k: v for k, v in doc.items() if k != "cases"},
        {**doc, "format": 1},
        {**doc, "corpus": "nowhere:3"},
        {**doc, "cases": [1]},
        {**doc, "cases": [{k: v for k, v in entry.items() if k != "spec"}]},
        {**doc, "cases": [{**entry, "unit": "x"}]},
        {**doc, "cases": [{**entry, "status": "counterexample"}]},
        {**doc, "cases": doc["cases"] + [doc["cases"][0]]},
    ]
    for bad in malformed:
        errors = []
        for text in spellings(bad):
            with pytest.raises(ParseError) as error:
                survey_from_json(text)
            errors.append(str(error.value))
        assert errors[0] == errors[1]


def test_diff_report_markdown_contents():
    survey = run_survey(EX3, CONVENTION_A)
    counts = convention_agreement_table(EX3, embedded_paper_table())
    report = diff_against_paper(survey, embedded_paper_table(), counts)
    text = diff_report_markdown(report)
    agree, disagree, unknown = report.counts()
    assert f"{agree}/1944 agree" in text
    assert "## Agreement by convention" in text
    assert text.count("| args=") == 8
    assert "### (L_a, P^{-1}_a, ε)" in text
    assert "## Certificates for disagreements" in text
    # deterministic: emitting twice gives identical bytes
    assert text == diff_report_markdown(report)


@pytest.mark.parametrize("bad", ["0", True, 1.0])
def test_certificate_a_must_be_an_integer(bad):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    entry = next(e for e in doc["cases"] if e["status"] == "counterexample")
    entry["certificate"]["a"] = bad
    for text in spellings(doc):
        with pytest.raises(ParseError, match="a must be an integer"):
            survey_from_json(text)


@pytest.mark.parametrize(
    "u, mangle",
    [
        (0, lambda x: ["0", x]),
        (1, lambda x: [True, x]),
        (0, lambda x: [0, None]),
        (0, lambda x: [0]),
        (0, lambda x: [0, x, x]),
    ],
)
def test_certificate_refutation_pairs_must_be_two_integers(u, mangle):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    entry = next(e for e in doc["cases"] if e["status"] == "counterexample")
    refutation = entry["certificate"]["refutation"]
    assert refutation[u][0] == u
    refutation[u] = mangle(refutation[u][1])
    for text in spellings(doc):
        with pytest.raises(ParseError, match="must be two integers"):
            survey_from_json(text)


@pytest.mark.parametrize(
    "bad",
    ["x", None, 0, {}, [0], ["x"], [[0, "x"], [5]], [[0, True], [1, 0]], [[0.0, 1], [1, 0]]],
)
def test_certificate_table_must_be_a_list_of_lists_of_integers(bad):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    entry = next(e for e in doc["cases"] if e["status"] == "counterexample")
    entry["certificate"]["table"] = bad
    for text in spellings(doc):
        with pytest.raises(ParseError, match="table must be a list of lists of integers"):
            survey_from_json(text)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("max_order_checked", None),
        ("max_order_checked", True),
        ("max_order_checked", "3"),
        ("max_order_checked", 3.0),
        ("corpus", None),
        ("corpus", 3),
        ("corpus", ["exhaustive:3"]),
        # well typed, but not the document's corpus
        ("max_order_checked", 99),
        ("max_order_checked", 4),
        ("corpus", "random:8:seed=1:count=5"),
        ("corpus", "exhaustive:4"),
    ],
)
def test_no_counterexample_fields_are_type_checked(field, bad):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    entry = next(e for e in doc["cases"] if e["status"] == "no_counterexample")
    entry[field] = bad
    for text in spellings(doc):
        with pytest.raises(ParseError, match="max_order_checked must be an integer and corpus a string"):
            survey_from_json(text)


def _misfile(doc: dict, how: str) -> None:
    """File a certificate under the wrong case or the wrong convention."""
    first, second = [e for e in doc["cases"] if e["status"] == "counterexample"][:2]
    cert = first["certificate"]
    if how == "swap":  # two genuine certificates, each under the other's case
        first["certificate"], second["certificate"] = second["certificate"], cert
    elif how == "unit":
        cert["unit"] = next(u for u in "fes" if u != cert["unit"])
    else:
        cert["convention"] = next(
            c.token for c in all_conventions() if c.token != doc["convention"]
        )


@pytest.mark.parametrize("how", ["swap", "unit", "convention"])
def test_certificate_must_be_filed_under_its_case_and_convention(how):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    _misfile(doc, how)
    for text in spellings(doc):
        with pytest.raises(ParseError, match="certificate is for"):
            survey_from_json(text)


@pytest.mark.parametrize("bad", [[7], [3, 4], [], [3.0], "3", None])
def test_orders_scanned_must_be_the_corpus_orders(bad):
    doc = json.loads(survey_to_json(run_survey(EX3, CONVENTION_A)))
    doc["orders_scanned"] = bad
    for text in spellings(doc):
        with pytest.raises(ParseError, match=r"orders_scanned must be \[3\] for exhaustive:3"):
            survey_from_json(text)
    del doc["orders_scanned"]
    for text in spellings(doc):
        with pytest.raises(ParseError, match="missing field 'orders_scanned'"):
            survey_from_json(text)
