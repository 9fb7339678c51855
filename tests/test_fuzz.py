"""Seeded fuzz test of every parser: edited inputs parse or raise a parse error.

Each call must return a value or raise ParseError or QuasigroupError;
CorpusDescriptor.parse may also raise its documented ValueError.  Anything
else (TypeError, KeyError, IndexError, ...) is a bug that would reach the
CLI as a traceback.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import Z3_ROWS, spellings
from qderiv.corpus import CorpusDescriptor
from qderiv.qcore import QuasigroupError, from_table
from qderiv.reportio import (
    ParseError,
    emit_cayley,
    parse_cayley,
    parse_convention,
    parse_spec,
    survey_from_json,
    survey_to_json,
)
from qderiv.survey import run_survey

ALPHABET = "0123456789 -+_.,:;=/\\#\n\t{}[]\"'AEGLPRabcdeinrstx\x00é"

# Values swapped into survey documents: every JSON type, and strings and
# numbers that are valid somewhere else in the document.
JSON_VALUES = (
    None, True, False, 0, 1, -1, 3, 2.5, 10**30, "", "x", "0", "f", "A",
    "e:L,E,L", "exhaustive:3", "counterexample", "qderiv-survey/2.0",
    [], [0], [0, 0], [[0]], [[0, 1], [1, 0]], {}, {"a": 0},
)


def _edit(rng: random.Random, text: str, span: int | None = None) -> str:
    """One to three character deletions, insertions or replacements.

    With ``span``, edits fall in the first ``span`` characters.
    """
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(min(len(chars), span or len(chars)) + 1)
        op = rng.randrange(3)
        if op == 1 or pos == len(chars):
            chars.insert(pos, rng.choice(ALPHABET))
        elif op == 0:
            del chars[pos]
        else:
            chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def _fuzz(parse, seeds: list[str], count: int, allowed: tuple, span: int | None = None) -> None:
    rng = random.Random(f"{parse.__qualname__}:{count}")
    for _ in range(count):
        text = _edit(rng, rng.choice(seeds), span)
        try:
            parse(text)
        except allowed:
            pass


CAYLEY = [
    emit_cayley(from_table(Z3_ROWS)),
    "# a comment\n2\n0 1\n1 0\n",
    emit_cayley(from_table(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))),
]
SPECS = ["23:L,Pi,E", "e:L,E,L", "132:E,Ri,P", "13:Li,R,E"]
CONVENTIONS = ["A", "args=direct;result=inverse;trans=base", "args=inverse;result=direct;trans=para"]
CORPORA = ["exhaustive:4", "reduced:5", "random:8:seed=42:count=1000", "random:16:seed=1:count=300"]


@pytest.mark.parametrize(
    "parse, seeds, allowed",
    [
        (parse_cayley, CAYLEY, (ParseError, QuasigroupError)),
        (parse_spec, SPECS, (ParseError,)),
        (parse_convention, CONVENTIONS, (ParseError,)),
        (CorpusDescriptor.parse, CORPORA, (ValueError,)),
    ],
    ids=["parse_cayley", "parse_spec", "parse_convention", "CorpusDescriptor.parse"],
)
def test_edited_text_parses_or_raises_a_parse_error(parse, seeds, allowed):
    for seed in seeds:
        parse(seed)
    _fuzz(parse, seeds, 3000, allowed)


@pytest.fixture(scope="module")
def survey_doc() -> str:
    return survey_to_json(run_survey(CorpusDescriptor.parse("exhaustive:3")))


def _paths(node, path=()):
    """Every path into a JSON value, the value itself included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def test_edited_survey_documents_parse_or_raise_parse_error(survey_doc):
    survey_from_json(survey_doc)
    # edits in the head of the document: format, convention, corpus, first cases
    _fuzz(survey_from_json, [survey_doc], 30, (ParseError, QuasigroupError), span=3000)


def test_swapped_json_values_parse_or_raise_parse_error(survey_doc):
    doc = json.loads(survey_doc)
    cases = doc["cases"]
    minus = next(i for i, e in enumerate(cases) if e["status"] == "counterexample")
    plus = next(i for i, e in enumerate(cases) if e["status"] == "no_counterexample")
    # the top-level fields and every field of one entry of each status
    head = {key: doc[key] for key in doc if key != "cases"}
    targets = [p for p in _paths(head) if p]
    targets.append(("cases",))
    for i in (minus, plus):
        targets += [("cases", i) + p for p in _paths(cases[i])]
    rng = random.Random("survey_from_json:swap")
    for _ in range(25):
        *route, last = rng.choice(targets)
        parent = doc
        for key in route:
            parent = parent[key]
        saved, parent[last] = parent[last], rng.choice(JSON_VALUES)
        outcomes = []
        for text in spellings(doc):  # the same document, read table by table and pooled
            try:
                outcomes.append(survey_from_json(text))
            except (ParseError, QuasigroupError) as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        parent[last] = saved
