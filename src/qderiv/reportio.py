"""Bit-exact file formats, parsing and emitters shared by the CLI.

All emitters are deterministic and locale-independent: '\\n' line endings,
no trailing whitespace.  parse(emit(x)) is the identity on canonical
documents.
"""

from __future__ import annotations

import itertools
import json

from .corpus import CorpusDescriptor
from .derivative import (
    CONVENTION_A,
    Convention,
    DerivativeSpec,
    IsotopyTriple,
    all_conventions,
    enumerate_triples,
)
from .parastrophe import ROW_LABELS, ROW_ORDER, ParastropheSym
from .qcore import Quasigroup, TranslationKind, from_table
from .survey import (
    AGREE,
    PAPER_UNKNOWN,
    PLUS,
    MINUS,
    UNKNOWN,
    CaseId,
    Certificate,
    DiffReport,
    NoCounterexample,
    SurveyResult,
    UNIT_ORDER,
)
from .units import UnitKind

SURVEY_FORMAT_MAJOR = 1
SURVEY_FORMAT = f"qderiv-survey/{SURVEY_FORMAT_MAJOR}.0"


class ParseError(Exception):
    pass


class NoEError(ParseError):
    pass


class MultipleEError(ParseError):
    pass


class FormatVersionError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Cayley tables.
#
# Optional '#' comment lines; first data line is n; then n lines of n
# space-separated integers in [0, n).


def parse_cayley(text: str) -> Quasigroup:
    data_lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, stripped))
    if not data_lines:
        raise ParseError("line 1: empty document")
    lineno, header = data_lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ParseError(f"line {lineno}: order {header!r} is not an integer") from None
    if n < 1:
        raise ParseError(f"line {lineno}: order must be at least 1, got {n}")
    if len(data_lines) - 1 != n:
        raise ParseError(f"expected {n} table rows, found {len(data_lines) - 1}")
    rows = []
    for lineno, line in data_lines[1:]:
        fields = line.split()
        values = []
        for col, field in enumerate(fields):
            try:
                values.append(int(field))
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {col + 1}: {field!r} is not an integer"
                ) from None
        if len(values) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, found {len(values)}")
        rows.append(values)
    return from_table(rows)  # BadEntry / NotLatin propagate from qcore


def emit_cayley(q: Quasigroup) -> str:
    lines = [str(q.n)]
    lines.extend(" ".join(str(v) for v in row) for row in q.mul_table)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Derivative specs: "<sigma>:<alpha>,<beta>,<gamma>", e.g. "23:L,Pi,E".

_SIGMA_BY_TOKEN = {s.token: s for s in ParastropheSym}
_COMPONENT_BY_TOKEN = {c.token: c for c in TranslationKind}


def parse_spec(text: str) -> DerivativeSpec:
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise ParseError(f"spec {text!r}: missing ':'")
    if head not in _SIGMA_BY_TOKEN:
        raise ParseError(f"spec {text!r}: bad parastrophe token {head!r}")
    parts = tail.split(",")
    if len(parts) != 3:
        raise ParseError(f"spec {text!r}: need three components, found {len(parts)}")
    comps = []
    for part in parts:
        part = part.strip()
        if part not in _COMPONENT_BY_TOKEN:
            raise ParseError(f"spec {text!r}: bad component token {part!r}")
        comps.append(_COMPONENT_BY_TOKEN[part])
    n_identity = comps.count(TranslationKind.E)
    if n_identity == 0:
        raise NoEError(f"spec {text!r}: exactly one component must be E")
    if n_identity > 1:
        raise MultipleEError(f"spec {text!r}: exactly one component must be E")
    return DerivativeSpec(_SIGMA_BY_TOKEN[head], IsotopyTriple(*comps))


# ---------------------------------------------------------------------------
# Conventions: "args=direct|inverse;result=direct|inverse;trans=base|para",
# alias "A".

_CONVENTION_BY_TOKEN = {c.token: c for c in all_conventions()}


def parse_convention(text: str) -> Convention:
    text = text.strip()
    if text == "A":
        return CONVENTION_A
    fields = {}
    for part in text.split(";"):
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ParseError(f"convention {text!r}: repeated field {key!r}")
        fields[key] = value.strip()
    if set(fields) != {"args", "result", "trans"}:
        raise ParseError(f"convention {text!r}: need args, result and trans fields")
    token = f"args={fields['args']};result={fields['result']};trans={fields['trans']}"
    if token not in _CONVENTION_BY_TOKEN:
        raise ParseError(f"convention {text!r}: bad args, result or trans value")
    return _CONVENTION_BY_TOKEN[token]


# ---------------------------------------------------------------------------
# The reference sign table: 648 lines
# "block=<alpha>,<beta>,<gamma> sigma=<tok> f=<+|-|?> e=<+|-|?> s=<+|-|?>".


def parse_paper_table(text: str) -> dict[CaseId, str]:
    signs: dict[CaseId, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split())
        except ValueError:
            raise ParseError(f"paper table line {lineno}: bad syntax") from None
        if set(fields) != {"block", "sigma", "f", "e", "s"}:
            raise ParseError(f"paper table line {lineno}: bad fields {sorted(fields)}")
        spec = parse_spec(f"{fields['sigma']}:{fields['block']}")
        for unit in UNIT_ORDER:
            sign = fields[unit.token]
            if sign not in (PLUS, MINUS, UNKNOWN):
                raise ParseError(f"paper table line {lineno}: bad sign {sign!r}")
            case = CaseId(spec, unit)
            if case in signs:
                raise ParseError(f"paper table line {lineno}: duplicate cell {case.token}")
            signs[case] = sign
    if len(signs) != 1944:
        raise ParseError(f"paper table has {len(signs)} cells, want 1944")
    return signs


# ---------------------------------------------------------------------------
# Survey documents (versioned JSON).


def certificate_to_doc(cert: Certificate) -> dict:
    return {
        "table": [list(r) for r in cert.rows],
        "a": cert.a,
        "spec": cert.case.spec.token,
        "unit": cert.case.unit.token,
        "convention": cert.convention.token,
        "refutation": [list(pair) for pair in cert.refutation],
    }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_table(value: object) -> bool:
    """A list of lists of integers, with JSON's true and false not counted as integers."""
    return (
        isinstance(value, list)
        and all(isinstance(row, list) for row in value)
        and set(map(type, itertools.chain.from_iterable(value))) <= {int}
    )


def certificate_from_doc(doc: dict) -> Certificate:
    table = doc["table"]
    if not _is_int_table(table):
        raise ParseError("certificate: table must be a list of lists of integers")
    a = doc["a"]
    if not _is_int(a):
        raise ParseError(f"certificate: a must be an integer, got {a!r}")
    refutation = tuple(tuple(pair) for pair in doc["refutation"])
    for pair in refutation:
        if len(pair) != 2 or not all(map(_is_int, pair)):
            raise ParseError(f"certificate: refutation pair {list(pair)!r} must be two integers")
    case = CaseId(parse_spec(doc["spec"]), UnitKind(doc["unit"]))
    return Certificate(
        rows=tuple(tuple(r) for r in table),
        a=a,
        case=case,
        convention=parse_convention(doc["convention"]),
        refutation=refutation,
    )


def survey_to_json(result: SurveyResult) -> str:
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
        "format": SURVEY_FORMAT,
        "convention": result.convention.token,
        "corpus": result.corpus.token,
        "orders_scanned": list(result.corpus.orders()),
        "unit_quantification": "a plus requires the unit for every square scanned and every element a",
        "cases": cases,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def survey_from_json(text: str) -> SurveyResult:
    """Parse a survey document; any malformed document raises ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"survey document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"survey document: expected an object, got {type(doc).__name__}")
    try:
        return _survey_from_doc(doc)
    except KeyError as exc:
        raise ParseError(f"survey document: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"survey document: malformed ({exc})") from None


def _survey_from_doc(doc: dict) -> SurveyResult:
    fmt = doc.get("format", "")
    prefix, sep, version = fmt.partition("/")
    if prefix != "qderiv-survey" or not sep:
        raise FormatVersionError(f"not a survey document: format {fmt!r}")
    major = version.split(".", 1)[0]
    if not major.isdigit() or int(major) != SURVEY_FORMAT_MAJOR:
        raise FormatVersionError(
            f"unsupported survey format major {major!r} (supported: {SURVEY_FORMAT_MAJOR})"
        )
    convention = parse_convention(doc["convention"])
    corpus = CorpusDescriptor.parse(doc["corpus"])
    orders = list(corpus.orders())
    scanned = doc["orders_scanned"]
    if scanned != orders or not all(map(_is_int, scanned)):
        raise ParseError(
            f"survey document: orders_scanned must be {orders} for {corpus.token}, got {scanned!r}"
        )
    none_found = NoCounterexample(corpus.order, corpus.token)
    statuses: dict[CaseId, Certificate | NoCounterexample] = {}
    for entry in doc["cases"]:
        case = CaseId(parse_spec(entry["spec"]), UnitKind(entry["unit"]))
        if case in statuses:
            raise ParseError(f"survey case {case.token}: repeated entry")
        if entry["status"] == "counterexample":
            cert = certificate_from_doc(entry["certificate"])
            if cert.case != case or cert.convention != convention:
                raise ParseError(
                    f"survey case {case.token} under {convention.token}: certificate "
                    f"is for {cert.case.token} under {cert.convention.token}"
                )
            statuses[case] = cert
        elif entry["status"] == "no_counterexample":
            max_order, corpus_token = entry["max_order_checked"], entry["corpus"]
            if (max_order, corpus_token) != (corpus.order, corpus.token) or not _is_int(max_order):
                raise ParseError(
                    f"survey case {case.token}: max_order_checked must be an integer "
                    f"and corpus a string, the document's {corpus.order} and "
                    f"{corpus.token!r}; got {max_order!r} and {corpus_token!r}"
                )
            statuses[case] = none_found
        else:
            raise ParseError(f"survey case {case.token}: bad status {entry['status']!r}")
    if len(statuses) != 1944:
        raise ParseError(f"survey document has {len(statuses)} cases, want 1944")
    return SurveyResult(convention, corpus, statuses)


# ---------------------------------------------------------------------------
# Markdown reports mirroring the 108-block table layout.

_COMPONENT_DISPLAY = {
    TranslationKind.L: "L_a",
    TranslationKind.LINV: "L^{-1}_a",
    TranslationKind.R: "R_a",
    TranslationKind.RINV: "R^{-1}_a",
    TranslationKind.P: "P_a",
    TranslationKind.PINV: "P^{-1}_a",
    TranslationKind.E: "ε",
}


def _block_header(triple: IsotopyTriple) -> str:
    return "({}, {}, {})".format(
        _COMPONENT_DISPLAY[triple.alpha],
        _COMPONENT_DISPLAY[triple.beta],
        _COMPONENT_DISPLAY[triple.gamma],
    )


def _diff_cell_text(computed: str, paper: str, status: str) -> str:
    if status == AGREE:
        return computed
    if status == PAPER_UNKNOWN:
        return f"{computed}:?"
    return f"{computed}!={paper}"


def diff_report_markdown(report: DiffReport) -> str:
    agree, disagree, unknown = report.counts()
    by_case = {cell.case: cell for cell in report.cells}
    lines = [
        "# Reference-table diff",
        "",
        f"- convention: {report.convention.token}",
        f"- corpus: {report.corpus.token} (orders {', '.join(map(str, report.corpus.orders()))})",
        "- a computed plus is bounded evidence (no counterexample in the corpus), not proof",
        "- a unit sign is quantified over every square scanned and every element a",
        f"- agreement: {agree}/1944 agree, {disagree} disagree, {unknown} reference-unknown",
        "",
    ]
    if report.convention_agreements is not None:
        lines.append("## Agreement by convention (same corpus)")
        lines.append("")
        lines.append("| convention | agree | disagree | unknown |")
        lines.append("|---|---:|---:|---:|")
        for token, (a, d, u) in report.convention_agreements.items():
            lines.append(f"| {token} | {a} | {d} | {u} |")
        lines.append("")
    lines.append("## Blocks")
    lines.append("")
    lines.append("Cells show the computed sign; `c!=p` marks a disagreement with")
    lines.append("reference sign p, and `c:?` marks the reference-unknown cell.")
    lines.append("")
    for triple in enumerate_triples():
        lines.append(f"### {_block_header(triple)}")
        lines.append("")
        lines.append("| op | f | e | s |")
        lines.append("|---|---|---|---|")
        for sigma in ROW_ORDER:
            spec = DerivativeSpec(sigma, triple)
            cells = [by_case[CaseId(spec, u)] for u in UNIT_ORDER]
            texts = [_diff_cell_text(c.computed, c.paper, c.status) for c in cells]
            lines.append(
                f"| {ROW_LABELS[sigma]} | {texts[0]} | {texts[1]} | {texts[2]} |"
            )
        lines.append("")
    certs = [c for c in report.cells if c.certificate is not None]
    lines.append("## Certificates for disagreements")
    lines.append("")
    if not certs:
        lines.append("none")
    for cell in certs:
        cert = cell.certificate
        flat = " ".join(str(v) for row in cert.rows for v in row)
        refutation = " ".join(f"{u}:{x}" for u, x in cert.refutation)
        lines.append(
            f"- case {cell.case.token}: order {cert.order}, a={cert.a}, "
            f"table [{flat}], witnesses {refutation}"
        )
    return "\n".join(lines).rstrip("\n") + "\n"
