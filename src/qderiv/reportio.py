"""Bit-exact file formats, parsing and emitters shared by the CLI.

All emitters are deterministic and locale-independent: '\\n' line endings,
no trailing whitespace.  parse(emit(x)) is the identity on canonical
documents.
"""

from __future__ import annotations

import itertools
import json
import re

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


def _certificate_fields(cert: Certificate, spec: str, unit: str, convention: str) -> dict:
    """A certificate's document after its table, given its case and convention tokens."""
    return {
        "a": cert.a,
        "spec": spec,
        "unit": unit,
        "convention": convention,
        "refutation": [list(pair) for pair in cert.refutation],
    }


def certificate_to_doc(cert: Certificate) -> dict:
    case = cert.case
    return {
        "table": [list(r) for r in cert.rows],
        **_certificate_fields(cert, case.spec.token, case.unit.token, cert.convention.token),
    }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_table(value: object) -> bool:
    """A list of lists of integers, with JSON's true and false not counted as integers."""
    return (
        isinstance(value, list)
        and set(map(type, value)) <= {list}
        and set(map(type, itertools.chain.from_iterable(value))) <= {int}
    )


def _is_int_pairs(value: object) -> bool:
    """A list of two-element lists of integers, checked in one flat pass."""
    return (
        isinstance(value, list)
        and set(map(type, value)) <= {list}
        and set(map(len, value)) <= {2}
        and set(map(type, itertools.chain.from_iterable(value))) <= {int}
    )


class _DocReader:
    """The tokens and squares of one document, each parsed once.

    Lives for one survey_from_json or certificate_from_doc call.  With a
    ``pool`` (see _pool_tables), each table is a placeholder ``[[i]]`` and
    its rows are ``pool[i]``.  Without one, every table is type-checked on
    its own (equal tables may differ in JSON type, as 1, 1.0 and true do),
    and equal checked tables then share one ``rows`` object.
    """

    def __init__(self, pool: list[tuple] | None = None) -> None:
        self._specs: dict[str, DerivativeSpec] = {}
        self._conventions: dict[str, Convention] = {}
        self._squares: dict[tuple, tuple] = {}
        self._pool = pool

    def spec(self, token: object) -> DerivativeSpec:
        return _parse_once(parse_spec, self._specs, token)

    def convention(self, token: object) -> Convention:
        return _parse_once(parse_convention, self._conventions, token)

    def certificate(self, doc: dict) -> Certificate:
        table = doc["table"]
        if self._pool is not None:
            rows = self._pool[table[0][0]]
        elif _is_int_table(table):
            rows = tuple(map(tuple, table))
            rows = self._squares.setdefault(rows, rows)
        else:
            raise ParseError("certificate: table must be a list of lists of integers")
        a = doc["a"]
        if not _is_int(a):
            raise ParseError(f"certificate: a must be an integer, got {a!r}")
        pairs = doc["refutation"]
        if _is_int_pairs(pairs):
            refutation = tuple(map(tuple, pairs))
        else:  # name the first bad pair
            refutation = tuple(tuple(pair) for pair in pairs)
            for pair in refutation:
                if len(pair) != 2 or not all(map(_is_int, pair)):
                    raise ParseError(
                        f"certificate: refutation pair {list(pair)!r} must be two integers"
                    )
        case = CaseId(self.spec(doc["spec"]), UnitKind(doc["unit"]))
        return Certificate(
            rows=rows,
            a=a,
            case=case,
            convention=self.convention(doc["convention"]),
            refutation=refutation,
        )


def _parse_once(parse, parsed: dict, token: object):
    """parse(token), memoized in ``parsed``; a non-string goes to parse for its error."""
    if not isinstance(token, str):
        return parse(token)
    value = parsed.get(token)
    if value is None:
        value = parsed[token] = parse(token)
    return value


def certificate_from_doc(doc: dict) -> Certificate:
    return _DocReader().certificate(doc)


_ENCODER = json.JSONEncoder(separators=(",", ":"))
_TABLE_SLOT = '"table":0,'  # never inside a JSON string, whose quotes are escaped


def survey_to_json(result: SurveyResult) -> str:
    """The survey document: json.dumps(doc, separators=(",", ":")) plus a newline.

    Each distinct square is serialized once: the document is encoded with
    a placeholder table, and the square's text is spliced in at every
    certificate that cites it.
    """
    encode = _ENCODER.encode
    tokens: dict[object, str] = {}  # spec, unit and convention tokens, each made once
    tables: dict[tuple, str] = {}
    cited = []  # the table text of each certificate, in document order
    cases = []
    for case, status in result.statuses.items():
        spec = tokens.get(case.spec) or tokens.setdefault(case.spec, case.spec.token)
        unit = tokens.get(case.unit) or tokens.setdefault(case.unit, case.unit.token)
        entry = {"spec": spec, "unit": unit}
        if isinstance(status, Certificate):
            table = tables.get(status.rows)
            if table is None:
                table = tables[status.rows] = encode([list(r) for r in status.rows])
            cited.append(table)
            cited_case, conv = status.case, status.convention
            if cited_case is not case:  # filed under another case: write what it says
                spec, unit = cited_case.spec.token, cited_case.unit.token
            convention = tokens.get(conv) or tokens.setdefault(conv, conv.token)
            entry["status"] = "counterexample"
            entry["certificate"] = {
                "table": 0,
                **_certificate_fields(status, spec, unit, convention),
            }
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
    head, *rest = encode(doc).split(_TABLE_SLOT)
    out = [head]
    for table, piece in zip(cited, rest):
        out += ('"table":', table, ",", piece)
    out.append("\n")
    return "".join(out)


_TABLE_KEY = '"table":'
_NUM = "(?:0|[1-9][0-9]{0,2})"
_ROW = rf"\[{_NUM}(?:,{_NUM})*\]"
_CANONICAL_TABLE = re.compile(rf"\[{_ROW}(?:,{_ROW})*\]")


def _pool_tables(text: str) -> tuple[str, list[tuple] | None]:
    """The text with each table written as ``[[i]]``, and the pool of distinct tables.

    Applies when the text holds no backslash and every ``"table"`` in it
    is followed by ``:`` and a canonical table: brackets, commas and
    entries of at most 3 digits, with no space, sign or leading zero.
    Then every quote opens or closes a string, so each ``"table":`` is a
    key and its table one whole array.  ``[[i]]`` is an array of the same
    depth, so the text decodes, or meets json's recursion limit, exactly
    when the original does, to the same document with each table as its
    placeholder.  Canonical text is the value's only spelling, so equal
    tables share one entry.  Otherwise ``(text, None)``.
    """
    if "\\" in text:
        return text, None
    head, *rest = text.split(_TABLE_KEY)
    if text.count('"table"') != len(rest):  # a spaced key, or "table" as a value
        return text, None
    pool: dict[str, int] = {}
    out = [head]
    for piece in rest:
        end = piece.find("]]") + 2  # a canonical table's first "]]" is its end
        table = piece[:end]
        index = pool.get(table)
        if index is None:
            if not _CANONICAL_TABLE.fullmatch(table):
                return text, None
            index = pool[table] = len(pool)
        out += (_TABLE_KEY, "[[", str(index), "]]", piece[end:])
    return "".join(out), [tuple(map(tuple, json.loads(table))) for table in pool]


def survey_from_json(text: str) -> SurveyResult:
    """Parse a survey document; any malformed document raises ParseError.

    A canonical document (see _pool_tables) is decoded with each distinct
    square parsed once.  Any other document, and a canonical one that
    fails, is read table by table, so every error is the original text's.
    Each spec and convention token is parsed once, and every certificate
    that cites the same square shares one ``rows`` object.
    """
    pooled, pool = _pool_tables(text)
    if pool is not None:
        try:
            return _read_survey(pooled, pool)
        except ParseError:
            pass
    return _read_survey(text, None)


def _read_survey(text: str, pool: list[tuple] | None) -> SurveyResult:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"survey document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"survey document: expected an object, got {type(doc).__name__}")
    try:
        return _survey_from_doc(doc, pool)
    except KeyError as exc:
        raise ParseError(f"survey document: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"survey document: malformed ({exc})") from None


def _survey_from_doc(doc: dict, pool: list[tuple] | None) -> SurveyResult:
    fmt = doc.get("format", "")
    prefix, sep, version = fmt.partition("/")
    if prefix != "qderiv-survey" or not sep:
        raise FormatVersionError(f"not a survey document: format {fmt!r}")
    major = version.split(".", 1)[0]
    if not major.isdigit() or int(major) != SURVEY_FORMAT_MAJOR:
        raise FormatVersionError(
            f"unsupported survey format major {major!r} (supported: {SURVEY_FORMAT_MAJOR})"
        )
    reader = _DocReader(pool)
    convention = reader.convention(doc["convention"])
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
        case = CaseId(reader.spec(entry["spec"]), UnitKind(entry["unit"]))
        if case in statuses:
            raise ParseError(f"survey case {case.token}: repeated entry")
        if entry["status"] == "counterexample":
            cert = reader.certificate(entry["certificate"])
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
