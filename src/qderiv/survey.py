"""Survey of unit existence over all 1944 (derivative spec, unit kind) cases.

Unit existence in a derivative never needs the derived table: with
D(x,y) = g(B(p(x), q(y))) for bijections p, q, g and B the
sigma-parastrophe,

  * a left unit exists   iff  g^-1 . q^-1  is a row of B,
  * a right unit exists  iff  g^-1 . p^-1  is a column of B,
  * a middle unit exists iff  q . p^-1     is a middle translation of B,

and rows/columns/middle translations of B are one of the three translation
families of the base square.  Every case therefore compiles to a single
probe (compose two of the seven translations at a, test membership in one
family).

Six probes are a family's generator composed with the identity; they hold
in every quasigroup (L_a is row a, R_a is column a, P_a is middle
translation a), so they are settled by that proof and never scanned.  The
scan evaluates the remaining, refutable probes per (square, a), keeps the
first failure in (order, stream index, a) order, and stops once every one
of them has failed.  A case without a counterexample is thus either proved
or bounded evidence over the corpus scanned.

Certificates are built from the full derivative construction, independent
of the probe shortcut, so an unsound probe would surface as an impossible
certificate.  Surveys and single-case certification take one path from a
case to its evidence (_survey_kills): within one call each derived table is
built and validated once and shared by every case and convention that gives
the same (square, a, sigma, alpha, beta, gamma) (_Derivatives).  The
convention agreement table keeps only the counts, so it builds no
certificate: it checks the full derived table of every minus under every
convention for the case's unit, which is exactly when a certificate could
not be built.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import CorpusDescriptor, iter_corpus_rows
from .derivative import (
    CONVENTION_A,
    Convention,
    DerivativeSpec,
    all_conventions,
    apply_derivative,  # survey.apply_derivative is a traced name in benchmarks/layers.py
    compose_derivative,
    derivative_maps,
    derivative_products,
    enumerate_specs,
)
from .parastrophe import TRANSFER, ParastropheSym, apply_parastrophe, transfer_kind
from .qcore import Quasigroup, QuasigroupError, TranslationKind, from_table, invert_images
from .units import UnitKind, find_unit_in_table

Rows = tuple[tuple[int, ...], ...]


class SurveyError(Exception):
    pass


class MalformedCertificateError(SurveyError):
    def __init__(self, field: str, detail: str = ""):
        self.field = field
        super().__init__(f"malformed certificate: {field}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class CaseId:
    spec: DerivativeSpec
    unit: UnitKind

    @property
    def token(self) -> str:
        return f"{self.spec.token}/{self.unit.token}"


@dataclass(frozen=True)
class Certificate:
    """A self-contained refutation of unit existence for one case.

    For every candidate element u there is one witness x at which the unit
    equation fails in the derivative of ``rows`` at ``a``.  Checkable
    without re-running any search.
    """

    rows: Rows
    a: int
    case: CaseId
    convention: Convention
    refutation: tuple[tuple[int, int], ...]  # (candidate, witness) pairs

    @property
    def order(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class NoCounterexample:
    max_order_checked: int
    corpus: str


@dataclass(frozen=True)
class SurveyResult:
    convention: Convention
    corpus: CorpusDescriptor
    statuses: dict[CaseId, "Certificate | NoCounterexample"]


UNIT_ORDER = (UnitKind.LEFT, UnitKind.RIGHT, UnitKind.MIDDLE)


def all_cases() -> tuple[CaseId, ...]:
    """The 1944 cases in canonical order: spec order x (f, e, s)."""
    return tuple(
        CaseId(spec, unit) for spec in enumerate_specs() for unit in UNIT_ORDER
    )


# ---------------------------------------------------------------------------
# Probe compilation.
#
# Translations at a are indexed 0..6 in TranslationKind order: E, L, Li, R,
# Ri, P, Pi.  A probe is (i, j, fam): compose translations i after j and
# test membership in family fam (0 = rows {L_u}, 1 = columns {R_u},
# 2 = middle {P_u}).

_KIND_INDEX = {kind: i for i, kind in enumerate(TranslationKind)}
_INV = tuple(_KIND_INDEX[kind.inverse] for kind in TranslationKind)


# The generator of each family, indexed by family.
_GENERATORS = (TranslationKind.L, TranslationKind.R, TranslationKind.P)


def _family(kind: TranslationKind) -> tuple[int, bool]:
    """(family, is-inverse) of a kind other than E.

    The family is the role the kind holds at a (L and Li hold the left
    argument, R and Ri the right one, P and Pi the product).  A generator
    sends the earlier of its two other roles to the later one, so a kind
    whose input role comes after its output role is an inverse.
    """
    fixed, source, target = kind.roles
    return fixed, source > target


# (family, test_inverse) of the rows / columns / middle translations of each
# parastrophe, expressed in base-square families.
_ROW_FAMILY, _COL_FAMILY, _MID_FAMILY = (
    {sigma: _family(kinds[generator]) for sigma, kinds in TRANSFER.items()}
    for generator in _GENERATORS
)

Probe = tuple[int, int, int]


def _effective_index(
    kind: TranslationKind, sigma: ParastropheSym, conv: Convention, is_arg: bool
) -> int:
    """Index of the translation the triple component actually applies, at conv."""
    if conv.translation_source == "parastrophe":
        kind = transfer_kind(kind, sigma)
    action = conv.arg_action if is_arg else conv.result_action
    if action == "inverse":
        kind = kind.inverse
    return _KIND_INDEX[kind]


def case_probe(case: CaseId, conv: Convention) -> Probe:
    """Compile a case to its single membership probe."""
    spec, unit = case.spec, case.unit
    ea = _effective_index(spec.triple.alpha, spec.sigma, conv, True)
    eb = _effective_index(spec.triple.beta, spec.sigma, conv, True)
    eg = _effective_index(spec.triple.gamma, spec.sigma, conv, False)
    if unit is UnitKind.LEFT:
        fam, inv = _ROW_FAMILY[spec.sigma]
        # h = g^-1 . q^-1 must be a row of B; test h or h^-1 = q . g
        return (eb, eg, fam) if inv else (_INV[eg], _INV[eb], fam)
    if unit is UnitKind.RIGHT:
        fam, inv = _COL_FAMILY[spec.sigma]
        return (ea, eg, fam) if inv else (_INV[eg], _INV[ea], fam)
    fam, inv = _MID_FAMILY[spec.sigma]
    # h = q . p^-1 must be a middle translation of B
    return (ea, _INV[eb], fam) if inv else (eb, _INV[ea], fam)


# ---------------------------------------------------------------------------
# Tautologies: the translation at a that generates a family, composed with
# the identity, is that family's member a in every quasigroup.

_GENERATOR_INDEX = tuple(_KIND_INDEX[kind] for kind in _GENERATORS)
_PROOF = ("L_a is row a", "R_a is column a", "P_a is middle translation a")


def tautology_proof(probe: Probe) -> str | None:
    """A one-line proof that the probe holds at every a of every quasigroup.

    None when the probe is not one of the six tautologies
    (E,L,rows) (L,E,rows) (E,R,cols) (R,E,cols) (E,P,mids) (P,E,mids);
    every other probe a case compiles to, under any convention, fails
    somewhere in exhaustive:4.
    """
    i, j, fam = probe
    if {i, j} == {0, _GENERATOR_INDEX[fam]}:
        return _PROOF[fam]
    return None


def case_proof(case: CaseId, conv: Convention) -> str | None:
    """The proof that the case has its unit in every derivative, or None."""
    return tautology_proof(case_probe(case, conv))


# ---------------------------------------------------------------------------
# The scan.  Translations are bytes, which bounds the order at 256;
# composition is bytes.translate.  The live probes are one list: at each a, a
# probe that fails is killed at that a and the rest go on to the next a.

_PAD256 = bytes(range(256))
_BATCH = 512  # squares pulled from the corpus at a time


def _scan_square(rows: Rows, probes: Sequence[Probe]) -> list[tuple[Probe, int]]:
    """(probe, first failing a) for each of the probes that fails on one square."""
    n = len(rows)
    mul = [bytes(r) for r in rows]
    cols = [bytes(c) for c in zip(*rows)]
    ldiv = [bytes(invert_images(r)) for r in rows]
    rdiv_cols = [bytes(invert_images(c)) for c in cols]
    rdiv = [bytes(r) for r in zip(*rdiv_cols)]
    pcols = [bytes(c) for c in zip(*ldiv)]
    fams = (frozenset(mul), frozenset(cols), frozenset(pcols))

    ident = _PAD256[:n]
    pad = _PAD256[n:]
    kills: list[tuple[Probe, int]] = []
    for a in range(n):
        t = (ident, mul[a], ldiv[a], cols[a], rdiv_cols[a], pcols[a], rdiv[a])
        full = [perm + pad for perm in t]
        alive = []
        for probe in probes:
            i, j, fam = probe
            if t[j].translate(full[i]) in fams[fam]:
                alive.append(probe)
            else:
                kills.append((probe, a))
        if not alive:
            break
        probes = alive
    return kills


Kill = tuple[int, int, int, Rows]  # (order, stream index, a, rows)


def probe_scan(desc: CorpusDescriptor, probes: Iterable[Probe]) -> dict[Probe, Kill | None]:
    """Minimal counterexample per probe over a corpus, or None.

    The corpus is checked first, whatever the probes: it must hold a square
    of order 3 or more, and an exhaustive order within the bound.  The
    tautological probes (tautology_proof) are then settled as None without
    a square being pulled, and the rest are scanned in (order, stream
    index, a) order, _BATCH squares pulled at a time, until each has failed
    or the corpus is exhausted.  A probe that dies is dropped from the later
    squares, and no square is scanned and no batch pulled once none is left.
    """
    desc.check_refutable()
    stream = iter_corpus_rows(desc)
    results: dict[Probe, Kill | None] = {p: None for p in probes}
    live = sorted(p for p in results if tautology_proof(p) is None)
    while live:
        batch = list(itertools.islice(stream, _BATCH))
        if not batch:
            break
        for order, idx, rows in batch:
            for probe, a in _scan_square(rows, live):
                results[probe] = (order, idx, a, rows)
            live = [p for p in live if results[p] is None]
            if not live:
                break
    return results


# ---------------------------------------------------------------------------
# Certificates.


def _unit_equation_holds(
    table: Sequence[Sequence[int]], unit: UnitKind, u: int, x: int
) -> bool:
    if unit is UnitKind.LEFT:
        return table[u][x] == x
    if unit is UnitKind.RIGHT:
        return table[x][u] == x
    return table[x][x] == u


def _unit_cell(unit: UnitKind, u: int, x: int) -> tuple[tuple[int, int], int]:
    """The cell the unit equation of candidate u reads at x, and the value it needs there."""
    if unit is UnitKind.LEFT:
        return (u, x), x
    if unit is UnitKind.RIGHT:
        return (x, u), x
    return (x, x), u


def _unsound(case: CaseId, u: int, a: int) -> SurveyError:
    return SurveyError(
        f"probe unsound: candidate {u} is a {case.unit.token}-unit "
        f"for case {case.token} at a={a}"
    )


def build_certificate(
    rows: Rows, a: int, case: CaseId, conv: Convention, table: Rows
) -> Certificate:
    """Refutation witnesses for every candidate, from the full derivative.

    ``table`` is the Cayley table of the derivative of ``rows`` at ``a``,
    built and validated by the caller (a survey shares them, see
    _Derivatives).  Raises SurveyError if some candidate is actually a unit;
    that would mean the probe that selected (rows, a) was unsound.
    """
    n = len(rows)
    refutation = []
    for u in range(n):
        witness = next(
            (x for x in range(n) if not _unit_equation_holds(table, case.unit, u, x)),
            None,
        )
        if witness is None:
            raise _unsound(case, u, a)
        refutation.append((u, witness))
    return Certificate(
        rows=tuple(tuple(r) for r in rows),
        a=a,
        case=case,
        convention=conv,
        refutation=tuple(refutation),
    )


def verify_certificate(cert: Certificate) -> bool:
    """True iff the certificate genuinely refutes unit existence.

    Structural defects (bad shapes, candidates not covering 0..n-1) raise
    MalformedCertificateError naming the first failing field; a certificate
    whose table is not Latin or whose witnesses do not all refute returns
    False.  The derivative is evaluated only at the n cells the witnesses
    name, through the formula that builds full derived tables.
    """
    rows = cert.rows
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise MalformedCertificateError("rows", "not square")
    if not 0 <= cert.a < n:
        raise MalformedCertificateError("a", f"{cert.a} out of range")
    if len(cert.refutation) != n:
        raise MalformedCertificateError("refutation", f"{len(cert.refutation)} entries for order {n}")
    if sorted(u for u, _ in cert.refutation) != list(range(n)):
        raise MalformedCertificateError("refutation", "candidates must cover 0..n-1")
    if any(not 0 <= x < n for _, x in cert.refutation):
        raise MalformedCertificateError("refutation", "witness out of range")
    try:
        q = from_table(rows)
    except QuasigroupError:
        return False
    spec, unit = cert.case.spec, cert.case.unit
    b = q if spec.sigma is ParastropheSym.ID else apply_parastrophe(q, spec.sigma)
    maps = derivative_maps(q, b, cert.a, spec, cert.convention)
    # b is Latin, so the derivative is Latin exactly when its maps are permutations
    elements = set(range(n))
    if any(len(m) != n or set(m) != elements for m in maps):
        return False
    cells = [_unit_cell(unit, u, x) for u, x in cert.refutation]
    products = derivative_products(b, maps, (cell for cell, _ in cells))
    return all(value != want for value, (_, want) in zip(products, cells))


# ---------------------------------------------------------------------------
# Surveys.


class _Derivatives:
    """The derived tables of one survey call, each built and validated once.

    A derived table is gamma(B(alpha(x), beta(y))) for the sigma-parastrophe
    B of the kill square, so it is keyed by the square's (order, stream
    index), sigma and the alpha, beta, gamma images after the convention's
    actions (derivative_maps, the same step apply_derivative takes).  The
    cases and conventions that act alike on a square share one table.  The
    base quasigroup is built once per square, each parastrophe once per
    sigma, and the maps once per (square, a, spec, convention), so the three
    unit kinds of a spec share them; every derived table is validated by
    from_table.
    """

    def __init__(self) -> None:
        self._paras: dict[tuple[int, int], dict[ParastropheSym, Quasigroup]] = {}
        self._tables: dict[tuple, Rows] = {}
        self._by_spec: dict[tuple, Rows] = {}

    def table(self, kill: Kill, spec: DerivativeSpec, conv: Convention) -> Rows:
        order, idx, a, rows = kill
        spec_key = (order, idx, a, spec, conv)
        table = self._by_spec.get(spec_key)
        if table is None:
            table = self._by_spec[spec_key] = self._derive(kill, spec, conv)
        return table

    def _derive(self, kill: Kill, spec: DerivativeSpec, conv: Convention) -> Rows:
        order, idx, a, rows = kill
        paras = self._paras.get((order, idx))
        if paras is None:
            paras = self._paras[order, idx] = {ParastropheSym.ID: from_table(rows)}
        q = paras[ParastropheSym.ID]
        b = paras.get(spec.sigma)
        if b is None:
            b = paras[spec.sigma] = apply_parastrophe(q, spec.sigma)
        maps = derivative_maps(q, b, a, spec, conv)
        key = (order, idx, spec.sigma, maps)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = from_table(compose_derivative(b, maps)).mul_table
        return table


def _survey_kills(
    desc: CorpusDescriptor, conventions: Sequence[Convention], cases: Sequence[CaseId]
) -> Iterator[tuple[Convention, CaseId, Kill | None, Rows | None]]:
    """(convention, case, kill, derived) for each case under each convention, from one scan.

    ``kill`` is the minimal counterexample of the case's probe, or None when
    there is none; ``derived`` is then None, and otherwise the full
    derivative of the kill square at its a, the table that must refute the
    case's unit (_Derivatives).
    """
    probes = [[case_probe(case, conv) for case in cases] for conv in conventions]
    kills = probe_scan(desc, {p for conv_probes in probes for p in conv_probes})
    derivatives = _Derivatives()
    for conv, conv_probes in zip(conventions, probes):
        for case, probe in zip(cases, conv_probes):
            kill = kills[probe]
            derived = None if kill is None else derivatives.table(kill, case.spec, conv)
            yield conv, case, kill, derived


def run_survey_multi(
    desc: CorpusDescriptor, conventions: Sequence[Convention]
) -> dict[Convention, SurveyResult]:
    """One corpus pass shared by several conventions.

    Every case with a counterexample gets its certificate built from the
    full derived table, so an unsound probe raises SurveyError here.
    """
    statuses: dict[Convention, dict[CaseId, Certificate | NoCounterexample]] = {
        conv: {} for conv in conventions
    }
    none_found = NoCounterexample(desc.order, desc.token)
    for conv, case, kill, derived in _survey_kills(desc, conventions, all_cases()):
        if kill is None:
            statuses[conv][case] = none_found
        else:
            _, _, a, rows = kill
            statuses[conv][case] = build_certificate(rows, a, case, conv, derived)
    return {conv: SurveyResult(conv, desc, s) for conv, s in statuses.items()}


def run_survey(
    desc: CorpusDescriptor, conv: Convention = CONVENTION_A, jobs: int = 1
) -> SurveyResult:
    """Classify all 1944 cases over a corpus under one convention.

    ``jobs`` is accepted for existing callers and ignored: the scan is
    sequential.
    """
    return run_survey_multi(desc, [conv])[conv]


def minimal_counterexample(
    case: CaseId,
    conv: Convention = CONVENTION_A,
    max_order: int = 5,
    jobs: int = 1,
) -> Certificate | None:
    """First counterexample scanning orders 3..max_order exhaustively.

    A survey of the one case: the same scan and derived table as
    run_survey_multi, so the certificate is the one a survey would file.

    ``jobs`` is accepted for existing callers and ignored: the scan is
    sequential.
    """
    desc = CorpusDescriptor("exhaustive", max_order)
    ((_, _, kill, derived),) = _survey_kills(desc, [conv], [case])
    if kill is None:
        return None
    _, _, a, rows = kill
    return build_certificate(rows, a, case, conv, derived)


# ---------------------------------------------------------------------------
# Sign tables and the diff.

PLUS, MINUS, UNKNOWN = "+", "-", "?"


SignTable = Mapping[CaseId, str]  # a +/-/? sign for every (spec, unit) cell


def _sign(status: Certificate | NoCounterexample) -> str:
    return MINUS if isinstance(status, Certificate) else PLUS


def compute_table(survey: SurveyResult) -> dict[CaseId, str]:
    """Minus where a counterexample was found, plus otherwise.

    A plus on one of the six tautological probes is proved (case_proof);
    any other plus is bounded evidence (no counterexample in the corpus).
    Every refutable probe fails in exhaustive:4, so on exhaustive:N for
    N >= 4 every plus is proved.
    """
    return {case: _sign(status) for case, status in survey.statuses.items()}


@functools.cache
def embedded_paper_table() -> SignTable:
    """The reference classification table shipped with the package, read-only."""
    from .reportio import parse_paper_table  # deferred to avoid a cycle

    text = resources.files("qderiv").joinpath("data/paper_table.txt").read_text()
    return MappingProxyType(parse_paper_table(text))


AGREE, DISAGREE, PAPER_UNKNOWN = "agree", "disagree", "paper_unknown"


@dataclass(frozen=True)
class DiffCell:
    case: CaseId
    computed: str
    paper: str
    status: str
    certificate: Certificate | None


@dataclass(frozen=True)
class DiffReport:
    convention: Convention
    corpus: CorpusDescriptor
    cells: tuple[DiffCell, ...]
    convention_agreements: dict[str, tuple[int, int, int]] | None  # token -> (agree, disagree, unknown)

    def counts(self) -> tuple[int, int, int]:
        return _tally(c.status for c in self.cells)


def agreement_statuses(computed: SignTable, paper: SignTable) -> dict[CaseId, str]:
    """AGREE, DISAGREE or PAPER_UNKNOWN per cell; a '?' reference sign is unknown."""
    if len(computed) != len(paper):
        raise SurveyError(f"shape mismatch: {len(computed)} vs {len(paper)} cells")
    return {case: _agreement(sign, paper[case]) for case, sign in computed.items()}


def _agreement(sign: str, paper_sign: str) -> str:
    return PAPER_UNKNOWN if paper_sign == UNKNOWN else AGREE if paper_sign == sign else DISAGREE


def _tally(statuses: Iterable[str]) -> tuple[int, int, int]:
    n = Counter(statuses)
    return n[AGREE], n[DISAGREE], n[PAPER_UNKNOWN]


def agreement_counts(computed: SignTable, paper: SignTable) -> tuple[int, int, int]:
    """(agree, disagree, paper-unknown) over all 1944 cells."""
    return _tally(agreement_statuses(computed, paper).values())


def diff_against_paper(
    survey: SurveyResult,
    paper: SignTable,
    convention_agreements: dict[str, tuple[int, int, int]] | None = None,
) -> DiffReport:
    """Per-cell agree/disagree/paper_unknown, with certificates as evidence.

    Disagreements are reported, never corrected: every disagree cell where
    the computed sign is minus carries its certificate.
    """
    computed = compute_table(survey)
    statuses = agreement_statuses(computed, paper)
    cells = []
    for case in all_cases():
        c, status = computed[case], statuses[case]
        cert = survey.statuses[case] if status == DISAGREE and c == MINUS else None
        cells.append(DiffCell(case, c, paper[case], status, cert))
    return DiffReport(survey.convention, survey.corpus, tuple(cells), convention_agreements)


def convention_agreement_table(
    desc: CorpusDescriptor,
    paper: SignTable,
    jobs: int = 1,
) -> dict[str, tuple[int, int, int]]:
    """Agreement counts against the reference table for all eight conventions.

    No convention is singled out; the counts are evidence for the reader.
    The signs come from _convention_signs.  ``jobs`` is accepted for
    existing callers and ignored: the scan is sequential.
    """
    cases = all_cases()
    if len(paper) != len(cases):
        raise SurveyError(f"shape mismatch: {len(cases)} vs {len(paper)} cells")
    return _agreement_counts(_convention_signs(desc, cases), paper, cases)


def _convention_signs(
    desc: CorpusDescriptor, cases: Sequence[CaseId]
) -> dict[Convention, list[str]]:
    """The sign of each of the cases under each of the eight conventions, in case order.

    Only signs are kept, so no certificate is built: the full derived table
    of every minus is checked for the case's unit instead (an identity row,
    an identity column or a constant diagonal), the condition on which
    build_certificate raises, and an unsound probe raises SurveyError here
    too.
    """
    conventions = all_conventions()
    signs: dict[Convention, list[str]] = {conv: [] for conv in conventions}
    for conv, case, kill, derived in _survey_kills(desc, conventions, cases):
        if kill is None:
            signs[conv].append(PLUS)
            continue
        u = find_unit_in_table(derived, case.unit)
        if u is not None:
            raise _unsound(case, u, kill[2])
        signs[conv].append(MINUS)
    return signs


def _agreement_counts(
    signs: dict[Convention, list[str]], paper: SignTable, cases: Sequence[CaseId]
) -> dict[str, tuple[int, int, int]]:
    """Agreement counts of each convention's signs (_convention_signs) with the reference."""
    reference = [paper[case] for case in cases]
    return {
        conv.token: _tally(map(_agreement, s, reference)) for conv, s in signs.items()
    }
