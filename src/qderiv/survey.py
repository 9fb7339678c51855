"""Survey of unit existence over all 1944 (derivative spec, unit kind) cases.

Unit existence in a derivative never needs the derived table: with
D(x,y) = g(B(p(x), q(y))) for bijections p, q, g and B the
sigma-parastrophe, a left unit exists iff g^-1 . q^-1 is a row of B, and
the rows of B are one of the three translation families of the base
square.  A right or middle unit of D is a left unit of a parastrophe of D,
which is again a derivative (derivative.act), so every case compiles to a
single probe (compose two of the seven translations at a, test membership
in one family).

Six probes are a family's generator composed with the identity; they hold
in every quasigroup (L_a is row a, R_a is column a, P_a is middle
translation a), so they are settled by that proof and never scanned.  The
scan evaluates the remaining, refutable probes per (square, a), keeps the
first failure in (order, stream index, a) order, and stops once every one
of them has failed.  A case without a counterexample is thus either proved
or bounded evidence over the corpus scanned.

The derivative of spec s under convention C is that of pi_C(s) =
C.relabel(s) under A, so the 1944 A cases are compiled, scanned and refuted
once (_survey_kills), and a case under C takes its A case's kill and
refutation (_relabeled_cells).  A refutation is read from the derivative's
maps at one cell per unit equation, independent of the probe shortcut, so
an unsound probe surfaces as a candidate that no cell refutes; no derived
table is composed.  The convention agreement table builds no certificate:
it keeps the sign of every A case and reads the eight sign lists through
pi_C.
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
    Maps,
    derivative_maps,
    derivative_products,
    enumerate_specs,
)
from .parastrophe import TRANSFER, ParastropheSym, act_roles, apply_parastrophe
from .qcore import Quasigroup, QuasigroupError, TranslationKind, from_table, invert_images
from .units import UnitKind

Rows = tuple[tuple[int, ...], ...]
Refutation = tuple[tuple[int, int], ...]  # (candidate, witness) pairs


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
    refutation: Refutation

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


@functools.cache
def all_cases() -> tuple[CaseId, ...]:
    """The 1944 cases in canonical order: spec order x (f, e, s); built once."""
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


# (family, test_inverse) of the rows of each parastrophe, in base-square families.
_ROW_FAMILY = {sigma: _family(kinds[TranslationKind.L]) for sigma, kinds in TRANSFER.items()}


def _left_mate(role: int, sigma: ParastropheSym) -> tuple[ParastropheSym, int, int]:
    """The left-unit orbit-mate of a sigma case whose unit has the constant role.

    The mate is the tau-parastrophe (derivative.act) for the first tau that
    moves the role to 0.  A unit's constant role is its place in UNIT_ORDER
    (f 0, e 1, s 2).  Returned: the mate's parastrophe, and the slots of the
    case's triple that become its beta and gamma.
    """
    tau = next(t for t in ParastropheSym if act_roles(t, sigma)[1][0] == role)
    mate, (_, b, g) = act_roles(tau, sigma)
    return mate, b, g


_LEFT_MATE = {
    (unit, sigma): _left_mate(role, sigma)
    for role, unit in enumerate(UNIT_ORDER) for sigma in ParastropheSym
}

Probe = tuple[int, int, int]


def case_probe(case: CaseId, conv: Convention) -> Probe:
    """Compile a case to its single membership probe: A's probe of (pi_C(s), unit).

    The case is compiled as the left-unit case of its orbit-mate (_LEFT_MATE).
    """
    spec = conv.relabel(case.spec)
    sigma, b, g = _LEFT_MATE[case.unit, spec.sigma]
    triple = spec.triple
    kinds = (triple.alpha, triple.beta, triple.gamma)
    # the mate's beta and gamma; A applies gamma inversely to the product
    eb, eg = _KIND_INDEX[kinds[b]], _INV[_KIND_INDEX[kinds[g]]]
    fam, inv = _ROW_FAMILY[sigma]
    # h = g^-1 . q^-1 must be a row of B; test h or h^-1 = q . g
    return (eb, eg, fam) if inv else (_INV[eg], _INV[eb], fam)


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


def _unit_cell(unit: UnitKind, u, x):
    """The cell the unit equation of candidate u reads at x, and the value it needs there.

    Given equal-length sequences u and x instead, the same elementwise.
    """
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


def _permutations(maps: Maps, n: int) -> bool:
    """Whether alpha, beta and gamma each permute range(n).

    With a Latin B that is exactly when the derivative is Latin.
    """
    elements = set(range(n))
    return all(len(m) == n and set(m) == elements for m in maps)


def _refutation(b: Quasigroup, maps: Maps, case: CaseId, a: int) -> Refutation:
    """The first x at which each candidate's unit equation fails in the derivative.

    The derivative is that of ``b`` with ``maps`` (derivative_maps), its
    product inlined from derivative_products and read at the cells of
    _unit_cell up to the first failure.  Raises SurveyError if some
    candidate is actually a unit: the probe that chose the square was unsound.
    """
    (alpha, beta, gamma), bt, xs = maps, b.mul_table, range(b.n)
    refutation = []
    for u in xs:
        (left, right), want = _unit_cell(case.unit, (u,) * b.n, xs)
        for x, l, r, w in zip(xs, left, right, want):
            if gamma[bt[alpha[l]][beta[r]]] != w:
                refutation.append((u, x))
                break
        else:
            raise _unsound(case, u, a)
    return tuple(refutation)


def build_certificate(
    rows: Rows, a: int, case: CaseId, conv: Convention, refutation: Refutation
) -> Certificate:
    """The certificate of a case from its kill square and the refutation found there."""
    return Certificate(
        rows=tuple(tuple(r) for r in rows),
        a=a,
        case=case,
        convention=conv,
        refutation=refutation,
    )


def _square(built: dict, key, rows: Rows, sigma: ParastropheSym) -> tuple[Quasigroup, ...]:
    """The quasigroup of rows and its sigma-parastrophe, each built once per key in built."""
    q = built.get((key, ParastropheSym.ID))
    if q is None:
        q = built[key, ParastropheSym.ID] = from_table(rows)
    b = built.get((key, sigma))
    if b is None:
        b = built[key, sigma] = apply_parastrophe(q, sigma)
    return q, b


_PAIRS: dict = {}  # (rows, sigma, cell types) -> (base, sigma-parastrophe), the last 64 built


def _cached_pair(rows: Rows, sigma: ParastropheSym) -> tuple[Quasigroup, ...]:
    """The quasigroup of rows and its sigma-parastrophe, built once while _PAIRS holds them."""
    # keyed by cell types too: True and 1.0 equal 1 and hash alike, but from_table rejects them
    key = (rows, sigma, frozenset(map(type, itertools.chain.from_iterable(rows))))
    pair = _PAIRS.get(key)
    if pair is None:
        pair = _PAIRS[key] = _square({}, None, rows, sigma)
        if len(_PAIRS) > 64:
            del _PAIRS[next(iter(_PAIRS))]
    return pair


def verify_certificate(cert: Certificate) -> bool:
    """True iff the certificate genuinely refutes unit existence.

    Structural defects (bad shapes, candidates not covering 0..n-1) raise
    MalformedCertificateError naming the first failing field; a certificate
    whose table is not Latin or whose witnesses do not all refute returns
    False.  The derivative is evaluated only at the n cells the witnesses
    name, through the formula that builds full derived tables.  The square
    and its parastrophe come from a bounded process-wide cache (_cached_pair).
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
    spec, unit = cert.case.spec, cert.case.unit
    try:
        q, b = _cached_pair(rows, spec.sigma)
    except QuasigroupError:
        return False
    maps = derivative_maps(q, b, cert.a, spec, cert.convention)
    if not _permutations(maps, n):
        return False
    cells = [_unit_cell(unit, u, x) for u, x in cert.refutation]
    products = derivative_products(b, maps, (cell for cell, _ in cells))
    return all(value != want for value, (_, want) in zip(products, cells))


# ---------------------------------------------------------------------------
# Surveys.


def _survey_kills(
    desc: CorpusDescriptor, cases: Sequence[CaseId]
) -> Iterator[tuple[Kill | None, Refutation | None]]:
    """(kill, refutation) for each of the cases under A, from one scan.

    ``kill`` is the minimal counterexample of the case's probe, or None when
    there is none; ``refutation`` is then None, and otherwise a witness for
    every candidate in the derivative of the kill square at its a
    (_refutation), so every A minus is checked here, once.  The base
    quasigroup of each kill square and each of its sigma-parastrophes are
    built once per call (_square); the derivative's maps must be
    permutations, which with a Latin B is exactly a Latin derivative.
    """
    probes = [case_probe(case, CONVENTION_A) for case in cases]
    kills = probe_scan(desc, set(probes))
    built: dict = {}
    for case, probe in zip(cases, probes):
        kill = kills[probe]
        if kill is None:
            yield None, None
            continue
        order, idx, a, rows = kill
        spec = case.spec
        q, b = _square(built, (order, idx), rows, spec.sigma)
        maps = derivative_maps(q, b, a, spec, CONVENTION_A)
        if not _permutations(maps, order):
            raise SurveyError(f"derived table of {spec.token} at a={a} is not Latin")
        yield kill, _refutation(b, maps, case, a)


@functools.cache
def _relabeled_cells(conv: Convention) -> tuple[int, ...]:
    """pi_C by position: the all_cases index of (conv.relabel(s), unit) for each case (s, unit)."""
    position = {spec: i for i, spec in enumerate(enumerate_specs())}
    return tuple(3 * position[conv.relabel(s)] + k for s in enumerate_specs() for k in range(3))


def run_survey_multi(
    desc: CorpusDescriptor, conventions: Sequence[Convention]
) -> dict[Convention, SurveyResult]:
    """One corpus pass under A shared by several conventions.

    A case under C files, as its own, the kill and refutation of its A case
    (_relabeled_cells): the derivatives are equal, so the bytes are too.  An
    unsound probe raises SurveyError here (_survey_kills).
    """
    cases = all_cases()
    cells = list(_survey_kills(desc, cases))
    none_found = NoCounterexample(desc.order, desc.token)
    results = {}
    for conv in conventions:
        statuses: dict[CaseId, Certificate | NoCounterexample] = {}
        for case, i in zip(cases, _relabeled_cells(conv)):
            kill, refutation = cells[i]
            statuses[case] = none_found if kill is None else build_certificate(
                kill[3], kill[2], case, conv, refutation
            )
        results[conv] = SurveyResult(conv, desc, statuses)
    return results


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

    A survey of the one case: the same scan and refutation as
    run_survey_multi, so the certificate is the one a survey would file.

    ``jobs`` is accepted for existing callers and ignored: the scan is
    sequential.
    """
    desc = CorpusDescriptor("exhaustive", max_order)
    ((kill, refutation),) = _survey_kills(desc, [CaseId(conv.relabel(case.spec), case.unit)])
    if kill is None:
        return None
    _, _, a, rows = kill
    return build_certificate(rows, a, case, conv, refutation)


# ---------------------------------------------------------------------------
# Sign tables and the diff.

PLUS, MINUS, UNKNOWN = "+", "-", "?"


SignTable = Mapping[CaseId, str]  # a +/-/? sign for every (spec, unit) cell


def compute_table(survey: SurveyResult) -> dict[CaseId, str]:
    """Minus where a counterexample was found, plus otherwise.

    A plus on one of the six tautological probes is proved (case_proof);
    any other plus is bounded evidence (no counterexample in the corpus).
    Every refutable probe fails in exhaustive:4, so on exhaustive:N for
    N >= 4 every plus is proved.
    """
    return {c: MINUS if isinstance(s, Certificate) else PLUS for c, s in survey.statuses.items()}


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
    The signs of the A cases, each minus refuted (_survey_kills), are read
    through pi (convention_agreements).  ``jobs`` is accepted for existing
    callers and ignored: the scan is sequential.
    """
    cases = all_cases()
    if len(paper) != len(cases):
        raise SurveyError(f"shape mismatch: {len(cases)} vs {len(paper)} cells")
    signs = [PLUS if kill is None else MINUS for kill, _ in _survey_kills(desc, cases)]
    return convention_agreements(signs, CONVENTION_A, paper)


def convention_agreements(
    signs: Sequence[str], conv: Convention, paper: SignTable
) -> dict[str, tuple[int, int, int]]:
    """Agreement counts of all eight conventions, read off conv's signs in all_cases order.

    (s, unit) has under C the sign (pi_C(s), unit) has under A (_relabeled_cells).
    """
    a_signs = dict(zip(_relabeled_cells(conv), signs))
    reference = [paper[case] for case in all_cases()]
    return {
        c.token: _tally(map(_agreement, [a_signs[i] for i in _relabeled_cells(c)], reference))
        for c in all_conventions()
    }
