"""Command-line entry point.

Exit codes: 0 success, 1 usage or validation error, 2 counterexample found
(certify), 3 internal invariant breach (a verify check failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import corpus as corpus_mod
from . import reportio
from .corpus import CorpusDescriptor, OrderTooLargeError
from .derivative import (
    CONVENTION_A,
    all_conventions,
    apply_derivative,
    left_derivative,
    middle_derivative,
    middle_inverse_derivative,
    right_derivative,
)
from .parastrophe import ParastropheSym, apply_parastrophe, verify_translation_transfer
from .qcore import Quasigroup, QuasigroupError, from_table
from .survey import (
    CaseId,
    Certificate,
    MINUS,
    PLUS,
    UNIT_ORDER,
    MalformedCertificateError,
    SurveyResult,
    all_cases,
    case_probe,
    case_proof,
    convention_agreements,
    diff_against_paper,
    embedded_paper_table,
    minimal_counterexample,
    probe_scan,
    run_survey,
    tautology_proof,
    verify_certificate,
)
from .units import UnitKind, find_unit_in_table, left_unit, middle_unit, right_unit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INVARIANT = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_quasigroup(path: str) -> Quasigroup:
    return reportio.parse_cayley(_read_text(path))


def _parse_case(text: str) -> CaseId:
    spec_tok, sep, unit_tok = text.strip().rpartition("/")
    if not sep:
        raise reportio.ParseError(f"case {text!r}: expected <spec>/<unit>")
    try:
        unit = UnitKind(unit_tok)
    except ValueError:
        raise reportio.ParseError(f"case {text!r}: bad unit token {unit_tok!r}") from None
    return CaseId(reportio.parse_spec(spec_tok), unit)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_validate(args) -> int:
    q = _load_quasigroup(args.file)
    print(f"valid quasigroup of order {q.n}")
    return EXIT_OK


def cmd_parastrophe(args) -> int:
    q = _load_quasigroup(args.file)
    sigma = ParastropheSym(args.sigma)
    _write_text(args.out, reportio.emit_cayley(apply_parastrophe(q, sigma)))
    return EXIT_OK


def cmd_derive(args) -> int:
    q = _load_quasigroup(args.file)
    spec = reportio.parse_spec(args.spec)
    conv = reportio.parse_convention(args.convention)
    if not 0 <= args.a < q.n:
        raise reportio.ParseError(f"element a={args.a} out of range for order {q.n}")
    _write_text(args.out, reportio.emit_cayley(apply_derivative(q, args.a, spec, conv)))
    return EXIT_OK


def cmd_units(args) -> int:
    q = _load_quasigroup(args.file)
    units = [find_unit_in_table(q.mul_table, kind) for kind in UNIT_ORDER]
    print(" ".join(f"{kind.token}={'-' if u is None else u}" for kind, u in zip(UNIT_ORDER, units)))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.count_only:
        count = corpus_mod.count_reduced if args.reduced else corpus_mod.count_all
        print(count(args.order))
        return EXIT_OK
    squares = corpus_mod.enumerate_reduced if args.reduced else corpus_mod.enumerate_all
    for i, q in enumerate(squares(args.order)):
        sys.stdout.write(("\n" if i else "") + reportio.emit_cayley(q))
    return EXIT_OK


def cmd_survey(args) -> int:
    desc = CorpusDescriptor.parse(args.corpus)
    conv = reportio.parse_convention(args.convention)
    result = run_survey(desc, conv)
    _write_text(args.out, reportio.survey_to_json(result))
    n_minus = sum(1 for s in result.statuses.values() if isinstance(s, Certificate))
    print(
        f"survey {desc.token} under {conv.token}: "
        f"{n_minus} counterexample cases, {1944 - n_minus} without",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    case = _parse_case(args.case)
    conv = reportio.parse_convention(args.convention)
    cert = minimal_counterexample(case, conv, max_order=args.max_order)
    if cert is None:
        proof = case_proof(case, conv)
        if proof is None:
            print(f"no counterexample for {case.token} up to order {args.max_order}")
        else:
            print(f"no counterexample for {case.token} at any order: proved ({proof})")
        return EXIT_OK
    doc = reportio.certificate_to_doc(cert)
    print(json.dumps(doc, separators=(",", ":")))
    return EXIT_COUNTEREXAMPLE


def cmd_diff_paper(args) -> int:
    survey = reportio.survey_from_json(_read_text(args.survey))
    paper = embedded_paper_table()
    signs = _checked_signs(survey)
    agreements = None
    if not args.skip_convention_scan:
        agreements = convention_agreements(signs, survey.convention, paper)
    report = diff_against_paper(survey, paper, agreements)
    _write_text(args.out, reportio.diff_report_markdown(report))
    return EXIT_OK


def _checked_signs(survey: SurveyResult) -> list[str]:
    """The document's signs in all_cases order, each tied to its kill.

    Three checks, each failing on its first case in all_cases order: no minus
    is on a proved probe; every certificate refutes; and one scan of the
    corpus kills each probe at its certificate's (rows, a), or not at all.
    """
    cases, conv, corpus = all_cases(), survey.convention, survey.corpus
    certs = [s if isinstance(s, Certificate) else None for s in map(survey.statuses.get, cases)]
    probes = [case_probe(case, conv) for case in cases]

    def error(what: str, case: CaseId, verdict: str) -> reportio.ParseError:
        return reportio.ParseError(f"{what} for {case.token} under {conv.token} {verdict}")

    rescan = f"differs from a re-scan of {corpus.token}"
    for case, cert, probe in zip(cases, certs, probes):
        if cert is not None and tautology_proof(probe) is not None:
            raise error("survey sign", case, rescan)
    squares: dict = {}
    for cert in filter(None, certs):
        try:
            refutes = verify_certificate(cert, squares)
        except MalformedCertificateError:
            refutes = False
        if not refutes:
            raise error("certificate", cert.case, "does not refute")
    kills = probe_scan(corpus, probes)
    for case, cert, probe in zip(cases, certs, probes):
        kill = kills[probe]
        if (cert is None) != (kill is None):
            raise error("survey sign", case, rescan)
        if cert is not None and (cert.rows, cert.a) != (kill[3], kill[2]):
            raise error("certificate", case, f"is not on its first counterexample in {corpus.token}")
    return [PLUS if cert is None else MINUS for cert in certs]


# ---------------------------------------------------------------------------
# verify: the built-in acceptance checks.

EXAMPLE_BASE_1 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # cyclic group of order 3
EXAMPLE_BASE_2 = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
EXAMPLE_DERIVED_1 = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
EXAMPLE_DERIVED_2 = ((1, 2, 0), (2, 0, 1), (0, 1, 2))
EXAMPLE_SPEC_TOKEN = "23:L,Pi,E"


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}" + (f": {detail}" if detail else ""))
    return ok


def verify_example() -> bool:
    """Rebuild the two built-in worked-example derivative tables bit-exactly."""
    spec = reportio.parse_spec(EXAMPLE_SPEC_TOKEN)
    ok = True
    d1 = apply_derivative(from_table(EXAMPLE_BASE_1), 0, spec, CONVENTION_A)
    ok &= _check(
        "example table 1 rebuilt bit-exact",
        d1.mul_table == EXAMPLE_DERIVED_1,
        f"got {d1.mul_table}",
    )
    ok &= _check(
        "example table 1 has no left and no right unit",
        left_unit(d1) is None and right_unit(d1) is None,
    )
    d2 = apply_derivative(from_table(EXAMPLE_BASE_2), 0, spec, CONVENTION_A)
    ok &= _check(
        "example table 2 rebuilt bit-exact",
        d2.mul_table == EXAMPLE_DERIVED_2,
        f"got {d2.mul_table}",
    )
    ok &= _check("example table 2 has no middle unit", middle_unit(d2) is None)
    return ok


def _verify_corpus(desc: CorpusDescriptor | None, random_count: int):
    """(label, squares) pairs for a verify check.

    The given corpus, or by default every square of orders 1..4 and then
    ``random_count`` seeded random order-8 squares.
    """
    if desc is not None:
        yield desc.token, (q for _, _, q in corpus_mod.iter_corpus(desc))
        return
    for n in (1, 2, 3, 4):
        yield f"exhaustive order {n}", corpus_mod.enumerate_all(n)
    yield (
        f"{random_count} random order-8",
        (corpus_mod.random_square(8, seed) for seed in range(random_count)),
    )


def verify_lemma(desc: CorpusDescriptor | None = None) -> bool:
    """The four classical derivatives carry their units with explicit witnesses."""
    ok = True
    for label, squares in _verify_corpus(desc, 1000):
        n_squares = 0
        failures = 0
        for q in squares:
            n_squares += 1
            for a in range(q.n):
                la, ra = q.ldiv(a, a), q.rdiv(a, a)
                if left_unit(right_derivative(q, a)) != la:
                    failures += 1
                if right_unit(left_derivative(q, a)) != ra:
                    failures += 1
                if left_unit(middle_derivative(q, a)) != ra:
                    failures += 1
                if right_unit(middle_inverse_derivative(q, a)) != la:
                    failures += 1
        ok &= _check(
            f"classical derivative units on {label}",
            failures == 0,
            f"{n_squares} squares, {failures} failures",
        )
    return ok


def verify_table1(desc: CorpusDescriptor | None = None) -> bool:
    """All 36 translation-transfer cells on the corpus."""
    ok = True
    for label, squares in _verify_corpus(desc, 100):
        bad = 0
        n_squares = 0
        for q in squares:
            n_squares += 1
            bad += sum(1 for cell in verify_translation_transfer(q) if not cell.ok)
        ok &= _check(
            f"translation transfer (36 cells) on {label}",
            bad == 0,
            f"{n_squares} squares, {bad} failing cells",
        )
    return ok


# The three unit-existence claims, by claim number.
THEOREM_CASES = {
    1: _parse_case("e:L,L,E/f"),
    2: _parse_case("12:L,L,E/e"),
    3: _parse_case("23:L,Li,E/f"),
}


def verify_theorem(claim: int, desc: CorpusDescriptor | None = None) -> bool:
    """Per-convention unit existence for one claim; informational, never a FAIL.

    The claims' status genuinely depends on the convention, so one line is
    printed per convention instead of asserting a single truth.  The verdict
    comes from the probe scan: the first counterexample is the kill of the
    claim's probe under that convention, the first (order, square, a) whose
    derivative lacks the unit (survey.probe_scan).
    """
    desc = desc or CorpusDescriptor("exhaustive", 4)
    case = THEOREM_CASES[claim]
    probes = {conv: case_probe(case, conv) for conv in all_conventions()}
    kills = probe_scan(desc, probes.values())
    for conv, probe in probes.items():
        kill = kills[probe]
        if kill is None:
            print(f"claim {claim} under {conv.token}: no counterexample on {desc.token}")
        else:
            order, idx, a, _ = kill
            print(
                f"claim {claim} under {conv.token}: first counterexample at "
                f"order {order}, square {idx}, a={a}"
            )
    return True


def cmd_verify(args) -> int:
    if args.claim is not None and args.what != "theorem":
        raise reportio.ParseError("--claim applies only to verify theorem")
    if args.corpus and args.what == "example":
        raise reportio.ParseError("verify example takes no --corpus")
    desc = None
    if args.corpus:
        desc = CorpusDescriptor.parse(args.corpus)
        desc.check_refutable()
    if args.what == "example":
        ok = verify_example()
    elif args.what == "lemma":
        ok = verify_lemma(desc)
    elif args.what == "table1":
        ok = verify_table1(desc)
    elif args.what == "theorem":
        if args.claim is None:
            ok = all(verify_theorem(c, desc) for c in (1, 2, 3))
        else:
            ok = verify_theorem(args.claim, desc)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.what)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------


_JOBS_HELP = "accepted for existing scripts; has no effect, the scan is sequential"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qderiv",
        description="Finite quasigroup derivatives, unit surveys and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a Cayley-table file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("parastrophe", help="emit a parastrophe of a quasigroup")
    p.add_argument("file")
    p.add_argument("--sigma", required=True, choices=[s.token for s in ParastropheSym])
    p.add_argument("--out")
    p.set_defaults(func=cmd_parastrophe)

    p = sub.add_parser("derive", help="emit a generalized derivative")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--spec", required=True, help='e.g. "23:L,Pi,E"')
    p.add_argument("--convention", default="A")
    p.add_argument("--out")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("units", help="print the unit profile f/e/s")
    p.add_argument("file")
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("enumerate", help="enumerate Latin squares of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("survey", help="classify all 1944 cases over a corpus")
    p.add_argument("--corpus", required=True, help='e.g. "exhaustive:4"')
    p.add_argument("--convention", default="A")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("certify", help="minimal counterexample for one case")
    p.add_argument("--case", required=True, help='e.g. "23:L,Pi,E/f"')
    p.add_argument("--convention", default="A")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="built-in end-to-end checks")
    p.add_argument("what", choices=["example", "lemma", "table1", "theorem"])
    p.add_argument("--claim", type=int, choices=[1, 2, 3])
    p.add_argument("--corpus")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diff-paper", help="diff a survey against the reference table")
    p.add_argument("survey")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument(
        "--skip-convention-scan",
        action="store_true",
        help="omit the per-convention agreement counts",
    )
    p.set_defaults(func=cmd_diff_paper)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (reportio.ParseError, QuasigroupError, OrderTooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
