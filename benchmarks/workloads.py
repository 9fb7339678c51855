"""The three workloads: the calls the CLI makes, and the checks on their outputs.

A workload hands out passes of requests.  ``run`` is the timed call;
``check`` runs outside the timed region and returns None or the reason the
output is wrong.  Expected outputs come from ``expected/``, recorded by
``record_expected.py`` at a commit whose outputs were trusted.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from qderiv import reportio, survey
from qderiv.corpus import CorpusDescriptor
from qderiv.derivative import CONVENTION_A, all_conventions

EXPECTED = Path(__file__).resolve().parent / "expected"

RANDOM_ORDER = 16
RANDOM_COUNT = 300
CERTIFY_MAX_ORDER = 4
CERTIFY_PASS = 100  # requests per pass


def load_expected() -> dict:
    return {
        name: json.loads((EXPECTED / f"{name}.json").read_text())
        for name in ("survey_x5", "signs", "agreements")
    }


def signs_of(result: survey.SurveyResult) -> str:
    """The 1944 signs in canonical case order, read straight off the statuses."""
    return "".join(
        "-" if isinstance(result.statuses[case], survey.Certificate) else "+"
        for case in survey.all_cases()
    )


def _bad_certificates(result: survey.SurveyResult) -> str | None:
    for case, status in result.statuses.items():
        if isinstance(status, survey.Certificate) and not survey.verify_certificate(status):
            return f"certificate for {case.token} does not re-verify"
    return None


class SurveyX5:
    """``qderiv survey --corpus exhaustive:5``: the paper's headline survey.

    An exhaustive corpus has no seed, so the seed is unused.
    """

    name = "survey-x5"

    def __init__(self, seed: int, expected: dict):
        self.desc = CorpusDescriptor("exhaustive", 5)
        self.want = expected["survey_x5"]

    def next_pass(self) -> list:
        return [None]

    def run(self, _request) -> tuple[survey.SurveyResult, str]:
        result = survey.run_survey(self.desc, CONVENTION_A, jobs=1)
        return result, reportio.survey_to_json(result)

    def check(self, _request, output) -> str | None:
        result, text = output
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.want["sha256"]:
            return f"survey JSON sha256 {digest} differs from the recorded one"
        return _bad_certificates(result)


class DiffR16:
    """``qderiv survey --corpus random:16:seed=S:count=300`` then ``qderiv diff-paper``."""

    name = "diff-r16"

    def __init__(self, seed: int, expected: dict):
        self.desc = CorpusDescriptor("random", RANDOM_ORDER, seed=seed, count=RANDOM_COUNT)
        self.signs = expected["signs"]["signs"][CONVENTION_A.token]
        counts = expected["agreements"]["counts"]
        a, d, u = counts[CONVENTION_A.token]
        self.md_lines = [f"- agreement: {a}/1944 agree, {d} disagree, {u} reference-unknown"]
        self.md_lines += [f"| {tok} | {a} | {d} | {u} |" for tok, (a, d, u) in counts.items()]

    def next_pass(self) -> list:
        return [None]

    def run(self, _request):
        result = survey.run_survey(self.desc, CONVENTION_A, jobs=1)
        text = reportio.survey_to_json(result)
        parsed = reportio.survey_from_json(text)
        paper = survey.embedded_paper_table()
        agreements = survey.convention_agreement_table(parsed.corpus, paper, jobs=1)
        report = survey.diff_against_paper(parsed, paper, agreements)
        return result, parsed, reportio.diff_report_markdown(report)

    def check(self, _request, output) -> str | None:
        result, parsed, markdown = output
        if parsed != result:
            return "survey JSON does not parse back to the survey"
        if signs_of(parsed) != self.signs:
            return "survey signs differ from the recorded sign table"
        lines = set(markdown.splitlines())
        missing = [line for line in self.md_lines if line not in lines]
        if missing:
            return f"report lacks the recorded agreement line {missing[0]!r}"
        return _bad_certificates(parsed)


class CertifyX4:
    """``qderiv certify --max-order 4`` for (case, convention) pairs drawn with the seed.

    A closed loop with one client: each request starts when the previous
    one has returned.  A returned certificate is re-verified inside the
    request and emitted as the CLI's JSON line.
    """

    name = "certify-x4"

    def __init__(self, seed: int, expected: dict):
        self.rng = random.Random(seed)
        self.pairs = [(case, conv) for conv in all_conventions() for case in survey.all_cases()]
        self.index = {case: i for i, case in enumerate(survey.all_cases())}
        self.signs = expected["signs"]["signs"]

    def next_pass(self) -> list:
        return [self.rng.choice(self.pairs) for _ in range(CERTIFY_PASS)]

    def run(self, request):
        case, conv = request
        cert = survey.minimal_counterexample(case, conv, max_order=CERTIFY_MAX_ORDER, jobs=1)
        if cert is None:
            return None, None, None
        verified = survey.verify_certificate(cert)
        line = json.dumps(reportio.certificate_to_doc(cert), separators=(",", ":"))
        return cert, verified, line

    def check(self, request, output) -> str | None:
        case, conv = request
        cert, verified, line = output
        want = self.signs[conv.token][self.index[case]]
        if (cert is None) != (want == "+"):
            return f"{case.token} under {conv.token}: verdict differs from recorded sign {want}"
        if cert is None:
            return None
        if (cert.case, cert.convention) != (case, conv):
            return f"{case.token} under {conv.token}: certificate is for another case"
        if not verified or not survey.verify_certificate(cert):
            return f"{case.token} under {conv.token}: certificate does not re-verify"
        if reportio.certificate_from_doc(json.loads(line)) != cert:
            return f"{case.token} under {conv.token}: emitted line is not the certificate"
        return None


WORKLOADS = {w.name: w for w in (SurveyX5, DiffR16, CertifyX4)}
