from __future__ import annotations

import hashlib
import json

import pytest

from conftest import THEOREM_CLAIMS, Z3_ROWS
from qderiv import cli
from qderiv.cli import run
from qderiv.corpus import CorpusDescriptor, iter_corpus
from qderiv.derivative import all_conventions, apply_derivative
from qderiv.reportio import parse_cayley, survey_from_json
from qderiv.units import find_unit

Z3_TEXT = "3\n0 1 2\n1 2 0\n2 0 1\n"


@pytest.fixture
def z3_file(tmp_path):
    path = tmp_path / "z3.cayley"
    path.write_text(Z3_TEXT)
    return str(path)


def test_validate_ok(z3_file, capsys):
    assert run(["validate", z3_file]) == 0
    assert "order 3" in capsys.readouterr().out


def test_validate_bad_table(tmp_path, capsys):
    path = tmp_path / "bad.cayley"
    path.write_text("2\n0 0\n1 1\n")
    assert run(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_derive_reproduces_example_table(z3_file, capsys):
    code = run(["derive", z3_file, "--a", "0", "--spec", "23:L,Pi,E", "--convention", "A"])
    assert code == 0
    assert capsys.readouterr().out == "3\n0 2 1\n2 1 0\n1 0 2\n"


def test_derive_rejects_out_of_range_element(z3_file, capsys):
    assert run(["derive", z3_file, "--a", "5", "--spec", "23:L,Pi,E"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_parastrophe_emits_valid_table(z3_file, capsys):
    assert run(["parastrophe", z3_file, "--sigma", "23"]) == 0
    out = capsys.readouterr().out
    assert parse_cayley(out).mul_table == ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def test_units_output(z3_file, capsys):
    assert run(["units", z3_file]) == 0
    assert capsys.readouterr().out.strip() == "f=0 e=0 s=-"


def test_enumerate_count_only(capsys):
    assert run(["enumerate", "--order", "4", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "576"
    assert run(["enumerate", "--order", "5", "--reduced", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "56"


def test_enumerate_stream_parses_back(capsys):
    assert run(["enumerate", "--order", "3"]) == 0
    docs = capsys.readouterr().out.strip().split("\n\n")
    assert len(docs) == 12
    assert parse_cayley(docs[0] + "\n").mul_table == Z3_ROWS


def test_enumerate_order_too_large(capsys):
    assert run(["enumerate", "--order", "6", "--count-only"]) == 1
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("flags", [[], ["--count-only"], ["--reduced"]])
def test_enumerate_rejects_orders_below_one(capsys, order, flags):
    # order 0 used to end in a RecursionError, -1 in "negative shift count"
    assert run(["enumerate", "--order", order, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_certify_exit_codes(capsys):
    assert run(["certify", "--case", "23:L,Pi,E/f", "--max-order", "3"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"] == [list(r) for r in Z3_ROWS]
    assert doc["a"] == 0
    assert run(["certify", "--case", "e:L,E,L/f", "--max-order", "4"]) == 0
    assert "no counterexample" in capsys.readouterr().out


def test_certify_tautological_case_says_proved(capsys):
    assert run(["certify", "--case", "e:L,E,L/f", "--max-order", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "no counterexample for e:L,E,L/f at any order: proved (L_a is row a)\n"


def test_certify_keeps_the_order_bound_for_tautological_cases(capsys, monkeypatch):
    monkeypatch.delenv("QD_MAX_ORDER", raising=False)
    assert run(["certify", "--case", "e:L,E,L/f", "--max-order", "6"]) == 1
    captured = capsys.readouterr()
    assert "error: exhaustive enumeration of order 6 exceeds the bound 5" in captured.err
    assert captured.out == ""


def test_non_integer_order_bound_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("QD_MAX_ORDER", "abc")
    assert run(["enumerate", "--order", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: QD_MAX_ORDER must be an integer, got 'abc'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--corpus", "random:5:seed=0:count=0"],
        ["survey", "--corpus", "random:2:seed=0:count=3"],
        ["certify", "--case", "e:L,L,E/f", "--max-order", "2"],
        ["verify", "lemma", "--corpus", "exhaustive:2"],
        ["verify", "lemma", "--corpus", "random:5:seed=0:count=0"],
        ["verify", "table1", "--corpus", "exhaustive:2"],
        ["verify", "table1", "--corpus", "random:5:seed=0:count=0"],
    ],
)
def test_vacuous_corpora_are_errors(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_diff_paper_malformed_survey_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert run(["diff-paper", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_certify_bad_case_token(capsys):
    assert run(["certify", "--case", "nonsense"]) == 1
    assert "error" in capsys.readouterr().err


def test_survey_and_diff_paper(tmp_path, capsys):
    out = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--convention", "A", "--out", str(out)]) == 0
    result = survey_from_json(out.read_text())
    assert len(result.statuses) == 1944

    report = tmp_path / "diff.md"
    assert run(["diff-paper", str(out), "--out", str(report)]) == 0
    text = report.read_text()
    assert "Agreement by convention" in text
    assert text.count("| args=") == 8

    assert run(["diff-paper", str(out), "--skip-convention-scan", "--out", str(report)]) == 0
    assert "Agreement by convention" not in report.read_text()


def test_survey_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(a), "--jobs", "1"]) == 0
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_example(capsys):
    assert run(["verify", "example"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_lemma_small_corpus(capsys):
    assert run(["verify", "lemma", "--corpus", "exhaustive:3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_table1_small_corpus(capsys):
    assert run(["verify", "table1", "--corpus", "random:5:seed=0:count=5"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_theorem_prints_per_convention_lines(capsys):
    assert run(["verify", "theorem", "--claim", "1", "--corpus", "exhaustive:3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("claim 1")]
    assert len(lines) == 8


def _theorem_oracle(desc: CorpusDescriptor) -> str:
    """What verify theorem prints, from a search of the full derivatives.

    For each claim and convention, the first (order, square, a) in corpus
    order whose derivative lacks the claimed unit.
    """
    lines = []
    for claim, (spec, kind) in THEOREM_CLAIMS.items():
        for conv in all_conventions():
            counterexample = next(
                (
                    (order, idx, a)
                    for order, idx, q in iter_corpus(desc)
                    for a in range(q.n)
                    if find_unit(apply_derivative(q, a, spec, conv), kind) is None
                ),
                None,
            )
            if counterexample is None:
                lines.append(f"claim {claim} under {conv.token}: no counterexample on {desc.token}")
            else:
                order, idx, a = counterexample
                lines.append(
                    f"claim {claim} under {conv.token}: first counterexample at "
                    f"order {order}, square {idx}, a={a}"
                )
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "corpus", [None, "exhaustive:3", "reduced:4", "random:7:seed=3:count=20"]
)
def test_verify_theorem_matches_the_full_derivative_search(capsys, corpus):
    argv = ["verify", "theorem"] + (["--corpus", corpus] if corpus else [])
    assert run(argv) == 0
    desc = CorpusDescriptor.parse(corpus or "exhaustive:4")
    assert capsys.readouterr().out == _theorem_oracle(desc)


def test_usage_error_exit_code(capsys):
    assert run(["derive", "/nonexistent", "--a", "0", "--spec", "bad spec"]) == 1
    assert run(["no-such-command"]) == 1


@pytest.mark.parametrize("bad", ["0", True, 1.0])
def test_diff_paper_rejects_a_certificate_a_that_is_not_an_integer(tmp_path, capsys, bad):
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["cases"] if e["status"] == "counterexample")
    entry["certificate"]["a"] = bad
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["diff-paper", str(path), "--skip-convention-scan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "status, field, bad",
    [
        ("counterexample", "table", "x"),
        ("no_counterexample", "max_order_checked", None),
        ("no_counterexample", "max_order_checked", 99),
        ("no_counterexample", "corpus", "random:8:seed=1:count=5"),
    ],
)
def test_diff_paper_rejects_mistyped_survey_entries(tmp_path, capsys, status, field, bad):
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["cases"] if e["status"] == status)
    (entry["certificate"] if status == "counterexample" else entry)[field] = bad
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["diff-paper", str(path), "--skip-convention-scan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_survey_random_corpus_orders(tmp_path, capsys):
    # order 32 used to overflow the stack; orders above 256 are refused
    out = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "random:32:seed=1:count=1", "--out", str(out)]) == 0
    assert len(survey_from_json(out.read_text()).statuses) == 1944
    capsys.readouterr()
    assert run(["survey", "--corpus", "random:257:seed=1:count=1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_diff_paper_rejects_a_certificate_filed_under_another_case(tmp_path, capsys):
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    first, second = [e for e in doc["cases"] if e["status"] == "counterexample"][:2]
    first["certificate"], second["certificate"] = second["certificate"], first["certificate"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["diff-paper", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_repeated_corpus_field_is_an_error(capsys):
    assert run(["survey", "--corpus", "random:8:seed=1:count=5:seed=2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: repeated corpus field") and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example", "--corpus", "random:9:seed=1:count=1"], "verify example takes no --corpus"),
        (["example", "--claim", "1"], "--claim applies only to verify theorem"),
        (["lemma", "--claim", "3"], "--claim applies only to verify theorem"),
        (["table1", "--claim", "2"], "--claim applies only to verify theorem"),
    ],
    ids=["example --corpus", "example --claim", "lemma --claim", "table1 --claim"],
)
def test_verify_refuses_options_it_would_ignore(capsys, argv, message):
    assert run(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_repeated_convention_field_is_an_error(capsys):
    conv = "args=direct;args=inverse;result=direct;trans=base"
    assert run(["survey", "--corpus", "exhaustive:3", "--convention", conv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: convention {conv!r}: repeated field 'args'\n"
    assert captured.out == ""


def _scan_must_not_run(*args, **kwargs):
    raise AssertionError("the convention scan ran before the certificates were checked")


@pytest.mark.parametrize(
    "how, skip_scan",
    [
        pytest.param(how, skip_scan, id=how if skip_scan else f"{how}, scan")
        for skip_scan in (True, False)
        for how in ("every witness + 1", "wrapped", "out of range")
    ],
)
def test_diff_paper_rejects_a_printed_certificate_that_does_not_refute(
    tmp_path, capsys, monkeypatch, how, skip_scan
):
    # exhaustive:4 is the smallest corpus whose report prints certificates;
    # the first one printed is e:L,L,E/f's, of order 4.  Without
    # --skip-convention-scan the certificates are checked before the scan.
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    minus = [e["certificate"] for e in doc["cases"] if e["status"] == "counterexample"]
    first = next(c for c in minus if (c["spec"], c["unit"]) == ("e:L,L,E", "f"))
    if how == "every witness + 1":  # some land out of range, e:L,L,E/f's do not
        for cert in minus:
            cert["refutation"] = [[u, x + 1] for u, x in cert["refutation"]]
    elif how == "wrapped":  # in range, and none refutes
        first["refutation"] = [[u, (x + 1) % 4] for u, x in first["refutation"]]
    else:  # verify_certificate raises MalformedCertificateError
        first["refutation"][0][1] = 4
    path.write_text(json.dumps(doc))
    argv = ["diff-paper", str(path)]
    if skip_scan:
        argv.append("--skip-convention-scan")
    else:
        monkeypatch.setattr(cli, "_convention_signs", _scan_must_not_run)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: certificate for e:L,L,E/f under "
        "args=direct;result=inverse;trans=base does not refute\n"
    )


def test_verify_lemma_fails_when_the_middle_derivative_is_wrong(monkeypatch, capsys):
    # the right derivative's left unit is a\a, not the middle derivative's a/a;
    # the two differ on some exhaustive:4 square, so the check must fail
    monkeypatch.setattr(cli, "middle_derivative", cli.right_derivative)
    assert run(["verify", "lemma", "--corpus", "exhaustive:4"]) == cli.EXIT_INVARIANT
    out = capsys.readouterr().out
    prefix = "FAIL classical derivative units on exhaustive:4: 588 squares, "
    assert out.startswith(prefix)
    assert int(out[len(prefix):].split()[0]) > 0


def _forge_a_plus(path) -> str:
    """Rewrite one counterexample of the survey at path as no_counterexample; its case token."""
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["cases"] if e["status"] == "counterexample")
    del entry["certificate"]
    entry.update(status="no_counterexample", max_order_checked=4, corpus="exhaustive:4")
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return f"{entry['spec']}/{entry['unit']}"


def test_diff_paper_rejects_a_forged_plus(tmp_path, capsys):
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    case = _forge_a_plus(path)
    capsys.readouterr()
    assert run(["diff-paper", str(path), "--out", str(tmp_path / "r.md")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: survey sign for {case} under args=direct;result=inverse;trans=base "
        "differs from a re-scan of exhaustive:4\n"
    )
    assert not (tmp_path / "r.md").exists()


# sha256 of the diff-paper report of honest surveys, recorded before the
# report re-checked the document's signs against its convention's re-scan
HONEST_REPORTS = {
    ("exhaustive:3", "A"): "3eccb5815d5bfbf91788678e10f8091e1443182bff1464e905ce8ca140812f5d",
    ("exhaustive:4", "A"): "fcbfbaf1ce999cea3725b90d70643ce8e17d42e286b1ba71ba1cdb52a8698c2b",
    ("exhaustive:4", "args=inverse;result=direct;trans=para"):
        "c503a2062a73cf9bfc0d3d8d17b8d2e237e22166bcb5629e619ec2f21a2be5dd",
    ("random:7:seed=3:count=20", "A"):
        "434dcce9ea07ff4c4b9d0dff6fe2bd4c244b3004e16bbbe88f61c56d583be97f",
}


@pytest.mark.parametrize("corpus, convention", sorted(HONEST_REPORTS))
def test_diff_paper_reports_of_honest_surveys_are_unchanged(tmp_path, corpus, convention):
    survey, report = tmp_path / "survey.json", tmp_path / "r.md"
    argv = ["survey", "--corpus", corpus, "--convention", convention, "--out", str(survey)]
    assert run(argv) == 0
    assert run(["diff-paper", str(survey), "--out", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == HONEST_REPORTS[corpus, convention]
