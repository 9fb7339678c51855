from __future__ import annotations

import hashlib
import json

import pytest

from conftest import THEOREM_CLAIMS, Z3_ROWS, unit_equation_holds
from test_survey_io import repeated_entry_document
from qderiv import cli
from qderiv import survey as survey_mod
from qderiv.cli import run
from qderiv.corpus import CorpusDescriptor, iter_corpus
from qderiv.derivative import CONVENTION_A, all_conventions, apply_derivative
from qderiv.qcore import from_table
from qderiv.reportio import (
    certificate_from_doc,
    diff_report_markdown,
    parse_cayley,
    parse_spec,
    survey_from_json,
    survey_to_json,
)
from qderiv.units import UnitKind, find_unit

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


@pytest.mark.parametrize("skip_scan", [False, True])
def test_diff_paper_rejects_a_case_listed_twice(tmp_path, capsys, skip_scan):
    text, token = repeated_entry_document()
    path = tmp_path / "survey.json"
    path.write_text(text)
    argv = ["diff-paper", str(path)] + ["--skip-convention-scan"] * skip_scan
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: survey case {token}: repeated entry\n"
    assert captured.out == ""


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
    raise AssertionError("the scan ran before the certificates were checked")


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
    # the first one printed is e:L,L,E/f's, of order 4.  In both modes the
    # certificates are checked before the one scan.
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
    monkeypatch.setattr(cli, "probe_scan", _scan_must_not_run)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: certificate for e:L,L,E/f under "
        "args=direct;result=inverse;trans=base does not refute\n"
    )


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
def test_diff_paper_rejects_an_unprinted_certificate_that_does_not_refute(
    tmp_path, capsys, skip_scan
):
    # e:L,L,E/e is a minus that agrees with the reference, so its certificate
    # is not printed; filed with e:L,L,E/f's certificate it still must refute
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    entries = {(e["spec"], e["unit"]): e for e in doc["cases"]}
    forged = entries["e:L,L,E", "e"]
    assert forged["status"] == "counterexample"
    forged["certificate"] = dict(entries["e:L,L,E", "f"]["certificate"], unit="e")
    path.write_text(json.dumps(doc))
    argv = ["diff-paper", str(path), "--out", str(tmp_path / "r.md")]
    if skip_scan:
        argv.append("--skip-convention-scan")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: certificate for e:L,L,E/e under "
        "args=direct;result=inverse;trans=base does not refute\n"
    )
    assert not (tmp_path / "r.md").exists()


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


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
def test_diff_paper_names_the_first_of_fifty_forged_pluses(tmp_path, capsys, skip_scan):
    # 50 counterexamples, spread over the document, rewritten as plus; with
    # --skip-convention-scan each plus is checked by its probe instead
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    minus = [e for e in doc["cases"] if e["status"] == "counterexample"]
    for entry in minus[7::30][:50]:
        del entry["certificate"]
        entry.update(status="no_counterexample", max_order_checked=4, corpus="exhaustive:4")
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    first = minus[7]
    argv = ["diff-paper", str(path), "--out", str(tmp_path / "r.md")]
    if skip_scan:
        argv.append("--skip-convention-scan")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: survey sign for {first['spec']}/{first['unit']} under "
        "args=direct;result=inverse;trans=base differs from a re-scan of exhaustive:4\n"
    )
    assert not (tmp_path / "r.md").exists()


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
def test_diff_paper_rejects_a_forged_minus_on_a_proved_case(tmp_path, capsys, skip_scan):
    # 23:L,L,E/f is proved (L_a is row a) and the reference says minus, so a
    # minus filed there agrees with the reference and its certificate, taken
    # from another case, is never printed or checked
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    forged = next(e for e in doc["cases"] if (e["spec"], e["unit"]) == ("23:L,L,E", "f"))
    assert forged["status"] == "no_counterexample"
    other = next(e for e in doc["cases"] if e["status"] == "counterexample")
    cert = dict(other["certificate"], spec=forged["spec"], unit=forged["unit"])
    forged.clear()
    forged.update(spec=cert["spec"], unit=cert["unit"], status="counterexample", certificate=cert)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    argv = ["diff-paper", str(path), "--out", str(tmp_path / "r.md")]
    if skip_scan:
        argv.append("--skip-convention-scan")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: survey sign for 23:L,L,E/f under args=direct;result=inverse;trans=base "
        "differs from a re-scan of exhaustive:4\n"
    )
    assert not (tmp_path / "r.md").exists()


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
def test_diff_paper_runs_one_scan_in_each_mode(tmp_path, monkeypatch, skip_scan):
    # both modes tie every sign to its kill by one scan of the document's
    # corpus; the eight-convention table is read off the checked signs
    path, report = tmp_path / "survey.json", tmp_path / "r.md"
    conv = "args=inverse;result=direct;trans=base"
    assert run(["survey", "--corpus", "exhaustive:4", "--convention", conv, "--out", str(path)]) == 0
    scans = []
    real = survey_mod.probe_scan

    def counted(desc, probes):
        scans.append(desc.token)
        return real(desc, probes)

    monkeypatch.setattr(cli, "probe_scan", counted)
    monkeypatch.setattr(survey_mod, "probe_scan", counted)
    argv = ["diff-paper", str(path), "--out", str(report)]
    if skip_scan:
        argv.append("--skip-convention-scan")
    assert run(argv) == 0
    assert scans == ["exhaustive:4"]
    assert "- agreement: 1943/1944 agree, 0 disagree, 1 reference-unknown" in report.read_text()


def _forge_e_lle_f(path, cert: dict) -> None:
    """File cert as e:L,L,E/f's certificate in the survey at path."""
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["cases"] if (e["spec"], e["unit"]) == ("e:L,L,E", "f"))
    assert entry["status"] == "counterexample" and entry["certificate"] != cert
    assert survey_mod.verify_certificate(certificate_from_doc(cert))
    entry["certificate"] = cert
    path.write_text(json.dumps(doc))


def _e_lle_f_certificate(tmp_path, corpus: str) -> dict:
    """e:L,L,E/f's certificate in a survey of corpus under A."""
    path = tmp_path / "other.json"
    assert run(["survey", "--corpus", corpus, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    return next(
        e["certificate"] for e in doc["cases"] if (e["spec"], e["unit"]) == ("e:L,L,E", "f")
    )


def _certificate_at(cert: dict, a: int) -> dict:
    """cert moved to element a of its square, each candidate with its first failing x under A."""
    rows, unit = cert["table"], UnitKind(cert["unit"])
    derived = apply_derivative(from_table(rows), a, parse_spec(cert["spec"]), CONVENTION_A)
    n = len(rows)
    refutation = [
        [u, next(x for x in range(n) if not unit_equation_holds(derived.mul_table, unit, u, x))]
        for u in range(n)
    ]
    return dict(cert, a=a, refutation=refutation)


_OFF_KILL = (
    "error: certificate for e:L,L,E/f under args=direct;result=inverse;trans=base "
    "is not on its first counterexample in exhaustive:4\n"
)


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
def test_diff_paper_rejects_a_certificate_from_outside_the_corpus(tmp_path, capsys, skip_scan):
    # e:L,L,E/f's order-5 certificate refutes, but no square of exhaustive:4
    # is its square
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    cert = _e_lle_f_certificate(tmp_path, "random:5:seed=1:count=20")
    assert len(cert["table"]) == 5
    _forge_e_lle_f(path, cert)
    argv = ["diff-paper", str(path), "--out", str(tmp_path / "r.md")]
    if skip_scan:
        argv.append("--skip-convention-scan")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == _OFF_KILL
    assert not (tmp_path / "r.md").exists()


@pytest.mark.parametrize("skip_scan", [True, False], ids=["skip scan", "scan"])
@pytest.mark.parametrize("where", ["later square", "same square, later a"])
def test_diff_paper_rejects_a_certificate_past_the_first_counterexample(
    tmp_path, capsys, skip_scan, where
):
    # e:L,L,E/f is first killed on an order-4 square at a=1; it is refuted
    # again at a=2 of that square and on a later square a random:4 survey
    # finds first, and neither is the kill the document must file
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:4", "--out", str(path)]) == 0
    if where == "later square":
        cert = _e_lle_f_certificate(tmp_path, "random:4:seed=1:count=20")
    else:
        kill = _e_lle_f_certificate(tmp_path, "exhaustive:4")
        assert kill["a"] == 1
        cert = _certificate_at(kill, 2)
    _forge_e_lle_f(path, cert)
    argv = ["diff-paper", str(path), "--out", str(tmp_path / "r.md")]
    if skip_scan:
        argv.append("--skip-convention-scan")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == _OFF_KILL
    assert not (tmp_path / "r.md").exists()


def _convention_section(report: str) -> str:
    """The report's agreement-by-convention section, up to the blocks."""
    start = report.index("## Agreement by convention")
    return report[start:report.index("## Blocks", start)]


def test_diff_paper_reads_the_same_convention_table_off_every_convention(tmp_path):
    # the table depends only on the corpus: a document under C reads it
    # through pi_C back to A, so a read that skips pi_C's inverse differs
    # from A's under the conventions whose pi_C moves a sign
    paper = survey_mod.embedded_paper_table()
    desc = CorpusDescriptor.parse("exhaustive:4")
    results = survey_mod.run_survey_multi(desc, list(all_conventions()))
    a_result = results[CONVENTION_A]
    table = survey_mod.convention_agreement_table(desc, paper)
    want = _convention_section(
        diff_report_markdown(survey_mod.diff_against_paper(a_result, paper, table))
    )
    for conv, result in results.items():
        path, report = tmp_path / "survey.json", tmp_path / "r.md"
        path.write_text(survey_to_json(result))
        assert run(["diff-paper", str(path), "--out", str(report)]) == 0
        assert _convention_section(report.read_text()) == want, conv.token


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


# the same with --skip-convention-scan, recorded before both modes ran one check path
HONEST_SKIP_SCAN_REPORTS = {
    ("exhaustive:3", "A"): "2a051870595333b4637070bf250498df1099a234f2aab7473e7dc7bcec74fad1",
    ("exhaustive:4", "A"): "9956dc57f74dc493458f1f7d2ffe530ebac72e9bd319ddd99380d4069c02ae22",
    ("exhaustive:4", "args=inverse;result=direct;trans=para"):
        "225c3490083df8bd71729c45ccc96e99eb70878abe3fb8144e9a827662d7f525",
    ("random:7:seed=3:count=20", "A"):
        "9c9c7428864f4056c3967c0e19b60901285f48723b73d492028678795584de68",
}


@pytest.mark.parametrize("corpus, convention", sorted(HONEST_REPORTS))
def test_diff_paper_reports_of_honest_surveys_are_unchanged(tmp_path, corpus, convention):
    survey, report = tmp_path / "survey.json", tmp_path / "r.md"
    argv = ["survey", "--corpus", corpus, "--convention", convention, "--out", str(survey)]
    assert run(argv) == 0
    assert run(["diff-paper", str(survey), "--out", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == HONEST_REPORTS[corpus, convention]
    argv = ["diff-paper", str(survey), "--skip-convention-scan", "--out", str(report)]
    assert run(argv) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == HONEST_SKIP_SCAN_REPORTS[corpus, convention]


def test_diff_paper_skip_scan_refuses_a_survey_over_no_refuting_square(tmp_path, capsys):
    # every plus of a document over exhaustive:2 is a verdict over nothing
    path = tmp_path / "survey.json"
    assert run(["survey", "--corpus", "exhaustive:3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc.update(corpus="exhaustive:2", orders_scanned=[])
    doc["cases"] = [
        {"spec": e["spec"], "unit": e["unit"], "status": "no_counterexample",
         "max_order_checked": 2, "corpus": "exhaustive:2"}
        for e in doc["cases"]
    ]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["diff-paper", str(path), "--skip-convention-scan"]) == 1
    assert capsys.readouterr().err == (
        "error: corpus exhaustive:2 holds no squares of order 3 or more\n"
    )
