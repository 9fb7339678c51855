#!/usr/bin/env python3
"""One-line semantic mutants of qderiv, each run against the tier-1 suite.

    python tools/mutants.py

Each mutant is a (file, old text, new text) triple at a place where the
semantics live.  For each, ``src/``, ``tests/`` and ``pyproject.toml`` are
copied to a temporary directory, the old text is replaced there, and
``python -m pytest -x -q -p no:cacheprovider`` runs on the copy, two
mutants at a time.  A mutant is killed when the suite fails.  The script
exits 1 if a mutant survives, if its old text does not occur exactly once,
or if pytest ends other than by failing tests, so a refactor must update
the list rather than lose a mutant.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
TIMEOUT_S = 1800

# (name, file under src/qderiv, old text, new text)
MUTANTS = [
    (
        "_ROLE_MAP: 13 takes the role map of 132",
        "parastrophe.py",
        "ParastropheSym.S13: (2, 0, 1),",
        "ParastropheSym.S13: (1, 2, 0),",
    ),
    (
        "relabel: transfer when trans=base",
        "derivative.py",
        'if self.translation_source == "parastrophe":\n            alpha, beta, gamma',
        'if self.translation_source == "base":\n            alpha, beta, gamma',
    ),
    (
        "relabel: arguments inverted when acted on like A",
        "derivative.py",
        "if self.arg_action != CONVENTION_A.arg_action:",
        "if self.arg_action == CONVENTION_A.arg_action:",
    ),
    (
        "relabel: result inverted when acted on like A",
        "derivative.py",
        "if self.result_action != CONVENTION_A.result_action:",
        "if self.result_action == CONVENTION_A.result_action:",
    ),
    (
        "case_probe: left-unit probe reads the mate's beta and gamma slots swapped",
        "survey.py",
        "sigma, b, g = _LEFT_MATE[case.unit, spec.sigma]",
        "sigma, g, b = _LEFT_MATE[case.unit, spec.sigma]",
    ),
    (
        "act_roles: triple slots permuted by pi_tau instead of its inverse",
        "parastrophe.py",
        "return moved, tuple(pt.index(i) for i in range(3))",
        "return moved, tuple(pt)",
    ),
    (
        "tautology_proof: (generator, E) is not proved, only (E, generator)",
        "survey.py",
        "if {i, j} == {0, _GENERATOR_INDEX[fam]}:",
        "if (i, j) == (0, _GENERATOR_INDEX[fam]):",
    ),
    (
        "derivative maps check skips gamma",
        "survey.py",
        "return all(len(m) == n and set(m) == elements for m in maps)",
        "return all(len(m) == n and set(m) == elements for m in maps[:2])",
    ),
    (
        "derivative_maps: arguments inverted under args=direct",
        "derivative.py",
        'if conv.arg_action == "inverse":',
        'if conv.arg_action == "direct":',
    ),
    (
        "probe_scan: one pull, however many probes it leaves alive",
        "survey.py",
        "    while live:",
        "    if live:",
    ),
    (
        "survey_from_json: a case listed twice is not caught",
        "reportio.py",
        "if case in statuses:",
        "if case in ():",
    ),
    (
        "_unit_cell: left unit read at the right unit's cell",
        "survey.py",
        "return (u, x), x",
        "return (x, u), x",
    ),
    (
        "_refutation: the product reads alpha and beta swapped",
        "survey.py",
        "if gamma[bt[alpha[l]][beta[r]]] != w:",
        "if gamma[bt[beta[l]][alpha[r]]] != w:",
    ),
    (
        "verify_certificate: the square cache ignores sigma",
        "survey.py",
        "key = (rows, sigma, frozenset(",
        "key = (rows, frozenset(",
    ),
    (
        "verify_certificate: any witness suffices",
        "survey.py",
        "return all(value != want for value, (_, want) in zip(products, cells))",
        "return any(value != want for value, (_, want) in zip(products, cells))",
    ),
    (
        "diff-paper: a certificate is tied to its kill by its square alone, not its a",
        "cli.py",
        "if cert is not None and (cert.rows, cert.a) != (kill[3], kill[2]):",
        "if cert is not None and cert.rows != kill[3]:",
    ),
    (
        "convention_agreements: the document's signs are read as A's, without pi_C inverted",
        "survey.py",
        "a_signs = dict(zip(_relabeled_cells(conv), signs))",
        "a_signs = dict(zip(_relabeled_cells(CONVENTION_A), signs))",
    ),
]


def _run(mutant: tuple[str, str, str, str]) -> str:
    """'killed', 'SURVIVED', or what else went wrong."""
    _, name, old, new = mutant
    text = (ROOT / "src" / "qderiv" / name).read_text()
    if text.count(old) != 1:
        return f"ERROR: old text occurs {text.count(old)} times in {name}"
    with tempfile.TemporaryDirectory(prefix="qderiv-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "src" / "qderiv" / name).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(
                cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"ERROR: the suite ran past {TIMEOUT_S} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        outcomes = list(pool.map(_run, MUTANTS))
    for (label, name, _, _), outcome in zip(MUTANTS, outcomes):
        print(f"{outcome:8} {name}: {label}")
    failed = sum(outcome != "killed" for outcome in outcomes)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
