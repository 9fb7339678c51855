"""Record the expected outputs the benchmark checks against.

    python3 benchmarks/record_expected.py

Run only at a commit whose outputs are trusted: the files pin today's
outputs, so a later change that alters any of them counts as failed
operations until it is explained and the files are recorded again.

* ``survey_x5.json``: sha256 of the ``survey --corpus exhaustive:5`` JSON
  under convention A.
* ``signs.json``: the 1944 signs per convention over exhaustive:4, in
  canonical case order.  Every refutable probe dies by order 4, so these are
  also the signs over exhaustive:5 (checked here for convention A) and over
  any random:16 corpus of 300 squares.
* ``agreements.json``: (agree, disagree, reference-unknown) counts per
  convention against the bundled reference table, from those signs.
"""

from __future__ import annotations

import hashlib
import json
import sys

import env


def main() -> int:
    env.use_source_tree()
    from qderiv import reportio, survey
    from qderiv.corpus import CorpusDescriptor
    from qderiv.derivative import CONVENTION_A, all_conventions

    from workloads import EXPECTED, signs_of

    x5 = survey.run_survey(CorpusDescriptor("exhaustive", 5), CONVENTION_A)
    text = reportio.survey_to_json(x5)
    x4 = survey.run_survey_multi(CorpusDescriptor("exhaustive", 4), list(all_conventions()))
    signs = {conv.token: signs_of(result) for conv, result in x4.items()}
    if signs_of(x5) != signs[CONVENTION_A.token]:
        print("error: exhaustive:5 and exhaustive:4 signs differ", file=sys.stderr)
        return 1
    paper = survey.embedded_paper_table()
    counts = {
        conv.token: list(survey.agreement_counts(survey.compute_table(result), paper))
        for conv, result in x4.items()
    }
    docs = {
        "survey_x5": {
            "corpus": "exhaustive:5",
            "convention": CONVENTION_A.token,
            "bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
        "signs": {"corpus": "exhaustive:4", "signs": signs},
        "agreements": {"reference": "qderiv/data/paper_table.txt", "counts": counts},
    }
    EXPECTED.mkdir(exist_ok=True)
    for name, doc in docs.items():
        (EXPECTED / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
