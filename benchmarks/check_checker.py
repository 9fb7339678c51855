"""Show that the benchmark counts a corrupted output as a failed operation.

    python3 benchmarks/check_checker.py

For each workload it runs one operation and checks its true output, which
must pass, then two corrupted copies, which must each fail: one with a sign
flipped (a refuted case reported as unrefuted) and one with a certificate
witness changed so that it no longer refutes.  Exits 1 if any verdict is
not the expected one.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import env


def main() -> int:
    env.use_source_tree()
    from qderiv import reportio, survey

    from workloads import WORKLOADS, load_expected

    def bad_witness(cert):
        """The certificate with one witness replaced by a non-refuting one."""
        n = cert.order
        for i, (u, x) in enumerate(cert.refutation):
            for y in range(n):
                pairs = list(cert.refutation)
                pairs[i] = (u, y)
                bad = dataclasses.replace(cert, refutation=tuple(pairs))
                if not survey.verify_certificate(bad):
                    return bad
        raise AssertionError("every witness refutes")

    def corrupt(result, how):
        """A survey result with its first certificate flipped to '+' or mutated."""
        statuses = dict(result.statuses)
        case, cert = next(
            (c, s) for c, s in statuses.items() if isinstance(s, survey.Certificate)
        )
        if how == "sign":
            statuses[case] = survey.NoCounterexample(result.corpus.order, result.corpus.token)
        else:
            statuses[case] = bad_witness(cert)
        return dataclasses.replace(result, statuses=statuses)

    expected = load_expected()
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(1, expected)
        request = workload.next_pass()[0]
        output = workload.run(request)
        if name == "certify-x4":
            while output[0] is None:
                request = workload.next_pass()[0]
                output = workload.run(request)
            cert, verified, _line = output
            bad = bad_witness(cert)
            corrupted = {
                "sign": (None, None, None),
                "witness": (bad, verified, json.dumps(reportio.certificate_to_doc(bad))),
            }
        elif name == "survey-x5":
            corrupted = {}
            for how in ("sign", "witness"):
                result = corrupt(output[0], how)
                corrupted[how] = (result, reportio.survey_to_json(result))
        else:
            result, parsed, markdown = output
            corrupted = {}
            for how in ("sign", "witness"):
                bad = corrupt(parsed, how)
                corrupted[how] = (dataclasses.replace(result, statuses=bad.statuses), bad, markdown)
        verdicts = {"true output": workload.check(request, output)}
        verdicts.update(
            (f"{how} corrupted", workload.check(request, out)) for how, out in corrupted.items()
        )
        for label, reason in verdicts.items():
            right = (reason is None) == (label == "true output")
            ok &= right
            print(f"{'ok ' if right else 'BAD'} {name} {label}: {reason or 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
