"""Output bytes pinned against recorded digests.

The survey documents and the compiled probe of every (case, convention)
pair are fixed: a refactor of the role algebra, the probe compiler or the
derivative construction must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qderiv.corpus import CorpusDescriptor
from qderiv.derivative import all_conventions
from qderiv.reportio import survey_to_json
from qderiv.survey import all_cases, case_probe, run_survey_multi

# sha256 of survey_to_json per corpus, in all_conventions() order.
SURVEY_DIGESTS = {
    "exhaustive:3": (
        "3124b30bde1ba64851c9fe8d2732badee0e37c532bbaf8a3a8f5aea2736cdf3a",
        "00ccf2d6eda54a3bd9ff07c1880ba73488e7a0a0ad20e159dab3191173ffb188",
        "373bc5b90adb6484c40e4e5d854e010753fbbeeee36ee3ed340c3522976b38fa",
        "4aafd94dbb1848debbf83592a1578f54da391139862d0a650a3b16b0d869bf35",
        "59dc2c46711470d5fba6ff820b614f4516f73feb19fdaf20a877818d4504fe93",
        "63ca502ac90afaea446584c213321087d44c6303aa40376b4023c0c545ca8fac",
        "6fed493563fef859f56f028ffc20ca4d9c167efa5251199339d19b2ac2327ef5",
        "d1ece1458dae96abc27add6fd7d5f4f83f250ef8c135ebe4d6a2a591b615f204",
    ),
    "exhaustive:4": (
        "2e58c32165438fec287c814e26d3266120b6e870204b04d8159771a2d6a91ef9",
        "ff8ddb832c88616b3e1dc34e530414bef0993176fd0dbf38b6144a6d1c001d57",
        "e4e3245a9adbe794c7b3a5578125ec6e3f34c2adc83a1e3bfa9ee790dd19d11b",
        "77890efe2a881181ea1073625562a7c24396165fdcf716712e5c4cba17e85925",
        "236832b2d084caa571b43915170f1dd459a7c15596f8f00b0d1655d5820a5cc6",
        "afa34614c58c814d97cd8da9d6de54c57ca53e1ac2da6686d19fd2ab047b7dbc",
        "0afaa356532922fc6e3d0c4d96f68b34721dc954dfcf04797d6aaf6d8a06bda0",
        "fe39a2d449ba89d2344042e5a3500f6020d4f939bb8a4ac0cf635cca6a237a72",
    ),
    # the headline survey; the first is benchmarks/expected/survey_x5.json's
    "exhaustive:5": (
        "a87ecd79cda14c2b239d86ef408fde24873464075a39df96d160f56869b673e1",
        "9678fdca665c1ea84b3b1b548a9eb35f296d4617a3f96c9402322f188c8166a6",
        "d97e25379e0acd9f3e7408f7f6296f6aeb8852647f776dad9f05cfe4120d7367",
        "1215585111a0f520bb028615f328aaa10f593ffc740a25459f928b3aa4316424",
        "c8548c7a624a422934ea9482160fc21640de9f8a952416e35a69d9bef943f810",
        "4c58b5b806556d07ee3ee6d334217c52eba8b1e425a17966d6b48b7bb0f43ebb",
        "0c5e818c5c8d73944881d72c441624209b5df9236356b33bc7fbabb27b4516e6",
        "87076c129fb0608bfc4aa60a3a472327e385f2cb27478e1361c9c73978df37a0",
    ),
    "random:7:seed=3:count=20": (
        "43f049ec2f658575076d7d1bfc32fa80c1526082358326640a5e4210d96706cb",
        "bf3d5a4879fc25ace0bb038623dd6cb9a0cd97ff0380b0737d87e636343fac6d",
        "895f062b8509a4180fd56f55d3af326b6246be3ac5715edf77385d66547d6472",
        "1f30c5de77e44a8de957e91be772c8aa2f209731bf7e8ec89476ed75201b0f39",
        "47d80e028fc76e2ec1f7e77695b00dc97ab2952b3479d9d41daa2e6197bbafe5",
        "12df8e9ac081af10237eab123424610681d7daab5a0336719b07361fde4cd4bd",
        "c41cf32e6b19c0d3c72a1f61ec06632fae1ef2eef261d2694665dfca0c756a36",
        "be5e851146a1f8de399aacfaa3f1ddc1911270f149cb59b3483a67b05830464a",
    ),
}

# sha256 over "<convention> <case> <i> <j> <family>\n" for all 1944 x 8 pairs.
PROBE_TABLE_DIGEST = "06b4e989b3ffd116a488b99dcfb8dad9f0d00afb3565f714746fd69f6ecb0688"


@pytest.mark.parametrize("token", sorted(SURVEY_DIGESTS))
def test_survey_documents_are_byte_identical(token):
    convs = all_conventions()
    results = run_survey_multi(CorpusDescriptor.parse(token), convs)
    digests = tuple(
        hashlib.sha256(survey_to_json(results[conv]).encode()).hexdigest()
        for conv in convs
    )
    assert digests == SURVEY_DIGESTS[token]


def test_compiled_probe_table_is_unchanged():
    h = hashlib.sha256()
    for conv in all_conventions():
        for case in all_cases():
            i, j, fam = case_probe(case, conv)
            h.update(f"{conv.token} {case.token} {i} {j} {fam}\n".encode())
    assert h.hexdigest() == PROBE_TABLE_DIGEST


def test_survey_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # enums hash by identity and strings by a per-process seed, so no output
    # may depend on a hash order
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for seed in ("0", "1"):
        out = tmp_path / f"survey-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        env.pop("QD_MAX_ORDER", None)
        argv = ["survey", "--corpus", "exhaustive:4", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "qderiv.cli", *argv], env=env, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [SURVEY_DIGESTS["exhaustive:4"][0]] * 2
