"""Golden report digests: the byte-identity contract, pinned.

Each case runs the CLI in-process at a fixed ``(seed, scale)`` point and
compares the sha256 of its stdout report with a committed digest. The
pins were computed once and must never be regenerated to make a change
pass: a refactor of the measurement pipelines is correct only if every
report stays byte-identical. Network-weather chaos converges to the
clean run's report, and a fleet whose workers are SIGKILLed and resumed
merges to it too, so several cases share one digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.__main__ import main

SCALE = ["--domains", "40", "--tlds", "10", "--resolvers", "8", "--seed", "7"]

STUDY_DIGEST = "7df77a759673dd27ba8be4a1351c5482668410e119fc464be3f4c40f83f9c35f"

GOLDEN = {
    "study-clean-c1": (["study", "--concurrency", "1"], STUDY_DIGEST),
    "study-chaos-c32": (
        ["study", "--faults", "chaos", "--concurrency", "32"],
        STUDY_DIGEST,
    ),
    "scan-clean": (
        ["scan"],
        "8fb72ddb32518c999e1c56c6b57d8553247b6415e3bb23bdb657800bc7cc1179",
    ),
    "survey-chaos": (
        ["survey", "--faults", "chaos"],
        "5f32d6a1bdeb03062592a944cf67741bea172723a8787878a89a9c420b307859",
    ),
    "study-fleet-kill": (
        ["study", "--workers", "2", "--faults", "kill:1.0:1"],
        STUDY_DIGEST,
    ),
}


def _report_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden_digest(case, tmp_path):
    argv, expected = GOLDEN[case]
    argv = argv + SCALE
    if "--workers" in argv:
        argv += ["--state-dir", str(tmp_path / "state")]
    assert _report_digest(argv) == expected
