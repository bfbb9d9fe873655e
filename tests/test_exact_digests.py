"""Byte-level pins on the exact backend's certificates.

The digests below were recorded before the Prüfer arithmetic moved from
`Fraction` round trips to integer pairs k/q^n; any change to a verdict,
a witness or a check's detail string changes them.  They were re-pinned
once on purpose, when the direct case's `h_linearity_sample` row became
`h_central_scalar`; each comment gives the digest from before that rename.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modcheck
from modcheck.cli import main
from modcheck.exact import case_runners, fiep_failure_report
from modcheck.verify import VerifyConfig, _digest as witness_digest, verify_claims

# per (p, q): x in Z_(p) ∩ Z_(q) (direct case), then x with v_q(x) < 0
# (partial case plus the graph decomposition)
CASE_XS = {
    (2, 3): ("1", "0", "3/5", "7/5", "-9/7", "4/3", "10/9", "8/3", "-5/27"),
    (3, 2): ("1", "2/5", "-6/7", "3/2", "9/4", "-5/8", "7/16"),
    (2, 5): ("1", "3/7", "10/3", "4/5", "3/25", "-6/5", "8/125"),
    (5, 3): ("1", "5/7", "-3/2", "5/3", "2/9", "25/27", "-7/3"),
}

# sha256 of json.dumps(docs, sort_keys=True), docs = the case reports of
# CASE_XS[(p, q)] in order, then fiep_failure_report(p, q)
CASE_DIGESTS = {
    # was e6ba423ef84a025a005633ccdf8be7160861b1fd13be79bf66b4d593217058e9
    (2, 3): "9d7313955ee849a64005511485e76d92a3785c0c35030bb4dc4206520769583a",
    # was a1c387f9dbb3202f99028eb48597dc8a4abf46591089c5d381112f5421608a3f
    (3, 2): "f7b477edafb0a16e18b5afef99b4fa03bd982f0470b7a6f991fb608c82640cd2",
    # was dc8e3d88c22b32982bcdd7d3f200d9ef8b29caa52b86d6bdf57e9ca8acae386b
    (2, 5): "fb3cb55d5f098cf588a12a7e0eb09d258b0ec96f18f6f248b772c43d049897c2",
    # was 851ae3b6dfda63bbeb3e0d36b2e082d5a8eb98d75ad8e2a1810716770afa90a6
    (5, 3): "5c04232cf93a31aa047c645079c40f1e6188e7c31fa8d89b9af40a03e568c4d7",
}

# sha256 of the stdout of `modcheck exact` (defaults: p = 2, q = 3)
# was ee418f46f3f97e51b2de2e37ebcf02ed9adbba3d98f6c65e3d9d019c4917bfd5
EXACT_CLI_DIGEST = "71f76f1dbac0a9bcc3a585b29c448951912cca8ed913e848031278f5768ab074"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _case_docs(p, q):
    docs = []
    for raw in CASE_XS[(p, q)]:
        x = Fraction(raw)
        docs += [runner(x, p, q).to_json() for _, runner in case_runners(x, q)]
    docs.append(fiep_failure_report(p, q).to_json())
    return docs


@pytest.mark.parametrize("pq", sorted(CASE_XS), ids=lambda pq: f"p={pq[0]},q={pq[1]}")
def test_case_report_digests(pq):
    docs = _case_docs(*pq)
    assert all(d["verdict"] is True for d in docs[:-1])
    assert _digest(json.dumps(docs, sort_keys=True)) == CASE_DIGESTS[pq]


def test_exact_cli_digest(capsys):
    assert main(["exact"]) == 0
    assert _digest(capsys.readouterr().out) == EXACT_CLI_DIGEST


def test_exact_cli_digest_under_optimize():
    # python -O strips assert statements; the certificates must not depend on them.
    src = str(Path(modcheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-m", "modcheck", "exact"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert _digest(run.stdout) == EXACT_CLI_DIGEST


@pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (5, 3)])
def test_exact_and_verify_certify_each_case_alike(capsys, p, q):
    # one driver: every case certificate that `modcheck exact` prints is the
    # witness that verify digests under the same {case}/x={x} check id
    assert main(["exact", "--p", str(p), "--q", str(q)]) == 0
    printed = {
        f"{c['case']}/x={c['x']}": witness_digest(c)
        for c in json.loads(capsys.readouterr().out)["certificates"]
        if c.get("case") in ("direct", "partial", "graph")
    }
    manifest = verify_claims(VerifyConfig(p=p, q=q, only=("localization-counterexample",)))
    checked = {
        c.check_id.removeprefix("localization-counterexample/"): c.witness_digest
        for c in manifest.checks
        if "/x=" in c.check_id
    }
    assert len(printed) == 9 and printed == checked
