"""Byte-for-byte CLI regression: stdout and exit code of every case in
tests/golden/cli.json (analyze and calc on the corpus, toeplitz units,
probe, aut and involution over Q, GF(2), GF(5), GF(2^4), GF(2^8)).
Regenerate with `PYTHONPATH=src python tests/golden/regen.py` only when an
output change is intended."""

import json
import os

import pytest

from .golden.regen import GOLDEN, run_case

with open(os.path.join(GOLDEN, "cli.json")) as fh:
    CASES = json.load(fh)


def test_golden_covers_every_command():
    heads = {tuple(c["argv"][:2]) if c["argv"][0] == "toeplitz" else c["argv"][0]
             for c in CASES}
    assert heads >= {"analyze", "calc", ("toeplitz", "units"), ("toeplitz", "probe"),
                     ("toeplitz", "aut"), ("toeplitz", "involution")}
    assert {c["exit"] for c in CASES} >= {0, 2, 3, 4, 5}


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]).replace("{tests}/", ""))
def test_cli_output_matches_golden(case):
    assert run_case(case["argv"]) == (case["exit"], case["stdout"])
